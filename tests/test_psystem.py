"""Structural validation of system definitions and configurations."""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
from pathlib import Path

import pytest

from psrelief import dsl, engine, psystem
from psrelief.builder import BuildError, BuildParams, build
from psrelief.io import load_instance
from psrelief.multiset import EMPTY, Multiset
from psrelief.psystem import (
    Configuration,
    DefinitionError,
    Polarization,
    PSystemDef,
    Rule,
    RuleKind,
    problems,
)

from helpers import M, N, P, evolution, ms, send_in, send_out, single_membrane_example

DERIVED = Path(__file__).parent.parent / "instances" / "derived_1x1.json"
DEMO = Path(__file__).parent.parent / "instances" / "demo_2x2.json"


def test_initial_configuration_is_neutral():
    d = single_membrane_example()
    cfg = Configuration.initial(d)
    assert all(p is Polarization.NEUTRAL for p in cfg.polarizations.values())
    assert cfg.step_index == 0 and not cfg.environment


def test_three_polarizations_exist():
    assert {p.value for p in Polarization} == {"0", "+", "-"}


def test_unknown_rule_membrane_rejected():
    with pytest.raises(DefinitionError, match="unknown membrane"):
        PSystemDef(parent={"1": None}, initial={},
                   rules=[evolution("r", "ghost", ms(a=1), ms(b=1))])


def test_skin_send_in_rejected():
    with pytest.raises(DefinitionError, match="skin"):
        PSystemDef(parent={"1": None}, initial={},
                   rules=[send_in("r", "1", ms(a=1), ms(b=1))])


def test_empty_lhs_rejected():
    with pytest.raises(DefinitionError, match="empty left-hand side"):
        PSystemDef(parent={"1": None}, initial={},
                   rules=[evolution("r", "1", Multiset(), ms(b=1))])


def test_evolution_cannot_change_polarization():
    rule = Rule(id="r", kind=RuleKind.EVOLUTION, membrane="1",
                lhs=ms(a=1), rhs=ms(b=1), alpha=N, beta=M)
    with pytest.raises(DefinitionError, match="cannot change polarization"):
        PSystemDef(parent={"1": None}, initial={}, rules=[rule])


def test_priority_cycle_detected():
    with pytest.raises(DefinitionError, match="cyclic"):
        PSystemDef(
            parent={"1": None}, initial={},
            rules=[evolution("r1", "1", ms(a=1), ms(b=1)),
                   evolution("r2", "1", ms(b=1), ms(a=1))],
            priorities=[("r1", "r2"), ("r2", "r1")],
        )


def test_priority_cycle_message_walks_one_cycle():
    with pytest.raises(DefinitionError) as exc:
        PSystemDef(
            parent={"1": None}, initial={},
            rules=[evolution(f"r{i}", "1", ms(a=1), ms(b=1)) for i in range(3)],
            priorities=[("r0", "r1"), ("r1", "r2"), ("r2", "r1")],
        )
    assert str(exc.value) == "priority relation is cyclic: r1 > r2 > r1"


def test_long_priority_cycle_named_without_recursion():
    n = 5000
    pairs = [(f"r{i}", f"r{(i + 1) % n}") for i in range(n)]
    with pytest.raises(DefinitionError) as exc:
        PSystemDef(
            parent={"1": None}, initial={},
            rules=[evolution(f"r{i}", "1", ms(a=1), ms(b=1)) for i in range(n)],
            priorities=pairs,
        )
    (problem,) = str(exc.value).split("; ")
    prefix = "priority relation is cyclic: "
    assert problem.startswith(prefix)
    names = problem[len(prefix):].split(" > ")
    assert len(names) == n + 1 and names[0] == names[-1]
    assert set(zip(names, names[1:])) == set(pairs)


def test_two_roots_rejected():
    with pytest.raises(DefinitionError, match="root"):
        PSystemDef(parent={"1": None, "2": None}, initial={}, rules=[])


def test_duplicate_rule_ids_rejected():
    with pytest.raises(DefinitionError, match="duplicate"):
        PSystemDef(parent={"1": None}, initial={},
                   rules=[evolution("r", "1", ms(a=1), ms(b=1)),
                          evolution("r", "1", ms(b=1), ms(a=1))])


def test_configuration_digest_tracks_state():
    d = single_membrane_example()
    a = Configuration.initial(d)
    b = Configuration.initial(d)
    assert a.digest() == b.digest()
    grown = dict(b.contents["1"].counts())
    grown["a"] = grown.get("a", 0) + 1
    b.contents["1"] = Multiset(grown)
    assert a.digest() != b.digest()
    c = Configuration.initial(d)
    c.polarizations["1"] = Polarization.POSITIVE
    assert a.digest() != c.digest()


def test_constructor_raises_with_joined_problems():
    parts = dict(parent={"1": None, "2": None}, initial={"3": ms(a=1)},
                 rules=[send_in("r", "1", ms(a=1), ms(b=1))], priorities=[("r", "q")], output="4")
    want = [
        "expected exactly one root membrane, found 2",
        "output region '4' is not a membrane label",
        "initial contents given for unknown membrane '3'",
        "priority pair references unknown rule 'q'",
    ]
    assert problems(**parts) == want
    with pytest.raises(DefinitionError) as exc:
        PSystemDef(**parts)
    assert str(exc.value) == "; ".join(want)


def test_problems_name_the_part_they_concern():
    parts = dict(parent={"1": None, "2": "9", "3": "3"}, initial={"4": ms(a=1)},
                 rules=[evolution("r", "1", ms(a=1), ms(b=1)), send_in("q", "1", ms(a=1), ms(b=1))],
                 priorities=[("r", "x"), ("q", "q"), ("r", "q"), ("q", "r")], output="5")
    want = [
        ("membrane '2' has unknown parent '9'", "parent", "2"),
        ("membrane tree has a cycle through '3'", "tree", None),
        ("output region '5' is not a membrane label", "output", None),
        ("initial contents given for unknown membrane '4'", "init", "4"),
        ("send-in rule 'q' targets the skin membrane", "rule", 1),
        ("priority pair references unknown rule 'x'", "priority", 0),
        ("priority pair relates rule 'q' to itself", "priority", 1),
        ("priority relation is cyclic: q > r > q", "priorities", None),
    ]
    assert [(p, p.part, p.key) for p in problems(**parts)] == want
    with pytest.raises(DefinitionError) as exc:
        PSystemDef(**parts)
    assert [(p, p.part, p.key) for p in exc.value.problems] == want
    assert str(exc.value) == "; ".join(msg for msg, _, _ in want)
    back = pickle.loads(pickle.dumps(exc.value))
    assert str(back) == str(exc.value)
    assert [(p, p.part, p.key) for p in back.problems] == want


@pytest.mark.parametrize("parent, rule", [
    # a root: its rule fired twice a step and the run never halted
    ({"environment": None}, evolution("r", "environment", ms(a=1), ms(b=1))),
    # a child: its send-out wrote into the region it consumed from
    ({"s": None, "environment": "s"}, send_out("r", "environment", ms(a=1), ms(c=1))),
])
def test_environment_label_is_reserved(parent, rule):
    with pytest.raises(DefinitionError) as exc:
        PSystemDef(parent=parent, initial={"environment": ms(a=2)}, rules=[rule])
    assert str(exc.value) == "membrane label 'environment' is reserved for the environment"
    assert [(p.part, p.key) for p in exc.value.problems] == [("membrane", "environment")]


def test_definition_is_frozen():
    d = single_membrane_example()
    assert isinstance(d.rules, tuple) and isinstance(d.priorities, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.output = "1"
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.rules = ()
    with pytest.raises(TypeError):
        d.parent["2"] = "1"
    with pytest.raises(TypeError):
        d.initial["1"] = ms(a=1)


RULE_FIELDS = ("id", "kind", "membrane", "lhs", "rhs", "alpha", "beta", "rhs_aux", "changes_polarization")


@pytest.mark.parametrize("name", RULE_FIELDS + ("undeclared",))
def test_rule_attributes_cannot_be_set_or_deleted(name):
    rule = send_out("r", "2", ms(a=1), ms(b=1), alpha=N, beta=P, aux=ms(c=1))
    with pytest.raises(AttributeError):
        setattr(rule, name, getattr(rule, name, None))
    with pytest.raises(AttributeError):
        delattr(rule, name)
    assert not hasattr(rule, "__dict__")
    assert rule == send_out("r", "2", ms(a=1), ms(b=1), alpha=N, beta=P, aux=ms(c=1))


@pytest.mark.parametrize("kind", list(RuleKind))
def test_beta_defaults_to_alpha(kind):
    for alpha in Polarization:
        rule = Rule(id="r", kind=kind, membrane="2", lhs=ms(a=1), rhs=ms(b=1), alpha=alpha)
        assert rule.beta is alpha and not rule.changes_polarization


@pytest.mark.parametrize("kind", list(RuleKind))
def test_changes_polarization_of_every_kind(kind):
    # evolution rules never change a polarization; communication rules do
    # exactly when beta differs from alpha
    for alpha in Polarization:
        for beta in Polarization:
            rule = Rule(id="r", kind=kind, membrane="2", lhs=ms(a=1), rhs=ms(b=1), alpha=alpha, beta=beta)
            assert rule.changes_polarization is (kind is not RuleKind.EVOLUTION and beta != alpha)


def test_rule_copies_go_through_the_constructor():
    rule = evolution("r", "2", ms(a=1), ms(b=1))
    moved = rule._replace(kind=RuleKind.SEND_OUT, beta=P)
    assert type(moved) is Rule and moved.changes_polarization
    for original in (rule, moved):
        for copied in (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
            assert type(copied) is Rule and copied == original
            assert copied.changes_polarization is original.changes_polarization


def test_builder_rules_equal_their_parsed_copies():
    built = build(BuildParams(instance=load_instance(DERIVED), p=1)).definition
    parsed = dsl.parse(dsl.serialize(built)).definition
    assert len(parsed.rules) == len(built.rules)
    for a, b in zip(built.rules, parsed.rules):
        assert a is not b and a == b and hash(a) == hash(b)


def test_rules_without_products_share_the_empty_multiset():
    assert EMPTY == Multiset() and not EMPTY
    assert evolution("r", "1", ms(a=1), ms(b=1)).rhs_aux is EMPTY
    built = build(BuildParams(instance=load_instance(DERIVED), p=1)).definition
    parsed = dsl.parse(dsl.serialize(built)).definition
    for d in (built, parsed):
        evolutions = [r for r in d.rules if r.kind is RuleKind.EVOLUTION]
        assert evolutions and all(r.rhs_aux is EMPTY for r in evolutions)
        deletions = [r for r in d.rules if not r.rhs]
        assert deletions and all(r.rhs is EMPTY for r in deletions)


def test_definition_keeps_its_own_parts():
    parent, initial = {"1": None}, {"1": ms(a=1)}
    rules = [evolution("r1", "1", ms(a=1), ms(b=1))]
    d = PSystemDef(parent=parent, initial=initial, rules=rules)
    parent["2"] = "1"
    initial["1"] = ms(x=1)
    rules.append(evolution("r2", "1", ms(b=1), ms(a=1)))
    assert dict(d.parent) == {"1": None}
    assert dict(d.initial) == {"1": ms(a=1)}
    assert [r.id for r in d.rules] == ["r1"]


@pytest.fixture
def problems_calls(monkeypatch):
    """Number of calls of ``psystem.problems`` so far."""
    calls = []
    real = psystem.problems
    monkeypatch.setattr(psystem, "problems", lambda *parts: calls.append(1) or real(*parts))
    return calls


def test_definitions_are_checked_when_made_and_never_again(problems_calls):
    gen = build(BuildParams(instance=load_instance(DERIVED), p=1))
    assert len(problems_calls) == 1
    text = dsl.serialize(gen.definition)
    assert len(problems_calls) == 1
    d = dsl.parse(text).definition
    assert len(problems_calls) == 2
    cfg = Configuration.initial(d)
    plan = engine.select_firing(d, cfg)
    engine.apply_step(d, cfg, plan)
    next(engine.steps(d))
    engine.run(d, max_steps=3)
    dsl.serialize(d)
    assert len(problems_calls) == 2


# Building, parsing and compiling pause the cyclic collector.  That is only
# safe while they create no reference cycles, which the last test checks.


@pytest.fixture
def collector_switch():
    """Puts the collector's switch back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_front_end_leaves_the_collector_as_it_found_it(collector_switch, enabled):
    (gc.enable if enabled else gc.disable)()
    inst = load_instance(DEMO)
    gen = build(BuildParams(instance=inst, p=5))
    assert gc.isenabled() is enabled
    with pytest.raises(BuildError, match="invalid instance"):
        build(BuildParams(instance=dataclasses.replace(inst, s=[-1.0, 1.0]), p=5))
    assert gc.isenabled() is enabled
    d = dsl.parse(dsl.serialize(gen.definition)).definition
    assert gc.isenabled() is enabled
    engine._Compiled(d)
    assert gc.isenabled() is enabled
    next(engine.steps(d))
    assert gc.isenabled() is enabled


@pytest.fixture
def collections_started():
    """Every collection the cyclic collector starts, by generation."""
    started: list[int] = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    yield started
    gc.callbacks.remove(record)


def test_front_end_runs_no_collection(collections_started):
    params = BuildParams(instance=load_instance(DEMO), p=5)
    gc.collect()
    collections_started.clear()
    gen = build(params)
    in_build = len(collections_started)
    text = dsl.serialize(gen.definition)
    gc.collect()
    collections_started.clear()
    d = dsl.parse(text).definition
    in_parse = len(collections_started)
    gc.collect()
    collections_started.clear()
    engine._Compiled(d)
    in_compile = len(collections_started)
    assert (in_build, in_parse, in_compile) == (0, 0, 0)


def test_front_end_leaves_nothing_for_the_collector():
    gc.collect()
    gen = build(BuildParams(instance=load_instance(DEMO), p=5))
    d = dsl.parse(dsl.serialize(gen.definition)).definition
    next(engine.steps(d))
    assert gc.collect() == 0
