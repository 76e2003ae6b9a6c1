"""Structural validation of system definitions and configurations."""

from __future__ import annotations

import pytest

from psrelief.multiset import Multiset
from psrelief.psystem import (
    Configuration,
    DefinitionError,
    Polarization,
    PSystemDef,
    Rule,
    RuleKind,
)

from helpers import M, N, evolution, ms, send_in, single_membrane_example


def test_initial_configuration_is_neutral():
    d = single_membrane_example()
    cfg = Configuration.initial(d)
    assert all(p is Polarization.NEUTRAL for p in cfg.polarizations.values())
    assert cfg.step_index == 0 and not cfg.environment


def test_three_polarizations_exist():
    assert {p.value for p in Polarization} == {"0", "+", "-"}


def test_unknown_rule_membrane_rejected():
    d = PSystemDef(parent={"1": None}, initial={},
                   rules=[evolution("r", "ghost", ms(a=1), ms(b=1))])
    assert any("unknown membrane" in p for p in d.problems())


def test_skin_send_in_rejected():
    d = PSystemDef(parent={"1": None}, initial={},
                   rules=[send_in("r", "1", ms(a=1), ms(b=1))])
    assert any("skin" in p for p in d.problems())


def test_empty_lhs_rejected():
    d = PSystemDef(parent={"1": None}, initial={},
                   rules=[evolution("r", "1", Multiset(), ms(b=1))])
    assert any("empty left-hand side" in p for p in d.problems())


def test_evolution_cannot_change_polarization():
    rule = Rule(id="r", kind=RuleKind.EVOLUTION, membrane="1",
                lhs=ms(a=1), rhs=ms(b=1), alpha=N, beta=M)
    d = PSystemDef(parent={"1": None}, initial={}, rules=[rule])
    assert any("cannot change polarization" in p for p in d.problems())


def test_priority_cycle_detected():
    d = PSystemDef(
        parent={"1": None}, initial={},
        rules=[evolution("r1", "1", ms(a=1), ms(b=1)),
               evolution("r2", "1", ms(b=1), ms(a=1))],
        priorities=[("r1", "r2"), ("r2", "r1")],
    )
    assert any("cyclic" in p for p in d.problems())


def test_priority_cycle_message_walks_one_cycle():
    d = PSystemDef(
        parent={"1": None}, initial={},
        rules=[evolution(f"r{i}", "1", ms(a=1), ms(b=1)) for i in range(3)],
        priorities=[("r0", "r1"), ("r1", "r2"), ("r2", "r1")],
    )
    assert d.problems() == ["priority relation is cyclic: r1 > r2 > r1"]


def test_long_priority_cycle_named_without_recursion():
    n = 5000
    pairs = [(f"r{i}", f"r{(i + 1) % n}") for i in range(n)]
    d = PSystemDef(
        parent={"1": None}, initial={},
        rules=[evolution(f"r{i}", "1", ms(a=1), ms(b=1)) for i in range(n)],
        priorities=pairs,
    )
    (problem,) = d.problems()
    prefix = "priority relation is cyclic: "
    assert problem.startswith(prefix)
    names = problem[len(prefix):].split(" > ")
    assert len(names) == n + 1 and names[0] == names[-1]
    assert set(zip(names, names[1:])) == set(pairs)


def test_two_roots_rejected():
    d = PSystemDef(parent={"1": None, "2": None}, initial={}, rules=[])
    assert any("root" in p for p in d.problems())


def test_duplicate_rule_ids_rejected():
    d = PSystemDef(parent={"1": None}, initial={},
                   rules=[evolution("r", "1", ms(a=1), ms(b=1)),
                          evolution("r", "1", ms(b=1), ms(a=1))])
    assert any("duplicate" in p for p in d.problems())


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


def test_validate_raises_with_joined_problems():
    d = PSystemDef(parent={"1": None}, initial={},
                   rules=[send_in("r", "1", ms(a=1), ms(b=1))])
    with pytest.raises(DefinitionError):
        d.validate()
