"""Format parsing, diagnostics, and canonical serialization."""

from __future__ import annotations

import dataclasses
import functools
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from psrelief import dsl, psystem
from psrelief.builder import BuildParams, build
from psrelief.engine import _Compiled, run
from psrelief.multiset import Multiset
from psrelief.psystem import DefinitionError, Polarization, PSystemDef, Rule, RuleKind, problems

from helpers import (
    _reference_order,
    katrina_shaped,
    ms,
    parts,
    random_small_system,
    reference_parse,
    single_membrane_example,
)

WORKED_EXAMPLE = """\
# single membrane, three rewrite rules, one priority
membrane 1
output environment
init 1: a^3 d
rule r1: [a^2 -> b]'0 @ 1
rule r2: [a -> c]'0 @ 1
rule r3: [d -> e]'0 @ 1
prio r1 > r2 @ 1
"""


def _ordered(multiset: Multiset) -> list[tuple[str, int]]:
    return list(multiset.counts().items())


def _shape(res: dsl.ParseResult) -> tuple:
    """Everything a parse result says, with every multiset in key order (the
    engine keys a rule on its first left-hand-side symbol)."""
    diags = [(d.severity, d.message, d.line, d.column) for d in res.diagnostics]
    d = res.definition
    if d is None:
        return None, diags
    rules = [(r.id, r.kind, r.membrane, _ordered(r.lhs), _ordered(r.rhs), _ordered(r.rhs_aux),
              r.alpha, r.beta) for r in d.rules]
    initial = [(lab, _ordered(m)) for lab, m in d.initial.items()]
    return list(d.parent.items()), initial, rules, d.priorities, d.output, diags


def assert_parses_like_reference(text: str) -> None:
    assert _shape(dsl.parse(text)) == _shape(reference_parse(text))


_LINE_RE = dsl._LINE_RE


class _Recording:
    """Stands in for ``dsl._LINE_RE`` and keeps every line it is asked to
    match: the lines that reach the token walk."""

    def __init__(self):
        self.lines: list[str] = []

    def match(self, raw: str):
        self.lines.append(raw)
        return _LINE_RE.match(raw)


def _parse_walked(text: str) -> tuple[dsl.ParseResult, list[str]]:
    """``dsl.parse(text)``, and the lines it read by the token walk."""
    recording = _Recording()
    with mock.patch.object(dsl, "_LINE_RE", recording):
        res = dsl.parse(text)
    return res, recording.lines


class TestParse:
    def test_worked_example_runs_to_expected_halt(self):
        res = dsl.parse(WORKED_EXAMPLE)
        assert res.ok, [str(d) for d in res.diagnostics]
        report = run(res.definition, max_steps=10)
        assert report.halted and report.steps == 1
        assert report.final.contents["1"] == ms(b=1, c=1, e=1)

    def test_empty_membrane_body(self):
        res = dsl.parse("membrane top\ninit top:\n")
        assert res.ok
        assert res.definition.initial["top"] == Multiset()

    def test_missing_init_means_empty(self):
        res = dsl.parse("membrane top\nmembrane inner in top\n")
        assert res.ok
        assert res.definition.initial_normalized()["inner"] == Multiset()

    def test_rule_kinds_and_polarizations(self):
        text = (
            "membrane s\n"
            "membrane c in s\n"
            "init c: u^2 v\n"
            "rule evo: [u -> w^3]'- @ c\n"
            "rule out: [v]'0 -> z [rem]'+ @ c\n"
            "rule into: z []'+ -> [v^5]'0 @ c\n"
        )
        res = dsl.parse(text)
        assert res.ok, [str(d) for d in res.diagnostics]
        evo, out, into = res.definition.rules
        assert evo.kind is RuleKind.EVOLUTION and evo.alpha is Polarization.NEGATIVE
        assert out.kind is RuleKind.SEND_OUT
        assert out.rhs == ms(z=1) and out.rhs_aux == ms(rem=1)
        assert out.beta is Polarization.POSITIVE
        assert into.kind is RuleKind.SEND_IN
        assert into.rhs == ms(v=5) and into.lhs == ms(z=1)

    def test_priority_cycle_names_rules(self):
        text = (
            "membrane 1\n"
            "rule r1: [a -> b]'0 @ 1\n"
            "rule r2: [b -> a]'0 @ 1\n"
            "prio r1 > r2\n"
            "prio r2 > r1\n"
        )
        res = dsl.parse(text)
        assert not res.ok
        assert [str(d) for d in res.diagnostics] == ["4:1: error: priority relation is cyclic: r1 > r2 > r1"]
        assert_parses_like_reference(text)

    def test_cycle_through_forward_and_backward_pairs(self):
        # r3 > r1 runs against declaration order; the cycle it closes is
        # one diagnostic at the first prio line
        text = (
            "membrane 1\n"
            "rule r1: [a -> b]'0 @ 1\n"
            "rule r2: [b -> c]'0 @ 1\n"
            "rule r3: [c -> a]'0 @ 1\n"
            "prio r1 > r2\n"
            "prio r2 > r3\n"
            "prio r3 > r1\n"
        )
        res = dsl.parse(text)
        assert [str(d) for d in res.diagnostics] == ["5:1: error: priority relation is cyclic: r3 > r1 > r2 > r3"]
        assert_parses_like_reference(text)

    def test_tree_cycles_are_reported_at_the_start(self):
        text = "membrane s\nmembrane a in b\nmembrane b in a\n"
        res = dsl.parse(text)
        assert [str(d) for d in res.diagnostics] == [
            "1:1: error: membrane tree has a cycle through 'a'",
            "1:1: error: membrane tree has a cycle through 'b'",
        ]
        assert_parses_like_reference(text)
        # both kinds of cycle, in the order of psystem.problems()
        text = ("membrane s\nmembrane acyclic in b\nmembrane b in acyclic\n"
                "rule r1: [a -> b]'0 @ s\nrule r2: [b -> a]'0 @ s\nprio r1 > r2\nprio r2 > r1\n")
        res = dsl.parse(text)
        assert [str(d) for d in res.diagnostics] == [
            "1:1: error: membrane tree has a cycle through 'acyclic'",
            "1:1: error: membrane tree has a cycle through 'b'",
            "6:1: error: priority relation is cyclic: r1 > r2 > r1",
        ]

    def test_unknown_label_diagnostic_positions(self):
        res = dsl.parse("membrane 1\nrule r1: [a -> b]'0 @ nowhere\n")
        assert not res.ok
        diag = res.diagnostics[0]
        assert diag.line == 2 and "nowhere" in diag.message

    def test_duplicate_rule_id(self):
        res = dsl.parse("membrane 1\nrule r: [a -> b]'0 @ 1\nrule r: [b -> a]'0 @ 1\n")
        assert not res.ok
        assert any("duplicate" in d.message for d in res.diagnostics)

    def test_skin_send_in_rejected(self):
        res = dsl.parse("membrane 1\nrule r: a []'0 -> [b]'0 @ 1\n")
        assert not res.ok
        assert any("skin" in d.message for d in res.diagnostics)

    def test_every_failure_has_positioned_diagnostic(self):
        bad_inputs = [
            "",
            "membrane\n",
            "rule r1 [a -> b]'0 @ 1\n",
            "membrane 1\ninit 1: a^\n",
            "membrane 1\ninit 1: a^0\n",
            "membrane 1\noutput elsewhere\n",
            "membrane 1\nmembrane 2\n",
            "wibble 3\n",
        ]
        for text in bad_inputs:
            res = dsl.parse(text)
            assert not res.ok
            assert res.diagnostics
            for d in res.diagnostics:
                assert d.line >= 1 and d.column >= 1
            assert_parses_like_reference(text)

    @pytest.mark.parametrize("text, diagnostics", [
        ("membrane 1\nmembrane 1\n", [("membrane '1' already declared", 2, 1)]),
        ("membrane 1\nmembrane 2 of 1\n", [("expected 'in'", 2, 12)]),
        ("membrane 1\nmembrane 2 in 1 x\n", [("unexpected trailing input", 2, 17)]),
        ("membrane 1\noutput 1\noutput 1\n", [("output already declared", 3, 1)]),
        ("membrane 1\noutput 1 2\n", [("unexpected trailing input", 2, 10)]),
        ("membrane 1\ninit 1: a\ninit 1: b\n", [("init for '1' already given", 3, 1)]),
        ("membrane 1\nrule r: [a -> b]'0 @ 1\nrule q: [a -> c]'0 @ 1\nprio r > q @ 9\n",
         [("priority names unknown membrane '9'", 4, 6)]),
        ("membrane 1\nrule r: [ -> b]'0 @ 1\n", [("rule 'r' has an empty left-hand side", 2, 1)]),
        ("membrane 1\nrule r: [a -> b]'0 @ 1\nrule  r: [b -> a]'0 @ 1\n", [("duplicate rule id 'r'", 3, 7)]),
        # one case per kind of psystem.problems() message, each at its part
        ("", [("expected exactly one root membrane, found 0", 1, 1)]),
        ("membrane 1\nmembrane 2\n", [("expected exactly one root membrane, found 2", 1, 1)]),
        ("membrane 1\nmembrane 2 in 9\n", [("membrane '2' has unknown parent '9'", 2, 15)]),
        ("membrane s\nmembrane environment in s\n",
         [("membrane label 'environment' is reserved for the environment", 2, 10)]),
        ("membrane s\nmembrane a in a\n", [("membrane tree has a cycle through 'a'", 1, 1)]),
        ("membrane 1\noutput  2\n", [("output region '2' is not a membrane label", 2, 9)]),
        ("membrane 1\ninit 2: a\n", [("initial contents given for unknown membrane '2'", 2, 1)]),
        ("membrane 1\nrule r: [a -> b]'0 @ 2\n", [("rule 'r' attached to unknown membrane '2'", 2, 1)]),
        ("membrane 1\nrule r: a []'0 -> [b]'0 @ 1\n", [("send-in rule 'r' targets the skin membrane", 2, 1)]),
        ("membrane 1\nrule r: [a -> b]'0 @ 1\nprio  r > q\n",
         [("priority pair references unknown rule 'q'", 3, 7)]),
        ("membrane 1\nrule r: [a -> b]'0 @ 1\nprio r > r\n", [("priority pair relates rule 'r' to itself", 3, 6)]),
        ("membrane 1\nrule r: [a -> b]'0 @ 1\nrule q: [b -> a]'0 @ 1\nprio r > q\nprio q > r\n",
         [("priority relation is cyclic: r > q > r", 4, 1)]),
        # a line with its own fault declares nothing (membrane 2 of 1 above too)
        ("membrane 1\noutput 2 x\n", [("unexpected trailing input", 2, 10)]),
        ("membrane 1\nmembrane 2 of 1\nrule r: [a -> b]'0 @ 2\n",
         [("expected 'in'", 2, 12), ("rule 'r' attached to unknown membrane '2'", 3, 1)]),
        # a run of atoms that fails is not shared, so it fails wherever it recurs
        ("membrane 1\nrule r: [x^0 -> a]'0 @ 1\nrule q: [x^0 -> a]'0 @ 1\ninit 1: a x^0\n",
         [("multiplicity must be positive", 2, 12), ("multiplicity must be positive", 3, 12),
          ("multiplicity must be positive", 4, 13)]),
        # an unknown rule in two pairs, and the cycle the known pairs close
        ("membrane s\nrule a: [x -> y]'0 @ s\nrule b: [y -> x]'0 @ s\nprio b > a\nprio a > zz\nprio zz > b\n",
         [("priority pair references unknown rule 'zz'", 5, 6), ("priority pair references unknown rule 'zz'", 6, 6),
          ("priority relation is cyclic: zz > b > a > zz", 4, 1)]),
    ])
    def test_declaration_diagnostics(self, text, diagnostics):
        res = dsl.parse(text)
        assert [(d.message, d.line, d.column) for d in res.diagnostics] == diagnostics
        assert_parses_like_reference(text)

    def test_arbitrary_bytes_never_raise(self):
        rng = random.Random(0xF00D)
        for _ in range(150):
            junk = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
            text = junk.decode("utf-8", errors="replace")
            res = dsl.parse(text)
            assert res.ok or res.diagnostics
            assert_parses_like_reference(text)

    def test_source_document_origin(self):
        res = dsl.parse(dsl.SourceDocument(text="membrane 1\n", origin="x.psys"))
        assert res.ok

    def test_bytes_input_is_not_text(self):
        res = dsl.parse(dsl.SourceDocument(text=b"membrane a\n"))
        assert not res.ok
        assert [(d.message, d.line, d.column) for d in res.diagnostics] == [("input is not text", 1, 1)]

    def test_repeated_symbol_merges_at_first_position(self):
        res = dsl.parse("membrane 1\ninit 1: x y x^2\nrule r: [b a b -> c]'0 @ 1\n")
        assert res.ok
        assert _ordered(res.definition.initial["1"]) == [("x", 3), ("y", 1)]
        assert _ordered(res.definition.rules[0].lhs) == [("b", 2), ("a", 1)]

    def test_count_digit_limit(self):
        ok = "9" * dsl.MAX_COUNT_DIGITS
        res = dsl.parse(f"membrane 1\ninit 1: x^{ok}\n")
        assert res.ok and res.definition.initial["1"].count("x") == int(ok)
        assert dsl.parse(dsl.serialize(res.definition)).definition.initial["1"] == res.definition.initial["1"]
        res = dsl.parse(f"membrane 1\ninit 1: x^{ok}9 y\n")
        assert not res.ok
        assert [(d.message, d.line, d.column) for d in res.diagnostics] == [
            (f"count has more than {dsl.MAX_COUNT_DIGITS} digits", 2, 11)]

    def test_count_past_a_lowered_interpreter_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            res = dsl.parse(f"membrane 1\ninit 1: x^{'9' * 700} y\n")
        finally:
            sys.set_int_max_str_digits(limit)
        assert not res.ok
        assert [(d.message, d.line, d.column) for d in res.diagnostics] == [
            ("count has more than 640 digits", 2, 11)]

    @pytest.mark.parametrize("text, column", [
        ("membrane 1\ninit 1: x^\u0663\n", 11),    # ARABIC-INDIC DIGIT THREE
        ("membrane \u0663\n", 10),
        ("membrane 1\nrule r: [a -> b^\uff12]'0 @ 1\n", 17),   # FULLWIDTH DIGIT TWO
    ])
    def test_non_ascii_digits_are_unexpected(self, text, column):
        res = dsl.parse(text)
        assert not res.ok
        diag = res.diagnostics[0]
        assert diag.message.startswith("unexpected character") and diag.column == column
        assert diag.line == text.count("\n")
        assert_parses_like_reference(text)

    def test_self_priority_is_positioned_at_its_line(self):
        text = "membrane 1\nrule r: [a -> b]'0 @ 1\nrule q: [b -> a]'0 @ 1\nprio q > r\nprio   r > r\n"
        res = dsl.parse(text)
        assert not res.ok
        assert [(d.message, d.line, d.column) for d in res.diagnostics] == [
            ("priority pair relates rule 'r' to itself", 5, 8)]

    @pytest.mark.parametrize("text, ok", [
        (WORKED_EXAMPLE, True),
        ("membrane 1\nmembrane 2 in 9\n", False),     # a structural fault only
        ("membrane 1\nmembrane 2 in 9\nwibble\n", False),   # and a line error
    ])
    def test_definition_is_checked_once_per_parse(self, monkeypatch, text, ok):
        calls = []
        real = psystem.problems

        def counted(*parts):
            calls.append(1)
            return real(*parts)

        monkeypatch.setattr(psystem, "problems", counted)
        monkeypatch.setattr(dsl, "problems", counted)
        assert dsl.parse(text).ok is ok
        assert len(calls) == 1

    @pytest.mark.parametrize("m, n, p", [(4, 4, 3), (8, 8, 3)])
    def test_generated_text_parses_like_reference(self, m, n, p):
        text = _generated_text(m, n, p)
        res = dsl.parse(text)
        assert _shape(res) == _shape(reference_parse(text))
        assert dsl.serialize(res.definition) == text


    def test_generated_rule_and_prio_lines_skip_the_token_walk(self):
        # Each rule and prio line of a generated system is read by its
        # grammar pattern; a pattern that stopped matching would leave the
        # result the same and only show here.
        res, walked = _parse_walked(_generated_text(4, 4, 3))
        assert res.ok
        assert walked and not [line for line in walked if line.startswith(("rule", "prio"))]


@functools.cache
def _generated_text(m: int, n: int, p: int) -> str:
    return dsl.serialize(build(BuildParams(instance=katrina_shaped(random.Random(1), m, n), p=p)).definition)


def _multisets(d: PSystemDef) -> list[Multiset]:
    return list(d.initial.values()) + [ms for r in d.rules for ms in (r.lhs, r.rhs, r.rhs_aux)]


class TestSharing:
    """One parse gives equal runs of atoms one multiset and each name one
    string; two parses share nothing."""

    @pytest.mark.parametrize("m, n", [(4, 4), (8, 8)])
    def test_one_object_per_multiset_value_and_per_name(self, m, n):
        d = dsl.parse(_generated_text(m, n, 3)).definition
        multisets = _multisets(d)
        assert len({id(ms) for ms in multisets}) == len(set(multisets)) < len(multisets)
        labels = {lab: lab for lab in d.parent}
        assert all(r.membrane is labels[r.membrane] for r in d.rules)
        assert all(par is None or par is labels[par] for par in d.parent.values())
        assert all(lab is labels[lab] for lab in d.initial)
        ids = {r.id: r.id for r in d.rules}
        assert d.priorities and all(hi is ids[hi] and lo is ids[lo] for hi, lo in d.priorities)

    def test_two_parses_share_no_multiset(self):
        text = _generated_text(4, 4, 3)
        first, second = dsl.parse(text).definition, dsl.parse(text).definition
        assert not {id(ms) for ms in _multisets(first) if ms} & {id(ms) for ms in _multisets(second) if ms}

    def test_equal_values_written_in_another_order_keep_their_order(self):
        res = dsl.parse("membrane 1\ninit 1: x y\nrule r: [y x -> x y]'0 @ 1\nrule q: [x^2 y -> y x x]'0 @ 1\n")
        init, r, q = res.definition.initial["1"], *res.definition.rules
        assert r.rhs is init and r.lhs == init and r.lhs is not init
        assert _ordered(init) == [("x", 1), ("y", 1)] and _ordered(r.lhs) == [("y", 1), ("x", 1)]
        assert q.lhs == q.rhs and q.lhs is not q.rhs
        assert _ordered(q.lhs) == [("x", 2), ("y", 1)] and _ordered(q.rhs) == [("y", 1), ("x", 2)]


def _with_count(place: str, count: int) -> PSystemDef:
    """The single-membrane example with ``count`` copies of x in its initial
    contents or in the right-hand side of one more rule."""
    d = single_membrane_example()
    big = Multiset.adopt({"x": count})
    if place == "init":
        return dataclasses.replace(d, initial={**d.initial, "1": big})
    return dataclasses.replace(
        d, rules=d.rules + (Rule(id="r", kind=RuleKind.EVOLUTION, membrane="1", lhs=ms(a=1), rhs=big),))


class TestSerialize:
    def test_round_trip_worked_example(self):
        d = single_membrane_example()
        text = dsl.serialize(d)
        back = dsl.parse(text)
        assert back.ok and back.definition.structurally_equal(d)

    def test_canonical_independent_of_unordered_declaration_order(self):
        a = (
            "membrane s\nmembrane c1 in s\nmembrane c2 in s\n"
            "init c1: x\ninit c2: y\n"
            "rule r1: [x -> y]'0 @ c1\nrule r2: [y -> x]'0 @ c2\n"
            "prio r1 > r2\n"
        )
        b = (
            "membrane s\nmembrane c2 in s\nmembrane c1 in s\n"
            "init c2: y\ninit c1: x\n"
            "rule r1: [x -> y]'0 @ c1\nrule r2: [y -> x]'0 @ c2\n"
            "prio r1 > r2\n"
        )
        pa, pb = dsl.parse(a), dsl.parse(b)
        assert pa.ok and pb.ok
        assert dsl.serialize(pa.definition) == dsl.serialize(pb.definition)

    def test_round_trip_property_on_random_systems(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 120:
            d = random_small_system(rng)
            text = dsl.serialize(d)
            back = dsl.parse(text)
            assert back.ok, [str(x) for x in back.diagnostics] + [text]
            assert back.definition.structurally_equal(d)
            assert dsl.serialize(back.definition) == text
            checked += 1

    def test_each_multiset_object_is_formatted_once(self, monkeypatch):
        d = build(BuildParams(instance=katrina_shaped(random.Random(1), 4, 4), p=3)).definition
        written = [ms for ms in d.initial.values() if ms] + [
            ms for r in d.rules for ms in (r.lhs, r.rhs) + ((r.rhs_aux,) if r.kind is not RuleKind.EVOLUTION else ())]
        calls = []
        real = dsl._format_ms

        def counted(ms, *args):
            calls.append(ms)
            return real(ms, *args)

        monkeypatch.setattr(dsl, "_format_ms", counted)
        assert dsl.serialize(d) == _generated_text(4, 4, 3)
        assert len(calls) == len({id(ms) for ms in calls}) == len({id(ms) for ms in written}) < len(written)

    @pytest.mark.parametrize("place, message", [
        ("init", "count of 'x' in the initial contents of '1' has more than 4300 digits"),
        ("rule", "count of 'x' in rule 'r' has more than 4300 digits"),
    ])
    def test_count_past_digit_limit_is_definition_error(self, place, message):
        with pytest.raises(DefinitionError) as exc:
            dsl.serialize(_with_count(place, 10**dsl.MAX_COUNT_DIGITS))
        assert str(exc.value) == message

    @pytest.mark.parametrize("parts, message", [
        (dict(parent={"a b": None}), "label of membrane 'a b'"),
        (dict(parent={"1": None, "\u0663": "1"}), "label of membrane '\u0663'"),
        (dict(rules=[Rule(id="r 1", kind=RuleKind.EVOLUTION, membrane="1", lhs=ms(a=1), rhs=ms(b=1))]),
         "id of rule 'r 1'"),
        (dict(rules=[Rule(id="r", kind=RuleKind.SEND_OUT, membrane="1", lhs=ms(a=1), rhs=ms(b=1),
                          rhs_aux=Multiset({"x y": 1}))]),
         "symbol 'x y' in rule 'r'"),
        (dict(initial={"1": Multiset({"\u00e9": 2})}), "symbol '\u00e9' in the initial contents of '1'"),
    ])
    def test_name_outside_the_grammar_is_definition_error(self, parts, message):
        d = PSystemDef(**{"parent": {"1": None}, "initial": {}, "rules": [], **parts})
        with pytest.raises(DefinitionError) as exc:
            dsl.serialize(d)
        assert str(exc.value) == f"{message} is not a name the .psys format can write"

    @pytest.mark.parametrize("place, message", [
        ("init", "count of 'x' in the initial contents of '1' has more than 640 digits"),
        ("rule", "count of 'x' in rule 'r' has more than 640 digits"),
    ])
    def test_count_past_a_lowered_interpreter_limit_is_definition_error(self, place, message):
        d = _with_count(place, 10**700)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(DefinitionError) as exc:
                dsl.serialize(d)
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Hypothesis: round trip of drawn systems, diagnostics for damaged text
# ---------------------------------------------------------------------------

LABELS = ["s", "m1", "m_2", "Inner", "7"]
SYMBOLS = ["a", "b", "x_1", "Y"]
MULTISETS = st.dictionaries(st.sampled_from(SYMBOLS), st.integers(1, 12), max_size=3).map(Multiset)
NONEMPTY = st.dictionaries(st.sampled_from(SYMBOLS), st.integers(1, 12), min_size=1, max_size=3).map(Multiset)
POLARIZATIONS = st.sampled_from(list(Polarization))


@st.composite
def systems(draw) -> PSystemDef:
    """Valid definitions: a membrane tree, rules of every kind and
    polarization pair, and any acyclic priority relation, whose pairs may
    run against declaration order."""
    labels = draw(st.permutations(LABELS))[: draw(st.integers(1, len(LABELS)))]
    parent = {labels[0]: None}
    for i, lab in enumerate(labels[1:], start=1):
        parent[lab] = draw(st.sampled_from(labels[:i]))
    ids = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
                        max_size=6, unique=True))
    rules = []
    for rid in ids:
        membrane = draw(st.sampled_from(labels))
        kinds = [RuleKind.EVOLUTION, RuleKind.SEND_OUT]
        if parent[membrane] is not None:
            kinds.append(RuleKind.SEND_IN)
        kind = draw(st.sampled_from(kinds))
        alpha = draw(POLARIZATIONS)
        evolution = kind is RuleKind.EVOLUTION
        rules.append(Rule(
            id=rid, kind=kind, membrane=membrane, lhs=draw(NONEMPTY), rhs=draw(MULTISETS),
            alpha=alpha, beta=alpha if evolution else draw(POLARIZATIONS),
            rhs_aux=Multiset() if evolution else draw(MULTISETS),
        ))
    order = draw(st.permutations(ids))  # a topological order of the relation
    pairs = [(order[i], order[j]) for i in range(len(order)) for j in range(i + 1, len(order))]
    priorities = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    initial = {lab: draw(MULTISETS) for lab in labels if draw(st.booleans())}
    output = draw(st.sampled_from(labels + ["environment"]))
    return PSystemDef(parent=parent, initial=initial, rules=rules,
                      priorities=priorities, output=output)


@settings(max_examples=100, deadline=None)
@given(d=systems())
def test_round_trip_of_drawn_systems(d):
    assert problems(*parts(d)) == []
    text = dsl.serialize(d)
    back = dsl.parse(text)
    assert back.ok, [str(x) for x in back.diagnostics] + [text]
    assert back.definition.structurally_equal(d)
    assert problems(*parts(back.definition)) == []
    assert dsl.serialize(back.definition) == text
    assert_parses_like_reference(text)


@settings(max_examples=100, deadline=None)
@given(d=systems())
def test_compiled_ranks_follow_the_min_heap_order(d):
    compiled = _Compiled(d)
    order = _reference_order(d)
    assert [compiled.rules[i].rank for i in order] == list(range(len(d.rules)))
    for keyed in compiled.index.values():
        for rules in keyed.values():
            assert [cr.rank for cr in rules] == sorted(cr.rank for cr in rules)


_LEX = re.compile(r"'[0+\-]|->|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[\[\]:@>^]")
_GAPS = ["", "", " ", "\t", "   ", " \t  "]
_COMMENTS = ["", "", " # note", "#", "\t# [a -> b]'x @ \u00e9"]


def _respaced(text: str, rng: random.Random, labels: list[str]) -> str:
    """``text`` with the tokens of each line re-spaced: no whitespace where
    two tokens still lex apart without it (``a^2b``, ``]'0->``), tabs and
    runs of spaces elsewhere, some lines indented, some with a trailing
    comment.  Counts get leading zeros, and a ``prio`` line may name a
    membrane of ``labels`` (``prio A > B @ LABEL``)."""
    lines = []
    for line in text.splitlines():
        toks = _LEX.findall(line.partition("#")[0])
        if not toks:
            lines.append(line)
            continue
        if toks[0] == "prio" and rng.random() < 0.5:
            toks += ["@", rng.choice(labels)]
        toks = [("0" * rng.randrange(3) + tok) if prev == "^" else tok for prev, tok in zip([""] + toks, toks)]
        out = rng.choice(["", "", "", " ", "\t"]) + toks[0]
        for left, right in zip(toks, toks[1:]):
            gap = rng.choice(_GAPS)
            if not gap and _LEX.findall(left + right) != [left, right]:
                gap = " "
            out += gap + right
        out += rng.choice(_GAPS) + rng.choice(_COMMENTS)
        assert _LEX.findall(out.partition("#")[0]) == toks
        lines.append(out)
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(d=systems(), rng=st.randoms(use_true_random=False))
def test_respaced_text_reads_like_the_reference(d, rng):
    text = _respaced(dsl.serialize(d), rng, list(d.parent))
    assert_parses_like_reference(text)
    res, walked = _parse_walked(text)
    assert res.ok, [str(x) for x in res.diagnostics] + [text]
    assert res.definition.structurally_equal(d)
    # a rule or prio line that starts at column 1 is read by its pattern
    assert not [line for line in walked if line.startswith(("rule", "prio"))]


def _opcodes(node, parser) -> set[str]:
    """The names of the operations of a parsed regular expression."""
    found: set[str] = set()
    if isinstance(node, parser.SubPattern):
        for op, arg in node.data:
            found |= {str(op)} | _opcodes(arg, parser)
    elif isinstance(node, (list, tuple)):
        for item in node:
            found |= _opcodes(item, parser)
    return found


def test_grammar_patterns_need_nothing_past_python_3_10():
    """Atomic groups and possessive quantifiers came with Python 3.11."""
    parser = getattr(re, "_parser", None) or __import__("sre_parse")
    for pattern in (dsl._RULE_LINE, dsl._PRIO_LINE):
        ops = _opcodes(parser.parse(pattern.pattern, pattern.flags), parser)
        assert "MAX_REPEAT" in ops
        assert not ops & {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


_RUN = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_]*(?:\^[0-9]+)?[ \t]*)+")
_ATOM = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^[0-9]+)?")


def _repeat_atom(text: str, data) -> str:
    """``text`` with one more copy of a symbol of a ``rule`` or ``init``
    line, right after its atom (``x_1^3`` -> ``x_1^3 x_1``) or first in its
    run (``a b^2`` -> ``b a b^2``), so a multiset merges a repeat, perhaps
    in another key order than the canonical text's."""
    lines = text.splitlines(keepends=True)
    spots = []
    for k, line in enumerate(lines):
        colon = line.find(":")
        if line.startswith(("rule ", "init ")) and colon >= 0:
            at = line.find("@", colon)
            for run in _RUN.finditer(line, colon + 1, at if at >= 0 else len(line)):
                spots += [(k, run.start(), atom) for atom in _ATOM.finditer(line, run.start(), run.end())]
    if not spots:
        return text
    k, run_start, atom = spots[data.draw(st.integers(0, len(spots) - 1))]
    line = lines[k]
    if data.draw(st.booleans()):
        lines[k] = f"{line[:atom.end()]} {atom[1]}{line[atom.end():]}"
    else:
        lines[k] = f"{line[:run_start]}{atom[1]} {line[run_start:]}"
    return "".join(lines)


DAMAGE = st.lists(
    st.sampled_from(list("[]'0+-^:@>#\n \tab1_") + ["\x85", "é", "->", "^0", "prio", "rule", "in", "membrane"]),
    min_size=1, max_size=4,
).map("".join)


@settings(max_examples=200, deadline=None)
@given(d=systems(), data=st.data())
def test_damaged_text_fails_only_with_positioned_diagnostics(d, data):
    text = dsl.serialize(d)
    for _ in range(data.draw(st.integers(1, 3))):
        lines = text.splitlines(keepends=True)
        how = data.draw(st.sampled_from(["cut", "insert", "repeat", "drop_line", "swap_lines"]))
        at = data.draw(st.integers(0, len(text)))
        if how == "cut":
            text = text[:at] + text[at + data.draw(st.integers(1, 8)):]
        elif how == "insert":
            text = text[:at] + data.draw(DAMAGE) + text[at:]
        elif how == "repeat":
            text = _repeat_atom(text, data)
        elif len(lines) > 1:
            i = data.draw(st.integers(0, len(lines) - 1))
            j = data.draw(st.integers(0, len(lines) - 1))
            if how == "drop_line":
                del lines[i]
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
    assert_parses_like_reference(text)
    res = dsl.parse(text)
    if res.ok:
        assert problems(*parts(res.definition)) == []
        back = dsl.parse(dsl.serialize(res.definition))
        assert back.ok and back.definition.structurally_equal(res.definition)
    else:
        assert res.diagnostics
        assert any(diag.severity == "error" for diag in res.diagnostics)
        for diag in res.diagnostics:
            assert diag.line >= 1 and diag.column >= 1, str(diag)
