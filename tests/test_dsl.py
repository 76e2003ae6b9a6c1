"""Format parsing, diagnostics, and canonical serialization."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from psrelief import dsl
from psrelief.builder import BuildParams, build
from psrelief.engine import run
from psrelief.multiset import Multiset
from psrelief.psystem import DefinitionError, Polarization, PSystemDef, Rule, RuleKind

from helpers import ms, random_small_system, reference_parse, single_membrane_example
from test_relief import katrina_shaped

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


def _changed_on_purpose(text: str, ref: dsl.ParseResult) -> bool:
    """Inputs the reference reads differently by design: it lexed any Unicode
    decimal digit as a digit, reported a self-priority at 1:1, and put a tree
    cycle through a label containing "cyclic" at the first priority line."""
    return (any(ch.isdecimal() and not ch.isascii() for ch in text)
            or any("to itself" in d.message for d in ref.diagnostics)
            or any(d.message.startswith("membrane tree") and "cyclic" in d.message
                   for d in ref.diagnostics))


def assert_parses_like_reference(text: str) -> None:
    ref = reference_parse(text)
    if not _changed_on_purpose(text, ref):
        assert _shape(dsl.parse(text)) == _shape(ref)


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

    def test_tree_cycles_are_reported_at_the_start(self):
        text = "membrane s\nmembrane a in b\nmembrane b in a\n"
        res = dsl.parse(text)
        assert [str(d) for d in res.diagnostics] == [
            "1:1: error: membrane tree has a cycle through 'a'",
            "1:1: error: membrane tree has a cycle through 'b'",
        ]
        assert_parses_like_reference(text)
        # both kinds of cycle, in the order of PSystemDef.problems()
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
        ("membrane 1\nmembrane 2 of 1\n",
         [("expected 'in'", 2, 12), ("expected exactly one root membrane, found ['1', '2']", 1, 1)]),
        ("membrane 1\nmembrane 2 in 1 x\n", [("unexpected trailing input", 2, 17)]),
        ("membrane 1\noutput 1\noutput 1\n", [("output already declared", 3, 1)]),
        ("membrane 1\noutput 1 2\n", [("unexpected trailing input", 2, 10)]),
        ("membrane 1\ninit 1: a\ninit 1: b\n", [("init for '1' already given", 3, 1)]),
        ("membrane 1\nrule r: [a -> b]'0 @ 1\nrule q: [a -> c]'0 @ 1\nprio r > q @ 9\n",
         [("priority names unknown membrane '9'", 4, 6)]),
        ("membrane 1\nrule r: [ -> b]'0 @ 1\n", [("rule left-hand side must not be empty", 2, 22)]),
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

    def test_self_priority_is_positioned_at_its_line(self):
        text = "membrane 1\nrule r: [a -> b]'0 @ 1\nrule q: [b -> a]'0 @ 1\nprio q > r\nprio   r > r\n"
        res = dsl.parse(text)
        assert not res.ok
        assert [(d.message, d.line, d.column) for d in res.diagnostics] == [
            ("priority pair relates rule 'r' to itself", 5, 8)]

    @pytest.mark.parametrize("m, n, p", [(4, 4, 3), (8, 8, 3)])
    def test_generated_text_parses_like_reference(self, m, n, p):
        gen = build(BuildParams(instance=katrina_shaped(random.Random(1), m, n), p=p))
        text = dsl.serialize(gen.definition)
        res = dsl.parse(text)
        assert _shape(res) == _shape(reference_parse(text))
        assert dsl.serialize(res.definition) == text


def _with_count(place: str, count: int) -> PSystemDef:
    """The single-membrane example with ``count`` copies of x in its initial
    contents or in the right-hand side of one more rule."""
    d = single_membrane_example()
    big = Multiset.adopt({"x": count})
    if place == "init":
        d.initial["1"] = big
    else:
        d.rules.append(Rule(id="r", kind=RuleKind.EVOLUTION, membrane="1", lhs=ms(a=1), rhs=big))
    return d


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
            if d.problems():
                continue
            text = dsl.serialize(d)
            back = dsl.parse(text)
            assert back.ok, [str(x) for x in back.diagnostics] + [text]
            assert back.definition.structurally_equal(d)
            assert dsl.serialize(back.definition) == text
            checked += 1

    @pytest.mark.parametrize("place, message", [
        ("init", "count of 'x' in the initial contents of '1' has more than 4300 digits"),
        ("rule", "count of 'x' in rule 'r' has more than 4300 digits"),
    ])
    def test_count_past_digit_limit_is_definition_error(self, place, message):
        with pytest.raises(DefinitionError) as exc:
            dsl.serialize(_with_count(place, 10**dsl.MAX_COUNT_DIGITS))
        assert str(exc.value) == message

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
    polarization pair, priorities that follow declaration order."""
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
    pairs = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    priorities = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    initial = {lab: draw(MULTISETS) for lab in labels if draw(st.booleans())}
    output = draw(st.sampled_from(labels + ["environment"]))
    return PSystemDef(parent=parent, initial=initial, rules=rules,
                      priorities=priorities, output=output)


@settings(max_examples=100, deadline=None)
@given(d=systems())
def test_round_trip_of_drawn_systems(d):
    assert d.problems() == []
    text = dsl.serialize(d)
    back = dsl.parse(text)
    assert back.ok, [str(x) for x in back.diagnostics] + [text]
    assert back.definition.structurally_equal(d)
    assert back.definition.problems() == []
    assert dsl.serialize(back.definition) == text
    assert_parses_like_reference(text)


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
        how = data.draw(st.sampled_from(["cut", "insert", "drop_line", "swap_lines"]))
        at = data.draw(st.integers(0, len(text)))
        if how == "cut":
            text = text[:at] + text[at + data.draw(st.integers(1, 8)):]
        elif how == "insert":
            text = text[:at] + data.draw(DAMAGE) + text[at:]
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
        assert res.definition.problems() == []
        back = dsl.parse(dsl.serialize(res.definition))
        assert back.ok and back.definition.structurally_equal(res.definition)
    else:
        assert res.diagnostics
        assert any(diag.severity == "error" for diag in res.diagnostics)
        for diag in res.diagnostics:
            assert diag.line >= 1 and diag.column >= 1, str(diag)
