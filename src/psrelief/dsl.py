"""Textual format for membrane systems (``.psys`` files).

The grammar is line oriented; ``#`` starts a comment.  Directives:

    membrane LABEL [in PARENT]
    output LABEL            (or: output environment)
    init LABEL: MULTISET
    rule ID: BODY @ LABEL
    prio ID > ID [@ LABEL]

Rule bodies use bracket groups with a postfix polarization (``'0``, ``'+``,
``'-``):

    [u -> v]'0              evolution
    [u]'0 -> v [w]'+        send-out (w stays inside; usually empty)
    u []'0 -> v [w]'-       send-in  (v lands in the parent; usually empty)

Multisets are space-separated atoms ``sym`` or ``sym^COUNT``.  The canonical
serializer sorts membranes, initial multisets, symbols, and priority pairs,
normalizes whitespace, and preserves rule declaration order (declaration
order is semantically relevant to the deterministic policy).
See docs/psys-format.md for the full grammar.

How a line is read: a ``rule`` or ``prio`` line is first matched whole
against one grammar pattern for its directive (``_RULE_LINE``,
``_PRIO_LINE``), chosen by the line's first four characters; the pattern
captures the ids, the label, the polarizations and each multiset's text.
Every other line, and every line its pattern rejects, goes through the token
walk: ``_LINE_RE`` finds the longest prefix that lexes, ``_TOKEN_RE`` splits
it into tokens, and the directive's reader walks them.  The token walk places
every diagnostic of a line, so a line whose pattern matches but which has a
fault all the same (a count of 0 or with too many digits, a duplicate rule
id) is read again by the token walk, which reports it.

A parsed definition shares its parts: a multiset is a value that never
changes, so one parse gives every recurring run of atoms one ``Multiset``
object, and every mention of a membrane label or rule id one ``str``
object.  A multiset text that a pattern captured is looked up as text first;
a text not seen before is split into its run of tokens and read by the token
walk's ``_multiset``, so it gets the run's object and every count check.
The tables that do this belong to the one call of ``parse``; two parses share
nothing.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

from psrelief.multiset import EMPTY, Multiset
from psrelief.psystem import (
    ENVIRONMENT_LABEL,
    DefinitionError,
    Polarization,
    Problem,
    PSystemDef,
    Rule,
    RuleKind,
    _gc_paused,
    problems,
)


@dataclass
class SourceDocument:
    text: str
    origin: str = "<memory>"


@dataclass
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    message: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass
class ParseResult:
    definition: PSystemDef | None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.definition is not None


_TOKEN_RE = re.compile(r"'[0+\-]|->|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[\[\]:@>^]")
# The longest prefix of a line that lexes.  A character of _FREE always starts
# or continues whitespace or a token; "'" must start a polarization and "-" an
# arrow; any other character starts no token.  Each repetition of the group
# begins with "'" or "-", which _FREE excludes, so a line matches in one way
# only and the match takes time linear in its length.
_FREE = r"[\s0-9A-Za-z_\[\]:@>^]"
_LINE_RE = re.compile(rf"{_FREE}*(?:(?:'[0+\-]|->){_FREE}*)*")
# The grammar patterns of rule and prio lines.  Each run of whitespace can be
# taken by one quantifier only, and an identifier cannot end where another
# identifier character follows, so a line matches in one way only and a
# rejected line is rejected in time linear in its length.  (No atomic group
# or possessive quantifier: the package supports Python 3.10.)
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_LABEL = rf"(?:{_ID}|[0-9]+)"
_ATOM = rf"{_ID}(?![A-Za-z0-9_])(?:\s*\^\s*[0-9]+)?"
_RUN = rf"({_ATOM}(?:\s*{_ATOM})*)"
# A multiset and the whitespace after it; its group is None when it is empty.
_MS = rf"(?:{_RUN}\s*)?"
_POL = r"('[0+\-])"
# What follows the guard of a communication rule: outer, inner, beta.
_TAIL = rf"\s*->\s*{_MS}\[\s*{_MS}\]\s*{_POL}"
# The membrane label closing a rule, and the rest of the line.
_AT = rf"\s*@\s*({_LABEL})\s*(?:#.*)?"
#: Groups: id; evolution and send-out lhs; evolution rhs and alpha; send-out
#: alpha, outer, inner and beta; send-in lhs, alpha, outer, inner and beta;
#: the membrane label.
_RULE_LINE = re.compile(
    rf"rule\s+({_ID})\s*:\s*(?:\[\s*{_MS}(?:->\s*{_MS}\]\s*{_POL}|\]\s*{_POL}{_TAIL})"
    rf"|{_RUN}\s*\[\s*\]\s*{_POL}{_TAIL}){_AT}", re.S)
#: Groups: the higher id, the lower id, the membrane label or None.
_PRIO_LINE = re.compile(rf"prio\s+({_ID})\s*>\s*({_ID})(?:\s*@\s*({_LABEL}))?\s*(?:#.*)?", re.S)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_LABEL_START = _IDENT_START | frozenset("0123456789")
_POLARIZATIONS = {"'" + pol.value: pol for pol in Polarization}
# bound once: an Enum member read off its class is slow
_EVOLUTION, _SEND_IN, _SEND_OUT = RuleKind.EVOLUTION, RuleKind.SEND_IN, RuleKind.SEND_OUT
#: Closes every token list, so a read one past the last token needs no bounds
#: check; no token equals it.
_END = "\n"
# Stop sets of _multiset.
_TO_END = (_END,)
_TO_OPEN = ("[", _END)
_TO_CLOSE = ("]", _END)
_TO_ARROW_OR_CLOSE = ("->", "]", _END)
#: Longest count accepted (Python's default int/str conversion limit; a lower
#: limit set in the interpreter applies instead).
MAX_COUNT_DIGITS = 4300
#: Smallest count with more digits than that.
_TOO_LONG = 10**MAX_COUNT_DIGITS


class _Bail(Exception):
    """The line is malformed at token ``index``; the index of ``_END`` means
    the end of the line."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


def _column(raw: str, index: int) -> int:
    """1-based column of token ``index`` of a line that lexed cleanly, or one
    past its last token when ``index`` is the token count."""
    spans = [m.span() for m in _TOKEN_RE.finditer(raw.partition("#")[0])]
    return spans[index][0] + 1 if index < len(spans) else spans[-1][1] + 1


def _word(toks: list[str], i: int, start: frozenset[str], what: str) -> str:
    tok = toks[i]
    if tok[0] not in start:
        raise _Bail(f"expected {what}", i)
    return tok


def _expect(toks: list[str], i: int, char: str) -> int:
    if toks[i] != char:
        raise _Bail(f"expected {char!r}", i)
    return i + 1


def _polarization(toks: list[str], i: int) -> Polarization:
    pol = _POLARIZATIONS.get(toks[i])
    if pol is None:
        raise _Bail("expected a polarization", i)
    return pol


def _multiset(toks: list[str], i: int, stop: tuple[str, ...],
              shared: dict[tuple[str, ...], Multiset]) -> tuple[Multiset, int]:
    """Atoms from token ``i`` up to the first token in ``stop`` (which holds
    ``_END``).  A repeated symbol adds to the count at its first position.

    ``shared`` maps each run of tokens read cleanly so far to its multiset,
    which an equal run gets again.  The key is the run, not the value: a
    multiset's key order follows its text.  A run that fails is not stored,
    so it fails again, with its diagnostic, wherever it recurs."""
    j = i
    while toks[j] not in stop:
        j += 1
    if j == i:
        return EMPTY, i
    run = tuple(toks[i:j])
    found = shared.get(run)
    if found is not None:
        return found, j
    counts: dict[str, int] = {}
    sym = toks[i]
    while sym not in stop:
        if sym[0] not in _IDENT_START:
            raise _Bail("expected a symbol name", i)
        if toks[i + 1] == "^":
            i += 2
            num = toks[i]
            if not num.isdigit():
                raise _Bail("expected a count after '^'", i)
            if len(num) > MAX_COUNT_DIGITS:
                raise _Bail(f"count has more than {MAX_COUNT_DIGITS} digits", i)
            try:
                count = int(num)
            except ValueError:  # the interpreter's int/str limit was lowered
                raise _Bail(f"count has more than {sys.get_int_max_str_digits()} digits", i) from None
            if not count:
                raise _Bail("multiplicity must be positive", i)
            counts[sym] = counts.get(sym, 0) + count
        else:
            counts[sym] = counts.get(sym, 0) + 1
        i += 1
        sym = toks[i]
    shared[run] = found = Multiset.adopt(counts)
    return found, i


class _Texts(dict):
    """Multiset of each multiset text a grammar pattern captured in one
    parse; the key ``None`` (no text) maps to the empty multiset.  A text
    not seen before is read by ``_multiset`` with the parse's ``shared``
    table, which raises ``_Bail`` where the token walk would; a text that
    fails is not stored."""

    __slots__ = ("shared",)

    def __init__(self, shared: dict[tuple[str, ...], Multiset]):
        super().__init__({None: EMPTY})
        self.shared = shared

    def __missing__(self, text: str) -> Multiset:
        toks = _TOKEN_RE.findall(text)
        toks.append(_END)
        self[text] = found = _multiset(toks, 0, _TO_END, self.shared)[0]
        return found


def _matched_rule(raw: str, texts: _Texts, names: dict[str, str]) -> Rule | None:
    """The rule of a line that ``_RULE_LINE`` matches and whose counts
    ``_multiset`` accepts; ``None`` sends the line to the token walk."""
    m = _RULE_LINE.fullmatch(raw)
    if m is None:
        return None
    (rid, lhs, rhs, alpha, out_alpha, out_outer, out_inner, out_beta,
     in_lhs, in_alpha, in_outer, in_inner, in_beta, membrane) = m.groups()
    rid, membrane = names.setdefault(rid, rid), names.setdefault(membrane, membrane)
    try:
        if alpha is not None:
            return Rule(rid, _EVOLUTION, membrane, texts[lhs], texts[rhs], _POLARIZATIONS[alpha])
        if out_alpha is not None:
            return Rule(rid, _SEND_OUT, membrane, texts[lhs], texts[out_outer],
                        _POLARIZATIONS[out_alpha], _POLARIZATIONS[out_beta], texts[out_inner])
        return Rule(rid, _SEND_IN, membrane, texts[in_lhs], texts[in_inner],
                    _POLARIZATIONS[in_alpha], _POLARIZATIONS[in_beta], texts[in_outer])
    except _Bail:
        return None


@_gc_paused()
def parse(doc: SourceDocument | str) -> ParseResult:
    """Parse a system description; on failure the result carries at least one
    positioned error diagnostic and no definition.  A line with a fault of
    its own declares nothing.  Apart from each line's own faults and the
    ``prio ... @ LABEL`` membrane, the faults are those of
    ``psystem.problems``, placed at the part they concern."""
    if isinstance(doc, str):
        doc = SourceDocument(text=doc)
    if not isinstance(doc.text, str):
        return ParseResult(None, [ParseDiagnostic("error", "input is not text", 1, 1)])
    diags: list[ParseDiagnostic] = []
    # One object per distinct run of multiset tokens and per name.
    shared: dict[tuple[str, ...], Multiset] = {}
    texts = _Texts(shared)
    names: dict[str, str] = {}
    parent: dict[str, str | None] = {}
    membrane_at: dict[str, tuple[int, str]] = {}
    initial: dict[str, Multiset] = {}
    init_line: dict[str, int] = {}
    rules: list[Rule] = []
    rule_line: dict[str, int] = {}
    priorities: list[tuple[str, str]] = []
    prio_lines: list[tuple[int, str, str | None]] = []
    output: str = ENVIRONMENT_LABEL
    output_at: tuple[int, str] | None = None

    for line_no, raw in enumerate(doc.text.splitlines(), start=1):
        head = raw[:4]
        if head == "rule":
            rule = _matched_rule(raw, texts, names)
            if rule is not None and rule.id not in rule_line:
                rules.append(rule)
                rule_line[rule.id] = line_no
                continue
        elif head == "prio":
            m = _PRIO_LINE.fullmatch(raw)
            if m is not None:
                hi, lo, at_label = m.groups()
                priorities.append((names.setdefault(hi, hi), names.setdefault(lo, lo)))
                prio_lines.append((line_no, raw, at_label))
                continue
        # the token walk
        end = _LINE_RE.match(raw).end()
        if end < len(raw) and raw[end] != "#":
            diags.append(ParseDiagnostic("error", f"unexpected character {raw[end]!r}", line_no, end + 1))
            continue
        toks = _TOKEN_RE.findall(raw, 0, end)
        if not toks:
            continue
        toks.append(_END)
        head = toks[0]
        try:
            if head == "rule":
                rid = _word(toks, 1, _IDENT_START, "a rule id")
                rid = names.setdefault(rid, rid)
                rule = _rule_body(toks, _expect(toks, 2, ":"), rid, shared, names)
                if rid in rule_line:
                    raise _Bail(f"duplicate rule id {rid!r}", 1)
                rules.append(rule)
                rule_line[rid] = line_no
            elif head == "prio":
                hi = _word(toks, 1, _IDENT_START, "a rule id")
                lo = _word(toks, _expect(toks, 2, ">"), _IDENT_START, "a rule id")
                hi, lo = names.setdefault(hi, hi), names.setdefault(lo, lo)
                at_label = None
                i = 4
                if toks[4] == "@":
                    at_label = _word(toks, 5, _LABEL_START, "a membrane label")
                    i = 6
                if toks[i] != _END:
                    raise _Bail("unexpected trailing input", i)
                priorities.append((hi, lo))
                prio_lines.append((line_no, raw, at_label))
            elif head == "membrane":
                lab = _word(toks, 1, _LABEL_START, "a membrane label")
                if lab in parent:
                    raise _Bail(f"membrane {lab!r} already declared", 0)
                par = None
                if toks[2] != _END:
                    _word(toks, 2, _IDENT_START, "'in PARENT' or end of line")
                    if toks[2] != "in":
                        raise _Bail("expected 'in'", 2)
                    par = _word(toks, 3, _LABEL_START, "a parent label")
                    if toks[4] != _END:
                        raise _Bail("unexpected trailing input", 4)
                    par = names.setdefault(par, par)
                lab = names.setdefault(lab, lab)
                parent[lab] = par
                membrane_at[lab] = (line_no, raw)
            elif head == "output":
                if output_at is not None:
                    raise _Bail("output already declared", 0)
                lab = _word(toks, 1, _LABEL_START, "a label or 'environment'")
                if toks[2] != _END:
                    raise _Bail("unexpected trailing input", 2)
                output = names.setdefault(lab, lab)
                output_at = (line_no, raw)
            elif head == "init":
                lab = _word(toks, 1, _LABEL_START, "a membrane label")
                ms, _ = _multiset(toks, _expect(toks, 2, ":"), _TO_END, shared)
                if lab in initial:
                    raise _Bail(f"init for {lab!r} already given", 0)
                lab = names.setdefault(lab, lab)
                initial[lab] = ms
                init_line[lab] = line_no
            elif head[0] in _IDENT_START:
                raise _Bail(f"unknown directive {head!r}", 0)
            else:
                raise _Bail("expected a directive (membrane/output/init/rule/prio)", 0)
        except _Bail as bail:
            diags.append(ParseDiagnostic("error", bail.message, line_no, _column(raw, bail.index)))

    for line_no, raw, at_label in prio_lines:
        if at_label is not None and at_label not in parent:
            diags.append(ParseDiagnostic(
                "error", f"priority names unknown membrane {at_label!r}", line_no, _column(raw, 1)))

    if diags:
        found = problems(parent, initial, rules, priorities, output)
    else:
        try:
            return ParseResult(PSystemDef(parent, initial, rules, priorities, output))
        except DefinitionError as exc:
            found = exc.problems

    def position(prob: Problem) -> tuple[int, int]:
        if prob.part in ("membrane", "parent"):
            line_no, raw = membrane_at[prob.key]
            return line_no, _column(raw, 3 if prob.part == "parent" else 1)
        if prob.part == "output":
            return output_at[0], _column(output_at[1], 1)
        if prob.part == "priority":
            line_no, raw, _ = prio_lines[prob.key]
            return line_no, _column(raw, 1)
        if prob.part == "init":
            return init_line[prob.key], 1
        if prob.part == "rule":
            return rule_line[rules[prob.key].id], 1
        return (prio_lines[0][0] if prob.part == "priorities" else 1), 1

    diags += [ParseDiagnostic("error", str(prob), *position(prob)) for prob in found]
    return ParseResult(None, diags)


def _rule_body(toks: list[str], i: int, rid: str,
               shared: dict[tuple[str, ...], Multiset], names: dict[str, str]) -> Rule:
    """The rule body from token ``i`` to the end of the line; ``shared`` and
    ``names`` are the tables of ``parse``."""
    if toks[i] == "[":
        lhs, i = _multiset(toks, i + 1, _TO_ARROW_OR_CLOSE, shared)
        if toks[i] == "->":
            # evolution: [lhs -> rhs]'a
            rhs, i = _multiset(toks, i + 1, _TO_CLOSE, shared)
            i = _expect(toks, i, "]")
            alpha = _polarization(toks, i)
            membrane = _rule_at(toks, i + 1, names)
            return Rule(id=rid, kind=_EVOLUTION, membrane=membrane,
                        lhs=lhs, rhs=rhs, alpha=alpha)
        # send-out: [lhs]'a -> outer [inner]'b
        kind = _SEND_OUT
        i = _expect(toks, i, "]")
    else:
        # send-in: lhs []'a -> outer [inner]'b
        kind = _SEND_IN
        lhs, i = _multiset(toks, i, _TO_OPEN, shared)
        i = _expect(toks, _expect(toks, i, "["), "]")
    alpha = _polarization(toks, i)
    if toks[i + 1] != "->":
        raise _Bail("expected '->'", i + 1)
    outer, i = _multiset(toks, i + 2, _TO_OPEN, shared)
    inner, i = _multiset(toks, _expect(toks, i, "["), _TO_CLOSE, shared)
    i = _expect(toks, i, "]")
    beta = _polarization(toks, i)
    membrane = _rule_at(toks, i + 1, names)
    rhs, aux = (outer, inner) if kind is _SEND_OUT else (inner, outer)
    return Rule(id=rid, kind=kind, membrane=membrane, lhs=lhs, rhs=rhs, rhs_aux=aux, alpha=alpha, beta=beta)


def _rule_at(toks: list[str], i: int, names: dict[str, str]) -> str:
    """``@ LABEL`` closing a rule."""
    _expect(toks, i, "@")
    membrane = _word(toks, i + 1, _LABEL_START, "a membrane label")
    if toks[i + 2] != _END:
        raise _Bail("unexpected trailing input", i + 2)
    return names.setdefault(membrane, membrane)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _writable(name: str, label: bool = False) -> bool:
    """Whether the grammar reads ``name`` back: an ASCII identifier, or for a
    membrane label also ASCII digits."""
    return name.isascii() and (name.isidentifier() or (label and name.isdigit()))


def _format_ms(ms: Multiset, where: str, written: set[str]) -> str:
    """Atoms of ``ms`` in symbol order; ``where`` names its place in the
    error for a symbol or count that ``parse`` would reject.  ``written``
    holds the symbols checked so far."""
    atoms = []
    for sym, cnt in ms.sorted_items():
        if sym not in written:
            if not _writable(sym):
                raise DefinitionError(f"symbol {sym!r} in {where} is not a name the .psys format can write")
            written.add(sym)
        if cnt < _TOO_LONG:
            try:
                atoms.append(f"{sym}^{cnt}" if cnt > 1 else sym)
                continue
            except ValueError:  # the interpreter's int/str limit was lowered
                pass
        digits = min(MAX_COUNT_DIGITS, sys.get_int_max_str_digits() or MAX_COUNT_DIGITS)
        raise DefinitionError(f"count of {sym!r} in {where} has more than {digits} digits")
    return " ".join(atoms)


class _Writer:
    """The text of each multiset object of one ``serialize`` call, formatted
    once: ``formatted`` is keyed by the object's id, which stays fixed while
    the definition holding the object is written.  ``written`` holds the
    symbols checked so far."""

    __slots__ = ("formatted", "written")

    def __init__(self):
        self.formatted: dict[int, str] = {}
        self.written: set[str] = set()

    def atoms(self, ms: Multiset, owner: Rule | str) -> str:
        """The text of ``ms``, held by ``owner``: a rule, or the label of the
        membrane whose initial contents it is."""
        text = self.formatted.get(id(ms))
        if text is None:
            where = f"rule {owner.id!r}" if isinstance(owner, Rule) else f"the initial contents of {owner!r}"
            text = self.formatted[id(ms)] = _format_ms(ms, where, self.written)
        return text

    def rule(self, rule: Rule) -> str:
        if not _writable(rule.id):
            raise DefinitionError(f"id of rule {rule.id!r} is not a name the .psys format can write")
        # the members' values read directly: ``.value`` is a descriptor and a
        # dict keyed by member calls ``Enum.__hash__``, both Python code that
        # cost about a tenth of ``serialize`` at case-study scale
        a, b = rule.alpha._value_, rule.beta._value_
        lhs = self.atoms(rule.lhs, rule)
        if rule.kind is _EVOLUTION:
            body = f"[{lhs} -> {self.atoms(rule.rhs, rule)}]'{a}"
        else:
            out = rule.kind is _SEND_OUT
            outer = self.atoms(rule.rhs if out else rule.rhs_aux, rule)
            inner = self.atoms(rule.rhs_aux if out else rule.rhs, rule)
            head = f"[{lhs}]'{a}" if out else f"{lhs} []'{a}"
            body = f"{head} -> {outer}{' ' if outer else ''}[{inner}]'{b}"
        return f"rule {rule.id}: {body} @ {rule.membrane}"


def serialize(definition: PSystemDef) -> str:
    """Canonical text: sorted membranes/inits/priorities, normalized
    whitespace, rules in declaration order.  parse(serialize(d)) is
    structurally equal to d.  Raises ``DefinitionError`` for a membrane
    label, rule id, symbol or count that ``parse`` would reject."""
    for lab in definition.parent:
        if not _writable(lab, label=True):
            raise DefinitionError(f"label of membrane {lab!r} is not a name the .psys format can write")
    writer = _Writer()
    lines = ["# psys 1"]
    skin = next(lab for lab, par in definition.parent.items() if par is None)
    lines.append(f"membrane {skin}")
    for lab in sorted(definition.parent):
        if lab == skin:
            continue
        lines.append(f"membrane {lab} in {definition.parent[lab]}")
    lines.append(f"output {definition.output}")
    for lab in sorted(definition.initial):
        ms = definition.initial[lab]
        if ms:
            lines.append(f"init {lab}: {writer.atoms(ms, lab)}")
    lines += map(writer.rule, definition.rules)
    for hi, lo in sorted(definition.priorities):
        lines.append(f"prio {hi} > {lo}")
    return "\n".join(lines) + "\n"
