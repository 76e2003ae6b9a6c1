"""Static description and dynamic snapshots of transition P systems.

A system is a rooted tree of labelled membranes, each carrying a multiset of
objects and a three-valued polarization.  Rules come in three forms:

* evolution        ``[u -> v]'a @ h``        rewrite inside membrane h
* send-out         ``[u]'a -> v [w]'b @ h``  consume inside h, produce v in the
                                             parent region (w stays inside h),
                                             set h's polarization to b
* send-in          ``u [w]'a -> [v]'b @ h``  consume u in the parent of h,
                                             produce v inside h (w in the
                                             parent), set h's polarization to b

The polarization written on the left bracket is the applicability guard and is
always the polarization of membrane h itself.  Send-in rules are forbidden on
the skin membrane.  Communication rules may produce objects on both sides of
the membrane at once; the secondary product multiset is ``rhs_aux``.  A
``Rule``, like a ``Multiset``, never changes after construction: assigning or
deleting any of its attributes raises ``AttributeError``, and rules with equal
fields are equal and hash alike.

A ``PSystemDef`` is checked once, when it is made: ``problems`` lists every
violation of a definition's parts, the constructor raises ``DefinitionError``
when there is one, and the definition never changes afterwards.  Whatever
holds a definition (the engine, the serializer) therefore trusts it.
"""

from __future__ import annotations

import enum
import functools
import gc
import hashlib
import heapq
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from psrelief.multiset import EMPTY, Multiset


class DefinitionError(ValueError):
    """Raised when a system description violates a structural invariant;
    ``problems`` lists the violations when ``problems()`` found them."""

    def __init__(self, message: str, problems: Sequence["Problem"] = ()):
        super().__init__(message)
        self.problems = list(problems)


class Problem(str):
    """A ``problems`` message with the ``part`` of the definition it concerns
    ("tree", "membrane", "parent", "output", "init", "rule", "priority" or
    "priorities") and the ``key`` within that part: a membrane label for
    "membrane", "parent" and "init", an index for "rule" and "priority"."""

    def __new__(cls, message: str, part: str, key: str | int | None = None) -> "Problem":
        self = super().__new__(cls, message)
        self.part, self.key = part, key
        return self

    def __getnewargs__(self) -> tuple:
        return str(self), self.part, self.key


class _gc_paused:
    """Pause the cyclic garbage collector for a ``with`` block, or for each
    call of a function decorated with ``@_gc_paused()``.

    Safe only where the wrapped code creates no reference cycles: its objects
    are then freed by reference counting alone, so a collection pass inside
    it could free nothing, and deferring the passes defers no reclamation.
    Building, parsing and compiling a definition make a tree of immutable
    values, hundreds of thousands of objects at case-study scale, whose
    allocations would otherwise trigger full passes over everything alive.
    The collector is switched back on however the block ends, and nothing is
    allocated after that inside the block, so the deferred young collection
    runs in the caller.  A caller who had switched it off keeps it off.  The
    switch is process-wide: other threads get no automatic collections while
    a block runs.
    """

    __slots__ = ("_resume",)

    def __enter__(self) -> None:
        self._resume = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._resume:
            gc.enable()

    def __call__(self, func):
        @functools.wraps(func)
        def paused(*args, **kwargs):
            with _gc_paused():
                return func(*args, **kwargs)
        return paused


class Polarization(enum.Enum):
    NEUTRAL = "0"
    POSITIVE = "+"
    NEGATIVE = "-"

    def __str__(self) -> str:
        return self.value


class RuleKind(enum.Enum):
    EVOLUTION = "evolution"
    SEND_OUT = "send_out"
    SEND_IN = "send_in"


_EVOLUTION = RuleKind.EVOLUTION  # bound once: an Enum member read off its class is slow

_RuleFields = NamedTuple("_RuleFields", [
    ("id", str), ("kind", RuleKind), ("membrane", str), ("lhs", Multiset), ("rhs", Multiset),
    ("alpha", Polarization), ("beta", Polarization), ("rhs_aux", Multiset), ("changes_polarization", bool)])


class Rule(_RuleFields):
    """One rewriting rule attached to membrane ``membrane``.

    ``rhs`` goes to the rule kind's primary destination (evolution: the
    membrane itself; send-out: the parent region; send-in: inside the
    membrane).  ``rhs_aux`` goes to the opposite side and is empty for
    evolution rules.  ``beta`` defaults to ``alpha``.  A rule is a named tuple
    of its fields, so it has no per-instance dict; ``changes_polarization`` is
    computed by the constructor, which copies and ``_replace`` go through.
    """

    __slots__ = ()

    def __new__(cls, id: str, kind: RuleKind, membrane: str, lhs: Multiset, rhs: Multiset,
                alpha: Polarization = Polarization.NEUTRAL, beta: Polarization | None = None,
                rhs_aux: Multiset = EMPTY) -> "Rule":
        if beta is None:
            beta = alpha
        changes = kind is not _EVOLUTION and beta is not alpha
        return tuple.__new__(cls, (id, kind, membrane, lhs, rhs, alpha, beta, rhs_aux, changes))

    @classmethod
    def _make(cls, fields) -> "Rule":
        return cls(*tuple(fields)[:8])

    def __getnewargs__(self) -> tuple:
        return self[:8]


ENVIRONMENT_LABEL = "environment"


def problems(
    parent: Mapping[str, str | None],
    initial: Mapping[str, Multiset],
    rules: Sequence[Rule],
    priorities: Sequence[tuple[str, str]],
    output: str,
) -> list[Problem]:
    """All structural violations of a definition with these parts; an empty
    list means they make a valid definition.  ``_priority_order`` checks
    the priority relation for a cycle."""
    out: list[Problem] = []
    roots = [lab for lab, par in parent.items() if par is None]
    if len(roots) != 1:
        out.append(Problem(f"expected exactly one root membrane, found {len(roots)}", "tree"))
    for lab, par in parent.items():
        if lab == ENVIRONMENT_LABEL:
            out.append(Problem(f"membrane label {lab!r} is reserved for the environment", "membrane", lab))
        if par is not None and par not in parent:
            out.append(Problem(f"membrane {lab!r} has unknown parent {par!r}", "parent", lab))
    for lab in parent:
        seen, cur = set(), lab
        while cur is not None and cur not in seen:
            seen.add(cur)
            cur = parent.get(cur)
        if cur is not None:
            out.append(Problem(f"membrane tree has a cycle through {lab!r}", "tree"))
    if output != ENVIRONMENT_LABEL and output not in parent:
        out.append(Problem(f"output region {output!r} is not a membrane label", "output"))
    for lab in initial:
        if lab not in parent:
            out.append(Problem(f"initial contents given for unknown membrane {lab!r}", "init", lab))
    position: dict[str, int] = {}  # rule id -> declaration index
    skin = roots[0] if len(roots) == 1 else None
    evolution, send_in = RuleKind.EVOLUTION, RuleKind.SEND_IN  # an Enum member read is slow
    for i, (rid, kind, membrane, lhs, _, alpha, beta, aux, _) in enumerate(rules):
        if rid in position:
            out.append(Problem(f"duplicate rule id {rid!r}", "rule", i))
        position[rid] = i
        if membrane not in parent:
            out.append(Problem(f"rule {rid!r} attached to unknown membrane {membrane!r}", "rule", i))
            continue
        if not lhs._counts:
            out.append(Problem(f"rule {rid!r} has an empty left-hand side", "rule", i))
        if kind is evolution:
            if beta is not alpha:
                out.append(Problem(f"evolution rule {rid!r} cannot change polarization", "rule", i))
            if aux._counts:
                out.append(Problem(f"evolution rule {rid!r} cannot carry outer products", "rule", i))
        elif kind is send_in and membrane == skin:
            out.append(Problem(f"send-in rule {rid!r} targets the skin membrane", "rule", i))
    for i, (hi, lo) in enumerate(priorities):
        for rid in (hi, lo):
            if rid not in position:
                out.append(Problem(f"priority pair references unknown rule {rid!r}", "priority", i))
        if hi == lo:
            out.append(Problem(f"priority pair relates rule {hi!r} to itself", "priority", i))
    cycle = _priority_order(position, priorities)[1]
    if cycle is not None:
        out.append(Problem(cycle, "priorities"))
    return out


def _priority_order(position: Mapping[str, int], priorities: Sequence[tuple[str, str]]
                    ) -> tuple[Sequence[int], str | None]:
    """The deterministic order of the rules, as the declaration indices that
    ``position`` maps their ids to, and a message naming one cycle of the
    priority relation, or ``None``.  The order is the topological order of the
    relation that takes the smallest declaration index among the ready rules
    first.  When every pair relates two declared rules and declares its
    higher rule first, as every generated system does, that is declaration
    order and nothing is searched.  Otherwise Kahn's algorithm runs with a
    min-heap.  An id that names no rule becomes a node after the rules; a
    pair relating a rule to itself is a fault of its own, not a cycle, and is
    left out.  Each node left over has a predecessor that is also left over,
    so walking predecessors from any of them revisits a node, and the walk
    from that node back to itself is a cycle."""
    for hi, lo in priorities:
        higher, lower = position.get(hi), position.get(lo)
        if higher is None or lower is None or higher > lower:
            break
    else:
        return range(len(position)), None
    node = dict(position)
    size = max(position.values(), default=-1) + 1  # past every rule, duplicate ids too
    for rid in itertools.chain.from_iterable(priorities):
        if rid not in node:
            node[rid], size = size, size + 1
    pairs = [(hi, lo) for hi, lo in priorities if hi != lo]
    successors: list[list[int]] = [[] for _ in range(size)]
    n_preds = [0] * size
    for hi, lo in pairs:
        successors[node[hi]].append(node[lo])
        n_preds[node[lo]] += 1
    ready = [i for i, n in enumerate(n_preds) if not n]  # ascending, so a heap
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in successors[i]:
            n_preds[j] -= 1
            if not n_preds[j]:
                heapq.heappush(ready, j)
    if len(order) == size:
        return order, None
    left = {rid for rid, i in node.items() if n_preds[i]}
    preds = {lo: hi for hi, lo in pairs if hi in left and lo in left}
    rid = next(iter(preds))
    walk: dict[str, int] = {}
    while rid not in walk:
        walk[rid] = len(walk)
        rid = preds[rid]
    cycle = list(walk)[walk[rid]:]
    cycle.reverse()
    return order, "priority relation is cyclic: " + " > ".join(cycle + [cycle[0]])


@dataclass(frozen=True)
class PSystemDef:
    """Static system description: tree, initial contents, rules.

    A definition never changes and is valid by construction: the constructor
    stores ``rules`` and ``priorities`` as tuples and ``parent`` and
    ``initial`` as read-only copies, then raises ``DefinitionError`` with
    every violation that ``problems`` finds, so its users need not check it
    again.

    ``rules`` is the global declaration sequence; declaration order is
    semantically relevant (it breaks ties in the deterministic selection
    policy).  ``priorities`` is a set of (higher, lower) rule-id pairs; the
    relation must be acyclic.
    """

    parent: Mapping[str, str | None]
    initial: Mapping[str, Multiset]
    rules: tuple[Rule, ...]
    priorities: tuple[tuple[str, str], ...] = ()
    output: str = ENVIRONMENT_LABEL

    def __post_init__(self):
        object.__setattr__(self, "parent", MappingProxyType(dict(self.parent)))
        object.__setattr__(self, "initial", MappingProxyType(dict(self.initial)))
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "priorities", tuple(self.priorities))
        probs = problems(self.parent, self.initial, self.rules, self.priorities, self.output)
        if probs:
            raise DefinitionError("; ".join(probs), probs)

    def structurally_equal(self, other: "PSystemDef") -> bool:
        return (
            self.parent == other.parent
            and self.initial_normalized() == other.initial_normalized()
            and self.rules == other.rules
            and sorted(self.priorities) == sorted(other.priorities)
            and self.output == other.output
        )

    def initial_normalized(self) -> dict[str, Multiset]:
        return {lab: self.initial.get(lab, EMPTY) for lab in self.parent}


@dataclass
class Configuration:
    """Dynamic snapshot: per-membrane contents and polarizations, environment.

    Treated as an immutable value between steps; the engine never mutates a
    configuration it was given.
    """

    contents: dict[str, Multiset]
    polarizations: dict[str, Polarization]
    environment: Multiset = field(default_factory=Multiset)
    step_index: int = 0

    @classmethod
    def initial(cls, definition: PSystemDef) -> "Configuration":
        contents = {lab: definition.initial.get(lab, EMPTY) for lab in definition.parent}
        pols = {lab: Polarization.NEUTRAL for lab in definition.parent}
        return cls(contents=contents, polarizations=pols)

    def region(self, label: str) -> Multiset:
        if label == ENVIRONMENT_LABEL:
            return self.environment
        return self.contents[label]

    def digest(self) -> str:
        h = hashlib.sha256()
        for lab in sorted(self.contents):
            h.update(lab.encode())
            h.update(self.polarizations[lab].value.encode())
            for sym, cnt in self.contents[lab].sorted_items():
                h.update(f"{sym}={cnt};".encode())
        for sym, cnt in self.environment.sorted_items():
            h.update(f"env:{sym}={cnt};".encode())
        return h.hexdigest()[:16]
