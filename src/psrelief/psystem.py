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
the membrane at once; the secondary product multiset is ``rhs_aux``.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

from psrelief.multiset import Multiset


class DefinitionError(ValueError):
    """Raised when a system description violates a structural invariant."""


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


@dataclass(frozen=True)
class Rule:
    """One rewriting rule attached to membrane ``membrane``.

    ``rhs`` goes to the rule kind's primary destination (evolution: the
    membrane itself; send-out: the parent region; send-in: inside the
    membrane).  ``rhs_aux`` goes to the opposite side and is empty for
    evolution rules.
    """

    id: str
    kind: RuleKind
    membrane: str
    lhs: Multiset
    rhs: Multiset
    alpha: Polarization = Polarization.NEUTRAL
    beta: Polarization | None = None
    rhs_aux: Multiset = field(default_factory=Multiset)

    def __post_init__(self):
        if self.beta is None:
            object.__setattr__(self, "beta", self.alpha)

    @property
    def changes_polarization(self) -> bool:
        return self.kind is not RuleKind.EVOLUTION and self.beta is not self.alpha


ENVIRONMENT_LABEL = "environment"


@dataclass
class PSystemDef:
    """Static system description: tree, initial contents, rules.

    ``rules`` is the global declaration sequence; declaration order is
    semantically relevant (it breaks ties in the deterministic selection
    policy).  ``priorities`` is a set of (higher, lower) rule-id pairs; the
    relation must be acyclic.
    """

    parent: dict[str, str | None]
    initial: dict[str, Multiset]
    rules: list[Rule]
    priorities: list[tuple[str, str]] = field(default_factory=list)
    output: str = ENVIRONMENT_LABEL

    # -- validation ------------------------------------------------------

    def problems(self) -> list[str]:
        """All structural violations; empty list means the definition is valid."""
        out: list[str] = []
        roots = [lab for lab, par in self.parent.items() if par is None]
        if len(roots) != 1:
            out.append(f"expected exactly one root membrane, found {len(roots)}")
        for lab, par in self.parent.items():
            if par is not None and par not in self.parent:
                out.append(f"membrane {lab!r} has unknown parent {par!r}")
        out.extend(self._tree_cycles())
        if self.output != ENVIRONMENT_LABEL and self.output not in self.parent:
            out.append(f"output region {self.output!r} is not a membrane label")
        for lab in self.initial:
            if lab not in self.parent:
                out.append(f"initial contents given for unknown membrane {lab!r}")
        seen_ids: set[str] = set()
        skin = roots[0] if len(roots) == 1 else None
        for r in self.rules:
            if r.id in seen_ids:
                out.append(f"duplicate rule id {r.id!r}")
            seen_ids.add(r.id)
            if r.membrane not in self.parent:
                out.append(f"rule {r.id!r} attached to unknown membrane {r.membrane!r}")
                continue
            if not r.lhs:
                out.append(f"rule {r.id!r} has an empty left-hand side")
            if r.kind is RuleKind.EVOLUTION:
                if r.beta is not r.alpha:
                    out.append(f"evolution rule {r.id!r} cannot change polarization")
                if r.rhs_aux:
                    out.append(f"evolution rule {r.id!r} cannot carry outer products")
            if r.kind is RuleKind.SEND_IN and r.membrane == skin:
                out.append(f"send-in rule {r.id!r} targets the skin membrane")
        for hi, lo in self.priorities:
            for rid in (hi, lo):
                if rid not in seen_ids:
                    out.append(f"priority pair references unknown rule {rid!r}")
            if hi == lo:
                out.append(f"priority pair relates rule {hi!r} to itself")
        out.extend(self._priority_cycles())
        return out

    def _tree_cycles(self) -> list[str]:
        """One message per membrane whose chain of parent links runs into a
        cycle, in declaration order."""
        out: list[str] = []
        for lab in self.parent:
            seen = set()
            cur: str | None = lab
            while cur is not None:
                if cur in seen:
                    out.append(f"membrane tree has a cycle through {lab!r}")
                    break
                seen.add(cur)
                cur = self.parent.get(cur)
        return out

    def _priority_cycles(self) -> list[str]:
        """One message naming a cycle of the priority relation, if it has one.

        Kahn's algorithm strips every rule that is not on a cycle or
        downstream of one; each rule left over has a predecessor that is also
        left over, so walking predecessors from any of them must revisit a
        rule, and the walk from that rule back to itself is a cycle.
        """
        succ: dict[str, list[str]] = {}
        n_preds: dict[str, int] = {}
        for hi, lo in self.priorities:
            succ.setdefault(hi, []).append(lo)
            n_preds[lo] = n_preds.get(lo, 0) + 1
        ready = [node for node in succ if node not in n_preds]
        while ready:
            for nxt in succ.get(ready.pop(), ()):
                n_preds[nxt] -= 1
                if n_preds[nxt] == 0:
                    ready.append(nxt)
        left = {node for node, count in n_preds.items() if count}
        if not left:
            return []
        preds: dict[str, str] = {lo: hi for hi, lo in self.priorities if hi in left and lo in left}
        node = next(iter(preds))
        walk: dict[str, int] = {}
        while node not in walk:
            walk[node] = len(walk)
            node = preds[node]
        cycle = list(walk)[walk[node]:]
        cycle.reverse()
        return ["priority relation is cyclic: " + " > ".join(cycle + [cycle[0]])]

    def validate(self) -> None:
        probs = self.problems()
        if probs:
            raise DefinitionError("; ".join(probs))

    def structurally_equal(self, other: "PSystemDef") -> bool:
        return (
            self.parent == other.parent
            and self.initial_normalized() == other.initial_normalized()
            and self.rules == other.rules
            and sorted(self.priorities) == sorted(other.priorities)
            and self.output == other.output
        )

    def initial_normalized(self) -> dict[str, Multiset]:
        return {lab: self.initial.get(lab, Multiset()) for lab in self.parent}


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
        contents = {lab: definition.initial.get(lab, Multiset()) for lab in definition.parent}
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
