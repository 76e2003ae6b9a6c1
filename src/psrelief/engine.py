"""Execution of transition P systems under maximal parallelism.

Step semantics
--------------

Every step is selected against a frozen snapshot of the configuration:
applicability guards (polarization and left-hand-side coverage) are evaluated
on the state at time t, and all consumptions, productions, and polarization
changes commit simultaneously to form the state at time t+1.

A firing plan must satisfy four conditions:

* resource feasibility: summed consumption per region never exceeds the
  snapshot contents;
* polarization compatibility: for each membrane, all fired communication
  rules that change its polarization agree on the new value.  Rules that
  keep the polarization (beta equal to alpha) are neutral and may fire in
  the same step as one polarization change;
* weak priority: a lower-priority rule receives only objects the higher rule
  cannot use.  Concretely, whenever (r1, r2) is a priority pair and r2 fires,
  r1 must be unfireable both on the plan's residual and on the residual plus
  everything r2 consumed;
* maximality: no further rule instance can be added without breaking one of
  the above.

Non-determinism that survives these constraints is resolved by policy.  The
deterministic policy processes rules in a topological order of the priority
relation, tie-broken by declaration order, firing each rule to maximality on
the remaining objects.  The seeded-random policy draws a random linear
extension of the priority relation instead, which reproducibly explores the
alternative maximal plans of confluent systems.

Selection cost
--------------

A rule whose guard or left-hand side fails on the snapshot cannot fire later
in the step: guards read the snapshot, and the pools the plan draws on only
shrink.  Compiling a definition indexes its rules by membrane and guard
polarization, then by the region they consume from, then by one key symbol of
their left-hand side (the first), each list in deterministic order.  A rule
whose key symbol is absent from the snapshot cannot be covered, so each step
walks, for every membrane's current polarization and consumed region, the
smaller side: the region's present symbols or the index's key symbols.  Only
the rules met on both sides get the full left-hand-side check; the survivors
are the candidates, put in the step's order, deterministic or seeded-random.
The greedy passes then walk only the candidates, in the order a walk over
all rules would meet them, so the plan is the same.  A candidate leaves the
passes once it fires, once its pool runs dry or once a pending polarization
rules it out; priority-blocked candidates stay.  A step costs the key-symbol
hits plus the candidates, not every rule whose guard passes.  The committed
configuration is written on plain count dicts, one copy per written region,
and each is wrapped into a ``Multiset`` once.

Runs
----

``steps`` is the one source of steps: it compiles the definition once and
yields the plan and the committed configuration of every step until nothing
fires.  ``run`` and ``trace.run_generated`` consume it and call their
observers once per committed step, including the last step of a run cut off
at its step or iteration limit.
"""

from __future__ import annotations

import heapq
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from psrelief.multiset import Multiset
from psrelief.psystem import (
    ENVIRONMENT_LABEL,
    Configuration,
    Polarization,
    PSystemDef,
    Rule,
    RuleKind,
)

DETERMINISTIC = "deterministic"
SEEDED_RANDOM = "seeded-random"


class EngineError(RuntimeError):
    """Contract violation inside the engine (an engine bug, not user error)."""


@dataclass
class FiringPlan:
    """Selected rule applications for one step: rule id -> count."""

    counts: dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiringPlan):
            return NotImplemented
        return self.counts == other.counts

    def __hash__(self):
        return hash(frozenset(self.counts.items()))


@dataclass
class RunReport:
    final: Configuration
    halted: bool
    steps: int
    output: Multiset

    @classmethod
    def ending_at(cls, definition: PSystemDef, final: Configuration, halted: bool) -> "RunReport":
        """Report of a run of ``definition`` whose last configuration is ``final``."""
        return cls(final=final, halted=halted, steps=final.step_index,
                   output=final.region(definition.output).copy())


Observer = Callable[[int, FiringPlan, Configuration], None]


# ---------------------------------------------------------------------------
# Compiled form of a definition (per-run caches)
# ---------------------------------------------------------------------------


class _CRule:
    __slots__ = ("rule", "index", "consume", "lhs", "charging", "higher", "rank", "effects")

    def __init__(self, rule: Rule, index: int, parent: str | None):
        self.rule = rule
        self.index = index
        self.lhs = rule.lhs.counts().items()  # (symbol, need) pairs
        self.charging = rule.changes_polarization
        self.higher: list["_CRule"] | tuple[()] = ()  # a list only where priorities exist
        h = rule.membrane
        outer = ENVIRONMENT_LABEL if parent is None else parent
        if rule.kind is RuleKind.EVOLUTION:
            self.consume = h  # region whose objects the rule consumes
            primary, secondary = h, None  # evolution rules carry no outer products
        elif rule.kind is RuleKind.SEND_OUT:
            self.consume = h
            primary, secondary = outer, h
        else:
            assert parent is not None  # skin send-in rejected by validation
            self.consume = parent
            primary, secondary = h, outer
        # (destination region, products) pairs; empty products are left out
        rhs, aux = rule.rhs.counts(), rule.rhs_aux.counts()
        self.effects = ((primary, rhs),) if rhs else ()
        if aux:
            self.effects += ((secondary, aux),)
        # self.rank: position in the deterministic order, set by _Compiled


_rank = operator.attrgetter("rank")


class _Compiled:
    def __init__(self, definition: PSystemDef):
        definition.validate()
        self.crules = [
            _CRule(rule, i, definition.parent[rule.membrane]) for i, rule in enumerate(definition.rules)
        ]
        self.by_id = by_id = {cr.rule.id: cr for cr in self.crules}
        # successors for topological orderings
        self.successors: dict[int, list[int]] = {}
        self.n_preds: list[int] = [0] * len(self.crules)
        for hi, lo in definition.priorities:
            higher, lower = by_id[hi], by_id[lo]
            if not lower.higher:
                lower.higher = []
            lower.higher.append(higher)
            self.successors.setdefault(higher.index, []).append(lower.index)
            self.n_preds[lower.index] += 1
        self.deterministic_order = self._linear_extension(rng=None)
        # (membrane, guard polarization) -> consumed region -> key symbol ->
        # rules in deterministic order; the key symbol is the first on the lhs
        self.groups: dict[tuple[str, Polarization], dict[str, dict[str, tuple[_CRule, ...]]]] = {}
        for rank, cr in enumerate(self.deterministic_order):
            cr.rank = rank
            index = self.groups.setdefault((cr.rule.membrane, cr.rule.alpha), {}).setdefault(cr.consume, {})
            index.setdefault(next(iter(cr.lhs))[0], []).append(cr)
        for regions in self.groups.values():
            for index in regions.values():
                for key, rules in index.items():
                    index[key] = tuple(rules)  # a tuple holds one rule in less memory than a list

    def _linear_extension(self, rng: random.Random | None) -> list[_CRule]:
        n_preds = list(self.n_preds)
        order: list[_CRule] = []
        if rng is None:
            ready = [i for i in range(len(self.crules)) if n_preds[i] == 0]
            heapq.heapify(ready)
            while ready:
                i = heapq.heappop(ready)
                order.append(self.crules[i])
                for j in self.successors.get(i, ()):
                    n_preds[j] -= 1
                    if n_preds[j] == 0:
                        heapq.heappush(ready, j)
        else:
            ready = sorted(i for i in range(len(self.crules)) if n_preds[i] == 0)
            while ready:
                i = ready.pop(rng.randrange(len(ready)))
                order.append(self.crules[i])
                fresh = []
                for j in self.successors.get(i, ()):
                    n_preds[j] -= 1
                    if n_preds[j] == 0:
                        fresh.append(j)
                ready.extend(sorted(fresh))
        return order


def _order(compiled: _Compiled, policy: str, seed: int) -> list[_CRule]:
    if policy == DETERMINISTIC:
        return compiled.deterministic_order
    if policy == SEEDED_RANDOM:
        return compiled._linear_extension(random.Random(seed))
    raise ValueError(f"unknown selection policy {policy!r}")


def _select(compiled: _Compiled, config: Configuration, order: list[_CRule]) -> FiringPlan:
    # Candidates: rules whose guard and left-hand side pass on the snapshot,
    # gathered from the smaller side of each region and its key symbols
    # (see "Selection cost" above).
    contents = config.contents
    polarizations = config.polarizations
    groups = compiled.groups
    candidates: list[_CRule] = []
    for label, pol in polarizations.items():
        regions = groups.get((label, pol))
        if regions is None:
            continue
        for region, index in regions.items():
            have = contents[region].counts()
            small, large = (have, index) if len(have) < len(index) else (index, have)
            for key in small:
                if key not in large:
                    continue
                for cr in index[key]:
                    for sym, need in cr.lhs:
                        if have.get(sym, 0) < need:
                            break
                    else:
                        candidates.append(cr)
    if order is compiled.deterministic_order:
        candidates.sort(key=_rank)
    else:
        position = {cr: i for i, cr in enumerate(order)}
        candidates.sort(key=position.__getitem__)

    # Pools: the residual of each consumed region, copied from the snapshot on
    # first use; a region without a pool still holds its snapshot contents.
    pools: dict[str, dict[str, int]] = {}
    fired: dict[str, int] = {}
    pending_beta: dict[str, Polarization] = {}

    # Greedy to a fixed point: a later consumption can strip a higher-priority
    # rule of its resources and thereby unblock a lower one, so passes repeat
    # until nothing new fires.  A rule leaves the list once it fires (it took
    # all it could), once it has nothing left to consume, or once a pending
    # polarization rules it out; none of these can be undone within the step.
    # Only priority-blocked rules stay for the next pass.
    progress = True
    while progress:
        progress = False
        blocked_rules: list[_CRule] = []
        for cr in candidates:
            rule = cr.rule
            if cr.charging:
                pend = pending_beta.get(rule.membrane)
                if pend is not None and pend is not rule.beta:
                    continue
            p = pools.get(cr.consume)
            if p is None:
                p = pools[cr.consume] = dict(contents[cr.consume].counts())
            k = None  # the most applications the pool allows
            for sym, need in cr.lhs:
                avail = p.get(sym, 0) // need
                if k is None or avail < k:
                    k = avail
            if not k:
                continue
            blocked = False
            for hi in cr.higher:  # blocked while a higher rule could still fire
                if polarizations[hi.rule.membrane] is not hi.rule.alpha:
                    continue
                hp = pools.get(hi.consume)
                if hp is None:
                    hp = contents[hi.consume].counts()
                for sym, need in hi.lhs:
                    if hp.get(sym, 0) < need:
                        break
                else:
                    blocked = True
                    break
            if blocked:
                blocked_rules.append(cr)
                continue
            for sym, need in cr.lhs:
                p[sym] -= need * k
            fired[rule.id] = k
            if cr.charging:
                pending_beta[rule.membrane] = rule.beta
            progress = True
        candidates = blocked_rules
    return FiringPlan(counts=fired)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def select_firing(
    definition: PSystemDef,
    config: Configuration,
    policy: str = DETERMINISTIC,
    seed: int = 0,
) -> FiringPlan:
    compiled = _Compiled(definition)
    return _select(compiled, config, _order(compiled, policy, seed))


def apply_step(definition: PSystemDef, config: Configuration, plan: FiringPlan) -> Configuration:
    compiled = _Compiled(definition)
    return _apply(compiled, config, plan)


def _apply(compiled: _Compiled, config: Configuration, plan: FiringPlan) -> Configuration:
    # Written regions as raw count dicts, each copied once from the snapshot;
    # a count that reaches 0 is deleted, so every dict stays canonical.
    written: dict[str, dict[str, int]] = {}
    new_pols = dict(config.polarizations)
    changed_to: dict[str, Polarization] = {}

    for rid, count in plan.counts.items():
        cr = compiled.by_id.get(rid)
        if cr is None:
            raise EngineError(f"plan names unknown rule {rid!r}")
        if count <= 0:
            raise EngineError(f"plan has non-positive count for {rid!r}")
        rule = cr.rule
        region = written.get(cr.consume)
        if region is None:
            region = written[cr.consume] = dict(config.region(cr.consume).counts())
        for sym, need in cr.lhs:
            have = region.get(sym, 0)
            take = need * count
            if take < have:
                region[sym] = have - take
            elif take == have:
                del region[sym]
            else:
                raise EngineError(
                    f"infeasible plan at rule {rid!r}: cannot remove {take} x {sym!r}, only {have} present")
        for dest, products in cr.effects:
            region = written.get(dest)
            if region is None:
                region = written[dest] = dict(config.region(dest).counts())
            for sym, cnt in products.items():
                region[sym] = region.get(sym, 0) + cnt * count
        h = rule.membrane
        if cr.charging:
            prev = changed_to.get(h)
            if prev is not None and prev is not rule.beta:
                raise EngineError(f"incompatible polarization targets for membrane {h!r}")
            changed_to[h] = rule.beta
            new_pols[h] = rule.beta

    new_contents = dict(config.contents)
    new_env = config.environment
    for label, counts in written.items():
        if label == ENVIRONMENT_LABEL:
            new_env = Multiset.adopt(counts)
        else:
            new_contents[label] = Multiset.adopt(counts)
    return Configuration(
        contents=new_contents,
        polarizations=new_pols,
        environment=new_env,
        step_index=config.step_index + 1,
    )


def steps(
    definition: PSystemDef,
    policy: str = DETERMINISTIC,
    seed: int = 0,
) -> Iterator[tuple[FiringPlan, Configuration]]:
    """Yield ``(plan, config)`` for every committed step from the initial
    configuration on, ``config`` being the state the plan produced; return
    when nothing fires (the system halted).

    For the seeded-random policy each step draws a fresh linear extension
    from a generator seeded with (seed, step), so a run is reproducible from
    its seed alone.
    """
    compiled = _Compiled(definition)
    config = Configuration.initial(definition)
    while True:
        plan = _select(compiled, config, _order(compiled, policy, (seed << 20) ^ config.step_index))
        if not plan:
            return
        config = _apply(compiled, config, plan)
        yield plan, config


def run(
    definition: PSystemDef,
    policy: str = DETERMINISTIC,
    seed: int = 0,
    max_steps: int = 10_000,
    observer: Observer | None = None,
) -> RunReport:
    """Consume ``steps`` until the system halts or step ``max_steps`` is
    committed.  Reaching ``max_steps`` is reported via ``halted=False``,
    never as an exception."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    config = Configuration.initial(definition)
    for plan, config in steps(definition, policy, seed):
        if observer is not None:
            observer(config.step_index, plan, config)
        if config.step_index >= max_steps:
            return RunReport.ending_at(definition, config, halted=False)
    return RunReport.ending_at(definition, config, halted=True)
