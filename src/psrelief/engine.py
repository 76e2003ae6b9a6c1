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
deterministic policy processes rules in the deterministic order, the
topological order of the priority relation that docs/psys-format.md
("Semantics of priorities") defines, firing each rule to maximality on the
remaining objects.  The seeded-random policy takes the step's candidates
(see below) in that order and shuffles them with the step's generator; the
greedy checks weak priority itself, so any order yields a valid maximal plan,
and a shuffle reaches every order of the candidates.  It reproducibly
explores the alternative maximal plans of confluent systems.

Selection cost
--------------

A rule whose guard or left-hand side fails on the snapshot cannot fire later
in the step: guards read the snapshot, and the pools the plan draws on only
shrink.  Compiling a definition turns each rule into the record the step
reads (``_CRule``): its id, membrane, guard, consumed region and products,
its polarization target (``None`` for a rule that keeps its polarization),
and its left-hand side split into the key pair ``(key, need)``, the first
symbol and its count, and ``rest``, the other pairs, empty for the nine in
ten generated rules with a one-symbol left-hand side.  Compiling ranks the
rules in deterministic order, as ``psystem._priority_order`` gives it, and
indexes them by the region they consume from, then by their key, each list
in rank order.  A rule whose key is absent from the snapshot cannot be
covered, so each step visits every region that has consumers once and looks
up the rules keyed by each symbol the region holds, with its count.  A rule
found this way is a candidate when its membrane's polarization matches its
guard, the key's count covers ``need`` and the snapshot covers ``rest``; the
candidates are sorted into deterministic order, then shuffled under the
seeded-random policy.  The greedy passes walk only the candidates: a
deterministic walk over all rules would meet them in the same order and
skip the rest, so the plan is the same.  A candidate fires as often as the
key and then ``rest`` allow; the key's pool count is read once, and a
candidate whose key is gone from its pool is passed over at once, since a
pool holds no count of 0.  It checks the priority relation only when it has
higher rules.  It leaves the passes once it fires, once its pool runs dry or
once a pending polarization rules it out; priority-blocked candidates stay.
The gather and the greedy walk ``rest`` only where it is non-empty.  The
plan is filled as rules fire, so its keys are in firing order.  A step
costs the symbols present in the regions plus the candidates, not every
rule, under either policy.

Commit
------

The greedy consumes from pools: raw count dicts, one per region the step
reads, each copied once from the snapshot, that never hold a count of 0 (a
count that reaches 0 is deleted).  A fired rule consumes its key, from the
count it read, then ``rest``.  The greedy also keeps the step's charges, a
map from membrane to the polarization its fired rules set; every fired rule
that charges a membrane sets the same one.  When the passes end, the pools
hold the snapshot minus the plan's consumption, so the commit only adds the
products (copying a region that only receives products once), applies the
charges to a copy of the polarization map with one ``update`` and wraps the
written pools into ``Multiset`` values with one ``Multiset.adopt_all``
call.  A step that charges no membrane shares its predecessor's
polarization map: a configuration is a value, never changed once made.
``apply_step`` builds the same pools and charges from a plan that
``select_firing`` returned, without checking it, consuming each rule's key
and then ``rest``, and commits them the same way.  The package never calls
these two per-call functions, which compile the definition on every call;
the benchmark's select/apply replay times them.

Runs
----

``steps`` is the one source of steps: it compiles the definition once and
yields the plan and the committed configuration of every step until nothing
fires, committing the pools of each selection directly.  ``run`` and
``trace.run_generated`` consume it and call their observers once per
committed step, including the last step of a run cut off at its step or
iteration limit.  Compiling checks nothing: a ``PSystemDef`` was checked when
it was made and cannot change since.
"""

from __future__ import annotations

import operator
import random
from collections import defaultdict
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
    _gc_paused,
    _priority_order,
)

DETERMINISTIC = "deterministic"
SEEDED_RANDOM = "seeded-random"


@dataclass
class FiringPlan:
    """Selected rule applications for one step: rule id -> count."""

    counts: dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.counts)


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
                   output=final.region(definition.output))


Observer = Callable[[int, FiringPlan, Configuration], None]


# ---------------------------------------------------------------------------
# Compiled form of a definition (per-run caches)
# ---------------------------------------------------------------------------


# read once: reading a member off its Enum class costs about ten global reads
_EVOLUTION, _SEND_OUT = RuleKind.EVOLUTION, RuleKind.SEND_OUT


class _CRule:
    """A rule in the form the step reads: ``beta`` is the new polarization,
    or ``None`` when the rule keeps its own; ``(key, need)`` is the first
    (symbol, need) pair of the left-hand side, the one the index is keyed
    by, and ``rest`` holds the others (``()`` for a one-symbol side)."""

    __slots__ = ("id", "membrane", "alpha", "beta", "consume", "key", "need", "rest", "higher", "rank",
                 "effects")

    def __init__(self, rule: Rule, outer: str):
        """``outer`` is the region around the rule's membrane."""
        rid, kind, h, lhs, rhs, alpha, beta, aux, changes = rule
        self.id = rid
        self.membrane = h
        self.alpha = alpha
        self.beta = beta if changes else None
        lhs = lhs._counts
        if len(lhs) == 1:
            (self.key, self.need), = lhs.items()
            self.rest = ()
        else:
            pairs = tuple(lhs.items())
            (self.key, self.need), self.rest = pairs[0], pairs[1:]
        self.higher: list["_CRule"] | tuple[()] = ()  # a list only where priorities exist
        if kind is _EVOLUTION:
            self.consume = h  # region whose objects the rule consumes
            primary, secondary = h, None  # evolution rules carry no outer products
        elif kind is _SEND_OUT:
            self.consume = h
            primary, secondary = outer, h
        else:  # send-in; a definition holds none on the skin
            self.consume = outer
            primary, secondary = h, outer
        # (destination region, products) pairs; empty products are left out
        rhs, aux = rhs._counts, aux._counts
        self.effects = ((primary, rhs),) if rhs else ()
        if aux:
            self.effects += ((secondary, aux),)
        # self.rank: position in the deterministic order, set by _Compiled


_rank = operator.attrgetter("rank")


class _Compiled:
    @_gc_paused()
    def __init__(self, definition: PSystemDef):
        outer = {label: ENVIRONMENT_LABEL if parent is None else parent
                 for label, parent in definition.parent.items()}
        self.rules = crules = [_CRule(rule, outer[rule.membrane]) for rule in definition.rules]
        self.position = position = {rule.id: i for i, rule in enumerate(definition.rules)}
        for hi, lo in definition.priorities:
            lower = crules[position[lo]]
            if not lower.higher:
                lower.higher = []
            lower.higher.append(crules[position[hi]])
        # consumed region -> key symbol -> rules in deterministic order
        index: defaultdict[str, defaultdict[str, list[_CRule]]] = defaultdict(lambda: defaultdict(list))
        for rank, i in enumerate(_priority_order(position, definition.priorities)[0]):
            cr = crules[i]
            cr.rank = rank
            index[cr.consume][cr.key].append(cr)
        # plain dicts of tuples: a tuple holds one rule in less memory than a list
        self.index: dict[str, dict[str, tuple[_CRule, ...]]] = {
            region: {key: tuple(rules) for key, rules in keyed.items()} for region, keyed in index.items()}


def _order(policy: str, seed: int) -> random.Random | None:
    """The generator that shuffles a step's candidates; ``None`` keeps them
    in deterministic order."""
    if policy == DETERMINISTIC:
        return None
    if policy == SEEDED_RANDOM:
        return random.Random(seed)
    raise ValueError(f"unknown selection policy {policy!r}")


# region -> residual counts (see "Commit" above); a region without a pool
# still holds its snapshot contents, and a pool never holds a count of 0
_Pools = dict[str, dict[str, int]]
_Fired = list[tuple[_CRule, int]]
# membrane -> the polarization that the step's fired rules give it
_Charges = dict[str, Polarization]


def _select(
    compiled: _Compiled, config: Configuration, rng: random.Random | None
) -> tuple[FiringPlan, _Pools, _Fired, _Charges]:
    """The step's plan, the pools it leaves, its ``(rule, count)`` list and
    its polarization changes."""
    # Candidates: rules whose guard and left-hand side pass on the snapshot,
    # gathered through the present symbols of each occupied region (see
    # "Selection cost" above).
    contents = config.contents
    polarizations = config.polarizations
    candidates: list[_CRule] = []
    for region, index in compiled.index.items():
        have = contents[region]._counts
        for key, cnt in have.items():
            for cr in index.get(key, ()):
                if polarizations[cr.membrane] is not cr.alpha or cnt < cr.need:
                    continue
                if cr.rest:
                    for sym, need in cr.rest:
                        if have.get(sym, 0) < need:
                            break
                    else:
                        candidates.append(cr)
                else:
                    candidates.append(cr)
    candidates.sort(key=_rank)
    if rng is not None:
        rng.shuffle(candidates)

    pools: _Pools = {}
    fired: _Fired = []
    counts: dict[str, int] = {}
    pending_beta: _Charges = {}

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
            beta = cr.beta
            if beta is not None:
                pend = pending_beta.get(cr.membrane)
                if pend is not None and pend is not beta:
                    continue
            p = pools.get(cr.consume)
            if p is None:
                p = pools[cr.consume] = dict(contents[cr.consume]._counts)
            key = cr.key
            have = p.get(key)
            if have is None:  # a pool holds no count of 0
                continue
            need = cr.need
            k = have // need  # the most applications the pool allows
            rest = cr.rest
            if rest:
                for sym, n in rest:
                    avail = p.get(sym, 0) // n
                    if avail < k:
                        k = avail
            if not k:
                continue
            if cr.higher:
                blocked = False
                for hi in cr.higher:  # blocked while a higher rule could still fire
                    if polarizations[hi.membrane] is not hi.alpha:
                        continue
                    hp = pools.get(hi.consume)
                    if hp is None:
                        hp = contents[hi.consume]._counts
                    if hp.get(hi.key, 0) < hi.need:
                        continue
                    for sym, n in hi.rest:
                        if hp.get(sym, 0) < n:
                            break
                    else:
                        blocked = True
                        break
                if blocked:
                    blocked_rules.append(cr)
                    continue
            left = have - need * k
            if left:
                p[key] = left
            else:
                del p[key]
            if rest:
                for sym, n in rest:
                    left = p[sym] - n * k
                    if left:
                        p[sym] = left
                    else:
                        del p[sym]
            fired.append((cr, k))
            counts[cr.id] = k
            if beta is not None:
                pending_beta[cr.membrane] = beta
            progress = True
        candidates = blocked_rules
    return FiringPlan(counts=counts), pools, fired, pending_beta


def _commit(config: Configuration, pools: _Pools, fired: _Fired, charges: _Charges) -> Configuration:
    """The configuration after ``fired``, whose consumption ``pools`` already
    holds and whose polarization changes ``charges`` holds.  The pools, which
    hold no count of 0, become the written regions as they are; a region that
    only receives products is copied once."""
    pols = config.polarizations
    if charges:
        pols = dict(pols)
        pols.update(charges)
    for cr, k in fired:
        for dest, products in cr.effects:
            region = pools.get(dest)
            if region is None:
                region = pools[dest] = dict(config.region(dest)._counts)
            for sym, cnt in products.items():
                region[sym] = region.get(sym, 0) + cnt * k

    new_contents = dict(config.contents)
    Multiset.adopt_all(pools, new_contents)
    new_env = new_contents.pop(ENVIRONMENT_LABEL, config.environment)  # no membrane has its label
    return Configuration(
        contents=new_contents,
        polarizations=pols,
        environment=new_env,
        step_index=config.step_index + 1,
    )


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def select_firing(definition: PSystemDef, config: Configuration) -> FiringPlan:
    """The deterministic plan for ``config``; compiles ``definition``."""
    return _select(_Compiled(definition), config, None)[0]


def apply_step(definition: PSystemDef, config: Configuration, plan: FiringPlan) -> Configuration:
    """Commit ``plan`` on ``config``.  ``plan`` is one the engine selected
    for ``config``, as ``select_firing`` returns it; any other plan is
    outside the contract and is not checked.  Compiles ``definition``, as
    ``select_firing`` does."""
    compiled = _Compiled(definition)
    pools: _Pools = {}
    fired: _Fired = []
    charges: _Charges = {}
    for rid, count in plan.counts.items():
        cr = compiled.rules[compiled.position[rid]]
        pool = pools.get(cr.consume)
        if pool is None:
            pool = pools[cr.consume] = dict(config.region(cr.consume)._counts)
        for sym, need in ((cr.key, cr.need), *cr.rest):
            left = pool[sym] - need * count
            if left:
                pool[sym] = left
            else:
                del pool[sym]
        fired.append((cr, count))
        if cr.beta is not None:
            charges[cr.membrane] = cr.beta
    return _commit(config, pools, fired, charges)


def steps(
    definition: PSystemDef,
    policy: str = DETERMINISTIC,
    seed: int = 0,
) -> Iterator[tuple[FiringPlan, Configuration]]:
    """Yield ``(plan, config)`` for every committed step from the initial
    configuration on, ``config`` being the state the plan produced; return
    when nothing fires (the system halted).

    For the seeded-random policy each step shuffles its candidates with a
    fresh ``random.Random((seed << 20) ^ step_index)``, so a run is
    reproducible from its seed alone.
    """
    compiled = _Compiled(definition)
    config = Configuration.initial(definition)
    while True:
        plan, pools, fired, charges = _select(compiled, config, _order(policy, (seed << 20) ^ config.step_index))
        if not plan:
            return
        config = _commit(config, pools, fired, charges)
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
