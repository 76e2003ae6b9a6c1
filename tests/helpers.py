"""Shared test utilities and the references the tests compare the package
against.

* Tiny system constructors and random small systems.
* The instances the tests draw: ``katrina_shaped``, whose recipe is
  ``bench/gen.py``'s (loaded from its file, so tests and benchmark draw the
  same instances from one copy), ``random_instance``, ``derived_1x1``, and
  the shipped benchmark tables.
* The rule semantics, one helper per idea: the guard, the region a rule
  consumes from, writable pools of every region, how many times a pool covers
  a left-hand side, and the residual of a plan.  They serve the brute-force
  enumerator of maximal firing plans, the reference selector that scans every
  rule on every greedy pass, and the reference commit.  The reference commit
  asserts that each plan it commits fits its snapshot, which the engine's
  commit does not check, so any plan a test builds can be committed through
  it.
* ``select``, the engine's selection under either policy from any
  configuration and seed, through the compiled form ``engine.steps`` uses.
* ``ReferenceTraceWriter``, the trace writer as a per-line loop: one
  ``write`` per record, and a walk over every membrane label on every step.
* Reference solver steps that evaluate the update formulas array by array
  (float) and cell by cell (integer, through the scalar gadgets
  ``div_round_half`` and ``scaled_emission`` that relief's integer step
  inlines) on a ``State`` of their own, and adapters that drive relief's
  prepared steps on such a state.
* ``assert_lockstep``, the one comparison of the engine route with the
  integer iteration, iteration by iteration.
* A reference ``.psys`` reader written from docs/psys-format.md; it takes
  only the result types from ``psrelief.dsl``.
"""

from __future__ import annotations

import heapq
import importlib.util
import itertools
import random
import re
from importlib import resources
from pathlib import Path
from typing import IO, Any, NamedTuple

import numpy as np

from psrelief import relief
from psrelief.builder import GeneratedSystem, symbol
from psrelief.dsl import ParseDiagnostic, ParseResult, SourceDocument
from psrelief.engine import DETERMINISTIC, FiringPlan, _Compiled, _order, _select
from psrelief.io import parse_matrix_csv
from psrelief.multiset import EMPTY, Multiset
from psrelief.psystem import (
    ENVIRONMENT_LABEL,
    Configuration,
    Polarization,
    PSystemDef,
    Rule,
    RuleKind,
    problems,
)
from psrelief.trace import HALT, Iteration, iterations

N = Polarization.NEUTRAL
P = Polarization.POSITIVE
M = Polarization.NEGATIVE


def ms(**counts: int) -> Multiset:
    return Multiset(counts)


def evolution(rid, membrane, lhs, rhs, alpha=N):
    return Rule(id=rid, kind=RuleKind.EVOLUTION, membrane=membrane, lhs=lhs, rhs=rhs, alpha=alpha)


def send_out(rid, membrane, lhs, rhs, alpha=N, beta=None, aux=EMPTY):
    return Rule(id=rid, kind=RuleKind.SEND_OUT, membrane=membrane, lhs=lhs, rhs=rhs,
                alpha=alpha, beta=beta, rhs_aux=aux)


def send_in(rid, membrane, lhs, rhs, alpha=N, beta=None, aux=EMPTY):
    return Rule(id=rid, kind=RuleKind.SEND_IN, membrane=membrane, lhs=lhs, rhs=rhs,
                alpha=alpha, beta=beta, rhs_aux=aux)


def parts(d: PSystemDef) -> tuple:
    """The parts of ``d`` in the argument order of ``psystem.problems``."""
    return d.parent, d.initial, d.rules, d.priorities, d.output


def single_membrane_example() -> PSystemDef:
    """One membrane holding a^3 d with rules a^2->b, a->c, d->e and the first
    rule prioritized over the second."""
    return PSystemDef(
        parent={"1": None},
        initial={"1": ms(a=3, d=1)},
        rules=[
            evolution("r1", "1", ms(a=2), ms(b=1)),
            evolution("r2", "1", ms(a=1), ms(c=1)),
            evolution("r3", "1", ms(d=1), ms(e=1)),
        ],
        priorities=[("r1", "r2")],
        output="environment",
    )


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def _load_bench_gen():
    """bench/gen.py as a module of its own, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("_psrelief_bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_bench_gen = _load_bench_gen()


def katrina_shaped(rng: random.Random, m: int, n: int) -> relief.ReliefInstance:
    """Well-conditioned instance with an interior-leaning equilibrium in the
    hundreds of items, the regime of the published case study: the benchmark
    ladder's recipe."""
    inst = relief.ReliefInstance.from_dict(_bench_gen.katrina_shaped(rng, m, n))
    assert not relief.validate(inst)
    return inst


def derived_1x1() -> relief.ReliefInstance:
    return relief.ReliefInstance(
        m=1, n=1, s=[1000.0], d_lo=[0.0], d_hi=[1000.0],
        gamma=[[1.0]], omega=[1.0], beta=[1.0],
        cost_a=[[1.0]], cost_b=[[0.0]], vis_k=[1.0],
    )


def slow_oscillator() -> relief.ReliefInstance:
    """1x1: a tug-of-war of the multipliers keeps its quantized iteration
    oscillating for thousands of rounds."""
    return relief.ReliefInstance(m=1, n=1, s=[2.962], d_lo=[1.339], d_hi=[3.904],
                                 gamma=[[1.074]], omega=[3.747], beta=[0.285],
                                 cost_a=[[3.931]], cost_b=[[0.371]], vis_k=[1.2])


def random_instance(rng: random.Random, m: int, n: int, lo=0.25, hi=4.0) -> relief.ReliefInstance:
    while True:
        d_lo = [round(rng.uniform(lo, min(hi, 3.5 / n)), 3) for _ in range(n)]
        d_hi = [round(rng.uniform(d, hi), 3) for d in d_lo]
        inst = relief.ReliefInstance(
            m=m, n=n,
            s=[round(rng.uniform(lo, hi), 3) for _ in range(m)],
            d_lo=d_lo, d_hi=d_hi,
            gamma=[[round(rng.uniform(lo, hi), 3) for _ in range(n)] for _ in range(m)],
            omega=[round(rng.uniform(lo, hi), 3) for _ in range(m)],
            beta=[round(rng.uniform(lo, hi), 3) for _ in range(m)],
            cost_a=[[round(rng.uniform(lo, hi), 3) for _ in range(n)] for _ in range(m)],
            cost_b=[[round(rng.uniform(lo, hi), 3) for _ in range(n)] for _ in range(m)],
            vis_k=[round(rng.uniform(lo, hi), 3) for _ in range(n)],
        )
        if not relief.validate(inst):
            return inst


def load_table(name: str) -> np.ndarray:
    """A table shipped in ``psrelief/data``."""
    text = resources.files("psrelief").joinpath("data", name).read_text(encoding="utf-8")
    return parse_matrix_csv(text, origin=name)


# ---------------------------------------------------------------------------
# Rule semantics, one helper per idea
# ---------------------------------------------------------------------------


def rules_by_id(definition: PSystemDef) -> dict[str, Rule]:
    """The rules of ``definition`` by id, for lookups from plans and pairs."""
    return {r.id: r for r in definition.rules}


def _consume_label(definition: PSystemDef, rule: Rule) -> str:
    """The region ``rule`` consumes from: the parent's for a send-in."""
    if rule.kind is RuleKind.SEND_IN:
        par = definition.parent[rule.membrane]
        assert par is not None
        return par
    return rule.membrane


def _guard(rule: Rule, config: Configuration) -> bool:
    return config.polarizations[rule.membrane] is rule.alpha


def _pools(config: Configuration) -> dict[str, dict[str, int]]:
    """A writable copy of the counts of every region, the environment's too."""
    pools = {lab: dict(msv.counts()) for lab, msv in config.contents.items()}
    pools[ENVIRONMENT_LABEL] = dict(config.environment.counts())
    return pools


def _times(pool, lhs: Multiset) -> int:
    """How many applications of the left-hand side ``lhs`` ``pool`` covers."""
    return min(pool.get(sym, 0) // need for sym, need in lhs.items())


def _residual(definition, config, counts: dict[str, int],
              rules: dict[str, Rule]) -> dict[str, dict[str, int]]:
    """The pools after each rule of ``counts`` consumed its left-hand side
    that many times; a negative count means the plan is infeasible."""
    pools = _pools(config)
    for rid, k in counts.items():
        rule = rules[rid]
        pool = pools[_consume_label(definition, rule)]
        for sym, need in rule.lhs.items():
            pool[sym] = pool.get(sym, 0) - need * k
    return pools


def passes_on_snapshot(definition: PSystemDef, config: Configuration, rule: Rule) -> bool:
    """The guard and the left-hand side of ``rule`` pass on ``config``: the
    rule is one of the step's candidates."""
    return _guard(rule, config) and _times(config.region(_consume_label(definition, rule)).counts(), rule.lhs) > 0


# ---------------------------------------------------------------------------
# Exhaustive plan enumeration (independent of the engine's greedy selection)
# ---------------------------------------------------------------------------


def _compatible(counts: dict[str, int], rules: dict[str, Rule]) -> bool:
    change: dict[str, Polarization] = {}
    for rid in counts:
        rule = rules[rid]
        if rule.changes_polarization:
            prev = change.get(rule.membrane)
            if prev is not None and prev is not rule.beta:
                return False
            change[rule.membrane] = rule.beta
    return True


def _respects_priority(definition, config, counts: dict[str, int], rules: dict[str, Rule]) -> bool:
    """Weak priority: if a lower rule fired, the higher rule must be unable to
    fire even after reclaiming everything its lower rules consumed."""
    pairs = set(definition.priorities)
    for hi_id, lo_id in pairs:
        hi = rules[hi_id]
        if lo_id in counts and _guard(hi, config):
            kept = {rid: k for rid, k in counts.items() if (hi_id, rid) not in pairs}
            if _times(_residual(definition, config, kept, rules)[_consume_label(definition, hi)], hi.lhs):
                return False
    return True


def plan_is_valid(definition, config, counts: dict[str, int]) -> bool:
    counts = {rid: k for rid, k in counts.items() if k > 0}
    rules = rules_by_id(definition)
    residual = _residual(definition, config, counts, rules)
    return (
        all(c >= 0 for pool in residual.values() for c in pool.values())
        and _compatible(counts, rules)
        and _respects_priority(definition, config, counts, rules)
    )


def plan_is_maximal(definition, config, counts: dict[str, int]) -> bool:
    """No single additional application yields another valid plan."""
    if not plan_is_valid(definition, config, counts):
        return False
    for rule in definition.rules:
        if not _guard(rule, config):
            continue
        extended = dict(counts)
        extended[rule.id] = extended.get(rule.id, 0) + 1
        if plan_is_valid(definition, config, extended):
            return False
    return True


def enumerate_maximal_plans(definition: PSystemDef, config: Configuration) -> set[frozenset]:
    """All maximal priority-respecting compatible plans, by brute force.

    Intended for small systems only (a handful of rules, single-digit object
    counts); the search space is the product of per-rule multiplicity ranges.
    """
    pools = _pools(config)
    maxes = [_times(pools[_consume_label(definition, rule)], rule.lhs) if _guard(rule, config) else 0
             for rule in definition.rules]
    plans = set()
    for vector in itertools.product(*(range(m + 1) for m in maxes)):
        counts = {
            rule.id: k for rule, k in zip(definition.rules, vector) if k > 0
        }
        if plan_is_maximal(definition, config, counts):
            plans.add(frozenset(counts.items()))
    return plans


# ---------------------------------------------------------------------------
# Random small systems for property tests
# ---------------------------------------------------------------------------


def random_small_system(rng: random.Random) -> PSystemDef:
    n_membranes = rng.randint(1, 4)
    labels = [f"m{i}" for i in range(n_membranes)]
    parent: dict[str, str | None] = {labels[0]: None}
    for lab in labels[1:]:
        parent[lab] = rng.choice(labels[: labels.index(lab)] or [labels[0]])
    symbols = ["a", "b", "c", "d", "e"][: rng.randint(2, 5)]
    pols = list(Polarization)

    def random_ms(max_total: int, allow_empty: bool) -> Multiset:
        counts: dict[str, int] = {}
        total = rng.randint(0 if allow_empty else 1, max_total)
        for _ in range(total):
            sym = rng.choice(symbols)
            counts[sym] = counts.get(sym, 0) + 1
        return Multiset(counts)

    rules = []
    n_rules = rng.randint(1, 5)
    for i in range(n_rules):
        membrane = rng.choice(labels)
        kind = rng.choice([RuleKind.EVOLUTION, RuleKind.SEND_OUT, RuleKind.SEND_IN])
        if kind is RuleKind.SEND_IN and parent[membrane] is None:
            kind = RuleKind.SEND_OUT
        alpha = rng.choice(pols)
        beta = alpha if kind is RuleKind.EVOLUTION else rng.choice(pols)
        rules.append(
            Rule(
                id=f"r{i}",
                kind=kind,
                membrane=membrane,
                lhs=random_ms(2, allow_empty=False),
                rhs=random_ms(2, allow_empty=True),
                alpha=alpha,
                beta=beta,
                rhs_aux=random_ms(1, allow_empty=True) if kind is not RuleKind.EVOLUTION else Multiset(),
            )
        )
    priorities = []
    for i in range(n_rules):
        for j in range(i + 1, n_rules):
            if rng.random() < 0.2:
                priorities.append((f"r{i}", f"r{j}"))
    initial = {lab: random_ms(4, allow_empty=True) for lab in labels}
    while sum(msv.total() for msv in initial.values()) > 8:
        initial = {lab: random_ms(2, allow_empty=True) for lab in labels}
    return PSystemDef(
        parent=parent,
        initial=initial,
        rules=rules,
        priorities=priorities,
        output=rng.choice(labels + ["environment"]),
    )


# ---------------------------------------------------------------------------
# The engine's selection from any configuration, under either policy
# ---------------------------------------------------------------------------


def select(definition: PSystemDef, config: Configuration, policy: str, seed: int) -> FiringPlan:
    """The engine's plan for ``config`` under ``policy``; seeded-random
    shuffles the candidates with ``random.Random(seed)``, as each step of
    ``engine.steps`` does with its own seed."""
    return _select(_Compiled(definition), config, _order(policy, seed))[0]


# ---------------------------------------------------------------------------
# Reference selector and commit: candidates come from a scan of every rule,
# and the commit works on copies of every region
# ---------------------------------------------------------------------------


def _reference_order(definition: PSystemDef) -> list[int]:
    """Topological order of the priority relation, smallest declaration
    index first: the deterministic order."""
    index = {r.id: i for i, r in enumerate(definition.rules)}
    successors: dict[int, list[int]] = {i: [] for i in range(len(definition.rules))}
    n_preds = [0] * len(definition.rules)
    for hi, lo in definition.priorities:
        successors[index[hi]].append(index[lo])
        n_preds[index[lo]] += 1
    order: list[int] = []
    ready = [i for i in range(len(n_preds)) if n_preds[i] == 0]
    heapq.heapify(ready)
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in successors[i]:
            n_preds[j] -= 1
            if n_preds[j] == 0:
                heapq.heappush(ready, j)
    return order


def reference_select(definition: PSystemDef, config: Configuration,
                     policy: str = "deterministic", seed: int = 0) -> FiringPlan:
    """The engine's greedy fixed point without the key-symbol index.  The
    step's order is every rule whose guard and left-hand side pass on the
    snapshot, found by a scan of all rules, in deterministic order; the
    seeded-random policy shuffles it with ``random.Random(seed)``.  A rule
    is skipped afresh on every pass when its left-hand side fails.
    ``select_firing`` must return the same plan for the same arguments."""
    rules = rules_by_id(definition)
    higher: dict[str, list[Rule]] = {rid: [] for rid in rules}
    for hi, lo in definition.priorities:
        higher[lo].append(rules[hi])
    order = [definition.rules[i] for i in _reference_order(definition)]
    order = [rule for rule in order if passes_on_snapshot(definition, config, rule)]
    if policy != "deterministic":
        random.Random(seed).shuffle(order)

    pools = _pools(config)
    fired: dict[str, int] = {}
    pending_beta: dict[str, Polarization] = {}
    progress = True
    while progress:
        progress = False
        for rule in order:
            if rule.changes_polarization and pending_beta.get(rule.membrane, rule.beta) is not rule.beta:
                continue
            pool = pools[_consume_label(definition, rule)]
            k = _times(pool, rule.lhs)
            if k == 0 or any(_guard(hi, config) and _times(pools[_consume_label(definition, hi)], hi.lhs)
                             for hi in higher[rule.id]):
                continue
            for sym, need in rule.lhs.items():
                pool[sym] -= need * k
            fired[rule.id] = fired.get(rule.id, 0) + k
            if rule.changes_polarization:
                pending_beta[rule.membrane] = rule.beta
            progress = True
    return FiringPlan(counts=fired)


def _reference_effects(definition: PSystemDef, rule: Rule) -> list[tuple[str, Multiset]]:
    """(destination region, products) pairs of ``rule``."""
    parent = definition.parent[rule.membrane]
    outer = ENVIRONMENT_LABEL if parent is None else parent
    if rule.kind is RuleKind.EVOLUTION:
        return [(rule.membrane, rule.rhs)]
    if rule.kind is RuleKind.SEND_OUT:
        return [(outer, rule.rhs), (rule.membrane, rule.rhs_aux)]
    return [(rule.membrane, rule.rhs), (outer, rule.rhs_aux)]


def reference_apply(definition: PSystemDef, config: Configuration, plan: FiringPlan) -> Configuration:
    """The engine's commit on copies of every region: the whole plan's
    consumption first, then its products, so no rule consumes what another
    produces in the same step.  A plan that names an unknown rule, holds a
    count below 1, consumes more than the snapshot holds or sets two
    polarizations on one membrane fails an assertion.  ``apply_step`` must
    return an equal configuration for a plan ``select_firing`` returned."""
    rules = rules_by_id(definition)
    pools = _pools(config)
    new_pols = dict(config.polarizations)
    changed_to: dict[str, Polarization] = {}
    for rid, count in plan.counts.items():
        rule = rules.get(rid)
        assert rule is not None and count > 0, (rid, count)
        pool = pools[_consume_label(definition, rule)]
        for sym, need in rule.lhs.items():
            have, take = pool.get(sym, 0), need * count
            assert take <= have, f"infeasible plan at rule {rid!r}: {take} x {sym!r}, only {have} present"
            pool[sym] = have - take
        h = rule.membrane
        if rule.changes_polarization:
            assert changed_to.get(h, rule.beta) is rule.beta, f"two polarizations for membrane {h!r}"
            changed_to[h] = rule.beta
            new_pols[h] = rule.beta
    for rid, count in plan.counts.items():
        for dest, products in _reference_effects(definition, rules[rid]):
            pool = pools[dest]
            for sym, cnt in products.items():
                pool[sym] = pool.get(sym, 0) + cnt * count
    return Configuration(
        contents={label: Multiset(pools[label]) for label in config.contents},
        polarizations=new_pols,
        environment=Multiset(pools[ENVIRONMENT_LABEL]),
        step_index=config.step_index + 1,
    )


# ---------------------------------------------------------------------------
# Reference trace writer
# ---------------------------------------------------------------------------


class ReferenceTraceWriter:
    """The trace format of docs/trace-format.md, one record at a time:
    ``trace.TraceWriter`` must write the same bytes for the same steps."""

    def __init__(self, definition: PSystemDef, sink: IO[str]):
        self._sink = sink
        lines = sorted(definition.rules, key=lambda r: r.membrane)  # stable: declaration order within
        self._position = {r.id: i for i, r in enumerate(lines)}
        self._membrane_at = [r.membrane for r in lines]
        self._labels = sorted(definition.parent)
        self._last_pols = Configuration.initial(definition).polarizations

    def __call__(self, step: int, plan: FiringPlan, config: Configuration) -> None:
        counts, position, membrane_at = plan.counts, self._position, self._membrane_at
        for i, rid in sorted((position[rid], rid) for rid in counts):
            self._sink.write(f"step={step} membrane={membrane_at[i]} rule={rid} count={counts[rid]}\n")
        pols, last = config.polarizations, self._last_pols
        for lab in self._labels:
            pol = pols[lab]
            if pol is not last[lab]:
                self._sink.write(f"polarization {lab} {pol.value}\n")
                last[lab] = pol


# ---------------------------------------------------------------------------
# Reference solver steps: the update formulas written out, one family at a time
# ---------------------------------------------------------------------------


class State(NamedTuple):
    """One iterate at iteration t: float arrays on the float route, lists of
    counts on the integer route."""

    q: Any      # (m, n)
    lam: Any    # (m,)
    lam1: Any   # (n,)
    lam2: Any   # (n,)
    t: int = 0


def flat(state: State) -> list:
    """The state's values in the packed order (q row-major, lam, lam1, lam2)."""
    return [c for row in state.q for c in row] + [*state.lam, *state.lam1, *state.lam2]


def count_start(inst: relief.ReliefInstance, p: int) -> State:
    """The integer route's start: every flow at 10^p counts, every multiplier 0."""
    return State([[10**p] * inst.n for _ in range(inst.m)], [0] * inst.m, [0] * inst.n,
                 [0] * inst.n)


def float_drift(inst: relief.ReliefInstance, variant: str, state: State) -> tuple[np.ndarray, int]:
    """The float drift's q part at state, and how many visibility
    derivatives it capped (none on ``simplified``)."""
    d, drift = relief._float_drift(inst, variant == relief.FULL)
    x, below = relief._packed(np.array(flat(state), float), inst.m, inst.n), np.zeros(inst.n, bool)
    drift(x, below)
    return d.q, int(np.count_nonzero(below))


def float_step(step: relief._FloatStep, state: State) -> tuple[State, int]:
    """One iterate of the prepared float step's ``run`` from state, as new
    arrays, and the visibility caps it hit."""
    step.caps.fill(0)
    t, out, _ = next(step.run(flat(state), state.t, state.t + 1))
    nxt = State(out.q.copy(), out.lam.copy(), out.lam1.copy(), out.lam2.copy(), t)
    return nxt, int(step.caps.sum())


def count_step(step: relief._QuantizedStep, state: State) -> State:
    """One iterate of the prepared integer step's ``run`` from state, as
    lists of Python ints."""
    t, out, _ = next(step.run(flat(state), state.t, state.t + 1))
    c = out.z.tolist()
    m, n = step.m, step.n
    mn = m * n
    return State([c[i * n:(i + 1) * n] for i in range(m)], c[mn:mn + m], c[mn + m:mn + m + n],
                 c[mn + m + n:], t)


def reference_gradient_pack(inst: relief.ReliefInstance, state: State, variant: str):
    """Parenthesized drift of each update family, before scaling by a_t, and
    the number of visibility derivatives capped at a column sum below
    ``VISIBILITY_FLOOR``."""
    q = state.q
    cols = q.sum(axis=0)
    g = (
        inst.omega[:, None] * inst.gamma / inst.beta[:, None]
        - (2.0 * inst.cost_a**2 * q + 2.0 * inst.cost_a * inst.cost_b) / inst.beta[:, None]
        - state.lam[:, None]
        + state.lam1[None, :]
        - state.lam2[None, :]
    )
    capped = 0
    if variant == relief.FULL:
        below = cols < relief.VISIBILITY_FLOOR
        capped = int(np.count_nonzero(below))
        safe = np.where(below, relief.VISIBILITY_FLOOR, cols)
        g = g + (inst.vis_k / (2.0 * np.sqrt(safe)))[None, :]
    dl = -inst.s + q.sum(axis=1)
    d1 = -cols + inst.d_lo
    d2 = -inst.d_hi + cols
    return g, dl, d1, d2, capped


def reference_projected_step(state: State, inst: relief.ReliefInstance,
                             variant: str) -> tuple[State, int]:
    """One projected step and the visibility caps hit on the time-t state."""
    a = relief.step_size(state.t)
    g, dl, d1, d2, capped = reference_gradient_pack(inst, state, variant)
    nxt = State(
        q=np.maximum(0.0, state.q + a * g),
        lam=np.maximum(0.0, state.lam + a * dl),
        lam1=np.maximum(0.0, state.lam1 + a * d1),
        lam2=np.maximum(0.0, state.lam2 + a * d2),
        t=state.t + 1,
    )
    return nxt, capped


def reference_solve(inst: relief.ReliefInstance, variant: str, tol: float,
                    max_iter: int) -> relief.EquilibriumReport:
    """``relief.solve`` for the float variants, stepping with
    ``reference_projected_step``; ``solve`` must return equal arrays."""
    state = State(np.ones((inst.m, inst.n)), np.zeros(inst.m), np.zeros(inst.n), np.zeros(inst.n))
    converged = False
    caps = 0
    for _ in range(max_iter):
        nxt, capped = reference_projected_step(state, inst, variant)
        caps += capped
        delta = float(np.max(np.abs(nxt.q - state.q)))
        state = nxt
        if delta < tol:
            converged = True
            break
    g, _, _, _, _ = reference_gradient_pack(inst, state, variant)
    return relief.EquilibriumReport(
        q_star=state.q, lam=state.lam, lam1=state.lam1, lam2=state.lam2,
        iterations=state.t, converged=converged, variant=variant, tol=tol,
        feasibility_residuals=relief.feasibility_residuals(inst, state.q),
        stationarity_residuals=g, visibility_cap_events=caps,
    )


def div_round_half(raw: int, den: int, half: int) -> int:
    """floor(raw/den), plus one when the remainder reaches the half mark."""
    if den <= 0:
        raise ValueError("division constant must be positive")
    return raw // den + (1 if raw % den >= half else 0)


def scaled_emission(magnitude: int, w: int) -> int:
    """Apply the step factor a_t = 0.1/2^w to a count: w floor-halvings (one
    right shift), then division by ten rounding half up."""
    magnitude >>= w
    return magnitude // 10 + (1 if magnitude % 10 >= 5 else 0)


def _reference_project(retained: int, drift: int, w: int) -> int:
    """New count from a retained count and a signed drift (both in raw scale):
    emit the scaled magnitude, then cancel against the retained objects."""
    delta = scaled_emission(abs(drift), w)
    if drift >= 0:
        return retained + delta
    return max(0, retained - delta)


def reference_quantized_step(state: State, inst: relief.ReliefInstance,
                             k: relief.FixedPointConstants) -> State:
    """The integer iteration cell by cell through the gadget definitions
    ``div_round_half`` and ``scaled_emission``; the prepared integer step
    must return the same counts."""
    m, n = inst.m, inst.n
    w = relief.quantized_halvings(state.t)
    rows = [sum(state.q[i]) for i in range(m)]
    cols = [sum(state.q[i][j] for i in range(m)) for j in range(n)]
    new_q = [
        [
            _reference_project(
                state.q[i][j],
                (k.k0[i][j] + state.lam1[j])
                - (
                    k.k1[i][j]
                    + state.lam[i]
                    + state.lam2[j]
                    + div_round_half(state.q[i][j] * k.slope[i][j], k.den[i], k.half[i])
                ),
                w,
            )
            for j in range(n)
        ]
        for i in range(m)
    ]
    new_lam = [_reference_project(state.lam[i], rows[i] - k.supply[i], w) for i in range(m)]
    new_lam1 = [_reference_project(state.lam1[j], k.dlo[j] - cols[j], w) for j in range(n)]
    new_lam2 = [_reference_project(state.lam2[j], cols[j] - k.dhi[j], w) for j in range(n)]
    return State(q=new_q, lam=new_lam, lam1=new_lam1, lam2=new_lam2, t=state.t + 1)


# ---------------------------------------------------------------------------
# The engine route against the integer iteration, in lockstep
# ---------------------------------------------------------------------------


def assert_lockstep(inst: relief.ReliefInstance, gen: GeneratedSystem, max_iterations: int,
                    policy: str = DETERMINISTIC, seed: int = 0, stream=iterations,
                    profiles: list | None = None) -> Iteration:
    """Advance ``stream`` (``trace.iterations`` or a stand-in) and the integer
    iteration together, one iterate of each at a time.  Each boundary's INIT
    counts of x, la, la1 and la2 (``relief._packed`` order) must equal the
    oracle's state, the halt's OUTPUT counts of o its q; the engine halts iff
    the oracle settles, and both end together.  The first difference fails,
    naming the iteration, the engine step, the families fired in that
    iteration and the differing cells.  Returns the last record; ``profiles``
    collects every record's stage profile."""
    ks, ls = range(1, gen.m + 1), range(1, gen.n + 1)
    packed = ([symbol("x", k, l) for k in ks for l in ls] + [symbol("la", k) for k in ks]
              + [symbol("la1", l) for l in ls] + [symbol("la2", l) for l in ls])
    outputs = [symbol("o", k, l) for k in ks for l in ls]
    plans = []  # of the current iteration, from the observer hook
    oracle = relief._QuantizedStep(relief.fixed_point_constants(inst, gen.p)).run(
        relief._start(inst, 10**gen.p), 0, max_iterations)
    for record in stream(gen, max_iterations, lambda _, plan, __: plans.append(plan.counts), policy, seed):
        halted = record.end == HALT
        cells = outputs if halted else packed
        got = [record.config.contents["OUTPUT" if halted else "INIT"].count(cell) for cell in cells]
        t, state, settled = next(oracle, (None, None, None))
        want = [] if state is None else (state.q if halted else state.z).ravel().tolist()
        if (t, settled, got) == (record.t, halted, want):
            plans.clear()
            if profiles is not None:
                profiles.append(record.profile)
            continue
        problem = f"engine halted={halted}, oracle iteration {t} settled={settled}; " + "; ".join(
            f"{cell}: engine {g}, oracle {w}" for cell, g, w in zip(cells, got, want) if g != w)
        families = [family for family, rids in gen.rule_index.items()
                    if any(rid in counts for counts in plans for rid in rids)]
        raise AssertionError(f"iteration {record.t}, engine step {record.config.step_index} "
                             f"({record.end}), families {families}: {problem}")
    assert next(oracle, None) is None, (
        f"the engine stream ended after iteration {record.t}; the oracle goes on")
    return record


# ---------------------------------------------------------------------------
# Reference .psys reader, written from docs/psys-format.md
# ---------------------------------------------------------------------------

#: A run of whitespace or one token: a polarization, an arrow, ASCII digits,
#: an identifier or a punctuation character.
_REF_TOKEN = re.compile(r"\s+|'[0+-]|->|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[\[\]:@>^]")
#: The kinds of token ``_RefLine.take`` knows by name.
_REF_KINDS = {"ID": r"[A-Za-z_]\w*", "LABEL": r"\w+", "COUNT": r"[0-9]+", "POL": r"'."}


class _RefFault(Exception):
    """A line's own fault: its message and its column."""


class _RefLine:
    """The ``(text, column)`` tokens of one line up to its comment, and a
    cursor over them."""

    def __init__(self, raw: str):
        text, pos = raw.partition("#")[0], 0
        self.tokens: list[tuple[str, int]] = []
        self.i = 0
        while pos < len(text):
            m = _REF_TOKEN.match(text, pos)
            if m is None:
                raise _RefFault(f"unexpected character {text[pos]!r}", pos + 1)
            if not m.group().isspace():
                self.tokens.append((m.group(), pos + 1))
            pos = m.end()

    def column(self, i: int) -> int:
        """The column of token ``i``, or one past the last token."""
        if i < len(self.tokens):
            return self.tokens[i][1]
        text, column = self.tokens[-1]
        return column + len(text)

    def fail(self, message: str, at: int | None = None):
        """A fault at token ``at``, by default the next one."""
        raise _RefFault(message, self.column(self.i if at is None else at))

    def peek(self) -> str:
        """The next token, or "" at the end of the line."""
        return self.tokens[self.i][0] if self.i < len(self.tokens) else ""

    def take(self, want: str, what: str | None = None) -> str:
        """The next token, which must be of kind ``want`` (a key of
        ``_REF_KINDS``) or else be ``want`` itself."""
        tok = self.peek()
        if not re.fullmatch(_REF_KINDS.get(want, re.escape(want)), tok):
            self.fail(f"expected {what or repr(want)}")
        self.i += 1
        return tok

    def skip(self, tok: str) -> bool:
        """Whether the next token is ``tok``; it is read if so."""
        if self.peek() != tok:
            return False
        self.i += 1
        return True

    def end(self) -> None:
        if self.peek():
            self.fail("unexpected trailing input")

    def multiset(self, *stop: str) -> Multiset:
        """Atoms up to a token of ``stop`` or the end of the line; a repeated
        symbol adds to its count at its first position."""
        counts: dict[str, int] = {}
        while self.peek() not in (*stop, ""):
            sym, count = self.take("ID", "a symbol name"), 1
            if self.skip("^"):
                digits = self.take("COUNT", "a count after '^'")
                if len(digits) > 4300:
                    self.fail("count has more than 4300 digits", self.i - 1)
                count = int(digits)
                if count == 0:
                    self.fail("multiplicity must be positive", self.i - 1)
            counts[sym] = counts.get(sym, 0) + count
        return Multiset(counts)

    def polarization(self) -> Polarization:
        return Polarization(self.take("POL", "a polarization")[1])

    def rule(self, rid: str) -> Rule:
        """One of the three rule bodies, then ``@ LABEL`` and the end."""
        if self.skip("["):
            lhs = self.multiset("->", "]")
            if self.skip("->"):
                rhs = self.multiset("]")
                self.take("]")
                alpha = self.polarization()
                return Rule(rid, RuleKind.EVOLUTION, self.rule_at(), lhs, rhs, alpha)
            kind = RuleKind.SEND_OUT
            self.take("]")
        else:
            kind = RuleKind.SEND_IN
            lhs = self.multiset("[")
            self.take("[")
            self.take("]")
        alpha = self.polarization()
        self.take("->")
        outer = self.multiset("[")
        self.take("[")
        inner = self.multiset("]")
        self.take("]")
        beta = self.polarization()
        rhs, aux = (outer, inner) if kind is RuleKind.SEND_OUT else (inner, outer)
        return Rule(rid, kind, self.rule_at(), lhs, rhs, alpha, beta, aux)

    def rule_at(self) -> str:
        self.take("@")
        label = self.take("LABEL", "a membrane label")
        self.end()
        return label


def reference_parse(doc: SourceDocument | str) -> ParseResult:
    """The format as docs/psys-format.md states it: ``dsl.parse`` must return
    an equal result, with the same diagnostics in the same order.  A line with
    a fault of its own declares nothing; the structural faults are those of
    ``psystem.problems``, placed through the ``(part, key)`` table ``at``."""
    text = doc if isinstance(doc, str) else doc.text
    if not isinstance(text, str):
        return ParseResult(None, [ParseDiagnostic("error", "input is not text", 1, 1)])
    diags: list[ParseDiagnostic] = []
    parent: dict[str, str | None] = {}
    initial: dict[str, Multiset] = {}
    rules: list[Rule] = []
    rule_ids: set[str] = set()
    priorities: list[tuple[str, str]] = []
    output = ENVIRONMENT_LABEL
    at: dict[tuple[str, Any], tuple[int, int]] = {("tree", None): (1, 1)}
    prio_labels: list[tuple[str, int, int]] = []
    for n, raw in enumerate(text.splitlines(), start=1):
        try:
            line = _RefLine(raw)
            if not line.tokens:
                continue
            head = line.take("ID", "a directive (membrane/output/init/rule/prio)")
            if head == "membrane":
                label, par = line.take("LABEL", "a membrane label"), None
                if label in parent:
                    line.fail(f"membrane {label!r} already declared", 0)
                if line.peek():
                    if line.take("ID", "'in PARENT' or end of line") != "in":
                        line.fail("expected 'in'", 2)
                    par = line.take("LABEL", "a parent label")
                line.end()
                parent[label] = par
                at["membrane", label], at["parent", label] = (n, line.column(1)), (n, line.column(3))
            elif head == "output":
                if ("output", None) in at:
                    line.fail("output already declared", 0)
                label = line.take("LABEL", "a label or 'environment'")
                line.end()
                output, at["output", None] = label, (n, line.column(1))
            elif head == "init":
                label = line.take("LABEL", "a membrane label")
                line.take(":")
                contents = line.multiset()
                if label in initial:
                    line.fail(f"init for {label!r} already given", 0)
                initial[label], at["init", label] = contents, (n, 1)
            elif head == "rule":
                rid = line.take("ID", "a rule id")
                line.take(":")
                rule = line.rule(rid)
                if rid in rule_ids:
                    line.fail(f"duplicate rule id {rid!r}", 1)
                at["rule", len(rules)] = (n, 1)
                rules.append(rule)
                rule_ids.add(rid)
            elif head == "prio":
                hi = line.take("ID", "a rule id")
                line.take(">")
                lo = line.take("ID", "a rule id")
                label = line.take("LABEL", "a membrane label") if line.skip("@") else None
                line.end()
                if label is not None:
                    prio_labels.append((label, n, line.column(1)))
                at["priority", len(priorities)] = (n, line.column(1))
                at.setdefault(("priorities", None), (n, 1))
                priorities.append((hi, lo))
            else:
                line.fail(f"unknown directive {head!r}", 0)
        except _RefFault as fault:
            diags.append(ParseDiagnostic("error", fault.args[0], n, fault.args[1]))
    diags += [ParseDiagnostic("error", f"priority names unknown membrane {label!r}", n, column)
              for label, n, column in prio_labels if label not in parent]
    diags += [ParseDiagnostic("error", str(prob), *at[prob.part, prob.key])
              for prob in problems(parent, initial, rules, priorities, output)]
    if diags:
        return ParseResult(None, diags)
    return ParseResult(PSystemDef(parent, initial, rules, priorities, output))
