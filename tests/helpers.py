"""Shared test utilities: tiny system constructors, the exhaustive
firing-plan enumerator used as an independent oracle for selection semantics,
a reference selector that walks every rule on every greedy pass, a reference
commit on ``Multiset`` objects, and reference solver steps that evaluate the update formulas array by array
(float) and cell by cell (integer)."""

from __future__ import annotations

import heapq
import itertools
import random

import numpy as np

from psrelief import relief
from psrelief.engine import EngineError, FiringPlan
from psrelief.multiset import Multiset
from psrelief.psystem import (
    ENVIRONMENT_LABEL,
    Configuration,
    Polarization,
    PSystemDef,
    Rule,
    RuleKind,
)

N = Polarization.NEUTRAL
P = Polarization.POSITIVE
M = Polarization.NEGATIVE


def ms(**counts: int) -> Multiset:
    return Multiset(counts)


def evolution(rid, membrane, lhs, rhs, alpha=N):
    return Rule(id=rid, kind=RuleKind.EVOLUTION, membrane=membrane, lhs=lhs, rhs=rhs, alpha=alpha)


def send_out(rid, membrane, lhs, rhs, alpha=N, beta=None, aux=None):
    return Rule(
        id=rid, kind=RuleKind.SEND_OUT, membrane=membrane, lhs=lhs, rhs=rhs,
        alpha=alpha, beta=beta if beta is not None else alpha,
        rhs_aux=aux if aux is not None else Multiset(),
    )


def send_in(rid, membrane, lhs, rhs, alpha=N, beta=None, aux=None):
    return Rule(
        id=rid, kind=RuleKind.SEND_IN, membrane=membrane, lhs=lhs, rhs=rhs,
        alpha=alpha, beta=beta if beta is not None else alpha,
        rhs_aux=aux if aux is not None else Multiset(),
    )


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
# Exhaustive plan enumeration (independent of the engine's greedy selection)
# ---------------------------------------------------------------------------


def _pools(definition: PSystemDef, config: Configuration) -> dict[str, dict[str, int]]:
    pools = {lab: dict(msv.counts()) for lab, msv in config.contents.items()}
    pools["environment"] = dict(config.environment.counts())
    return pools


def _consume_label(definition: PSystemDef, rule: Rule) -> str:
    if rule.kind is RuleKind.SEND_IN:
        par = definition.parent[rule.membrane]
        assert par is not None
        return par
    return rule.membrane


def _guard(rule: Rule, config) -> bool:
    return config.polarizations[rule.membrane] is rule.alpha


def rules_by_id(definition: PSystemDef) -> dict[str, Rule]:
    """The rules of ``definition`` by id, for lookups from plans and pairs."""
    return {r.id: r for r in definition.rules}


def _feasible(definition, config, counts: dict[str, int], rules: dict[str, Rule]) -> bool:
    pools = _pools(definition, config)
    for rid, k in counts.items():
        rule = rules[rid]
        pool = pools[_consume_label(definition, rule)]
        for sym, need in rule.lhs.items():
            pool[sym] = pool.get(sym, 0) - need * k
            if pool[sym] < 0:
                return False
    return True


def _compatible(counts: dict[str, int], rules: dict[str, Rule]) -> bool:
    change: dict[str, Polarization] = {}
    for rid, k in counts.items():
        if k <= 0:
            continue
        rule = rules[rid]
        if rule.changes_polarization:
            prev = change.get(rule.membrane)
            if prev is not None and prev is not rule.beta:
                return False
            change[rule.membrane] = rule.beta
    return True


def _residual(definition, config, counts: dict[str, int],
              rules: dict[str, Rule]) -> dict[str, dict[str, int]]:
    pools = _pools(definition, config)
    for rid, k in counts.items():
        rule = rules[rid]
        pool = pools[_consume_label(definition, rule)]
        for sym, need in rule.lhs.items():
            pool[sym] -= need * k
    return pools


def _covers(pool: dict[str, int], lhs) -> bool:
    return all(pool.get(sym, 0) >= need for sym, need in lhs.items())


def respects_priority(definition, config, counts: dict[str, int], rules: dict[str, Rule]) -> bool:
    """Weak priority: if a lower rule fired, the higher rule must be unable to
    fire even after reclaiming everything its lower rules consumed."""
    residual = _residual(definition, config, counts, rules)
    for hi_id, lo_id in definition.priorities:
        if counts.get(lo_id, 0) <= 0:
            continue
        hi = rules[hi_id]
        if not _guard(hi, config):
            continue
        reclaim = {lab: dict(pool) for lab, pool in residual.items()}
        for h2, l2 in definition.priorities:
            if h2 != hi_id or counts.get(l2, 0) <= 0:
                continue
            lo = rules[l2]
            pool = reclaim[_consume_label(definition, lo)]
            for sym, need in lo.lhs.items():
                pool[sym] = pool.get(sym, 0) + need * counts[l2]
        if _covers(reclaim[_consume_label(definition, hi)], hi.lhs):
            return False
    return True


def plan_is_valid(definition, config, counts: dict[str, int]) -> bool:
    counts = {rid: k for rid, k in counts.items() if k > 0}
    rules = rules_by_id(definition)
    return (
        _feasible(definition, config, counts, rules)
        and _compatible(counts, rules)
        and respects_priority(definition, config, counts, rules)
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
    maxes = []
    pools = _pools(definition, config)
    for rule in definition.rules:
        if not _guard(rule, config):
            maxes.append(0)
            continue
        pool = pools[_consume_label(definition, rule)]
        k = min(pool.get(sym, 0) // need for sym, need in rule.lhs.items())
        maxes.append(k)
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
        out = Multiset()
        total = rng.randint(0 if allow_empty else 1, max_total)
        for _ in range(total):
            out.add(rng.choice(symbols))
        return out

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
# Reference selector and commit: every greedy pass walks every rule, and the
# commit works on Multiset objects
# ---------------------------------------------------------------------------


def _reference_order(definition: PSystemDef, rng: random.Random | None) -> list[int]:
    """Linear extension of the priority relation, as the engine draws it:
    smallest declaration index first, or a seeded random pick among the
    ready rules."""
    index = {r.id: i for i, r in enumerate(definition.rules)}
    successors: dict[int, list[int]] = {i: [] for i in range(len(definition.rules))}
    n_preds = [0] * len(definition.rules)
    for hi, lo in definition.priorities:
        successors[index[hi]].append(index[lo])
        n_preds[index[lo]] += 1
    order: list[int] = []
    if rng is None:
        ready = [i for i in range(len(n_preds)) if n_preds[i] == 0]
        heapq.heapify(ready)
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            for j in successors[i]:
                n_preds[j] -= 1
                if n_preds[j] == 0:
                    heapq.heappush(ready, j)
    else:
        ready = sorted(i for i in range(len(n_preds)) if n_preds[i] == 0)
        while ready:
            i = ready.pop(rng.randrange(len(ready)))
            order.append(i)
            fresh = []
            for j in successors[i]:
                n_preds[j] -= 1
                if n_preds[j] == 0:
                    fresh.append(j)
            ready.extend(sorted(fresh))
    return order


class _RefRule:
    def __init__(self, definition: PSystemDef, rule: Rule):
        self.rule = rule
        self.consume = _consume_label(definition, rule)
        self.lhs = tuple(rule.lhs.items())
        self.charging = rule.changes_polarization
        self.higher: list["_RefRule"] = []


def _guard_passes(cr: _RefRule, config: Configuration) -> bool:
    return config.polarizations[cr.rule.membrane] is cr.rule.alpha


def _max_applications(lhs, pool: dict[str, int]) -> int:
    k = None
    for sym, need in lhs:
        have = pool.get(sym, 0)
        avail = have // need
        if avail == 0:
            return 0
        k = avail if k is None else min(k, avail)
    return k or 0


def reference_select(definition: PSystemDef, config: Configuration,
                     policy: str = "deterministic", seed: int = 0) -> FiringPlan:
    """The engine's greedy fixed point without candidate lists: every pass
    walks the whole order, and a rule is skipped afresh on every pass when its
    guard or left-hand side fails.  ``select_firing`` must return the same
    plan for the same arguments."""
    crules = [_RefRule(definition, r) for r in definition.rules]
    by_id = {cr.rule.id: cr for cr in crules}
    for hi, lo in definition.priorities:
        by_id[lo].higher.append(by_id[hi])
    rng = None if policy == "deterministic" else random.Random(seed)
    order = [crules[i] for i in _reference_order(definition, rng)]

    pools: dict[str, dict[str, int]] = {}

    def pool(label: str) -> dict[str, int]:
        p = pools.get(label)
        if p is None:
            p = dict(config.region(label).counts())
            pools[label] = p
        return p

    fired: dict[str, int] = {}
    pending_beta: dict[str, Polarization] = {}

    progress = True
    while progress:
        progress = False
        for cr in order:
            rule = cr.rule
            if not _guard_passes(cr, config):
                continue
            if cr.charging:
                pend = pending_beta.get(rule.membrane)
                if pend is not None and pend is not rule.beta:
                    continue
            p = pool(cr.consume)
            k = _max_applications(cr.lhs, p)
            if k == 0:
                continue
            blocked = False
            for hi in cr.higher:
                if _guard_passes(hi, config) and _max_applications(hi.lhs, pool(hi.consume)) > 0:
                    blocked = True
                    break
            if blocked:
                continue
            for sym, need in cr.lhs:
                p[sym] -= need * k
            fired[rule.id] = fired.get(rule.id, 0) + k
            if cr.charging:
                pending_beta[rule.membrane] = rule.beta
            progress = True
    return FiringPlan(counts=fired)


def _reference_effects(definition: PSystemDef, rule: Rule) -> list[tuple[str, Multiset]]:
    """(destination region, products) pairs of ``rule``, empty products left out."""
    parent = definition.parent[rule.membrane]
    outer = ENVIRONMENT_LABEL if parent is None else parent
    if rule.kind is RuleKind.EVOLUTION:
        pairs = [(rule.membrane, rule.rhs)]
    elif rule.kind is RuleKind.SEND_OUT:
        pairs = [(outer, rule.rhs), (rule.membrane, rule.rhs_aux)]
    else:
        pairs = [(rule.membrane, rule.rhs), (outer, rule.rhs_aux)]
    return [(dest, products) for dest, products in pairs if products]


def reference_apply(definition: PSystemDef, config: Configuration, plan: FiringPlan) -> Configuration:
    """The engine's commit written on ``Multiset`` objects: every written
    region is copied as a ``Multiset`` and changed through ``remove`` and
    ``add``.  ``apply_step`` must return an equal configuration and raise the
    same ``EngineError`` messages for the same arguments."""
    rules = rules_by_id(definition)
    new_contents = dict(config.contents)
    new_env = config.environment
    touched: set[str] = set()

    def region_for_write(label: str) -> Multiset:
        nonlocal new_env
        if label == ENVIRONMENT_LABEL:
            if new_env is config.environment:
                new_env = config.environment.copy()
            return new_env
        if label not in touched:
            new_contents[label] = new_contents[label].copy()
            touched.add(label)
        return new_contents[label]

    new_pols = dict(config.polarizations)
    changed_to: dict[str, Polarization] = {}
    for rid, count in plan.counts.items():
        rule = rules.get(rid)
        if rule is None:
            raise EngineError(f"plan names unknown rule {rid!r}")
        if count <= 0:
            raise EngineError(f"plan has non-positive count for {rid!r}")
        try:
            region = region_for_write(_consume_label(definition, rule))
            for sym, need in rule.lhs.items():
                region.remove(sym, need * count)
        except Exception as exc:
            raise EngineError(f"infeasible plan at rule {rid!r}: {exc}") from exc
        for dest, products in _reference_effects(definition, rule):
            region = region_for_write(dest)
            for sym, cnt in products.items():
                region.add(sym, cnt * count)
        h = rule.membrane
        if rule.changes_polarization:
            prev = changed_to.get(h)
            if prev is not None and prev is not rule.beta:
                raise EngineError(f"incompatible polarization targets for membrane {h!r}")
            changed_to[h] = rule.beta
            new_pols[h] = rule.beta
    return Configuration(
        contents=new_contents,
        polarizations=new_pols,
        environment=new_env,
        step_index=config.step_index + 1,
    )


# ---------------------------------------------------------------------------
# Reference solver steps: the update formulas written out, one family at a time
# ---------------------------------------------------------------------------


def reference_gradient_pack(inst: relief.ReliefInstance, state: relief.SolverState, variant: str):
    """Parenthesized drift of each update family, before scaling by a_t, and
    the number of visibility derivatives capped at an empty column."""
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
        safe = np.where(cols > 0.0, cols, relief.VISIBILITY_FLOOR)
        capped = int(np.count_nonzero(cols <= 0.0))
        g = g + (inst.vis_k / (2.0 * np.sqrt(safe)))[None, :]
    dl = -inst.s + q.sum(axis=1)
    d1 = -cols + inst.d_lo
    d2 = -inst.d_hi + cols
    return g, dl, d1, d2, capped


def reference_projected_step(state: relief.SolverState, inst: relief.ReliefInstance,
                             variant: str) -> tuple[relief.SolverState, int]:
    """One projected step and the visibility caps hit on the time-t state."""
    a = relief.step_size(state.t)
    g, dl, d1, d2, capped = reference_gradient_pack(inst, state, variant)
    nxt = relief.SolverState(
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
    state = relief.SolverState.initial(inst)
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


def _reference_project(retained: int, drift: int, w: int) -> int:
    """New count from a retained count and a signed drift (both in raw scale):
    emit the scaled magnitude, then cancel against the retained objects."""
    delta = relief.scaled_emission(abs(drift), w)
    if drift >= 0:
        return retained + delta
    return max(0, retained - delta)


def reference_quantized_step(state: relief.QuantizedState, inst: relief.ReliefInstance,
                             k: relief.FixedPointConstants) -> relief.QuantizedState:
    """The integer iteration cell by cell through the gadget definitions
    ``div_round_half`` and ``scaled_emission``; ``quantized_euler_step`` must
    return the same counts."""
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
                    + relief.div_round_half(state.q[i][j] * k.slope[i][j], k.den[i], k.half[i])
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
    return relief.QuantizedState(q=new_q, lam=new_lam, lam1=new_lam1, lam2=new_lam2,
                                 t=state.t + 1, p=state.p)
