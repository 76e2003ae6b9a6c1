"""Shared test utilities: tiny system constructors, the exhaustive
firing-plan enumerator used as an independent oracle for selection semantics,
and a reference selector that walks every rule on every greedy pass."""

from __future__ import annotations

import heapq
import itertools
import random

from psrelief.engine import FiringPlan
from psrelief.multiset import Multiset
from psrelief.psystem import (
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


def _feasible(definition, config, counts: dict[str, int]) -> bool:
    pools = _pools(definition, config)
    for rid, k in counts.items():
        rule = definition.rule_by_id(rid)
        pool = pools[_consume_label(definition, rule)]
        for sym, need in rule.lhs.items():
            pool[sym] = pool.get(sym, 0) - need * k
            if pool[sym] < 0:
                return False
    return True


def _compatible(definition, config, counts: dict[str, int]) -> bool:
    change: dict[str, Polarization] = {}
    for rid, k in counts.items():
        if k <= 0:
            continue
        rule = definition.rule_by_id(rid)
        if rule.changes_polarization:
            prev = change.get(rule.membrane)
            if prev is not None and prev is not rule.beta:
                return False
            change[rule.membrane] = rule.beta
    return True


def _residual(definition, config, counts: dict[str, int]) -> dict[str, dict[str, int]]:
    pools = _pools(definition, config)
    for rid, k in counts.items():
        rule = definition.rule_by_id(rid)
        pool = pools[_consume_label(definition, rule)]
        for sym, need in rule.lhs.items():
            pool[sym] -= need * k
    return pools


def _covers(pool: dict[str, int], lhs) -> bool:
    return all(pool.get(sym, 0) >= need for sym, need in lhs.items())


def respects_priority(definition, config, counts: dict[str, int]) -> bool:
    """Weak priority: if a lower rule fired, the higher rule must be unable to
    fire even after reclaiming everything its lower rules consumed."""
    residual = _residual(definition, config, counts)
    for hi_id, lo_id in definition.priorities:
        if counts.get(lo_id, 0) <= 0:
            continue
        hi = definition.rule_by_id(hi_id)
        if not _guard(hi, config):
            continue
        reclaim = {lab: dict(pool) for lab, pool in residual.items()}
        for h2, l2 in definition.priorities:
            if h2 != hi_id or counts.get(l2, 0) <= 0:
                continue
            lo = definition.rule_by_id(l2)
            pool = reclaim[_consume_label(definition, lo)]
            for sym, need in lo.lhs.items():
                pool[sym] = pool.get(sym, 0) + need * counts[l2]
        if _covers(reclaim[_consume_label(definition, hi)], hi.lhs):
            return False
    return True


def plan_is_valid(definition, config, counts: dict[str, int]) -> bool:
    counts = {rid: k for rid, k in counts.items() if k > 0}
    return (
        _feasible(definition, config, counts)
        and _compatible(definition, config, counts)
        and respects_priority(definition, config, counts)
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
# Reference selector: every greedy pass walks every rule
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
