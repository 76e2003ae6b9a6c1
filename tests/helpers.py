"""Shared test utilities: tiny system constructors, the exhaustive
firing-plan enumerator used as an independent oracle for selection semantics,
a reference selector that walks every rule on every greedy pass, a reference
commit on ``Counter`` copies, reference solver steps that evaluate the update formulas array by array
(float) and cell by cell (integer) on a ``State`` of their own, adapters that
drive relief's prepared steps on such a state, and a reference ``.psys``
reader that builds one token object per token."""

from __future__ import annotations

import heapq
import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from psrelief import relief
from psrelief.dsl import ParseDiagnostic, ParseResult, SourceDocument
from psrelief.engine import EngineError, FiringPlan
from psrelief.multiset import Multiset
from psrelief.psystem import (
    ENVIRONMENT_LABEL,
    Configuration,
    Polarization,
    PSystemDef,
    Rule,
    RuleKind,
    problems,
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
# Reference selector and commit: candidates come from a scan of every rule,
# and the commit works on Counter copies
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


class _RefRule:
    def __init__(self, definition: PSystemDef, rule: Rule):
        self.rule = rule
        self.consume = _consume_label(definition, rule)
        self.lhs = tuple(rule.lhs.items())
        self.charging = rule.changes_polarization
        self.higher: list["_RefRule"] = []


def passes_on_snapshot(definition: PSystemDef, config: Configuration, rule: Rule) -> bool:
    """The guard and the left-hand side of ``rule`` pass on ``config``: the
    rule is one of the step's candidates."""
    return _guard(rule, config) and _covers(config.region(_consume_label(definition, rule)).counts(), rule.lhs)


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
    """The engine's greedy fixed point without the key-symbol index.  The
    step's order is every rule whose guard and left-hand side pass on the
    snapshot, found by a scan of all rules, in deterministic order; the
    seeded-random policy shuffles it with ``random.Random(seed)``.  A rule
    is skipped afresh on every pass when its guard or left-hand side fails.
    ``select_firing`` must return the same plan for the same arguments."""
    crules = [_RefRule(definition, r) for r in definition.rules]
    by_id = {cr.rule.id: cr for cr in crules}
    for hi, lo in definition.priorities:
        by_id[lo].higher.append(by_id[hi])
    order = [crules[i] for i in _reference_order(definition)]
    order = [cr for cr in order if passes_on_snapshot(definition, config, cr.rule)]
    if policy != "deterministic":
        random.Random(seed).shuffle(order)

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
    """The engine's commit written on ``Counter`` copies: every written
    region is copied into a ``Counter`` and changed there, the whole plan's
    consumption first, then its products, so no rule consumes what another
    produces in the same step.  ``apply_step`` must return an equal
    configuration and raise the same ``EngineError`` messages for the same
    arguments."""
    rules = rules_by_id(definition)
    written: dict[str, Counter] = {}

    def region_for_write(label: str) -> Counter:
        if label not in written:
            written[label] = Counter(config.region(label).counts())
        return written[label]

    new_pols = dict(config.polarizations)
    changed_to: dict[str, Polarization] = {}
    for rid, count in plan.counts.items():
        rule = rules.get(rid)
        if rule is None:
            raise EngineError(f"plan names unknown rule {rid!r}")
        if count <= 0:
            raise EngineError(f"plan has non-positive count for {rid!r}")
        region = region_for_write(_consume_label(definition, rule))
        for sym, need in rule.lhs.items():
            have, take = region[sym], need * count
            if take > have:
                raise EngineError(
                    f"infeasible plan at rule {rid!r}: cannot remove {take} x {sym!r}, only {have} present")
            region[sym] = have - take
        h = rule.membrane
        if rule.changes_polarization:
            prev = changed_to.get(h)
            if prev is not None and prev is not rule.beta:
                raise EngineError(f"incompatible polarization targets for membrane {h!r}")
            changed_to[h] = rule.beta
            new_pols[h] = rule.beta
    for rid, count in plan.counts.items():
        for dest, products in _reference_effects(definition, rules[rid]):
            region = region_for_write(dest)
            for sym, cnt in products.items():
                region[sym] += cnt * count
    new_contents = dict(config.contents)
    new_env = config.environment
    for label, counts in written.items():
        if label == ENVIRONMENT_LABEL:
            new_env = Multiset(counts)
        else:
            new_contents[label] = Multiset(counts)
    return Configuration(
        contents=new_contents,
        polarizations=new_pols,
        environment=new_env,
        step_index=config.step_index + 1,
    )


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


def float_drift(step: relief._FloatStep, state: State) -> tuple[np.ndarray, int]:
    """A copy of the prepared float step's q drift at state, and its
    visibility cap count."""
    x = step.empty()
    x.z[:] = flat(state)
    capped = step.drift(x)
    return step.d.q.copy(), capped


def float_step(step: relief._FloatStep, state: State) -> tuple[State, int]:
    """The prepared float step from state, and the visibility caps it hit."""
    x, out = step.empty(), step.empty()
    x.z[:] = flat(state)
    capped = step.advance(x, out, relief.step_size(state.t))
    return State(out.q, out.lam, out.lam1, out.lam2, state.t + 1), capped


def count_step(step: relief._QuantizedStep, state: State) -> State:
    """The prepared integer step from state, as lists of Python ints."""
    c = step(step.pack(flat(state)), relief.quantized_halvings(state.t)).tolist()
    m, n = step.m, step.n
    mn = m * n
    return State([c[i * n:(i + 1) * n] for i in range(m)], c[mn:mn + m], c[mn + m:mn + m + n],
                 c[mn + m + n:], state.t + 1)


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


def _reference_project(retained: int, drift: int, w: int) -> int:
    """New count from a retained count and a signed drift (both in raw scale):
    emit the scaled magnitude, then cancel against the retained objects."""
    delta = relief.scaled_emission(abs(drift), w)
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
    return State(q=new_q, lam=new_lam, lam1=new_lam1, lam2=new_lam2, t=state.t + 1)


# ---------------------------------------------------------------------------
# Reference .psys reader (one token object per token)
# ---------------------------------------------------------------------------


_REF_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<pol>'[0+\-])
      | (?P<arrow>->)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[\[\]:@>^])
    """,
    re.VERBOSE,
)


@dataclass
class _RefToken:
    kind: str
    text: str
    column: int


class _RefLineParser:
    def __init__(self, tokens: list[_RefToken], line_no: int, diags: list[ParseDiagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.diags = diags

    def peek(self) -> _RefToken | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _RefToken | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def error(self, message: str, tok: _RefToken | None = None) -> None:
        col = tok.column if tok is not None else (self.tokens[-1].column + len(self.tokens[-1].text) if self.tokens else 1)
        self.diags.append(ParseDiagnostic("error", message, self.line_no, col))
        raise _RefBail()

    def expect(self, kind: str, what: str) -> _RefToken:
        tok = self.next()
        if tok is None or tok.kind != kind:
            self.error(f"expected {what}", tok)
        return tok

    def expect_punct(self, char: str) -> _RefToken:
        tok = self.next()
        if tok is None or tok.kind != "punct" or tok.text != char:
            self.error(f"expected {char!r}", tok)
        return tok

    def expect_label(self, what: str = "a membrane label") -> _RefToken:
        tok = self.next()
        if tok is None or tok.kind not in ("ident", "int"):
            self.error(f"expected {what}", tok)
        return tok

    def at_punct(self, char: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "punct" and tok.text == char

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def multiset(self, stoppers: tuple[str, ...]) -> Multiset:
        """Parse atoms until a stopper token kind/char; empty multiset allowed.
        A repeated symbol adds to its count at its first position."""
        counts: dict[str, int] = {}
        while True:
            tok = self.peek()
            if tok is None or tok.kind in stoppers or (tok.kind == "punct" and tok.text in stoppers):
                return Multiset(counts)
            if tok.kind != "ident":
                self.error("expected a symbol name", tok)
            self.next()
            count = 1
            if self.at_punct("^"):
                self.next()
                num = self.expect("int", "a count after '^'")
                count = int(num.text)
                if count <= 0:
                    self.error("multiplicity must be positive", num)
            counts[tok.text] = counts.get(tok.text, 0) + count


class _RefBail(Exception):
    pass


def _ref_tokenize(line: str, line_no: int, diags: list[ParseDiagnostic]) -> list[_RefToken] | None:
    hash_at = line.find("#")
    if hash_at != -1:
        line = line[:hash_at]
    tokens: list[_RefToken] = []
    pos = 0
    while pos < len(line):
        m = _REF_TOKEN_RE.match(line, pos)
        if m is None:
            diags.append(ParseDiagnostic("error", f"unexpected character {line[pos]!r}", line_no, pos + 1))
            return None
        if m.lastgroup != "ws":
            tokens.append(_RefToken(m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    return tokens


def reference_parse(doc: SourceDocument | str) -> ParseResult:
    """The reader ``dsl.parse`` replaced: one regex match and one ``_RefToken``
    per token, walked through ``_RefLineParser``.  ``dsl.parse`` must return an
    equal result, apart from the lexical limits and the bytes check it added.
    Every fault but a line's own and the ``prio ... @ LABEL`` membrane is a
    ``psystem.problems`` message, placed by the part it concerns."""
    if isinstance(doc, str):
        doc = SourceDocument(text=doc)
    diags: list[ParseDiagnostic] = []
    parent: dict[str, str | None] = {}
    membrane_pos: dict[str, tuple[int, int, int | None]] = {}
    initial: dict[str, Multiset] = {}
    init_line: dict[str, int] = {}
    rules: list[Rule] = []
    rule_line: dict[str, int] = {}
    priorities: list[tuple[str, str]] = []
    prio_lines: list[tuple[int, int, str | None]] = []
    output: str | None = None
    output_pos: tuple[int, int] | None = None

    try:
        lines = doc.text.splitlines()
    except Exception:
        return ParseResult(None, [ParseDiagnostic("error", "input is not text", 1, 1)])

    for line_no, raw in enumerate(lines, start=1):
        tokens = _ref_tokenize(raw, line_no, diags)
        if tokens is None or not tokens:
            continue
        lp = _RefLineParser(tokens, line_no, diags)
        head = tokens[0]
        try:
            if head.kind != "ident":
                lp.error("expected a directive (membrane/output/init/rule/prio)", head)
            lp.next()
            if head.text == "membrane":
                lab_tok = lp.expect_label()
                lab = lab_tok.text
                if lab in parent:
                    lp.error(f"membrane {lab!r} already declared", head)
                parent[lab] = None
                membrane_pos[lab] = (line_no, lab_tok.column, None)
                if not lp.at_end():
                    kw = lp.expect("ident", "'in PARENT' or end of line")
                    if kw.text != "in":
                        lp.error("expected 'in'", kw)
                    par = lp.expect_label("a parent label")
                    parent[lab] = par.text
                    membrane_pos[lab] = (line_no, lab_tok.column, par.column)
                if not lp.at_end():
                    lp.error("unexpected trailing input", lp.peek())
            elif head.text == "output":
                if output is not None:
                    lp.error("output already declared", head)
                lab = lp.expect_label("a label or 'environment'")
                output = lab.text
                output_pos = (line_no, lab.column)
                if not lp.at_end():
                    lp.error("unexpected trailing input", lp.peek())
            elif head.text == "init":
                lab = lp.expect_label().text
                lp.expect_punct(":")
                ms = lp.multiset(stoppers=())
                if lab in initial:
                    lp.error(f"init for {lab!r} already given", head)
                initial[lab] = ms
                init_line[lab] = line_no
            elif head.text == "rule":
                rid_tok = lp.expect("ident", "a rule id")
                lp.expect_punct(":")
                rule = _ref_rule_body(lp, rid_tok.text)
                if rule.id in rule_line:
                    lp.error(f"duplicate rule id {rule.id!r}", rid_tok)
                rules.append(rule)
                rule_line[rule.id] = line_no
            elif head.text == "prio":
                hi = lp.expect("ident", "a rule id")
                lp.expect_punct(">")
                lo = lp.expect("ident", "a rule id")
                at_label = None
                if lp.at_punct("@"):
                    lp.next()
                    at_label = lp.expect_label().text
                if not lp.at_end():
                    lp.error("unexpected trailing input", lp.peek())
                priorities.append((hi.text, lo.text))
                prio_lines.append((line_no, hi.column, at_label))
            else:
                lp.error(f"unknown directive {head.text!r}", head)
        except _RefBail:
            continue

    for line_no, col, at_label in prio_lines:
        if at_label is not None and at_label not in parent:
            diags.append(ParseDiagnostic(
                "error", f"priority names unknown membrane {at_label!r}", line_no, col))
    if output is None:
        output = ENVIRONMENT_LABEL
    rule_index_line = list(rule_line.values())
    for prob in problems(parent, initial, rules, priorities, output):
        if prob.part == "membrane":
            line, col, _ = membrane_pos[prob.key]
        elif prob.part == "parent":
            line, _, col = membrane_pos[prob.key]
        elif prob.part == "output":
            line, col = output_pos
        elif prob.part == "init":
            line, col = init_line[prob.key], 1
        elif prob.part == "rule":
            line, col = rule_index_line[prob.key], 1
        elif prob.part == "priority":
            line, col, _ = prio_lines[prob.key]
        elif prob.part == "priorities":
            line, col = prio_lines[0][0], 1
        else:
            line, col = 1, 1
        diags.append(ParseDiagnostic("error", str(prob), line, col))

    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags)
    definition = PSystemDef(
        parent=parent,
        initial=initial,
        rules=rules,
        priorities=priorities,
        output=output,
    )
    return ParseResult(definition, diags)


def _ref_rule_body(lp: _RefLineParser, rid: str) -> Rule:
    if lp.at_punct("["):
        lp.next()
        lhs = lp.multiset(stoppers=("arrow", "]"))
        if lp.peek() is not None and lp.peek().kind == "arrow":
            # evolution: [lhs -> rhs]'a
            lp.next()
            rhs = lp.multiset(stoppers=("]",))
            lp.expect_punct("]")
            alpha = Polarization(lp.expect("pol", "a polarization").text[1:])
            membrane = _ref_rule_at(lp)
            return Rule(id=rid, kind=RuleKind.EVOLUTION, membrane=membrane,
                        lhs=lhs, rhs=rhs, alpha=alpha)
        # send-out: [lhs]'a -> outer [inner]'b
        lp.expect_punct("]")
        alpha = Polarization(lp.expect("pol", "a polarization").text[1:])
        tok = lp.next()
        if tok is None or tok.kind != "arrow":
            lp.error("expected '->'", tok)
        outer = lp.multiset(stoppers=("[",))
        lp.expect_punct("[")
        inner = lp.multiset(stoppers=("]",))
        lp.expect_punct("]")
        beta = Polarization(lp.expect("pol", "a polarization").text[1:])
        membrane = _ref_rule_at(lp)
        return Rule(id=rid, kind=RuleKind.SEND_OUT, membrane=membrane,
                    lhs=lhs, rhs=outer, rhs_aux=inner, alpha=alpha, beta=beta)
    # send-in: lhs []'a -> outer [inner]'b
    lhs = lp.multiset(stoppers=("[",))
    lp.expect_punct("[")
    lp.expect_punct("]")
    alpha = Polarization(lp.expect("pol", "a polarization").text[1:])
    tok = lp.next()
    if tok is None or tok.kind != "arrow":
        lp.error("expected '->'", tok)
    outer = lp.multiset(stoppers=("[",))
    lp.expect_punct("[")
    inner = lp.multiset(stoppers=("]",))
    lp.expect_punct("]")
    beta = Polarization(lp.expect("pol", "a polarization").text[1:])
    membrane = _ref_rule_at(lp)
    return Rule(id=rid, kind=RuleKind.SEND_IN, membrane=membrane,
                lhs=lhs, rhs=inner, rhs_aux=outer, alpha=alpha, beta=beta)


def _ref_rule_at(lp: _RefLineParser) -> str:
    lp.expect_punct("@")
    membrane = lp.expect_label().text
    if not lp.at_end():
        lp.error("unexpected trailing input", lp.peek())
    return membrane

