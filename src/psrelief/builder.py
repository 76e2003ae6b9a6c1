"""Mechanical generation of the equilibrium-computing membrane system.

For an m x n relief instance and a precision exponent p (scale P = 10^p) the
generated system carries every value as an object population: a flow of
352.50012 items at p = 5 is 35 250 012 copies of one symbol.  The system
loops through three stages:

* seeding: the INIT membrane broadcasts the current flows and multipliers to
  one worker membrane per update family (Q_k_l for each flow, LAMB_k /
  LAMB1_l / LAMB2_l for the multipliers), together with the constant terms of
  each drift expression;
* update: each worker aggregates signed drift objects, pushes them through
  its REDUCE child (pairwise cancellation, optional floor-halvings, division
  by ten rounding half up) and folds the scaled drift into the retained
  value with projection at zero;
* comparison: the COMP membrane cancels old flow markers against new ones;
  any survivor schedules another round, otherwise a stop token routes the
  result into OUTPUT and the system halts.

A counter in INIT emits one halving token per 1024 rounds (doubling the
block length after the tenth token), which realizes the diminishing step
sequence 0.1/2^w.

Rule family ids follow a stage.index catalog ("1.6", "2.24", ...); every
family is instantiated for all applicable (k, l) indices and recorded in
``GeneratedSystem.rule_index`` so audits can confirm full coverage.
``GeneratedSystem.stages`` records the stage of each family, shared by all
its rules; the step-size counter and the cleanup families run alongside the
stages and belong to none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from psrelief.multiset import EMPTY, Multiset
from psrelief.psystem import Configuration, Polarization, PSystemDef, Rule, RuleKind, _gc_paused
from psrelief.relief import ReliefInstance, _reject_invalid, fixed_point_constants

INIT_STAGE = "initialization"
UPDATE_STAGE = "update"
COMPARE_STAGE = "comparison"

N = Polarization.NEUTRAL
POS = Polarization.POSITIVE
NEG = Polarization.NEGATIVE
EVOLUTION, SEND_IN, SEND_OUT = RuleKind.EVOLUTION, RuleKind.SEND_IN, RuleKind.SEND_OUT

#: Depth of the halving-counter rule family; block lengths double per level,
#: so 24 levels cover more iterations than any run can reach.
COUNTER_DEPTH = 24


class DecodeError(ValueError):
    pass


@dataclass
class BuildParams:
    instance: ReliefInstance
    p: int


@dataclass
class GeneratedSystem:
    definition: PSystemDef
    rule_index: dict[str, list[str]]
    stages: dict[str, str | None]  # family -> stage
    m: int
    n: int
    p: int


def symbol(role: str, *idx: int) -> str:
    """Name of the object of ``role`` at indices ``idx``: ``x_2_3`` for role
    ``x`` at (2, 3), ``y0`` for role ``y0`` with no index."""
    return f"{role}_{'_'.join(map(str, idx))}" if idx else role


def count_reader(gen: GeneratedSystem, role: str) -> Callable[[Multiset], list[list[int]]]:
    """Reader of the m x n counts of ``role`` (k, l) in one region."""
    names = [[symbol(role, k, l) for l in range(1, gen.n + 1)] for k in range(1, gen.m + 1)]

    def read(region: Multiset) -> list[list[int]]:
        counts = region._counts
        return [[counts.get(name, 0) for name in row] for row in names]

    return read


class _Emitter:
    def __init__(self):
        self.rules: list[Rule] = []
        self.rule_index: dict[str, list[str]] = {}
        self.stages: dict[str, str | None] = {}
        self.priorities: list[tuple[str, str]] = []
        #: stage recorded for the families whose first rule is emitted next
        self.stage: str | None = None
        #: one multiset per distinct sequence of (symbol, count) pairs
        self.multisets: dict[tuple[tuple[str, int], ...], Multiset] = {(): EMPTY}

    def multiset(self, counts: dict[str, int]) -> Multiset:
        key = tuple(counts.items())
        found = self.multisets.get(key)
        if found is None:
            found = self.multisets[key] = Multiset(counts)
        return found

    def rule(
        self,
        family: str,
        suffix: str,
        kind: RuleKind,
        membrane: str,
        lhs: dict[str, int],
        rhs: dict[str, int],
        alpha: Polarization,
        beta: Polarization | None = None,
        aux: dict[str, int] | None = None,
    ) -> str:
        rid = f"s{family.replace('.', '_')}__{suffix}" if suffix else f"s{family.replace('.', '_')}"
        self.rules.append(Rule(rid, kind, membrane, self.multiset(lhs), self.multiset(rhs), alpha, beta,
                               self.multiset(aux) if aux else EMPTY))
        self.rule_index.setdefault(family, []).append(rid)
        self.stages.setdefault(family, self.stage)
        return rid

    def prio(self, hi: str, lo: str) -> None:
        self.priorities.append((hi, lo))


@_gc_paused()
def build(params: BuildParams) -> GeneratedSystem:
    inst, p = params.instance, params.p
    _reject_invalid(inst)
    m, n, P = inst.m, inst.n, 10**p
    cons = fixed_point_constants(inst, p)

    ks = range(1, m + 1)
    ls = range(1, n + 1)

    # membrane tree
    parent: dict[str, str | None] = {"skin": None, "INIT": "skin", "OUTPUT": "skin", "COMP": "skin"}
    q_lab = {(k, l): f"Q_{k}_{l}" for k in ks for l in ls}
    redq = {(k, l): f"REDQ_{k}_{l}" for k in ks for l in ls}
    lamb = {k: f"LAMB_{k}" for k in ks}
    redl = {k: f"REDL_{k}" for k in ks}
    lamb1 = {l: f"LAMB1_{l}" for l in ls}
    redl1 = {l: f"REDL1_{l}" for l in ls}
    lamb2 = {l: f"LAMB2_{l}" for l in ls}
    redl2 = {l: f"REDL2_{l}" for l in ls}
    for (k, l), lab in q_lab.items():
        parent[lab] = "skin"
        parent[redq[(k, l)]] = lab
    for k in ks:
        parent[lamb[k]] = "skin"
        parent[redl[k]] = lamb[k]
    for l in ls:
        parent[lamb1[l]] = "skin"
        parent[redl1[l]] = lamb1[l]
        parent[lamb2[l]] = "skin"
        parent[redl2[l]] = lamb2[l]
    reduces = (
        [(redq[(k, l)], q_lab[(k, l)]) for k in ks for l in ls]
        + [(redl[k], lamb[k]) for k in ks]
        + [(redl1[l], lamb1[l]) for l in ls]
        + [(redl2[l], lamb2[l]) for l in ls]
    )

    e = _Emitter()
    kl = [(k, l) for k in ks for l in ls]

    # ---- stage 1: seeding -------------------------------------------------
    e.stage = INIT_STAGE
    for k, l in kl:
        e.rule("1.1", f"k{k}_l{l}", SEND_OUT, "INIT",
               {symbol("x", k, l): 1},
               {symbol("x", k, l): 1, symbol("xt", k, l): 1, symbol("xl0", k, l): 1,
                symbol("xl1", k, l): 1, symbol("xl2", k, l): 1},
               N)
    for k in ks:
        rhs = {symbol("laq0", k, l): 1 for l in ls}
        rhs[symbol("la0", k)] = 1
        e.rule("1.2", f"k{k}", SEND_OUT, "INIT", {symbol("la", k): 1}, rhs, N)
    for l in ls:
        rhs = {symbol("laq1", k, l): 1 for k in ks}
        rhs[symbol("la1", l)] = 1
        e.rule("1.3", f"l{l}", SEND_OUT, "INIT", {symbol("la1", l): 1}, rhs, N)
    for l in ls:
        rhs = {symbol("laq2", k, l): 1 for k in ks}
        rhs[symbol("la2", l)] = 1
        e.rule("1.4", f"l{l}", SEND_OUT, "INIT", {symbol("la2", l): 1}, rhs, N)
    seeds: dict[str, int] = {}
    for k, l in kl:
        seeds[symbol("y0", k, l)] = 1
    for k in ks:
        seeds[symbol("ylam", k)] = 1
    for l in ls:
        seeds[symbol("ylam1", l)] = 1
        seeds[symbol("ylam2", l)] = 1
    e.rule("1.5", "", EVOLUTION, "skin", {symbol("y0"): 1}, seeds, N)
    for k, l in kl:
        i, j = k - 1, l - 1
        rhs = {symbol("y0"): 1}
        if cons.k0[i][j]:
            rhs[symbol("p0")] = cons.k0[i][j]
        if cons.k1[i][j]:
            rhs[symbol("ct0")] = cons.k1[i][j]
        e.rule("1.6", f"k{k}_l{l}", SEND_IN, q_lab[(k, l)],
               {symbol("y0", k, l): 1}, rhs, N, NEG)
    for k in ks:
        rhs = {symbol("y0"): 1}
        if cons.supply[k - 1]:
            rhs[symbol("n0")] = cons.supply[k - 1]
        e.rule("1.7", f"k{k}", SEND_IN, lamb[k], {symbol("ylam", k): 1}, rhs, N, NEG)
    for l in ls:
        rhs = {symbol("y0"): 1}
        if cons.dlo[l - 1]:
            rhs[symbol("p0")] = cons.dlo[l - 1]
        e.rule("1.8", f"l{l}", SEND_IN, lamb1[l], {symbol("ylam1", l): 1}, rhs, N, NEG)
    for l in ls:
        rhs = {symbol("y0"): 1}
        if cons.dhi[l - 1]:
            rhs[symbol("n0")] = cons.dhi[l - 1]
        e.rule("1.9", f"l{l}", SEND_IN, lamb2[l], {symbol("ylam2", l): 1}, rhs, N, NEG)
    for k, l in kl:
        e.rule("1.10", f"k{k}_l{l}", SEND_IN, q_lab[(k, l)],
               {symbol("x", k, l): 1}, {symbol("p"): 1, symbol("c0"): 1}, NEG, NEG)
        e.rule("1.11", f"k{k}_l{l}", SEND_IN, q_lab[(k, l)],
               {symbol("laq0", k, l): 1}, {symbol("n0"): 1}, NEG, NEG)
        e.rule("1.12", f"k{k}_l{l}", SEND_IN, q_lab[(k, l)],
               {symbol("laq1", k, l): 1}, {symbol("p0"): 1}, NEG, NEG)
        e.rule("1.13", f"k{k}_l{l}", SEND_IN, q_lab[(k, l)],
               {symbol("laq2", k, l): 1}, {symbol("n0"): 1}, NEG, NEG)
    for k, l in kl:
        e.rule("1.14", f"k{k}_l{l}", SEND_IN, lamb[k],
               {symbol("xl0", k, l): 1}, {symbol("p0"): 1}, NEG, NEG)
    for k in ks:
        e.rule("1.15", f"k{k}", SEND_IN, lamb[k],
               {symbol("la0", k): 1}, {symbol("p"): 1}, NEG, NEG)
    for k, l in kl:
        e.rule("1.16", f"k{k}_l{l}", SEND_IN, lamb1[l],
               {symbol("xl1", k, l): 1}, {symbol("n0"): 1}, NEG, NEG)
    for l in ls:
        e.rule("1.17", f"l{l}", SEND_IN, lamb1[l],
               {symbol("la1", l): 1}, {symbol("p"): 1}, NEG, NEG)
    for k, l in kl:
        e.rule("1.18", f"k{k}_l{l}", SEND_IN, lamb2[l],
               {symbol("xl2", k, l): 1}, {symbol("p0"): 1}, NEG, NEG)
    for l in ls:
        e.rule("1.19", f"l{l}", SEND_IN, lamb2[l],
               {symbol("la2", l): 1}, {symbol("p"): 1}, NEG, NEG)

    # ---- stage 2: flow update chain in Q ----------------------------------
    e.stage = UPDATE_STAGE
    for k, l in kl:
        i, j = k - 1, l - 1
        q = q_lab[(k, l)]
        sfx = f"k{k}_l{l}"
        e.rule("2.1", sfx, EVOLUTION, q, {symbol("ct0"): 1}, {symbol("ct1"): 1}, NEG)
        e.rule("2.2", sfx, EVOLUTION, q, {symbol("y0"): 1}, {symbol("y1"): 1}, NEG)
        e.rule("2.3", sfx, EVOLUTION, q, {symbol("c0"): 1},
               {symbol("c1"): cons.slope[i][j]} if cons.slope[i][j] else {}, NEG)
        e.rule("2.4", sfx, EVOLUTION, q, {symbol("ct1"): 1}, {symbol("ct2"): 1}, NEG)
        e.rule("2.5", sfx, EVOLUTION, q, {symbol("y1"): 1}, {symbol("y2"): 1}, NEG)
        r6 = e.rule("2.6", sfx, EVOLUTION, q, {symbol("c1"): cons.den[i]}, {symbol("n0"): 1}, NEG)
        r7 = e.rule("2.7", sfx, EVOLUTION, q, {symbol("c1"): cons.half[i]}, {symbol("n0"): 1}, NEG)
        r8 = e.rule("2.8", sfx, EVOLUTION, q, {symbol("c1"): 1}, {}, NEG)
        e.prio(r6, r7)
        e.prio(r7, r8)
        e.rule("2.9", sfx, EVOLUTION, q, {symbol("ct2"): 1}, {symbol("n0"): 1}, NEG)
        e.rule("2.10", sfx, EVOLUTION, q, {symbol("y2"): 1}, {symbol("y3"): 1}, NEG)

    # ---- stage 2: shared REDUCE machinery ----------------------------------
    for red, host in reduces:
        sfx = red.lower()
        e.rule("2.11", sfx, SEND_IN, red, {symbol("y3"): 1}, {symbol("y4"): 1}, N, NEG)
        e.rule("2.12", sfx, SEND_IN, red, {symbol("p0"): 1}, {symbol("p0"): 1}, NEG, NEG)
        e.rule("2.13", sfx, SEND_IN, red, {symbol("n0"): 1}, {symbol("n0"): 1}, NEG, NEG)
        e.rule("2.14", sfx, EVOLUTION, red, {symbol("y4"): 1}, {symbol("y5"): 1}, NEG)
        r15 = e.rule("2.15", sfx, EVOLUTION, red, {symbol("p0"): 1, symbol("n0"): 1}, {}, NEG)
        r16 = e.rule("2.16", sfx, EVOLUTION, red, {symbol("p0"): 1}, {symbol("p"): 1}, NEG)
        r17 = e.rule("2.17", sfx, EVOLUTION, red, {symbol("n0"): 1}, {symbol("n"): 1}, NEG)
        e.prio(r15, r16)
        e.prio(r15, r17)
        r18 = e.rule("2.18", sfx, EVOLUTION, red, {symbol("p"): 2}, {symbol("p"): 1}, NEG)
        r19 = e.rule("2.19", sfx, EVOLUTION, red, {symbol("p"): 1}, {}, NEG)
        e.prio(r18, r19)
        r20 = e.rule("2.20", sfx, EVOLUTION, red, {symbol("n"): 2}, {symbol("n"): 1}, NEG)
        r21 = e.rule("2.21", sfx, EVOLUTION, red, {symbol("n"): 1}, {}, NEG)
        e.prio(r20, r21)
        r22 = e.rule("2.22", sfx, EVOLUTION, red,
                     {symbol("s"): 1, symbol("y5"): 1}, {symbol("s0"): 1, symbol("y5"): 1}, NEG)
        for higher in (r16, r17, r19, r21):
            e.prio(higher, r22)
        r23 = e.rule("2.23", sfx, SEND_OUT, red, {symbol("y5"): 1}, {symbol("y6"): 1}, NEG, POS)
        e.prio(r22, r23)
        r24 = e.rule("2.24", sfx, SEND_OUT, red, {symbol("p"): 10}, {symbol("p"): 1}, POS, POS)
        r25 = e.rule("2.25", sfx, SEND_OUT, red, {symbol("p"): 5}, {symbol("p"): 1}, POS, POS)
        e.prio(r24, r25)
        r26 = e.rule("2.26", sfx, SEND_OUT, red, {symbol("n"): 10}, {symbol("n"): 1}, POS, POS)
        r27 = e.rule("2.27", sfx, SEND_OUT, red, {symbol("n"): 5}, {symbol("n"): 1}, POS, POS)
        e.prio(r26, r27)
        r28 = e.rule("2.28", sfx, SEND_IN, red, {symbol("y6"): 1}, {symbol("rem"): 1},
                     POS, N, aux={symbol("y7"): 1})
        e.prio(r25, r28)
        e.prio(r27, r28)
        e.rule("2.29", sfx, EVOLUTION, red, {symbol("p"): 1}, {}, N)
        e.rule("2.30", sfx, EVOLUTION, red, {symbol("n"): 1}, {}, N)
        e.rule("2.31", sfx, EVOLUTION, red, {symbol("s0"): 1}, {symbol("s"): 1}, N)

    # ---- stage 2: folding the scaled drift into each worker ---------------
    for k, l in kl:
        q = q_lab[(k, l)]
        sfx = f"k{k}_l{l}"
        e.rule("2.32", sfx, SEND_OUT, q, {symbol("y7"): 1}, {symbol("y8", k, l): 1}, NEG, POS)
        r33 = e.rule("2.33", sfx, EVOLUTION, q, {symbol("p"): 1, symbol("n"): 1}, {}, POS)
        r34 = e.rule("2.34", sfx, EVOLUTION, q, {symbol("p"): 1}, {symbol("o"): 1}, POS)
        r35 = e.rule("2.35", sfx, EVOLUTION, q, {symbol("n"): 1}, {}, POS)
        e.prio(r33, r34)
        e.prio(r33, r35)
        e.rule("2.36", sfx, EVOLUTION, "skin",
               {symbol("y8", k, l): 1}, {symbol("y9", k, l): 1}, N)
        r37 = e.rule("2.37", sfx, SEND_OUT, q, {symbol("o"): 1},
                     {symbol("o0", k, l): 1, symbol("i", k, l): 1, symbol("xt1", k, l): 1}, POS, POS)
        r38 = e.rule("2.38", sfx, SEND_IN, q, {symbol("y9", k, l): 1},
                     {symbol("rem"): 1}, POS, N, aux={symbol("y10"): 1})
        e.prio(r37, r38)

    # ---- stage 2: multiplier workers ---------------------------------------
    def lamb_block(host: str, fam: tuple[str, ...], sfx: str, out8: str, out9: str, lao: str):
        e.rule(fam[0], sfx, EVOLUTION, host, {symbol("y0"): 1}, {symbol("y1"): 1}, NEG)
        e.rule(fam[1], sfx, EVOLUTION, host, {symbol("y1"): 1}, {symbol("y2"): 1}, NEG)
        e.rule(fam[2], sfx, EVOLUTION, host, {symbol("y2"): 1}, {symbol("y3"): 1}, NEG)
        e.rule(fam[3], sfx, SEND_OUT, host, {symbol("y7"): 1}, {out8: 1}, NEG, POS)
        rc = e.rule(fam[4], sfx, EVOLUTION, host, {symbol("p"): 1, symbol("n"): 1}, {}, POS)
        rp = e.rule(fam[5], sfx, EVOLUTION, host, {symbol("p"): 1}, {symbol("o"): 1}, POS)
        rn = e.rule(fam[6], sfx, EVOLUTION, host, {symbol("n"): 1}, {}, POS)
        e.prio(rc, rp)
        e.prio(rc, rn)
        e.rule(fam[7], sfx, EVOLUTION, "skin", {out8: 1}, {out9: 1}, N)
        ro = e.rule(fam[8], sfx, SEND_OUT, host, {symbol("o"): 1}, {lao: 1}, POS, POS)
        rf = e.rule(fam[9], sfx, SEND_IN, host, {out9: 1}, {symbol("rem"): 1}, POS, N)
        e.prio(ro, rf)

    for k in ks:
        lamb_block(lamb[k], ("2.39", "2.40", "2.41", "2.42", "2.43", "2.44", "2.45", "2.46", "2.47", "2.48"),
                   f"k{k}", symbol("yla8", k), symbol("yla9", k), symbol("lao0", k))
    for l in ls:
        lamb_block(lamb1[l], ("2.48b", "2.49", "2.50", "2.51", "2.52", "2.53", "2.54", "2.55", "2.56", "2.57"),
                   f"l{l}", symbol("yla1_8", l), symbol("yla1_9", l), symbol("lao1", l))
    for l in ls:
        lamb_block(lamb2[l], ("2.58", "2.59", "2.60", "2.61", "2.62", "2.63", "2.64", "2.65", "2.66", "2.67"),
                   f"l{l}", symbol("yla2_8", l), symbol("yla2_9", l), symbol("lao2", l))

    # ---- stage 2: step-size counter (runs alongside the stages) -----------
    e.stage = None
    e.rule("2.68", "", EVOLUTION, "INIT",
           {symbol("count", 0): 1024}, {symbol("u", 0): 1, symbol("s"): 1}, N)
    couriers: dict[str, int] = {}
    for k, l in kl:
        couriers[symbol("sq", k, l)] = 1
    for k in ks:
        couriers[symbol("slam", k)] = 1
    for l in ls:
        couriers[symbol("slam1", l)] = 1
        couriers[symbol("slam2", l)] = 1
    e.rule("2.69", "", SEND_OUT, "INIT", {symbol("s"): 1}, couriers, N)
    for k, l in kl:
        e.rule("2.70", f"k{k}_l{l}", SEND_IN, q_lab[(k, l)],
               {symbol("sq", k, l): 1}, {symbol("s"): 1}, NEG, NEG)
    for k in ks:
        e.rule("2.71", f"k{k}", SEND_IN, lamb[k], {symbol("slam", k): 1}, {symbol("s"): 1}, NEG, NEG)
    for l in ls:
        e.rule("2.72", f"l{l}", SEND_IN, lamb1[l],
               {symbol("slam1", l): 1}, {symbol("s"): 1}, NEG, NEG)
        e.rule("2.73", f"l{l}", SEND_IN, lamb2[l],
               {symbol("slam2", l): 1}, {symbol("s"): 1}, NEG, NEG)
    for red, host in reduces:
        e.rule("2.74", red.lower(), SEND_IN, red, {symbol("s"): 1}, {symbol("s"): 1}, N, N)
    e.rule("2.75", "", EVOLUTION, "INIT", {symbol("u", 0): 10}, {symbol("max", 0): 1}, N)
    # the first counter promotion must accept max_0, otherwise the chain
    # of block doublings never engages
    for i in range(COUNTER_DEPTH):
        e.rule("2.76", f"n{i}", EVOLUTION, "INIT",
               {symbol("max", i): 1, symbol("count", 0): 1},
               {symbol("max", i): 1, symbol("count", i + 1): 1}, N)
    for i in range(1, COUNTER_DEPTH + 1):
        e.rule("2.77", f"n{i}", EVOLUTION, "INIT",
               {symbol("count", i): 1 << (10 + i)}, {symbol("u", i): 1, symbol("s"): 1}, N)
    for i in range(1, COUNTER_DEPTH + 1):
        e.rule("2.78", f"n{i}", EVOLUTION, "INIT",
               {symbol("u", i): 1, symbol("max", i - 1): 1}, {symbol("max", i): 1}, N)

    # ---- stage 3: comparison ------------------------------------------------
    e.stage = COMPARE_STAGE
    r3_1 = e.rule("3.1", "", SEND_IN, "COMP", {symbol("y10"): m * n}, {symbol("y11"): 1}, N, NEG)
    gate_rules = []
    for k, l in kl:
        sfx = f"k{k}_l{l}"
        gate_rules.append(e.rule("3.2", sfx, SEND_IN, "COMP",
                                 {symbol("o0", k, l): 1}, {symbol("o1", k, l): 1}, NEG, NEG))
        gate_rules.append(e.rule("3.3", sfx, SEND_IN, "COMP",
                                 {symbol("xt", k, l): 1}, {symbol("xt", k, l): 1}, NEG, NEG))
        gate_rules.append(e.rule("3.4", sfx, SEND_IN, "COMP",
                                 {symbol("xt1", k, l): 1}, {symbol("xt1", k, l): 1}, NEG, NEG))
    r3_5 = e.rule("3.5", "", SEND_OUT, "COMP", {symbol("y11"): 1}, {symbol("rem"): 1},
                  NEG, N, aux={symbol("y12"): 1})
    for g in gate_rules:
        e.prio(g, r3_5)
    for k, l in kl:
        sfx = f"k{k}_l{l}"
        e.rule("3.6", sfx, SEND_OUT, "COMP", {symbol("o1", k, l): 1}, {symbol("o2", k, l): 1}, N)
        r7 = e.rule("3.7", sfx, EVOLUTION, "COMP",
                    {symbol("xt", k, l): 1, symbol("xt1", k, l): 1}, {}, N)
        r8 = e.rule("3.8", sfx, EVOLUTION, "COMP",
                    {symbol("xt", k, l): 1, symbol("y12"): 1}, {symbol("y13"): 1}, N)
        r9 = e.rule("3.9", sfx, EVOLUTION, "COMP",
                    {symbol("xt1", k, l): 1, symbol("y12"): 1}, {symbol("y13"): 1}, N)
        r10 = e.rule("3.10", sfx, EVOLUTION, "COMP", {symbol("xt", k, l): 1}, {}, N)
        r11 = e.rule("3.11", sfx, EVOLUTION, "COMP", {symbol("xt1", k, l): 1}, {}, N)
        e.prio(r7, r8)
        e.prio(r7, r9)
        e.prio(r8, r10)
        e.prio(r9, r11)
    r3_12 = e.rule("3.12", "", EVOLUTION, "COMP", {symbol("y12"): 1}, {symbol("stop"): 1}, N)
    for rid in e.rule_index["3.8"] + e.rule_index["3.9"]:
        e.prio(rid, r3_12)
    for k, l in kl:
        e.rule("3.13", f"k{k}_l{l}", EVOLUTION, "skin",
               {symbol("o2", k, l): 1}, {symbol("o3", k, l): 1}, N)
    e.rule("3.14", "", SEND_OUT, "COMP", {symbol("stop"): 1}, {symbol("stop"): 1}, N)
    e.rule("3.15", "", SEND_OUT, "COMP", {symbol("y13"): 1}, {symbol("y14"): 1}, N)
    for k, l in kl:
        e.rule("3.16", f"k{k}_l{l}", EVOLUTION, "skin",
               {symbol("o3", k, l): 1}, {symbol("o4", k, l): 1}, N)
    e.rule("3.17", "", SEND_IN, "OUTPUT", {symbol("stop"): 1}, {symbol("stop"): 1}, N, NEG)
    e.rule("3.18", "", SEND_IN, "INIT", {symbol("y14"): 1}, {symbol("y15"): 1}, N, NEG)
    for k, l in kl:
        sfx = f"k{k}_l{l}"
        r19 = e.rule("3.19", sfx, SEND_IN, "OUTPUT",
                     {symbol("o4", k, l): 1}, {symbol("o", k, l): 1}, NEG, NEG)
        r20 = e.rule("3.20", sfx, EVOLUTION, "skin", {symbol("o4", k, l): 1}, {}, N)
        e.prio(r19, r20)
    r3_21 = e.rule("3.21", "", SEND_OUT, "OUTPUT", {symbol("stop"): 1}, {symbol("rem"): 1}, NEG, N)
    for rid in e.rule_index["3.19"]:
        e.prio(rid, r3_21)
    restock = []
    for k, l in kl:
        restock.append(e.rule("3.22", f"k{k}_l{l}", SEND_IN, "INIT",
                              {symbol("i", k, l): 1}, {symbol("x", k, l): 1}, NEG, NEG))
    for k in ks:
        restock.append(e.rule("3.23", f"k{k}", SEND_IN, "INIT",
                              {symbol("lao0", k): 1}, {symbol("la", k): 1}, NEG, NEG))
    for l in ls:
        restock.append(e.rule("3.24", f"l{l}", SEND_IN, "INIT",
                              {symbol("lao1", l): 1}, {symbol("la1", l): 1}, NEG, NEG))
        restock.append(e.rule("3.25", f"l{l}", SEND_IN, "INIT",
                              {symbol("lao2", l): 1}, {symbol("la2", l): 1}, NEG, NEG))
    r3_26 = e.rule("3.26", "", SEND_OUT, "INIT", {symbol("y15"): 1}, {symbol("y0"): 1},
                   NEG, N, aux={symbol("count", 0): 1})
    for rid in restock:
        e.prio(rid, r3_26)

    # ---- stage 4: cleanup (runs alongside the stages) ----------------------
    e.stage = None
    polcode = {N: "0", POS: "p", NEG: "m"}
    for lab in parent:
        for pol in (N, POS, NEG):
            e.rule("4.1", f"{lab.lower()}_{polcode[pol]}", EVOLUTION, lab,
                   {symbol("rem"): 1}, {}, pol)

    initial = {
        "skin": e.multiset({symbol("y0"): 1}),
        "INIT": Multiset({symbol("x", k, l): P for k, l in kl}),
    }
    definition = PSystemDef(
        parent=parent,
        initial=initial,
        rules=e.rules,
        priorities=e.priorities,
        output="OUTPUT",
    )
    return GeneratedSystem(
        definition=definition,
        rule_index=e.rule_index,
        stages=e.stages,
        m=m,
        n=n,
        p=p,
    )


def decode_output(config: Configuration, gen: GeneratedSystem) -> np.ndarray:
    """Allocation matrix read from the OUTPUT membrane of a halting
    configuration: count of o_k_l divided by 10^p."""
    contents = config.contents.get("OUTPUT")
    if not contents:
        raise DecodeError("OUTPUT membrane is empty; the run did not converge")
    P = 10**gen.p
    try:
        return np.array([[c / P for c in row] for row in count_reader(gen, "o")(contents)])
    except OverflowError as exc:
        raise DecodeError(f"an output count at p={gen.p} does not fit a float") from exc
