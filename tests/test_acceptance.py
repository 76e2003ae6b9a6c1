"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criterion 7's published-data reproduction needs external input
files (see its docstring); without them the substitute checks run and the
external comparison is skipped.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from psrelief import dsl
from psrelief.builder import BuildParams, build, decode_output
from psrelief.engine import run, select_firing, apply_step
from psrelief.io import load_instance
from psrelief.psystem import Configuration
from psrelief.relief import (
    QUANTIZED,
    SIMPLIFIED,
    ReliefInstance,
    _FloatStep,
    _QuantizedStep,
    fixed_point_constants,
    solve,
    step_size,
    validate,
)
from psrelief.stats import compare
from psrelief.trace import BOUNDARY, HALT, run_generated

from helpers import (State, assert_lockstep, count_step, derived_1x1, enumerate_maximal_plans, float_step,
                     katrina_shaped, load_table, ms, random_instance, random_small_system, rules_by_id,
                     slow_oscillator)


def announce(criterion: int, detail: str) -> None:
    print(f"\n[criterion {criterion}] PASS: {detail}")


def test_criterion_1_semantics_conformance():
    """The textual single-membrane example halts in one step at {b, c, e}."""
    text = (
        "membrane 1\noutput environment\ninit 1: a^3 d\n"
        "rule r1: [a^2 -> b]'0 @ 1\n"
        "rule r2: [a -> c]'0 @ 1\n"
        "rule r3: [d -> e]'0 @ 1\n"
        "prio r1 > r2 @ 1\n"
    )
    parsed = dsl.parse(text)
    assert parsed.ok
    report = run(parsed.definition, max_steps=16)
    assert report.halted
    assert report.steps == 1
    assert report.final.contents["1"] == ms(b=1, c=1, e=1)
    announce(1, "worked example halts after one step at [b, c, e]")


def test_criterion_2_oracle_equivalence():
    """20 random instances, m,n <= 2, parameters in [0.25, 4], p = 3: the
    engine-run generated system's per-iteration counts, multipliers included,
    equal the quantized iteration exactly for 200 iterations or until halt."""
    rng = random.Random(20250810)
    shapes = [(1, 1), (2, 1), (1, 2), (2, 2), (2, 2)]
    for trial in range(20):
        m, n = shapes[trial % len(shapes)]
        inst = random_instance(rng, m, n)
        assert_lockstep(inst, build(BuildParams(instance=inst, p=3)), 200)
    announce(2, "20/20 instances: engine trajectory == quantized oracle, exactly")


@pytest.mark.slow
@pytest.mark.parametrize("p, policy, seed", [(3, "deterministic", 0), (5, "deterministic", 0),
                                             (3, "seeded-random", 1)])
def test_case_study_scale_runs_to_halt_count_for_count(p, policy, seed):
    """The 3x10 case-study shape, run to halt on the engine: every
    iteration's flow and multiplier counts equal the quantized iteration's,
    under either selection policy."""
    inst = katrina_shaped(random.Random(1), 3, 10)
    assert assert_lockstep(inst, build(BuildParams(instance=inst, p=p)), 100_000, policy, seed).end == HALT


@pytest.mark.slow
def test_case_study_10x30_runs_to_halt_count_for_count():
    """The case study's 10x30 shape at p=3, run to halt on the engine under
    the deterministic policy: all 5,121 iterations' flow and multiplier
    counts equal the quantized iteration's."""
    inst = katrina_shaped(random.Random(1), 10, 30)
    last = assert_lockstep(inst, build(BuildParams(instance=inst, p=3)), 100_000)
    assert (last.t, last.end) == (5121, HALT)


def random_draw(seed: int, index: int) -> ReliefInstance:
    """Draw ``index`` (from 0) of 1x1 ``random_instance`` calls on one seeded stream."""
    rng = random.Random(seed)
    for _ in range(index):
        random_instance(rng, 1, 1)
    return random_instance(rng, 1, 1)


@pytest.mark.slow
@pytest.mark.parametrize("make, p, iterations", [(slow_oscillator, 6, 10_293),
                                                 (lambda: random_draw(7, 186), 7, 13_006)],
                         ids=["oscillator-p6", "draw186-p7"])
def test_engine_runs_past_the_schedule_blocks_count_for_count(make, p, iterations):
    """Runs to halt that cross t = 10,240 (the counter's doubling blocks),
    11,264 and 12,288 (where the float and integer schedules part): every
    iteration's flow and multiplier counts equal the quantized iteration's."""
    inst = make()
    last = assert_lockstep(inst, build(BuildParams(instance=inst, p=p)), 100_000)
    assert (last.t, last.end) == (iterations, HALT)


def test_criterion_3_derived_equilibrium():
    """q* = 0.5 within 1e-3 from both the float solver and the membrane
    system at p = 5."""
    inst = derived_1x1()
    report = solve(inst, SIMPLIFIED, tol=1e-5, max_iter=10_000)
    assert report.converged
    assert abs(report.q_star[0][0] - 0.5) < 1e-3

    gen = build(BuildParams(instance=inst, p=5))
    res = run_generated(gen, max_iterations=2048)
    assert res.halted
    q = decode_output(res.report.final, gen)
    assert abs(q[0][0] - 0.5) < 1e-3
    announce(3, f"float solver q*={report.q_star[0][0]:.6f}, membrane system q*={q[0][0]:.5f}")


def test_criterion_4_error_statistics():
    """Shipped case-study tables reproduce average 1.98, median 0.82,
    max 7.89 percent within +-0.01."""
    result = compare(load_table("katrina_psystem.csv"), load_table("katrina_reference.csv"))
    assert result.scored_cells == 30
    assert result.average == pytest.approx(1.98, abs=0.01)
    assert result.median == pytest.approx(0.82, abs=0.01)
    assert result.max == pytest.approx(7.89, abs=0.01)
    announce(4, f"average={result.average:.4f} median={result.median:.4f} max={result.max:.4f}")


def test_criterion_5_stage_step_counts():
    """Per iteration: seeding 3 steps, update 9, comparison 6 (7 on the
    final iteration); update becomes 10 once the first halving token lands
    (iteration 1025)."""
    # short converging run covers the first-1024 regime plus the halt round
    inst = derived_1x1()
    gen = build(BuildParams(instance=inst, p=3))
    res = run_generated(gen, max_iterations=200)
    assert res.halted
    *body, last = res.profiles
    assert body, "expected several full iterations"
    for prof in body:
        assert (prof.initialization, prof.update, prof.comparison) == (3, 9, 6)
    assert (last.initialization, last.update, last.comparison) == (3, 9, 7)

    # a slow oscillator crosses the 1024-iteration boundary
    slow, profs = slow_oscillator(), []
    last = assert_lockstep(slow, build(BuildParams(instance=slow, p=3)), 1040, profiles=profs)
    assert (last.t, last.end) == (1040, BOUNDARY)
    assert {(pr.initialization, pr.update, pr.comparison) for pr in profs[:1024]} == {(3, 9, 6)}
    assert {(pr.initialization, pr.update, pr.comparison) for pr in profs[1024:1030]} == {(3, 10, 6)}
    announce(5, "stages 3/9/6 per iteration (7 on halt); update 10 from iteration 1025")


def test_criterion_6_step_schedule():
    """Schedule boundary values and finite divergence check."""
    assert step_size(0) == 0.1
    assert step_size(1023) == 0.1
    assert step_size(1024) == 0.05
    assert step_size(11263) == 0.1 / 1024
    assert step_size(11264) == 0.1 / 2048
    total = sum(step_size(t) for t in range(100_000))
    assert total > 25
    announce(6, f"blocks check out; sum over 1e5 indices = {total:.2f} > 25")


def test_criterion_7_residual_suites_and_optional_external_check():
    """Exact reproduction of the published input studies needs external data
    files this repository cannot contain.  Substitute: equivalence (criterion
    2), the derived equilibrium (criterion 3), and residual suites here:
    every converged report meets the feasibility corridor within 100*tol and
    the drift bound 10*tol/a_final.

    To run the optional external check, point PSRELIEF_KATRINA_INSTANCE at an
    instance JSON reproducing the published case study; the decoded solve is
    then compared against the shipped reference table within 1e-3.
    """
    rng = random.Random(77)
    tol = 1e-5
    checked = 0
    for _ in range(8):
        inst = katrina_shaped(rng, rng.choice([2, 3]), rng.choice([2, 3]))
        report = solve(inst, SIMPLIFIED, tol=tol, max_iter=60_000)
        assert report.converged
        eps = 100 * tol
        for values in report.feasibility_residuals.values():
            assert np.all(values <= eps)
        bound = 10 * tol / step_size(report.iterations)
        g = report.stationarity_residuals
        for i in range(inst.m):
            for j in range(inst.n):
                if report.q_star[i][j] > 1e-9:
                    assert abs(g[i][j]) <= bound
                else:
                    assert g[i][j] <= bound
        checked += 1
    assert checked == 8

    external = os.environ.get("PSRELIEF_KATRINA_INSTANCE")
    if external:
        inst = load_instance(external)
        assert validate(inst) == []
        report = solve(inst, QUANTIZED, tol=1e-10, max_iter=5000, p=10)
        reference = load_table("katrina_reference.csv")
        assert report.q_star.shape == reference.shape
        assert np.max(np.abs(report.q_star - reference)) < 1e-3
        announce(7, "residual suites pass; external case-study data reproduced")
    else:
        announce(7, "residual suites pass; external case-study data not supplied (optional check skipped)")


def test_criterion_8_property_suites():
    """Randomized property suites, each at >= 100 cases."""
    rng = random.Random(0xACCE)

    # projection non-negativity (float and quantized)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 2))
        state = State(
            q=np.array([[rng.uniform(0, 4) for _ in range(inst.n)] for _ in range(inst.m)]),
            lam=np.array([rng.uniform(0, 2) for _ in range(inst.m)]),
            lam1=np.array([rng.uniform(0, 2) for _ in range(inst.n)]),
            lam2=np.array([rng.uniform(0, 2) for _ in range(inst.n)]),
            t=rng.randint(0, 1500),
        )
        nxt, _ = float_step(_FloatStep(inst, SIMPLIFIED), state)
        assert all(np.all(a >= 0) for a in (nxt.q, nxt.lam, nxt.lam1, nxt.lam2))
        qstate = State(
            q=[[rng.randint(0, 4000) for _ in range(inst.n)] for _ in range(inst.m)],
            lam=[rng.randint(0, 2000) for _ in range(inst.m)],
            lam1=[rng.randint(0, 2000) for _ in range(inst.n)],
            lam2=[rng.randint(0, 2000) for _ in range(inst.n)],
            t=rng.randint(0, 3000),
        )
        qnxt = count_step(_QuantizedStep(fixed_point_constants(inst, 3)), qstate)
        assert all(c >= 0 for row in qnxt.q for c in row)
        assert all(c >= 0 for vec in (qnxt.lam, qnxt.lam1, qnxt.lam2) for c in vec)

    # conservation, maximality + weak priority (enumeration membership),
    # and fixed-seed determinism on random small systems
    conserved = member = deterministic = 0
    while min(conserved, member, deterministic) < 100:
        d = random_small_system(rng)
        cfg = Configuration.initial(d)
        plans = enumerate_maximal_plans(d, cfg)
        plan = select_firing(d, cfg)
        assert frozenset(plan.counts.items()) in plans
        member += 1
        if plan:
            nxt = apply_step(d, cfg, plan)
            before = sum(msv.total() for msv in cfg.contents.values()) + cfg.environment.total()
            rules = rules_by_id(d)
            consumed = sum(rules[r].lhs.total() * c for r, c in plan.counts.items())
            produced = sum(
                (rules[r].rhs.total() + rules[r].rhs_aux.total()) * c
                for r, c in plan.counts.items()
            )
            after = sum(msv.total() for msv in nxt.contents.values()) + nxt.environment.total()
            assert after == before - consumed + produced
            assert all(c >= 0 for msv in nxt.contents.values() for c in msv.counts().values())
        conserved += 1
        traces = []
        for _ in range(2):
            steps: list = []
            run(d, policy="seeded-random", seed=31, max_steps=5,
                observer=lambda s, p, c: steps.append((s, tuple(sorted(p.counts.items())), c.digest())))
            traces.append(steps)
        assert traces[0] == traces[1]
        deterministic += 1

    # format round-trip
    round_trips = 0
    while round_trips < 100:
        d = random_small_system(rng)
        back = dsl.parse(dsl.serialize(d))
        assert back.ok and back.definition.structurally_equal(d)
        round_trips += 1

    announce(8, f"non-negativity 100, conservation {conserved}, plan membership {member}, "
                f"determinism {deterministic}, round-trip {round_trips}")
