"""Generated system vs the integer-quantized iteration, count for count."""

from __future__ import annotations

import random

import pytest

from psrelief.builder import BuildParams, build, decode_output
from psrelief.relief import QUANTIZED, quantized_trajectory, solve
from psrelief.trace import run_generated

from helpers import derived_1x1, katrina_shaped, random_instance


class TestTrajectoryEquivalence:
    def test_derived_instance_exact_trajectory(self):
        inst = derived_1x1()
        oracle, conv = quantized_trajectory(inst, p=3, max_iter=200)
        gen = build(BuildParams(instance=inst, p=3))
        res = run_generated(gen, max_iterations=200)
        assert conv and res.halted
        assert res.q_trajectory == oracle

    def test_random_instances_exact(self):
        rng = random.Random(424242)
        for _ in range(6):
            m, n = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
            inst = random_instance(rng, m, n)
            oracle, conv = quantized_trajectory(inst, p=3, max_iter=120)
            gen = build(BuildParams(instance=inst, p=3))
            res = run_generated(gen, max_iterations=120)
            assert res.q_trajectory == oracle
            assert res.halted == conv

    @pytest.mark.parametrize("p", [3, 4])
    def test_katrina_shaped_4x4_exact(self, p):
        inst = katrina_shaped(random.Random(1), 4, 4)
        oracle, _ = quantized_trajectory(inst, p=p, max_iter=30)
        res = run_generated(build(BuildParams(instance=inst, p=p)), max_iterations=30)
        assert len(oracle) == 31
        assert res.q_trajectory == oracle

    @pytest.mark.parametrize("seed", range(4))
    def test_katrina_shaped_4x4_seeded_random(self, seed):
        # the generated system is confluent: whichever maximal plans the
        # seeded steps fire, every iteration's counts are the oracle's
        inst = katrina_shaped(random.Random(1), 4, 4)
        oracle, conv = quantized_trajectory(inst, p=3, max_iter=12)
        res = run_generated(build(BuildParams(instance=inst, p=3)), max_iterations=12,
                            policy="seeded-random", seed=seed)
        assert res.q_trajectory == oracle
        assert res.halted == conv

    def test_halting_iff_oracle_convergence(self):
        rng = random.Random(99)
        seen_halting = False
        for _ in range(10):
            inst = random_instance(rng, 1, 1)
            oracle, conv = quantized_trajectory(inst, p=3, max_iter=60)
            gen = build(BuildParams(instance=inst, p=3))
            res = run_generated(gen, max_iterations=60)
            assert res.halted == conv
            seen_halting |= conv
            if conv:
                if any(c for row in oracle[-1] for c in row):
                    final = decode_output(res.report.final, gen)
                    P = 1000
                    assert [[round(v * P) for v in row] for row in final] == oracle[-1]
                else:
                    # an all-zero allocation routes nothing into OUTPUT
                    with pytest.raises(Exception):
                        decode_output(res.report.final, gen)
        assert seen_halting

    def test_unconverged_run_does_not_halt(self):
        # multiplier tug-of-war keeps this instance oscillating for thousands
        # of rounds
        from psrelief.relief import ReliefInstance

        inst = ReliefInstance(m=1, n=1, s=[2.962], d_lo=[1.339], d_hi=[3.904],
                              gamma=[[1.074]], omega=[3.747], beta=[0.285],
                              cost_a=[[3.931]], cost_b=[[0.371]], vis_k=[1.2])
        oracle, conv = quantized_trajectory(inst, p=3, max_iter=50)
        assert not conv
        gen = build(BuildParams(instance=inst, p=3))
        res = run_generated(gen, max_iterations=50)
        assert not res.halted
        assert res.q_trajectory == oracle

    def test_solver_report_matches_engine_output(self):
        inst = derived_1x1()
        report = solve(inst, QUANTIZED, max_iter=300, p=3)
        gen = build(BuildParams(instance=inst, p=3))
        res = run_generated(gen, max_iterations=300)
        assert res.halted and report.converged
        q = decode_output(res.report.final, gen)
        assert q.tolist() == report.q_star.tolist()


class TestStageProfiles:
    def test_constant_stage_lengths_before_first_halving(self):
        inst = derived_1x1()
        gen = build(BuildParams(instance=inst, p=3))
        res = run_generated(gen, max_iterations=200)
        assert res.halted
        *body, last = res.profiles
        for prof in body:
            assert (prof.initialization, prof.update, prof.comparison) == (3, 9, 6)
        # the halting round spends one extra step routing the result out
        assert (last.initialization, last.update, last.comparison) == (3, 9, 7)

    def test_seeded_random_policy_agrees_on_confluent_system(self):
        inst = derived_1x1()
        gen = build(BuildParams(instance=inst, p=3))
        base = run_generated(gen, max_iterations=200)
        alt = run_generated(gen, max_iterations=200, policy="seeded-random", seed=7)
        assert alt.q_trajectory == base.q_trajectory
        assert alt.report.steps == base.report.steps
