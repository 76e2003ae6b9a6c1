"""Generated system vs the integer-quantized iteration, count for count."""

from __future__ import annotations

import dataclasses
import random

import pytest

from psrelief.builder import BuildParams, DecodeError, build, count_reader, decode_output
from psrelief.engine import SEEDED_RANDOM
from psrelief.multiset import Multiset
from psrelief.relief import QUANTIZED, solve
from psrelief.trace import BOUNDARY, HALT, iterations, run_generated

from helpers import assert_lockstep, derived_1x1, katrina_shaped, random_instance, slow_oscillator


class TestTrajectoryEquivalence:
    def test_derived_instance_exact_trajectory(self):
        inst = derived_1x1()
        assert assert_lockstep(inst, build(BuildParams(instance=inst, p=3)), 200).end == HALT

    def test_random_instances_exact(self):
        rng = random.Random(424242)
        for _ in range(6):
            m, n = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
            inst = random_instance(rng, m, n)
            assert_lockstep(inst, build(BuildParams(instance=inst, p=3)), 120)

    @pytest.mark.parametrize("p", [3, 4])
    def test_katrina_shaped_4x4_exact(self, p):
        inst = katrina_shaped(random.Random(1), 4, 4)
        last = assert_lockstep(inst, build(BuildParams(instance=inst, p=p)), 30)
        assert (last.t, last.end) == (30, BOUNDARY)

    @pytest.mark.parametrize("seed", range(4))
    def test_katrina_shaped_4x4_seeded_random(self, seed):
        # the generated system is confluent: whichever maximal plans the
        # seeded steps fire, every iteration's counts are the oracle's, and
        # every iteration's stage profile is the deterministic run's
        inst = katrina_shaped(random.Random(1), 4, 4)
        gen = build(BuildParams(instance=inst, p=3))
        profiles = []
        assert_lockstep(inst, gen, 12, SEEDED_RANDOM, seed, profiles=profiles)
        assert profiles == run_generated(gen, max_iterations=12).profiles

    def test_halting_iff_oracle_convergence(self):
        rng = random.Random(99)
        seen_halting = False
        for _ in range(10):
            inst = random_instance(rng, 1, 1)
            gen = build(BuildParams(instance=inst, p=3))
            last = assert_lockstep(inst, gen, 60)  # halts iff the oracle settles
            if last.end == HALT:
                seen_halting = True
                # the oracle's last counts, by the lockstep
                counts = count_reader(gen, "o")(last.config.contents["OUTPUT"])
                if any(map(any, counts)):
                    final = decode_output(last.config, gen)
                    assert [[round(v * 10**gen.p) for v in row] for row in final] == counts
                else:  # an all-zero allocation routes nothing into OUTPUT
                    with pytest.raises(DecodeError, match="^OUTPUT membrane is empty"):
                        decode_output(last.config, gen)
        assert seen_halting

    def test_unconverged_run_does_not_halt(self):
        inst = slow_oscillator()
        last = assert_lockstep(inst, build(BuildParams(instance=inst, p=3)), 50)
        assert (last.t, last.end) == (50, BOUNDARY)

    def test_solver_report_matches_engine_output(self):
        inst = derived_1x1()
        report = solve(inst, QUANTIZED, max_iter=300, p=3)
        gen = build(BuildParams(instance=inst, p=3))
        res = run_generated(gen, max_iterations=300)
        assert res.halted and report.converged
        q = decode_output(res.report.final, gen)
        assert q.tolist() == report.q_star.tolist()


class TestStageProfiles:
    def test_seeded_random_policy_agrees_on_confluent_system(self):
        inst = derived_1x1()
        gen = build(BuildParams(instance=inst, p=3))
        base = assert_lockstep(inst, gen, 200)
        alt = assert_lockstep(inst, gen, 200, SEEDED_RANDOM, 7)
        assert alt.config.step_index == base.config.step_index


class TestLockstep:
    """``assert_lockstep`` itself: it fails at the first difference and names it."""

    @pytest.mark.parametrize("cell", ["x_1_1", "la2_1"])
    def test_names_the_first_difference(self, cell):
        def one_more(*args):  # iterations, with one more ``cell`` in INIT at iteration 5
            for record in iterations(*args):
                if record.t == 5:
                    init = record.config.contents["INIT"]
                    init = Multiset({**init.counts(), cell: init.count(cell) + 1})
                    contents = {**record.config.contents, "INIT": init}
                    record = record._replace(config=dataclasses.replace(record.config, contents=contents))
                yield record

        inst = derived_1x1()
        gen = build(BuildParams(instance=inst, p=3))
        fired = []
        for record in iterations(gen, 5, lambda _, plan, __: fired.append(plan.counts)):
            if record.t < 5:
                fired.clear()
        families = [f for f, rids in gen.rule_index.items() if any(r in c for c in fired for r in rids)]
        n = record.config.contents["INIT"].count(cell)  # the oracle's count
        with pytest.raises(AssertionError) as failure:
            assert_lockstep(inst, gen, 10, stream=one_more)
        assert str(failure.value) == (
            f"iteration 5, engine step {record.config.step_index} (boundary), families {families}: "
            f"engine halted=False, oracle iteration 5 settled=False; {cell}: engine {n + 1}, oracle {n}")

    def test_fails_on_a_stream_cut_one_iteration_short(self):
        inst = derived_1x1()
        with pytest.raises(AssertionError, match="^the engine stream ended after iteration 9;"):
            assert_lockstep(inst, build(BuildParams(instance=inst, p=3)), 10,
                            stream=lambda gen, limit, *args: iterations(gen, limit - 1, *args))
