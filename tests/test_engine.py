"""Engine semantics: applicability, selection, commit, and run loop."""

from __future__ import annotations

import random

import pytest

from psrelief.builder import BuildParams, build
from psrelief.engine import (
    SEEDED_RANDOM,
    EngineError,
    FiringPlan,
    applicable_rules,
    apply_step,
    run,
    select_firing,
)
from psrelief.multiset import Multiset
from psrelief.psystem import Configuration, DefinitionError, Polarization, PSystemDef
from psrelief.trace import run_generated

from helpers import (
    M,
    N,
    P,
    enumerate_maximal_plans,
    evolution,
    ms,
    plan_is_maximal,
    random_small_system,
    reference_select,
    send_in,
    send_out,
    single_membrane_example,
)
from test_relief import katrina_shaped


class TestApplicable:
    def test_worked_example_all_three_applicable(self):
        d = single_membrane_example()
        cfg = Configuration.initial(d)
        assert applicable_rules(d, cfg, "1") == ["r1", "r2", "r3"]

    def test_empty_membrane_nothing_applicable(self):
        d = PSystemDef(
            parent={"1": None},
            initial={"1": Multiset()},
            rules=[evolution("r1", "1", ms(a=1), ms(b=1))],
        )
        assert applicable_rules(d, Configuration.initial(d), "1") == []

    def test_polarization_guard_excludes(self):
        d = PSystemDef(
            parent={"1": None},
            initial={"1": ms(a=1)},
            rules=[evolution("r1", "1", ms(a=1), ms(b=1), alpha=M)],
        )
        cfg = Configuration.initial(d)
        assert applicable_rules(d, cfg, "1") == []
        cfg.polarizations["1"] = M
        assert applicable_rules(d, cfg, "1") == ["r1"]

    def test_send_in_checks_parent_contents(self):
        d = PSystemDef(
            parent={"s": None, "c": "s"},
            initial={"s": ms(a=1), "c": Multiset()},
            rules=[send_in("r1", "c", ms(a=1), ms(b=1))],
        )
        assert applicable_rules(d, Configuration.initial(d), "c") == ["r1"]

    def test_unknown_label_is_error(self):
        d = single_membrane_example()
        with pytest.raises(DefinitionError):
            applicable_rules(d, Configuration.initial(d), "nope")


class TestSelect:
    def test_worked_example_plan(self):
        d = single_membrane_example()
        plan = select_firing(d, Configuration.initial(d))
        assert plan.counts == {"r1": 1, "r2": 1, "r3": 1}

    def test_priority_starves_lower_rule(self):
        d = single_membrane_example()
        cfg = Configuration.initial(d)
        cfg.contents["1"] = ms(a=4)
        plan = select_firing(d, cfg)
        assert plan.counts == {"r1": 2}

    def test_incompatible_send_outs_pick_one(self):
        d = PSystemDef(
            parent={"s": None, "c": "s"},
            initial={"c": ms(u=1, v=1)},
            rules=[
                send_out("r1", "c", ms(u=1), ms(x=1), alpha=N, beta=P),
                send_out("r2", "c", ms(v=1), ms(y=1), alpha=N, beta=M),
            ],
        )
        cfg = Configuration.initial(d)
        plan = select_firing(d, cfg)
        assert plan.counts == {"r1": 1}
        seen = set()
        for seed in range(40):
            p = select_firing(d, cfg, policy=SEEDED_RANDOM, seed=seed)
            assert p.counts in ({"r1": 1}, {"r2": 1})
            seen.add(frozenset(p.counts.items()))
        assert len(seen) == 2

    def test_neutral_communication_co_fires_with_one_change(self):
        # Polarization-preserving rules may share a step with a single change.
        d = PSystemDef(
            parent={"s": None, "c": "s"},
            initial={"c": ms(u=3, v=1)},
            rules=[
                send_out("keep", "c", ms(u=1), ms(x=1), alpha=N, beta=N),
                send_out("flip", "c", ms(v=1), ms(y=1), alpha=N, beta=M),
            ],
        )
        plan = select_firing(d, Configuration.initial(d))
        assert plan.counts == {"keep": 3, "flip": 1}
        nxt = apply_step(d, Configuration.initial(d), plan)
        assert nxt.polarizations["c"] is M

    def test_priority_blocks_until_higher_exhausted(self):
        # Lower rule fires only when the higher can no longer fire at all.
        d = PSystemDef(
            parent={"s": None, "c": "s"},
            initial={"c": ms(p=23, y=1)},
            rules=[
                send_out("emit10", "c", ms(p=10), ms(q=1), alpha=N, beta=N),
                send_out("emit5", "c", ms(p=5), ms(q=1), alpha=N, beta=N),
                send_out("finish", "c", ms(y=1), ms(z=1), alpha=N, beta=M),
            ],
            priorities=[("emit10", "emit5"), ("emit5", "finish")],
        )
        plan = select_firing(d, Configuration.initial(d))
        # 23 = 2x10 + leftover 3: no half-batch, finish co-fires after both
        # emitters are exhausted on the residual.
        assert plan.counts == {"emit10": 2, "finish": 1}

    def test_empty_plan_when_nothing_applicable(self):
        d = PSystemDef(
            parent={"1": None},
            initial={"1": ms(z=1)},
            rules=[evolution("r1", "1", ms(a=1), ms(b=1))],
        )
        assert not select_firing(d, Configuration.initial(d))


class TestApply:
    def test_worked_example_step(self):
        d = single_membrane_example()
        cfg = Configuration.initial(d)
        plan = select_firing(d, cfg)
        nxt = apply_step(d, cfg, plan)
        assert nxt.contents["1"] == ms(b=1, c=1, e=1)
        assert nxt.step_index == 1
        assert nxt.polarizations["1"] is N

    def test_empty_plan_only_bumps_step(self):
        d = single_membrane_example()
        cfg = Configuration.initial(d)
        nxt = apply_step(d, cfg, FiringPlan())
        assert nxt.contents == cfg.contents
        assert nxt.step_index == 1

    def test_send_out_from_skin_reaches_environment(self):
        d = PSystemDef(
            parent={"1": None},
            initial={"1": ms(a=2)},
            rules=[send_out("r1", "1", ms(a=1), ms(b=1))],
        )
        cfg = Configuration.initial(d)
        nxt = apply_step(d, cfg, select_firing(d, cfg))
        assert nxt.environment == ms(b=2)
        assert not nxt.contents["1"]

    def test_two_sided_products_commit_to_both_regions(self):
        d = PSystemDef(
            parent={"s": None, "c": "s"},
            initial={"s": ms(u=1)},
            rules=[send_in("r1", "c", ms(u=1), ms(inner=1), alpha=N, beta=M, aux=ms(outer=1))],
        )
        cfg = Configuration.initial(d)
        nxt = apply_step(d, cfg, select_firing(d, cfg))
        assert nxt.contents["c"] == ms(inner=1)
        assert nxt.contents["s"] == ms(outer=1)
        assert nxt.polarizations["c"] is M

    def test_infeasible_plan_is_engine_error(self):
        d = single_membrane_example()
        cfg = Configuration.initial(d)
        with pytest.raises(EngineError):
            apply_step(d, cfg, FiringPlan(counts={"r1": 5}))

    def test_input_configuration_never_mutated(self):
        d = single_membrane_example()
        cfg = Configuration.initial(d)
        before = cfg.contents["1"].copy()
        apply_step(d, cfg, select_firing(d, cfg))
        assert cfg.contents["1"] == before


class TestRun:
    def test_worked_example_halts_after_one_step(self):
        report = run(single_membrane_example(), max_steps=10)
        assert report.halted and report.steps == 1
        assert report.final.contents["1"] == ms(b=1, c=1, e=1)

    def test_no_rules_halts_immediately(self):
        d = PSystemDef(parent={"1": None}, initial={"1": ms(a=1)}, rules=[])
        report = run(d, max_steps=5)
        assert report.halted and report.steps == 0
        assert report.final.contents["1"] == ms(a=1)

    def test_non_halting_reports_flag(self):
        d = PSystemDef(
            parent={"1": None},
            initial={"1": ms(a=1)},
            rules=[evolution("loop", "1", ms(a=1), ms(a=1))],
        )
        report = run(d, max_steps=7)
        assert not report.halted and report.steps == 7

    def test_output_region_contents(self):
        d = PSystemDef(
            parent={"s": None, "c": "s"},
            initial={"c": ms(a=3)},
            rules=[send_out("r1", "c", ms(a=1), ms(o=1))],
            output="s",
        )
        report = run(d, max_steps=10)
        assert report.output == ms(o=3)

    def test_observer_sees_each_step(self):
        seen = []
        run(single_membrane_example(), max_steps=10,
            observer=lambda step, plan, cfg: seen.append((step, dict(plan.counts), cfg.digest())))
        assert len(seen) == 1
        assert seen[0][0] == 1 and seen[0][1] == {"r1": 1, "r2": 1, "r3": 1}
        assert isinstance(seen[0][2], str) and len(seen[0][2]) == 16


class TestProperties:
    CASES = 120

    def test_plan_member_of_enumerated_maximal_set(self):
        rng = random.Random(20240811)
        checked = 0
        for _ in range(self.CASES):
            d = random_small_system(rng)
            if d.problems():
                continue
            cfg = Configuration.initial(d)
            plans = enumerate_maximal_plans(d, cfg)
            det = select_firing(d, cfg)
            assert frozenset(det.counts.items()) in plans
            for seed in (0, 1, 2):
                rnd = select_firing(d, cfg, policy=SEEDED_RANDOM, seed=seed)
                assert frozenset(rnd.counts.items()) in plans
            checked += 1
        assert checked >= 100

    def test_conservation_across_steps(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(self.CASES):
            d = random_small_system(rng)
            if d.problems():
                continue
            cfg = Configuration.initial(d)
            for _ in range(4):
                plan = select_firing(d, cfg)
                if not plan:
                    break
                nxt = apply_step(d, cfg, plan)
                self._check_balance(d, cfg, plan, nxt)
                cfg = nxt
            checked += 1
        assert checked >= 100

    @staticmethod
    def _check_balance(d, cfg, plan, nxt):
        def totals(c):
            out = {}
            for msv in list(c.contents.values()) + [c.environment]:
                for sym, cnt in msv.items():
                    out[sym] = out.get(sym, 0) + cnt
                    assert cnt >= 0
            return out

        before, after = totals(cfg), totals(nxt)
        flux = {}
        for rid, count in plan.counts.items():
            rule = d.rule_by_id(rid)
            for sym, c in rule.lhs.items():
                flux[sym] = flux.get(sym, 0) - c * count
            for sym, c in rule.rhs.items():
                flux[sym] = flux.get(sym, 0) + c * count
            for sym, c in rule.rhs_aux.items():
                flux[sym] = flux.get(sym, 0) + c * count
        for sym in set(before) | set(after) | set(flux):
            assert after.get(sym, 0) == before.get(sym, 0) + flux.get(sym, 0)

    def test_polarization_change_only_with_agreeing_communication(self):
        rng = random.Random(99)
        checked_steps = 0
        for _ in range(self.CASES * 3):
            d = random_small_system(rng)
            if d.problems():
                continue
            cfg = Configuration.initial(d)
            for _ in range(4):
                plan = select_firing(d, cfg)
                if not plan:
                    break
                nxt = apply_step(d, cfg, plan)
                for lab in d.parent:
                    changers = {
                        d.rule_by_id(rid).beta
                        for rid in plan.counts
                        if d.rule_by_id(rid).membrane == lab
                        and d.rule_by_id(rid).changes_polarization
                    }
                    if nxt.polarizations[lab] is not cfg.polarizations[lab]:
                        assert changers == {nxt.polarizations[lab]}
                    else:
                        assert not changers
                checked_steps += 1
                cfg = nxt
        assert checked_steps >= 100

    def test_determinism_same_seed_same_trace(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(self.CASES):
            d = random_small_system(rng)
            if d.problems():
                continue
            traces = []
            for _ in range(2):
                steps = []
                run(d, policy=SEEDED_RANDOM, seed=123, max_steps=6,
                    observer=lambda s, p, c: steps.append((s, tuple(sorted(p.counts.items())), c.digest())))
                traces.append(steps)
            assert traces[0] == traces[1]
            checked += 1
        assert checked >= 100

    def test_maximality_of_deterministic_plan(self):
        rng = random.Random(31337)
        checked = 0
        for _ in range(self.CASES):
            d = random_small_system(rng)
            if d.problems():
                continue
            cfg = Configuration.initial(d)
            plan = select_firing(d, cfg)
            assert plan_is_maximal(d, cfg, dict(plan.counts))
            checked += 1
        assert checked >= 100


class TestReferenceSelector:
    """``select_firing`` walks candidate lists; ``reference_select`` walks
    every rule on every pass.  Their plans must be equal, for the
    deterministic policy and for seeded-random orders."""

    POLICIES = [("deterministic", 0)] + [(SEEDED_RANDOM, seed) for seed in range(5)]

    def _assert_same_plans(self, d, cfg):
        for policy, seed in self.POLICIES:
            assert select_firing(d, cfg, policy=policy, seed=seed) == \
                reference_select(d, cfg, policy=policy, seed=seed), (policy, seed)

    def test_lower_rule_unblocked_by_a_later_consumption(self):
        # r1 cannot fire (r0's pending charge is +) yet holds r2 back while
        # an object a is left; r3, later in the order, takes that a, so r2
        # fires on the second pass.
        d = PSystemDef(
            parent={"s": None, "c": "s"},
            initial={"c": ms(x=1, a=1, b=1)},
            rules=[
                send_out("r0", "c", ms(x=1), ms(), alpha=N, beta=P),
                send_out("r1", "c", ms(a=1), ms(), alpha=N, beta=M),
                evolution("r2", "c", ms(b=1), ms(z=1)),
                evolution("r3", "c", ms(a=1), ms(y=1)),
            ],
            priorities=[("r1", "r2")],
        )
        cfg = Configuration.initial(d)
        assert select_firing(d, cfg) == FiringPlan(counts={"r0": 1, "r2": 1, "r3": 1})
        self._assert_same_plans(d, cfg)

    def test_random_small_systems(self):
        rng = random.Random(5150)
        checked = 0
        while checked < 200:
            d = random_small_system(rng)
            if d.problems():
                continue
            cfg = Configuration.initial(d)
            for _ in range(3):
                self._assert_same_plans(d, cfg)
                checked += 1
                plan = select_firing(d, cfg)
                if not plan:
                    break
                cfg = apply_step(d, cfg, plan)

    def test_generated_4x4_run(self):
        gen = build(BuildParams(instance=katrina_shaped(random.Random(1), 4, 4), p=3))
        samples = []
        run_generated(gen, max_iterations=5,
                      extra_observer=lambda step, plan, cfg: samples.append(cfg))
        picked = [Configuration.initial(gen.definition)] + samples[3::9]
        assert len(picked) >= 10
        for cfg in picked:
            self._assert_same_plans(gen.definition, cfg)
