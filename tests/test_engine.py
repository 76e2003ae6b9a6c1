"""Engine semantics: applicability, selection, commit, and run loop."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from psrelief import engine
from psrelief.builder import BuildParams, build
from psrelief.engine import SEEDED_RANDOM, FiringPlan, apply_step, run, select_firing
from psrelief.multiset import Multiset
from psrelief.psystem import Configuration, DefinitionError, Polarization, PSystemDef
from psrelief.trace import run_generated

from helpers import (
    M,
    N,
    P,
    enumerate_maximal_plans,
    evolution,
    katrina_shaped,
    ms,
    passes_on_snapshot,
    plan_is_maximal,
    random_small_system,
    reference_apply,
    reference_select,
    rules_by_id,
    select,
    send_in,
    send_out,
    single_membrane_example,
)

#: The policies the engine's plans are compared with the reference's under.
POLICIES = [("deterministic", 0)] + [(SEEDED_RANDOM, seed) for seed in range(5)]


class TestApplicable:
    """A rule can fire only when its guard holds and the snapshot covers its
    left-hand side; the candidate gather must find exactly these rules."""

    def test_worked_example_all_three_applicable(self):
        d = single_membrane_example()
        assert set(select_firing(d, Configuration.initial(d)).counts) == {"r1", "r2", "r3"}

    def test_empty_membrane_nothing_applicable(self):
        d = PSystemDef(
            parent={"1": None},
            initial={"1": Multiset()},
            rules=[evolution("r1", "1", ms(a=1), ms(b=1))],
        )
        assert not select_firing(d, Configuration.initial(d))

    def test_polarization_guard_excludes(self):
        d = PSystemDef(
            parent={"1": None},
            initial={"1": ms(a=1)},
            rules=[evolution("r1", "1", ms(a=1), ms(b=1), alpha=M)],
        )
        cfg = Configuration.initial(d)
        assert not select_firing(d, cfg)
        cfg.polarizations["1"] = M
        assert select_firing(d, cfg).counts == {"r1": 1}

    def test_send_in_checks_parent_contents(self):
        d = PSystemDef(
            parent={"s": None, "c": "s"},
            initial={"s": ms(a=1), "c": Multiset()},
            rules=[send_in("r1", "c", ms(a=1), ms(b=1))],
        )
        cfg = Configuration.initial(d)
        assert select_firing(d, cfg).counts == {"r1": 1}
        cfg.contents["s"], cfg.contents["c"] = Multiset(), ms(a=1)
        assert not select_firing(d, cfg)

    def test_unknown_label_is_error(self):
        with pytest.raises(DefinitionError, match="unknown membrane 'nope'"):
            PSystemDef(
                parent={"1": None},
                initial={"1": ms(a=1)},
                rules=[evolution("r1", "nope", ms(a=1), ms(b=1))],
            )


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
            p = select(d, cfg, SEEDED_RANDOM, seed)
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

    def test_input_configuration_never_mutated(self):
        d = single_membrane_example()
        cfg = Configuration.initial(d)
        before = dict(cfg.contents["1"].counts())
        apply_step(d, cfg, select_firing(d, cfg))
        assert cfg.contents["1"].counts() == before


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
            cfg = Configuration.initial(d)
            plans = enumerate_maximal_plans(d, cfg)
            det = select_firing(d, cfg)
            assert frozenset(det.counts.items()) in plans
            for seed in (0, 1, 2):
                rnd = select(d, cfg, SEEDED_RANDOM, seed)
                assert frozenset(rnd.counts.items()) in plans
            checked += 1
        assert checked >= 100

    def test_conservation_across_steps(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(self.CASES):
            d = random_small_system(rng)
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
        rules = rules_by_id(d)
        flux = {}
        for rid, count in plan.counts.items():
            rule = rules[rid]
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
            rules = rules_by_id(d)
            cfg = Configuration.initial(d)
            for _ in range(4):
                plan = select_firing(d, cfg)
                if not plan:
                    break
                nxt = apply_step(d, cfg, plan)
                fired = [rules[rid] for rid in plan.counts]
                for lab in d.parent:
                    changers = {r.beta for r in fired if r.membrane == lab and r.changes_polarization}
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
            cfg = Configuration.initial(d)
            plan = select_firing(d, cfg)
            assert plan_is_maximal(d, cfg, dict(plan.counts))
            checked += 1
        assert checked >= 100


class TestReferenceSelector:
    """The engine's selection walks candidate lists; ``reference_select``
    walks every rule on every pass.  Their plans must be equal, for the
    deterministic policy and for seeded-random orders."""

    @staticmethod
    def _assert_same_plans(d, cfg):
        for policy, seed in POLICIES:
            assert select(d, cfg, policy, seed) == reference_select(d, cfg, policy, seed), (policy, seed)

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

    def test_key_symbol_present_other_symbol_short(self):
        # r1 is keyed by its first symbol a: a is present but b falls short.
        # r2 is keyed by b, which is short, while its second symbol a is
        # plentiful.  Neither is a candidate; r3 fires.
        d = PSystemDef(
            parent={"1": None},
            initial={"1": ms(a=3, b=1, c=1)},
            rules=[
                evolution("r1", "1", ms(a=1, b=2), ms(x=1)),
                evolution("r2", "1", ms(b=2, a=1), ms(y=1)),
                evolution("r3", "1", ms(c=1, a=1), ms(z=1)),
            ],
        )
        cfg = Configuration.initial(d)
        assert select_firing(d, cfg) == FiringPlan(counts={"r3": 1})
        self._assert_same_plans(d, cfg)
        cfg.contents["1"] = ms(a=3, b=2, c=1)
        assert select_firing(d, cfg) == FiringPlan(counts={"r1": 1, "r3": 1})
        self._assert_same_plans(d, cfg)

    def test_sibling_send_ins_share_the_parent_region(self):
        # c1 and c2 both consume from s; their rules are listed under
        # different guards, and only the ones matching each membrane's
        # current polarization may fire.
        d = PSystemDef(
            parent={"s": None, "c1": "s", "c2": "s"},
            initial={"s": ms(a=3, b=2)},
            rules=[
                send_in("i1", "c1", ms(a=1), ms(x=1), alpha=N),
                send_in("i2", "c2", ms(a=1), ms(y=1), alpha=P, beta=M),
                send_in("i3", "c2", ms(b=1), ms(z=1), alpha=N),
                send_in("i4", "c1", ms(b=1), ms(w=1), alpha=P),
            ],
            priorities=[("i2", "i1")],
        )
        cfg = Configuration.initial(d)
        assert select_firing(d, cfg) == FiringPlan(counts={"i1": 3, "i3": 2})
        self._assert_same_plans(d, cfg)
        cfg.polarizations["c2"] = P
        assert select_firing(d, cfg) == FiringPlan(counts={"i2": 3})
        self._assert_same_plans(d, cfg)
        cfg.polarizations["c1"] = P
        assert select_firing(d, cfg) == FiringPlan(counts={"i2": 3, "i4": 2})
        self._assert_same_plans(d, cfg)

    def test_gather_walks_present_symbols(self):
        # Region 1 holds fewer symbols than its rules have key symbols and
        # region 2 holds more; the gather walks each region's present symbols
        # either way.
        d = PSystemDef(
            parent={"1": None, "2": "1"},
            initial={"1": ms(c=2, e=1), "2": ms(a=1, b=2, c=1, d=1, e=3, f=1)},
            rules=[evolution(f"k{sym}", "1", Multiset({sym: 1}), ms(z=1)) for sym in "abcdef"]
            + [
                evolution("two", "1", ms(e=1, c=1), ms(y=1)),
                evolution("in2", "2", ms(e=2), ms(x=1)),
                evolution("in2b", "2", ms(b=1, f=2), ms(x=1)),
            ],
            priorities=[("two", "kc")],
        )
        cfg = Configuration.initial(d)
        # ke takes the one e first, so two cannot fire and no longer holds kc back
        assert select_firing(d, cfg) == FiringPlan(counts={"ke": 1, "kc": 2, "in2": 1})
        self._assert_same_plans(d, cfg)

    def test_random_small_systems(self):
        rng = random.Random(5150)
        checked = 0
        while checked < 200:
            d = random_small_system(rng)
            cfg = Configuration.initial(d)
            for _ in range(3):
                self._assert_same_plans(d, cfg)
                checked += 1
                plan = select_firing(d, cfg)
                if not plan:
                    break
                cfg = apply_step(d, cfg, plan)

    def test_random_small_systems_with_every_pair_backward(self):
        # The drawn pairs run from an earlier rule to a later one; declaring
        # the rules in reverse turns every pair backward, so the engine's
        # ranks come from the min-heap pass instead of declaration order.
        rng = random.Random(5151)
        related = 0
        for _ in range(200):
            drawn = random_small_system(rng)
            d = dataclasses.replace(drawn, rules=drawn.rules[::-1])
            related += bool(d.priorities)
            cfg = Configuration.initial(d)
            for _ in range(3):
                self._assert_same_plans(d, cfg)
                plan = select_firing(d, cfg)
                assert plan_is_maximal(d, cfg, dict(plan.counts))
                if not plan:
                    break
                cfg = apply_step(d, cfg, plan)
        assert related >= 50  # draws that reach the min-heap pass


class TestReferenceApply:
    """``apply_step`` commits on plain count dicts of the regions it
    writes; ``reference_apply`` commits on copies of every region.  Their
    configurations must be equal, canonical (no zero counts) and leave the
    input as it was."""

    @staticmethod
    def _assert_same_commit(d, cfg, plan):
        digest = cfg.digest()
        got = apply_step(d, cfg, plan)
        assert got == reference_apply(d, cfg, plan)
        assert cfg.digest() == digest
        for region in list(got.contents.values()) + [got.environment]:
            assert all(count > 0 for _, count in region.items())
        return got

    def test_random_small_systems(self):
        rng = random.Random(6160)
        checked = 0
        while checked < 200:
            d = random_small_system(rng)
            cfg = Configuration.initial(d)
            for step in range(4):
                plan = select(d, cfg, SEEDED_RANDOM, step) if step % 2 else select_firing(d, cfg)
                if not plan:
                    break
                cfg = self._assert_same_commit(d, cfg, plan)
                checked += 1

    def test_generated_4x4_run(self):
        gen = build(BuildParams(instance=katrina_shaped(random.Random(1), 4, 4), p=3))
        d = gen.definition
        samples = []
        run_generated(gen, max_iterations=5,
                      extra_observer=lambda step, plan, cfg: samples.append(cfg))
        picked = [Configuration.initial(d)] + samples[3::9]
        assert len(picked) >= 10
        for cfg in picked:
            self._assert_same_commit(d, cfg, select_firing(d, cfg))


class TestSteps:
    """``steps`` commits the pools its selection leaves instead of going
    through ``apply_step``; its chain of plans and configurations must equal
    the chain of per-call selections and ``apply_step`` and that of the
    reference engine."""

    @staticmethod
    def _public_chain(d, policy, seed, limit):
        chain, cfg = [], Configuration.initial(d)
        while len(chain) < limit:
            plan = select(d, cfg, policy, (seed << 20) ^ cfg.step_index)
            if not plan:
                break
            cfg = apply_step(d, cfg, plan)
            chain.append((list(plan.counts.items()), cfg))
        return chain

    @pytest.mark.parametrize("policy,seed", POLICIES)
    def test_generated_4x4_matches_reference(self, policy, seed):
        gen = build(BuildParams(instance=katrina_shaped(random.Random(1), 4, 4), p=3))
        d = gen.definition
        boundary = set(gen.rule_index["3.26"])
        cfg, iterations = Configuration.initial(d), 0
        for plan, got in engine.steps(d, policy, seed):
            want = reference_select(d, cfg, policy=policy, seed=(seed << 20) ^ cfg.step_index)
            assert list(plan.counts.items()) == list(want.counts.items()), cfg.step_index
            cfg = reference_apply(d, cfg, want)
            assert got == cfg, cfg.step_index
            iterations += not boundary.isdisjoint(plan.counts)
            if iterations == 5:
                break
        assert iterations == 5

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_4x4_seeded_steps_commit_the_deterministic_configuration(self, seed):
        # The generated system is confluent where its plans branch: a seeded
        # plan other than the deterministic one commits the same configuration.
        d = build(BuildParams(instance=katrina_shaped(random.Random(1), 4, 4), p=3)).definition
        pairs = list(itertools.islice(zip(engine.steps(d), engine.steps(d, SEEDED_RANDOM, seed)), 282))
        assert len(pairs) == 282
        for step, ((_, want), (_, got)) in enumerate(pairs):
            assert got.digest() == want.digest(), step
        # and the plans do branch, so an engine that ignored the policy fails
        assert any(a.counts != b.counts for (a, _), (b, _) in pairs)

    def test_seeded_step_draws_one_shuffle_of_its_candidates(self, monkeypatch):
        # The cost of a seeded step follows its candidates, not the system:
        # its generator is drawn from only by one shuffle of the candidates.
        d = build(BuildParams(instance=katrina_shaped(random.Random(1), 8, 8), p=3)).definition
        generators = []

        class Recording(random.Random):
            """Logs each shuffle's length and every draw made outside one."""

            def __init__(self, seed):
                self.log, self.shuffling = [], False
                generators.append(self)
                super().__init__(seed)

            def shuffle(self, x):
                self.log.append(("shuffle", len(x)))
                self.shuffling = True
                try:
                    super().shuffle(x)
                finally:
                    self.shuffling = False

            def random(self):
                self.log.append("random")
                return super().random()

            def getrandbits(self, k):
                if not self.shuffling:
                    self.log.append("getrandbits")
                return super().getrandbits(k)

        monkeypatch.setattr(engine.random, "Random", Recording)
        config = Configuration.initial(d)
        for step, (_, nxt) in enumerate(itertools.islice(engine.steps(d, SEEDED_RANDOM, 1), 20)):
            candidates = sum(passes_on_snapshot(d, config, rule) for rule in d.rules)
            assert generators[step].log == [("shuffle", candidates)], step
            config = nxt
        assert len(generators) == 20

    def test_random_small_systems_match_public_functions(self):
        rng = random.Random(7070)
        checked = 0
        while checked < 200:
            d = random_small_system(rng)
            for policy, seed in (("deterministic", 0), (SEEDED_RANDOM, checked)):
                got = [(list(plan.counts.items()), cfg)
                       for plan, cfg in itertools.islice(engine.steps(d, policy, seed), 4)]
                assert got == self._public_chain(d, policy, seed, 4), (checked, policy)
            checked += 1

    def test_configurations_hold_no_zero_count(self):
        # The greedy deletes a count that reaches 0 and the commit wraps its
        # pools as they are, so every configuration it yields is canonical.
        def zero_free(cfg):
            regions = [*cfg.contents.values(), cfg.environment]
            return all(0 not in region._counts.values() for region in regions)

        gen = build(BuildParams(instance=katrina_shaped(random.Random(1), 4, 4), p=3))
        boundary = set(gen.rule_index["3.26"])
        for policy, seed in (("deterministic", 0), (SEEDED_RANDOM, 1)):
            iterations = 0
            for plan, cfg in engine.steps(gen.definition, policy, seed):
                assert zero_free(cfg), (policy, cfg.step_index)
                iterations += not boundary.isdisjoint(plan.counts)
                if iterations == 5:
                    break
            assert iterations == 5
        rng = random.Random(4242)
        for draw in range(50):
            d = random_small_system(rng)
            for policy, seed in (("deterministic", 0), (SEEDED_RANDOM, draw)):
                for _, cfg in itertools.islice(engine.steps(d, policy, seed), 4):
                    assert zero_free(cfg), (draw, policy, cfg.step_index)

    def test_earlier_configurations_survive_later_steps(self):
        # Membrane 2 holds objects no rule touches: every configuration of the
        # run shares the definition's multiset for it, and no later step can
        # change an earlier configuration.
        d = PSystemDef(
            parent={"1": None, "2": "1"},
            initial={"1": ms(a=2), "2": ms(y=1)},
            rules=[evolution(f"r{i}", "1", Multiset({src: 1}), Multiset({dst: 1}))
                   for i, (src, dst) in enumerate(zip("abcd", "bcde"))],
        )
        seen = [(cfg, cfg.digest()) for _, cfg in engine.steps(d)]
        assert len(seen) == 4 and seen[-1][0].contents["1"] == ms(e=2)
        assert [cfg.digest() for cfg, _ in seen] == [digest for _, digest in seen]
        assert all(cfg.contents["2"] is d.initial["2"] for cfg, _ in seen)

    def test_counts_of_a_configuration_cannot_be_written(self):
        # Every configuration shares membrane 2's multiset with the definition,
        # so a write through one of them would rewrite all of them.
        d = PSystemDef(
            parent={"1": None, "2": "1"},
            initial={"1": ms(a=1), "2": ms(y=1)},
            rules=[evolution("r1", "1", ms(a=1), ms(b=1)), evolution("r2", "1", ms(b=1), ms(c=1))],
        )
        cfgs = [Configuration.initial(d)] + [cfg for _, cfg in engine.steps(d)]
        digest = cfgs[0].digest()
        with pytest.raises(TypeError):
            cfgs[1].contents["2"].counts()["y"] = 5
        assert cfgs[0].digest() == digest
        assert d.initial["2"] == ms(y=1)
