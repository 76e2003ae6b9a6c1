"""Structure, constants, and audit of the generated membrane systems."""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from psrelief import dsl
from psrelief.builder import (
    COMPARE_STAGE,
    COUNTER_DEPTH,
    INIT_STAGE,
    UPDATE_STAGE,
    BuildParams,
    DecodeError,
    build,
    decode_output,
    symbol,
)
from psrelief.multiset import Multiset
from psrelief.io import load_instance
from psrelief.psystem import Configuration, problems
from psrelief.relief import ReliefInstance

from helpers import derived_1x1, katrina_shaped, parts, rules_by_id


def small_instance(m: int, n: int, beta: float = 1.0) -> ReliefInstance:
    return ReliefInstance(
        m=m, n=n,
        s=[float(2 * n)] * m,
        d_lo=[0.5] * n,
        d_hi=[float(2 * m)] * n,
        gamma=[[1.0] * n for _ in range(m)],
        omega=[1.0] * m,
        beta=[beta] * m,
        cost_a=[[1.0] * n for _ in range(m)],
        cost_b=[[0.5] * n for _ in range(m)],
        vis_k=[1.0] * n,
    )


def expected_family_counts(m: int, n: int) -> dict[str, int]:
    mn = m * n
    reducers = mn + m + 2 * n
    counts: dict[str, int] = {}
    counts.update({"1.1": mn, "1.2": m, "1.3": n, "1.4": n, "1.5": 1, "1.6": mn,
                   "1.7": m, "1.8": n, "1.9": n})
    for fam in ("1.10", "1.11", "1.12", "1.13", "1.14", "1.16", "1.18"):
        counts[fam] = mn
    counts.update({"1.15": m, "1.17": n, "1.19": n})
    for i in range(1, 11):
        counts[f"2.{i}"] = mn
    for i in range(11, 32):
        counts[f"2.{i}"] = reducers
    for i in range(32, 39):
        counts[f"2.{i}"] = mn
    for i in range(39, 49):
        counts[f"2.{i}"] = m
    counts["2.48b"] = n
    for i in range(49, 68):
        counts[f"2.{i}"] = n
    counts.update({"2.68": 1, "2.69": 1, "2.70": mn, "2.71": m, "2.72": n, "2.73": n,
                   "2.74": reducers, "2.75": 1, "2.76": COUNTER_DEPTH,
                   "2.77": COUNTER_DEPTH, "2.78": COUNTER_DEPTH})
    counts.update({"3.1": 1, "3.5": 1, "3.12": 1, "3.14": 1, "3.15": 1, "3.17": 1,
                   "3.18": 1, "3.21": 1, "3.26": 1})
    for fam in ("3.2", "3.3", "3.4", "3.6", "3.7", "3.8", "3.9", "3.10", "3.11",
                "3.13", "3.16", "3.19", "3.20", "3.22"):
        counts[fam] = mn
    counts.update({"3.23": m, "3.24": n, "3.25": n})
    counts["4.1"] = 3 * (4 + 2 * reducers)
    return counts


class TestStructure:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3)])
    def test_membrane_count(self, m, n):
        gen = build(BuildParams(instance=small_instance(m, n), p=2))
        assert len(gen.definition.parent) == 4 + 2 * (m * n + m + 2 * n)

    def test_initial_contents(self):
        gen = build(BuildParams(instance=small_instance(1, 1), p=5))
        init = gen.definition.initial
        assert init["skin"] == Multiset({"y0": 1})
        assert init["INIT"] == Multiset({"x_1_1": 100000})
        cfg = Configuration.initial(gen.definition)
        for lab in gen.definition.parent:
            if lab not in ("skin", "INIT"):
                assert not cfg.contents[lab]

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (1, 3)])
    def test_family_catalog_complete_and_exact(self, m, n):
        gen = build(BuildParams(instance=small_instance(m, n), p=2))
        want = expected_family_counts(m, n)
        have = {fam: len(ids) for fam, ids in gen.rule_index.items()}
        assert have == want
        # no rules outside the catalog, ids unique
        all_ids = [rid for ids in gen.rule_index.values() for rid in ids]
        assert len(all_ids) == len(set(all_ids)) == len(gen.definition.rules)

    def test_stages_follow_family_catalog(self):
        # the step-size counter (2.68-2.78) and cleanup (4.1) run alongside
        # the three stages; every other family belongs to its id's stage
        unstaged = {f"2.{i}" for i in range(68, 79)} | {"4.1"}
        by_prefix = {"1": INIT_STAGE, "2": UPDATE_STAGE, "3": COMPARE_STAGE}
        gen = build(BuildParams(instance=small_instance(2, 2), p=2))
        assert gen.stages == {fam: None if fam in unstaged else by_prefix[fam.split(".")[0]]
                              for fam in gen.rule_index}

    def test_priority_pair_count(self):
        for m, n in ((1, 1), (2, 2)):
            gen = build(BuildParams(instance=small_instance(m, n), p=2))
            mn = m * n
            reducers = mn + m + 2 * n
            want = 5 * mn + 13 * reducers + 3 * m + 6 * n + 12 * mn + m + 2 * n
            assert len(gen.definition.priorities) == want

    @pytest.mark.parametrize("m, n", [(2, 2), (4, 4)])
    def test_priority_pairs_follow_declaration_order(self, m, n):
        # declaration order is then a topological order of the relation,
        # which compiling and psystem.problems take without a search
        d = build(BuildParams(instance=katrina_shaped(random.Random(1), m, n), p=3)).definition
        position = {r.id: i for i, r in enumerate(d.rules)}
        assert d.priorities and all(position[hi] < position[lo] for hi, lo in d.priorities)

    def test_one_object_per_multiset_value(self):
        d = build(BuildParams(instance=katrina_shaped(random.Random(1), 4, 4), p=3)).definition
        multisets = list(d.initial.values()) + [ms for r in d.rules for ms in (r.lhs, r.rhs, r.rhs_aux)]
        assert len({id(ms) for ms in multisets}) == len(set(multisets)) < len(multisets)

    def test_definition_validates(self):
        gen = build(BuildParams(instance=small_instance(2, 2), p=3))
        assert problems(*parts(gen.definition)) == []


class TestConstants:
    def test_utility_constant_with_fractional_beta(self):
        inst = small_instance(1, 1, beta=0.5)
        gen = build(BuildParams(instance=inst, p=2))
        rule = rules_by_id(gen.definition)[gen.rule_index["1.6"][0]]
        assert rule.rhs.count("p0") == 200  # floor(100 * 1 * 1 / 0.5)

    def test_supply_and_demand_seeds(self):
        inst = small_instance(1, 1)
        gen = build(BuildParams(instance=inst, p=3))
        rules = rules_by_id(gen.definition)
        supply = rules[gen.rule_index["1.7"][0]]
        assert supply.rhs.count("n0") == 2000  # floor(2.0 * 1000)
        lo = rules[gen.rule_index["1.8"][0]]
        assert lo.rhs.count("p0") == 500
        hi = rules[gen.rule_index["1.9"][0]]
        assert hi.rhs.count("n0") == 2000

    def test_cost_slope_and_divider(self):
        inst = small_instance(1, 1, beta=0.5)
        gen = build(BuildParams(instance=inst, p=2))
        rules = rules_by_id(gen.definition)
        expand = rules[gen.rule_index["2.3"][0]]
        assert expand.rhs.count("c1") == 200  # floor(2 * 100 * 1)
        div = rules[gen.rule_index["2.6"][0]]
        assert div.lhs.count("c1") == 50  # floor(100 * 0.5)
        half = rules[gen.rule_index["2.7"][0]]
        assert half.lhs.count("c1") == 25  # ceil(100 * 0.5 / 2)

    def test_comparison_barrier_multiplicity(self):
        gen = build(BuildParams(instance=small_instance(2, 3), p=2))
        barrier = rules_by_id(gen.definition)[gen.rule_index["3.1"][0]]
        assert barrier.lhs.count("y10") == 6

    def test_beta_flooring_to_zero_is_rejected(self):
        inst = small_instance(1, 1, beta=0.05)
        with pytest.raises(ValueError, match=r"beta\[0\].*p >= 2"):
            build(BuildParams(instance=inst, p=1))

    def test_precision_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="^precision exponent p must be at least 1$"):
            build(BuildParams(instance=small_instance(1, 1), p=0))

    def test_invalid_instance_rejected(self):
        inst = small_instance(1, 1)
        inst.d_lo = np.array([100.0])
        with pytest.raises(ValueError, match="invalid instance"):
            build(BuildParams(instance=inst, p=2))


class TestEncodeDecode:
    def test_decode_counts(self):
        gen = build(BuildParams(instance=small_instance(1, 1), p=5))
        cfg = Configuration.initial(gen.definition)
        cfg.contents["OUTPUT"] = Multiset({symbol("o", 1, 1): 35250012})
        assert decode_output(cfg, gen)[0][0] == 352.50012

    def test_decode_missing_cell_is_zero(self):
        gen = build(BuildParams(instance=small_instance(1, 2), p=3))
        cfg = Configuration.initial(gen.definition)
        cfg.contents["OUTPUT"] = Multiset({symbol("o", 1, 1): 42})
        q = decode_output(cfg, gen)
        assert q[0][0] == 0.042 and q[0][1] == 0.0

    def test_decode_empty_output_is_error(self):
        gen = build(BuildParams(instance=small_instance(1, 1), p=3))
        cfg = Configuration.initial(gen.definition)
        with pytest.raises(DecodeError):
            decode_output(cfg, gen)

    def test_decode_count_past_the_float_range_is_error(self):
        gen = build(BuildParams(instance=small_instance(1, 1), p=3))
        cfg = Configuration.initial(gen.definition)
        cfg.contents["OUTPUT"] = Multiset({symbol("o", 1, 1): 10**400})
        with pytest.raises(DecodeError, match="^an output count at p=3 does not fit a float$"):
            decode_output(cfg, gen)


class TestEmission:
    def test_generated_system_round_trips_through_format(self):
        gen = build(BuildParams(instance=derived_1x1(), p=3))
        text = dsl.serialize(gen.definition)
        back = dsl.parse(text)
        assert back.ok, [str(d) for d in back.diagnostics][:5]
        assert back.definition.structurally_equal(gen.definition)
        assert dsl.serialize(back.definition) == text

    # sha256 of the serialized systems; a change to the builder that is meant
    # to keep its output must keep these.  katrina_10x30_p5 is the case-study
    # scale system: 744 membranes, 23,807 rules, 10,190 priority pairs.
    @pytest.mark.parametrize("name, digest", [
        ("demo_2x2", "cb681456994de5809942e5e3e4f5cc68ee6f3789e0788a85f825296244f543dc"),
        ("derived_1x1", "cfca2d2e6c3fd6003bb0e661e4afb795937e22cbeae94d44d9b55b374829aab0"),
        ("katrina_10x30_p5", "1d04bae9fc1a8042f7f2ee17f5281a90233d1814308afd1bd2d74b22b12afdf0"),
    ])
    def test_pinned_output(self, name, digest):
        if name == "katrina_10x30_p5":
            inst, p = katrina_shaped(random.Random(1), 10, 30), 5
        else:
            inst, p = load_instance(Path(__file__).parent.parent / "instances" / f"{name}.json"), 3
        definition = build(BuildParams(instance=inst, p=p)).definition
        text = dsl.serialize(definition)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
        back = dsl.parse(text)
        assert back.ok and back.definition.structurally_equal(definition)
        assert dsl.serialize(back.definition) == text
