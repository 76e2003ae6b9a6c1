"""Game validation, step schedule, and both solver families."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (
    State,
    count_start,
    count_step,
    derived_1x1,
    div_round_half,
    flat,
    float_drift,
    float_step,
    katrina_shaped,
    random_instance,
    reference_gradient_pack,
    reference_projected_step,
    reference_quantized_step,
    reference_solve,
    scaled_emission,
)
from psrelief import relief
from psrelief.relief import (
    FULL,
    QUANTIZED,
    SIMPLIFIED,
    VISIBILITY_FLOOR,
    EquilibriumReport,
    ReliefInstance,
    _FloatStep,
    _QuantizedStep,
    fixed_point_constants,
    quantized_halvings,
    quantized_trajectory,
    schedule_exponent,
    solve,
    step_size,
    validate,
)


#: sha256 of the ``katrina_shaped`` draws below, taken from the recipe's
#: earlier copy in this module: every pinned trajectory and digest rests on
#: these draws.
KATRINA_DRAWS_SHA256 = "5512d0d180d31289188f7531f0547acd44bb521fbd19eb95a863e98024219941"


def test_katrina_shaped_draws_are_pinned():
    digest = hashlib.sha256()
    for seed in range(4):
        for m, n in [(1, 1), (2, 2), (3, 10), (4, 4), (8, 8), (10, 30)]:
            inst = katrina_shaped(random.Random(seed), m, n)
            digest.update(json.dumps(inst.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == KATRINA_DRAWS_SHA256


class TestValidate:
    def test_simple_ok(self):
        inst = ReliefInstance(m=1, n=1, s=[10.0], d_lo=[5.0], d_hi=[8.0],
                              gamma=[[1.0]], omega=[1.0], beta=[1.0],
                              cost_a=[[1.0]], cost_b=[[1.0]], vis_k=[1.0])
        assert validate(inst) == []

    def test_supply_below_demand(self):
        inst = ReliefInstance(m=1, n=1, s=[3.0], d_lo=[5.0], d_hi=[8.0],
                              gamma=[[1.0]], omega=[1.0], beta=[1.0],
                              cost_a=[[1.0]], cost_b=[[1.0]], vis_k=[1.0])
        msgs = validate(inst)
        assert any("infeasible" in m and "3" in m and "5" in m for m in msgs)

    def test_bound_order(self):
        inst = ReliefInstance(m=1, n=1, s=[10.0], d_lo=[5.0], d_hi=[4.0],
                              gamma=[[1.0]], omega=[1.0], beta=[1.0],
                              cost_a=[[1.0]], cost_b=[[1.0]], vis_k=[1.0])
        msgs = validate(inst)
        assert any("d_lo[0]" in m for m in msgs)

    def test_all_violations_reported(self):
        inst = ReliefInstance(m=1, n=1, s=[-1.0], d_lo=[5.0], d_hi=[4.0],
                              gamma=[[0.0]], omega=[1.0], beta=[1.0],
                              cost_a=[[1.0]], cost_b=[[1.0]], vis_k=[1.0])
        msgs = validate(inst)
        assert len(msgs) >= 3

    def test_non_finite_entries_rejected(self):
        inst = ReliefInstance(m=1, n=1, s=[float("inf")], d_lo=[0.0], d_hi=[1.0],
                              gamma=[[float("nan")]], omega=[1.0], beta=[1.0],
                              cost_a=[[1.0]], cost_b=[[1.0]], vis_k=[1.0])
        assert validate(inst) == ["s entries must be finite", "gamma entries must be finite"]

    @pytest.mark.parametrize("changes, names", [
        ({"cost_a": [[1e200]]}, ["2*cost_a**2"]),
        ({"cost_a": [[1e308]], "cost_b": [[0.0]]}, ["2*cost_a**2", "2*cost_a*cost_b"]),
        ({"omega": [1e308], "gamma": [[2.0]]}, ["omega*gamma/beta"]),
        ({"vis_k": [1e308]}, ["vis_k/(2*sqrt(VISIBILITY_FLOOR))"]),
    ], ids=["cost_a", "cost_a_cost_b", "omega", "vis_k"])
    def test_derived_constants_must_be_finite(self, changes, names):
        # each overflows a constant of the float step, not an entry
        inst = dataclasses.replace(derived_1x1(), **changes)
        assert validate(inst) == [f"derived constant {name} must be finite" for name in names]

    def test_overflowing_totals_validate_without_warning(self):
        inst = dataclasses.replace(derived_1x1(), s=[1e308, 1e308], m=2, gamma=[[1.0]] * 2,
                                   omega=[1.0] * 2, beta=[1.0] * 2, cost_a=[[1.0]] * 2,
                                   cost_b=[[0.0]] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate(inst) == []

    @pytest.mark.parametrize("m", [True, 1.0, "1", 0])
    def test_sizes_must_be_positive_integers(self, m):
        inst = ReliefInstance(m=m, n=1, s=[1.0], d_lo=[0.0], d_hi=[1.0],
                              gamma=[[1.0]], omega=[1.0], beta=[1.0],
                              cost_a=[[1.0]], cost_b=[[1.0]], vis_k=[1.0])
        assert validate(inst) == [f"m and n must be integers >= 1, got m={m!r} n=1"]


class TestSchedule:
    def test_block_boundaries(self):
        assert step_size(0) == 0.1
        assert step_size(1023) == 0.1
        assert step_size(1024) == 0.05
        assert step_size(11263) == 0.1 / 1024
        assert step_size(11264) == 0.1 / 2048

    def test_positive_and_non_increasing(self):
        prev = float("inf")
        for t in range(0, 30000, 7):
            a = step_size(t)
            assert 0 < a <= prev
            prev = a

    def test_partial_sums_diverge(self):
        total = sum(step_size(t) for t in range(100_000))
        assert total > 25

    def test_quantized_schedule_agrees_until_10240(self):
        for t in (0, 1023, 1024, 5000, 10239):
            assert quantized_halvings(t) == schedule_exponent(t)

    def test_quantized_schedule_diverges_after_10240(self):
        # the counter machinery runs 2048 copies at the tenth halving level
        assert schedule_exponent(10240) == 10 and quantized_halvings(10240) == 10
        assert schedule_exponent(11264) == 11
        assert quantized_halvings(11264) == 10
        assert quantized_halvings(12287) == 10
        assert quantized_halvings(12288) == 11
        assert quantized_halvings(12288 + 4096 - 1) == 11
        assert quantized_halvings(12288 + 4096) == 12

    @pytest.mark.parametrize("stretch", [1, 2])
    def test_blocks_from_any_iteration_match_a_block_table(self, stretch):
        # brute force: the block of every iteration past 2^16, block by block
        table = []
        while len(table) <= 2**16:
            w = table[-1] + 1 if table else 0
            table += [w] * max(1024, stretch * 2**w)
        left = [1] * len(table)   # iterations of its block from t on
        for t in range(len(table) - 2, -1, -1):
            if table[t] == table[t + 1]:
                left[t] = left[t + 1] + 1
        edges = {t for t in range(1, 2**16 + 1) if table[t] != table[t - 1]}
        assert ({10240, 11264} if stretch == 1 else {10240, 12288, 16384}) <= edges
        starts = {0, 2**16} | edges | {11264, 12288, 16384}
        starts |= {t - 1 for t in starts if t}
        for t in sorted(starts | set(random.Random(stretch).sample(range(2**16), 200))):
            want, u = [], t
            while u < len(table) and len(want) < 3:
                want.append((table[u], left[u]))
                u += left[u]
            walk = relief._blocks(stretch, t)
            assert [next(walk) for _ in want] == want, t
            assert (schedule_exponent if stretch == 1 else quantized_halvings)(t) == table[t]


def at_zero_multipliers(q: np.ndarray) -> State:
    """The float state q with every multiplier at 0."""
    m, n = q.shape
    return State(q, np.zeros(m), np.zeros(n), np.zeros(n))


def visibility_derivative(inst: ReliefInstance, q: np.ndarray) -> np.ndarray:
    """Visibility part of the q drift at q: the full drift less the
    simplified one."""
    state = at_zero_multipliers(q)
    full, _ = float_drift(_FloatStep(inst, FULL), state)
    simplified, _ = float_drift(_FloatStep(inst, SIMPLIFIED), state)
    return full - simplified


class TestVisibility:
    def test_basic_values(self):
        inst = derived_1x1()
        inst.vis_k = np.array([2.0])
        q = np.array([[4.0]])
        assert visibility_derivative(inst, q)[0][0] == pytest.approx(0.5)
        inst.vis_k = np.array([1.0])
        q = np.array([[1.0]])
        assert visibility_derivative(inst, q)[0][0] == pytest.approx(0.5)

    def test_zero_column_is_capped(self):
        inst = derived_1x1()
        q = np.zeros((1, 1))
        assert visibility_derivative(inst, q)[0][0] == pytest.approx(0.5 * 1000.0)

    @pytest.mark.parametrize("q, caps", [(0.0, 1), (1e-8, 1), (1e-300, 1), (VISIBILITY_FLOOR, 0)])
    def test_cap_applies_below_the_floor(self, q, caps):
        # 1 - 2q from the cost, and vis/2 * VISIBILITY_FLOOR**-0.5 = 500
        inst, state = derived_1x1(), at_zero_multipliers(np.array([[q]]))
        g, capped = float_drift(_FloatStep(inst, FULL), state)
        assert g[0][0] == pytest.approx(501.0) and capped == caps
        g, _, _, _, capped = reference_gradient_pack(inst, state, FULL)
        assert g[0][0] == pytest.approx(501.0) and capped == caps


class TestEulerStep:
    def test_fixed_point_of_derived_instance(self):
        inst = derived_1x1()
        state = at_zero_multipliers(np.array([[0.5]]))
        nxt, _ = float_step(_FloatStep(inst, SIMPLIFIED), state)
        assert nxt.q[0][0] == pytest.approx(0.5)
        assert nxt.t == 1

    def test_supply_multiplier_projects_at_zero(self):
        inst = ReliefInstance(m=1, n=1, s=[10.0], d_lo=[0.0], d_hi=[100.0],
                              gamma=[[1.0]], omega=[1.0], beta=[1.0],
                              cost_a=[[1.0]], cost_b=[[1.0]], vis_k=[1.0])
        nxt, _ = float_step(_FloatStep(inst, SIMPLIFIED), at_zero_multipliers(np.array([[5.0]])))
        assert nxt.lam[0] == 0.0  # max(0, 0.1 * (-10 + 5))

    def test_demand_multiplier_arithmetic(self):
        inst = ReliefInstance(m=1, n=1, s=[10.0], d_lo=[5.0], d_hi=[100.0],
                              gamma=[[1.0]], omega=[1.0], beta=[1.0],
                              cost_a=[[1.0]], cost_b=[[1.0]], vis_k=[1.0])
        nxt, _ = float_step(_FloatStep(inst, SIMPLIFIED), at_zero_multipliers(np.zeros((1, 1))))
        assert nxt.lam1[0] == pytest.approx(0.5)  # 0.1 * (5 - 0)

    def test_projection_nonnegative_property(self):
        rng = random.Random(12)
        for _ in range(120):
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3))
            state = State(
                q=np.abs(np.array([[rng.uniform(0, 4) for _ in range(inst.n)] for _ in range(inst.m)])),
                lam=np.abs(np.array([rng.uniform(0, 2) for _ in range(inst.m)])),
                lam1=np.abs(np.array([rng.uniform(0, 2) for _ in range(inst.n)])),
                lam2=np.abs(np.array([rng.uniform(0, 2) for _ in range(inst.n)])),
                t=rng.randint(0, 2000),
            )
            for variant in (SIMPLIFIED, FULL):
                nxt, _ = float_step(_FloatStep(inst, variant), state)
                for arr in (nxt.q, nxt.lam, nxt.lam1, nxt.lam2):
                    assert np.all(arr >= 0)

    def test_jacobi_purity_matches_per_cell_loop(self):
        # independent scalar-loop evaluation of the same update
        rng = random.Random(77)
        for _ in range(40):
            inst = random_instance(rng, 2, 2)
            state = State(
                q=np.array([[rng.uniform(0, 3) for _ in range(2)] for _ in range(2)]),
                lam=np.array([rng.uniform(0, 2) for _ in range(2)]),
                lam1=np.array([rng.uniform(0, 2) for _ in range(2)]),
                lam2=np.array([rng.uniform(0, 2) for _ in range(2)]),
                t=rng.randint(0, 1500),
            )
            nxt, _ = float_step(_FloatStep(inst, SIMPLIFIED), state)
            a = step_size(state.t)
            for order in ((0, 1), (1, 0)):
                for i in order:
                    for j in order:
                        drift = (
                            inst.omega[i] * inst.gamma[i][j] / inst.beta[i]
                            - (2 * inst.cost_a[i][j] ** 2 * state.q[i][j]
                               + 2 * inst.cost_a[i][j] * inst.cost_b[i][j]) / inst.beta[i]
                            - state.lam[i] + state.lam1[j] - state.lam2[j]
                        )
                        assert nxt.q[i][j] == pytest.approx(max(0.0, state.q[i][j] + a * drift))


class TestQuantizedGadgets:
    def test_emission_rounding(self):
        assert scaled_emission(37, 0) == 4
        assert scaled_emission(37, 1) == 2
        assert scaled_emission(4, 0) == 0
        assert scaled_emission(5, 0) == 1

    def test_division_rounding(self):
        # den 4 has half mark 2
        assert div_round_half(10, 4, 2) == 3
        assert div_round_half(9, 4, 2) == 2
        assert div_round_half(11, 4, 2) == 3

    @given(raw=st.integers(0, 10**40), den=st.integers(1, 10**40), data=st.data())
    def test_division_is_one_floor_division(self, raw, den, data):
        # the rounding the integer step inlines: exact whenever 1 <= half <= den
        half = data.draw(st.integers(1, den))
        assert div_round_half(raw, den, half) == (raw + den - half) // den

    @given(magnitude=st.integers(0, 10**40), w=st.integers(0, 80))
    def test_emission_is_one_floor_division(self, magnitude, w):
        assert scaled_emission(magnitude, w) == ((magnitude >> w) + 5) // 10

    @given(micros=st.integers(1, 4 * 10**6), p=st.integers(1, 8))
    def test_half_mark_within_divisor(self, micros, p):
        # the bound the inlined division relies on, down to P beta = 1
        inst = derived_1x1()
        inst.beta = np.array([micros / 10**6])
        if micros * 10**p < 10**6:
            with pytest.raises(ValueError, match="floors to zero"):
                fixed_point_constants(inst, p)
        else:
            cons = fixed_point_constants(inst, p)
            assert 1 <= cons.half[0] <= cons.den[0]

    @pytest.mark.parametrize("field, value, message", [
        ("den", [0], "division constant must be positive"),
        ("half", [0], "half mark must lie between 1 and the division constant"),
        ("half", [11], "half mark must lie between 1 and the division constant"),
    ])
    def test_step_rejects_constants_outside_the_gadget_bounds(self, field, value, message):
        inst = derived_1x1()
        cons = dataclasses.replace(fixed_point_constants(inst, 1), **{field: value})
        with pytest.raises(ValueError, match=f"^{message}$"):
            _QuantizedStep(cons)

    def test_constants_are_decimal_exact(self):
        inst = ReliefInstance(m=1, n=1, s=[1.0], d_lo=[0.0], d_hi=[1.0],
                              gamma=[[1.0]], omega=[1.0], beta=[0.4],
                              cost_a=[[1.0]], cost_b=[[1.0]], vis_k=[1.0])
        cons = fixed_point_constants(inst, 1)
        # 10 * 0.4 is exactly 4, not a float hair above
        assert cons.den[0] == 4
        assert cons.half[0] == 2

    def test_projection_cancels_against_retained(self):
        inst = derived_1x1()
        state = State(q=[[1000]], lam=[0], lam1=[0], lam2=[0], t=0)
        nxt = count_step(_QuantizedStep(fixed_point_constants(inst, 3)), state)
        # drift = 1000 - 2*1000 = -1000, emission 100
        assert nxt.q == [[900]]
        assert nxt.lam == [0] and nxt.lam1 == [0] and nxt.lam2 == [0]

    def test_projection_floors_at_zero(self):
        inst = ReliefInstance(m=1, n=1, s=[4.0], d_lo=[0.0], d_hi=[4.0],
                              gamma=[[1.0]], omega=[1.0], beta=[1.0],
                              cost_a=[[4.0]], cost_b=[[4.0]], vis_k=[1.0])
        nxt = count_step(_QuantizedStep(fixed_point_constants(inst, 2)), count_start(inst, 2))
        assert all(c >= 0 for row in nxt.q for c in row)

    def test_quantized_projection_property(self):
        rng = random.Random(9)
        for _ in range(120):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 2))
            state = State(
                q=[[rng.randint(0, 4000) for _ in range(inst.n)] for _ in range(inst.m)],
                lam=[rng.randint(0, 2000) for _ in range(inst.m)],
                lam1=[rng.randint(0, 2000) for _ in range(inst.n)],
                lam2=[rng.randint(0, 2000) for _ in range(inst.n)],
                t=rng.randint(0, 3000),
            )
            nxt = count_step(_QuantizedStep(fixed_point_constants(inst, 3)), state)
            for rows in (nxt.q,):
                assert all(c >= 0 for row in rows for c in row)
            for vec in (nxt.lam, nxt.lam1, nxt.lam2):
                assert all(c >= 0 for c in vec)

    def test_float_agreement_bound(self):
        # frozen drift constant: measured max ratio 1.25 over 30 instances
        C = 3.0
        rng = random.Random(5)
        for _ in range(20):
            m, n = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
            inst = random_instance(rng, m, n)
            p, P = 3, 1000
            float_route = _FloatStep(inst, SIMPLIFIED)
            integer_route = _QuantizedStep(fixed_point_constants(inst, p))
            fs = State(np.ones((m, n)), np.zeros(m), np.zeros(n), np.zeros(n))
            qs = count_start(inst, p)
            for t in range(1, 201):
                fs, _ = float_step(float_route, fs)
                qs = count_step(integer_route, qs)
                err = max(abs(qs.q[i][j] / P - fs.q[i][j]) for i in range(m) for j in range(n))
                assert err <= C * t / P, (t, err)


#: The packed integer step computes in int64 while every constant and count is
#: below this bound (relief module docstring, "Cost").
INT64_SAFE = 2**31


def on_half_mark(rng: random.Random, slope: int, den: int, half: int, high: int) -> int:
    """A count q of about ``high`` at most with q * slope % den == half, or a
    count drawn from 0..high when there is none."""
    g = math.gcd(slope, den)
    if half % g:
        return rng.randint(0, high)
    period = den // g
    first = half // g * pow(slope // g, -1, period) % period
    return first + period * rng.randint(0, high // period)


def crossing_instance() -> ReliefInstance:
    """2x3 at p=9: every fixed-point constant is below 2^31, and a count
    (a supply multiplier) passes it at iteration 872."""
    return ReliefInstance(m=2, n=3, s=[2.0, 2.0], d_lo=[0.0] * 3, d_hi=[2.0] * 3,
                          gamma=[[1.0, 0.9, 1.0], [0.9, 1.0, 0.9]], omega=[1.0, 1.0],
                          beta=[1.0, 1.0], cost_a=[[0.1] * 3] * 2,
                          cost_b=[[0.0, 0.1, 0.0], [0.1, 0.0, 0.1]], vis_k=[1.0] * 3)


def cap_instance() -> ReliefInstance:
    """m = n = 1: q reaches 0 at iteration 4, where the visibility derivative
    of ``full`` is capped."""
    return ReliefInstance(m=1, n=1, s=[5.0], d_lo=[0.0], d_hi=[5.0],
                          gamma=[[0.1]], omega=[1.0], beta=[1.0],
                          cost_a=[[1.0]], cost_b=[[1.0]], vis_k=[1e-4])


def demo_2x2() -> ReliefInstance:
    path = Path(__file__).parent.parent / "instances" / "demo_2x2.json"
    return ReliefInstance.from_dict(json.loads(path.read_text()))


def assert_same_bytes(got: np.ndarray, want: np.ndarray, name: str):
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, and one NaN
    payload from another."""
    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    assert got.tobytes() == want.tobytes(), name


def assert_same_report(got: EquilibriumReport, want: EquilibriumReport):
    for name in ("q_star", "lam", "lam1", "lam2", "stationarity_residuals"):
        assert_same_bytes(getattr(got, name), getattr(want, name), name)
    assert got.feasibility_residuals.keys() == want.feasibility_residuals.keys()
    for name, arr in want.feasibility_residuals.items():
        assert_same_bytes(got.feasibility_residuals[name], arr, name)
    assert (got.iterations, got.converged, got.visibility_cap_events) == (
        want.iterations, want.converged, want.visibility_cap_events)


class TestReferenceSteps:
    """The packed float and integer steps against the update
    formulas evaluated family by family (tests/helpers.py)."""

    @pytest.mark.parametrize("variant", [SIMPLIFIED, FULL])
    @pytest.mark.parametrize("make", [derived_1x1, demo_2x2, cap_instance,
                                      lambda: katrina_shaped(random.Random(1), 4, 4)],
                             ids=["derived_1x1", "demo_2x2", "cap", "katrina_4x4"])
    def test_float_solve_equals_reference(self, make, variant):
        inst = make()
        assert_same_report(solve(inst, variant, tol=1e-5, max_iter=20000),
                           reference_solve(inst, variant, tol=1e-5, max_iter=20000))

    @pytest.mark.parametrize("variant", [SIMPLIFIED, FULL])
    def test_float_solve_equals_reference_on_random_instances(self, variant):
        # 1,100 iterations cross the first step-size block; several full runs
        # hit the visibility cap at an empty column
        rng = random.Random(2024)
        caps = 0
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3))
            got = solve(inst, variant, tol=1e-5, max_iter=1100)
            assert_same_report(got, reference_solve(inst, variant, tol=1e-5, max_iter=1100))
            caps += got.visibility_cap_events
        assert (caps > 0) is (variant == FULL)

    @pytest.mark.parametrize("variant", [FULL, pytest.param(SIMPLIFIED, marks=pytest.mark.slow)])
    def test_float_solve_equals_reference_past_schedule_blocks(self, variant):
        # no tolerance is met: the run steps through the blocks that end at
        # 10,240 and 11,264 and past t = 12,288 (the integer one's end)
        inst = katrina_shaped(random.Random(1), 4, 4)
        got = solve(inst, variant, tol=1e-300, max_iter=12300)
        assert (got.iterations, got.converged) == (12300, False)
        assert step_size(12299) == 0.1 / 2**11
        assert_same_report(got, reference_solve(inst, variant, tol=1e-300, max_iter=12300))

    @pytest.mark.parametrize("p", [1, 3, 12, 30])
    def test_quantized_step_equals_reference(self, p):
        rng = random.Random(p)
        P = 10**p
        grew = shrank = at_half = 0
        for trial in range(90):
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 4))
            cons = fixed_point_constants(inst, p)
            if trial < 60:
                # counts up to a few times the scale: drifts of both signs, and
                # t on both sides of 10240, where the halving schedule changes
                q = [[rng.randint(0, 4 * P) for _ in range(inst.n)] for _ in range(inst.m)]
            else:
                # no halving (w = 0), and counts whose beta division leaves the
                # half mark as remainder, so a division that rounds one count
                # short changes the drift where the emission shows it
                q = [[on_half_mark(rng, cons.slope[i][j], cons.den[i], cons.half[i], 4 * P)
                      for j in range(inst.n)] for i in range(inst.m)]
            state = State(
                q=q,
                lam=[rng.randint(0, 2 * P) for _ in range(inst.m)],
                lam1=[rng.randint(0, 2 * P) for _ in range(inst.n)],
                lam2=[rng.randint(0, 2 * P) for _ in range(inst.n)],
                t=rng.randint(0, 1023) if trial >= 60
                else rng.choice([0, 1023, 10239, 10240, 12287, 12288]) if trial % 3 == 0
                else rng.randint(0, 60000),
            )
            want = reference_quantized_step(state, inst, cons)
            assert count_step(_QuantizedStep(cons), state) == want
            cells = [(a, b) for ra, rb in zip(want.q, state.q) for a, b in zip(ra, rb)]
            grew += sum(a > b for a, b in cells)
            shrank += sum(a < b for a, b in cells)
            if quantized_halvings(state.t) == 0:
                at_half += sum(q[i][j] * cons.slope[i][j] % cons.den[i] == cons.half[i]
                               for i in range(inst.m) for j in range(inst.n))
        assert grew and shrank and at_half

    def test_quantized_step_equals_reference_across_int64_bound(self):
        # p=3 constants are far below the bound; the counts sit just below it
        # (the step crosses it), on both sides of it, or where int64 products
        # would overflow (the step starts in Python ints)
        rng = random.Random(31)
        crossed = straddled = 0
        at_half = [0, 0, 0]   # per band
        for trial in range(90):
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 4))
            cons = fixed_point_constants(inst, 3)
            lo, hi = [(INT64_SAFE - 2**24, INT64_SAFE), (INT64_SAFE - 2**24, INT64_SAFE + 2**24),
                      (2**60, 2**61)][trial % 3]

            def draw(size):
                return [rng.randint(lo, hi - 1) for _ in range(size)]

            def on_half(i, j):
                # a multiple of den added to q keeps q * slope % den
                base = -(-lo // cons.den[i]) * cons.den[i]
                return base + on_half_mark(rng, cons.slope[i][j], cons.den[i], cons.half[i],
                                           hi - 1 - base - cons.den[i])

            if trial < 60:
                q = [draw(inst.n) for _ in range(inst.m)]
            else:
                # no halving (w = 0), and q cells whose beta division leaves
                # the half mark as remainder, in each band
                q = [[on_half(i, j) for j in range(inst.n)] for i in range(inst.m)]
            state = State(q=q, lam=draw(inst.m), lam1=draw(inst.n), lam2=draw(inst.n),
                          t=rng.randint(0, 60000) if trial < 60 else rng.randint(0, 1023))
            assert all(lo <= c < hi for row in state.q for c in row)
            want = reference_quantized_step(state, inst, cons)
            assert count_step(_QuantizedStep(cons), state) == want
            if max(flat(state)) < INT64_SAFE:
                crossed += max(flat(want)) >= INT64_SAFE
            else:
                straddled += min(flat(state)) < INT64_SAFE
            if quantized_halvings(state.t) == 0:
                at_half[trial % 3] += sum(q[i][j] * cons.slope[i][j] % cons.den[i] == cons.half[i]
                                          for i in range(inst.m) for j in range(inst.n))
        assert crossed and straddled and all(at_half)

    def test_trajectory_equals_reference_chain_across_int64_bound(self):
        inst, p, steps = crossing_instance(), 9, 1000
        cons = fixed_point_constants(inst, p)
        constants = [c for table in (cons.k0, cons.k1, cons.slope) for row in table for c in row]
        constants += cons.den + cons.half + cons.supply + cons.dlo + cons.dhi
        assert max(constants) < INT64_SAFE
        state = count_start(inst, p)
        assert max(flat(state)) < INT64_SAFE
        traj, _ = quantized_trajectory(inst, p, steps)
        assert len(traj) == steps + 1
        crossing = None
        for got in traj:
            assert got == state.q, state.t
            if crossing is None and max(flat(state)) >= INT64_SAFE:
                crossing = state.t
            state = reference_quantized_step(state, inst, cons)
        assert crossing == 872
        # the dtype rule itself: no run reaches int64 overflow in test time,
        # so the switch to Python ints is checked where it happens
        run = _QuantizedStep(cons).run(flat(count_start(inst, p)), 0, steps)
        dtypes = [x.z.dtype for _, x, _ in run]
        assert dtypes == [np.int64] * (crossing - 1) + [object] * (steps + 1 - crossing)


    @pytest.mark.parametrize("make, halts_at", [
        (lambda: katrina_shaped(random.Random(1), 4, 4), 12289),
        pytest.param(crossing_instance, 16385, marks=pytest.mark.slow),
    ], ids=["katrina_4x4", "crossing"])
    def test_quantized_solve_equals_reference_chain_past_schedule_blocks(self, make, halts_at):
        # p=5 halts past the blocks that end at 10,240 and 12,288 (and, for
        # crossing_instance, 16,384), all in int64
        inst, p = make(), 5
        cons = fixed_point_constants(inst, p)
        prev, state = None, count_start(inst, p)
        while prev is None or state.q != prev.q:
            prev, state = state, reference_quantized_step(state, inst, cons)
        assert state.t == halts_at and quantized_halvings(halts_at - 1) > quantized_halvings(12287)
        report = solve(inst, QUANTIZED, max_iter=20000, p=p)
        assert (report.iterations, report.converged) == (halts_at, True)
        packed = np.concatenate([report.q_star.ravel(), report.lam, report.lam1, report.lam2])
        assert packed.tolist() == [c / 10**p for c in flat(state)]

    def test_float_run_from_mid_block_equals_reference_chain(self):
        # from iteration 10,230 across the block ends at 10,240 and 11,264
        inst = katrina_shaped(random.Random(1), 4, 4)
        step, caps = _FloatStep(inst, FULL), 0
        state = at_zero_multipliers(np.ones((4, 4)))._replace(t=10230)
        for t, x, settled in step.run(flat(state), state.t, 11270):
            state, capped = reference_projected_step(state, inst, FULL)
            caps += capped
            assert (t, settled) == (state.t, False)
            for name in ("q", "lam", "lam1", "lam2"):
                assert_same_bytes(getattr(x, name), getattr(state, name), name)
        assert state.t == 11270 and int(step.caps.sum()) == caps

    @pytest.mark.parametrize("route", [FULL, QUANTIZED])
    def test_run_cut_mid_chunk_yields_each_iterate_to_max_iter(self, route):
        # from iteration 1,000 to 1,101: chunks of 24 (to the block end at
        # 1,024), 32, 32 and a last one of 13 that max_iter cuts short
        inst, t, max_iter = katrina_shaped(random.Random(1), 4, 4), 1000, 1101
        assert max_iter % relief._CHUNK and max_iter not in (1024, 2048)
        if route == FULL:
            step, state = _FloatStep(inst, FULL), at_zero_multipliers(np.ones((4, 4)))

            def reference(s):
                return reference_projected_step(s, inst, FULL)[0]
        else:
            cons = fixed_point_constants(inst, 5)
            step, state = _QuantizedStep(cons), count_start(inst, 5)

            def reference(s):
                return reference_quantized_step(s, inst, cons)
        state = state._replace(t=t)
        seen = []
        for got_t, x, settled in step.run(flat(state), t, max_iter):
            state = reference(state)
            seen.append(got_t)
            assert not settled
            assert x.z.tobytes() == np.array(flat(state), x.z.dtype).tobytes()
        assert seen == list(range(t + 1, max_iter + 1))

    def test_quantized_run_from_mid_block_equals_reference_chain(self):
        # from iteration 10,230 across the block ends at 10,240 and 12,288
        inst, p = katrina_shaped(random.Random(1), 4, 4), 5
        cons = fixed_point_constants(inst, p)
        state = count_start(inst, p)._replace(t=10230)
        for t, x, settled in _QuantizedStep(cons).run(flat(state), state.t, 12300):
            prev, state = state, reference_quantized_step(state, inst, cons)
            assert (t, settled) == (state.t, state.q == prev.q)
            assert x.z.tolist() == flat(state)
        assert state.t == 12300


class TestPythonIntCounts:
    """Counts leave the packed integer step as Python ints, in int64 range
    (p=3) and beyond it (p=12)."""

    @pytest.mark.parametrize("p", [3, 12])
    def test_counts_leave_as_python_ints(self, p):
        inst, P = demo_2x2(), 10**p
        traj, _ = quantized_trajectory(inst, p, 30)
        assert all(type(c) is int for q in traj for row in q for c in row)
        step, state = _QuantizedStep(fixed_point_constants(inst, p)), count_start(inst, p)
        for want in traj[1:]:
            state = count_step(step, state)
            assert state.q == want
            assert all(type(c) is int for c in flat(state))
        json.dumps([traj, state._asdict()])
        report = solve(inst, QUANTIZED, max_iter=30, p=p)
        assert report.iterations == state.t == len(traj) - 1
        assert report.q_star.tolist() == [[c / P for c in row] for row in state.q]
        for name in ("lam", "lam1", "lam2"):
            assert getattr(report, name).tolist() == [c / P for c in getattr(state, name)]


class TestSolve:
    def test_derived_equilibrium_simplified(self):
        report = solve(derived_1x1(), SIMPLIFIED, tol=1e-5, max_iter=5000)
        assert report.converged
        assert report.iterations < 2048
        assert abs(report.q_star[0][0] - 0.5) < 1e-4

    def test_derived_equilibrium_quantized(self):
        report = solve(derived_1x1(), QUANTIZED, tol=1e-5, max_iter=5000, p=5)
        assert report.converged
        # the drift stalls two counts above the exact optimum: |drift| =
        # |P - 2*50002| = 4, and 4 // 10 rounds to zero emission
        assert report.q_star[0][0] == pytest.approx(0.50002)
        assert abs(report.q_star[0][0] - 0.5) < 1e-3

    def test_infeasible_rejected_before_iterating(self):
        inst = ReliefInstance(m=1, n=1, s=[3.0], d_lo=[5.0], d_hi=[8.0],
                              gamma=[[1.0]], omega=[1.0], beta=[1.0],
                              cost_a=[[1.0]], cost_b=[[1.0]], vis_k=[1.0])
        with pytest.raises(ValueError, match="infeasible"):
            solve(inst, SIMPLIFIED)

    @pytest.mark.parametrize("max_iter", [0, -3])
    @pytest.mark.parametrize("variant", [SIMPLIFIED, FULL, QUANTIZED])
    def test_non_positive_iteration_limit_rejected(self, variant, max_iter):
        with pytest.raises(ValueError, match="^max_iter must be positive$"):
            solve(derived_1x1(), variant, max_iter=max_iter, p=3)
        # before any other check: the instance is not even validated
        with pytest.raises(ValueError, match="^max_iter must be positive$"):
            solve(dataclasses.replace(derived_1x1(), s=[-1.0]), variant, max_iter=max_iter)

    @pytest.mark.parametrize("p, tol", [(309, 1e-309), (400, 0.0)])
    def test_quantized_tolerance_past_the_float_range(self, p, tol):
        # 10**p does not fit a float, and the quantized iteration neither
        # checks nor reports a tolerance (0.0 fails the float variants)
        report = solve(derived_1x1(), QUANTIZED, tol=tol, max_iter=2, p=p)
        assert report.tol is None and report.p == p
        assert report.iterations == 2 and not report.converged

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    @pytest.mark.parametrize("variant", [SIMPLIFIED, FULL])
    def test_non_finite_tolerance_rejected(self, variant, tol):
        with pytest.raises(ValueError, match="^tol must be finite$"):
            solve(derived_1x1(), variant, tol=tol)

    def test_visibility_caps_counted_on_the_state_each_step_reads(self):
        # q reaches 0 at iteration 4; the step from that state is the only one
        # whose visibility derivative is capped, and the next step converges
        report = solve(cap_instance(), FULL, tol=1e-5)
        assert report.converged and report.iterations == 5
        assert report.q_star[0][0] == 0.0
        assert report.visibility_cap_events == 1

    @pytest.mark.parametrize("max_iter, halts", [(200, True), (10, False)])
    def test_quantized_solve_matches_trajectory(self, max_iter, halts):
        inst = derived_1x1()
        traj, converged = quantized_trajectory(inst, 3, max_iter)
        report = solve(inst, QUANTIZED, max_iter=max_iter, p=3)
        assert converged is halts and report.converged is halts
        assert report.iterations == len(traj) - 1 == (25 if halts else max_iter)
        assert report.q_star.tolist() == [[c / 1000 for c in row] for row in traj[-1]]

    @pytest.mark.parametrize("max_iter", [871, 1000])
    def test_quantized_report_is_the_last_counts_across_int64_bound(self, max_iter):
        # the last state is int64 at 871 iterations and Python ints at 1000
        inst, p = crossing_instance(), 9
        step = _QuantizedStep(fixed_point_constants(inst, p))
        *_, (_, last, _) = step.run(flat(count_start(inst, p)), 0, max_iter)
        z = last.z
        assert z.dtype == (np.int64 if max_iter < 872 else object)
        traj, _ = quantized_trajectory(inst, p, max_iter)
        report = solve(inst, QUANTIZED, max_iter=max_iter, p=p)
        assert report.q_star.tolist() == [[c / 10**p for c in row] for row in traj[-1]]
        packed = np.concatenate([report.q_star.ravel(), report.lam, report.lam1, report.lam2])
        assert packed.tolist() == [c / 10**p for c in z.tolist()]

    @pytest.mark.parametrize("variant", [SIMPLIFIED, FULL, QUANTIZED])
    def test_one_float_step_per_solve(self, monkeypatch, variant):
        built = []

        class Counting(relief._FloatStep):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(relief, "_FloatStep", Counting)
        solve(demo_2x2(), variant, max_iter=50, p=2)
        assert len(built) == 1

    @pytest.mark.parametrize("variant, iterations", [(SIMPLIFIED, 5706), (FULL, 3948), (QUANTIZED, 54)])
    def test_leaving_the_float_range_is_an_error(self, variant, iterations):
        # every constant is finite, but cost_a[1][0]**2 underflows to zero,
        # so lam[0] (and on the oracle its counts) grow past the float range
        inst = demo_2x2()
        inst.omega[0], inst.d_hi[0], inst.cost_a[1][0] = 8.9e307, 1.79e308, 1e-310
        assert validate(inst) == []
        message = f"^the {variant} solve leaves the float range within {iterations} iterations$"
        with pytest.raises(ValueError, match=message):
            solve(inst, variant, max_iter=300 if variant == QUANTIZED else 100_000, p=2)

    def test_beta_below_precision_rejected_like_the_builder(self):
        inst = ReliefInstance(m=1, n=1, s=[1.0], d_lo=[0.0], d_hi=[1.0],
                              gamma=[[1.0]], omega=[1.0], beta=[0.05],
                              cost_a=[[1.0]], cost_b=[[1.0]], vis_k=[1.0])
        with pytest.raises(ValueError, match=r"^beta\[0\]=0.05 floors to zero at p=1; need p >= 2$"):
            solve(inst, QUANTIZED, p=1)

    def test_max_iter_reached_reports_partial(self):
        report = solve(derived_1x1(), SIMPLIFIED, tol=1e-12, max_iter=5)
        assert not report.converged
        assert report.iterations == 5

    def test_converged_reports_meet_residual_bounds(self):
        rng = random.Random(11)
        tol = 1e-5
        for _ in range(12):
            inst = katrina_shaped(rng, rng.choice([2, 3]), rng.choice([2, 3]))
            report = solve(inst, SIMPLIFIED, tol=tol, max_iter=60000)
            assert report.converged
            eps = 100 * tol
            for v in report.feasibility_residuals.values():
                assert np.all(v <= eps)
            bound = 10 * tol / step_size(report.iterations)
            g = report.stationarity_residuals
            for i in range(inst.m):
                for j in range(inst.n):
                    if report.q_star[i][j] > 1e-9:
                        assert abs(g[i][j]) <= bound
                    else:
                        assert g[i][j] <= bound


class TestStationarity:
    def test_zero_at_constructed_fixed_point(self):
        inst = derived_1x1()
        report = solve(inst, SIMPLIFIED, tol=1e-5, max_iter=5000)
        state = State(report.q_star, report.lam, report.lam1, report.lam2)
        g, _ = float_drift(_FloatStep(inst, SIMPLIFIED), state)
        assert abs(g[0][0]) < 1e-3

    def test_boundary_cells_may_have_negative_drift(self):
        inst = ReliefInstance(m=1, n=1, s=[10.0], d_lo=[0.0], d_hi=[10.0],
                              gamma=[[1.0]], omega=[1.0], beta=[1.0],
                              cost_a=[[1.0]], cost_b=[[5.0]], vis_k=[1.0])
        g, _ = float_drift(_FloatStep(inst, SIMPLIFIED), at_zero_multipliers(np.zeros((1, 1))))
        assert g[0][0] < 0  # 1 - 10 at the q = 0 boundary: passes
