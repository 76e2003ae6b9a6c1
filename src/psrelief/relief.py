"""Relief allocation game and its projected Euler solvers.

The game: ``m`` relief organizations ship items to ``n`` demand locations.
Organization k shipping q_kl items to location l pays cost
``(a_kl q_kl + b_kl)^2``, gains monetized utility ``omega_k gamma_kl q_kl``,
and shares location visibility funds ``vis_l sqrt(sum_i q_il)`` in proportion
``beta_k``.  Supply caps ``sum_l q_kl <= s_k`` and common demand corridors
``d_lo_l <= sum_k q_kl <= d_hi_l`` couple the players; the equilibrium is the
minimizer of

    - sum_l P_l(q) - sum_kl (omega_k gamma_kl / beta_k) q_kl
    + sum_kl (1/beta_k) (a_kl q_kl + b_kl)^2

over the coupled feasible set.  The ``simplified`` variant drops the
visibility term, whose gradient is orders of magnitude below the rest.

Both solvers run the same diagonal-step fixed-point iteration with
projection on the nonnegative orthant and diminishing steps ``a_t``:

    q_kl   <- max(0, q_kl + a_t (omega_k gamma_kl / beta_k
                   - (2 a_kl^2 q_kl + 2 a_kl b_kl)/beta_k
                   - lam_k + lam1_l - lam2_l [+ visibility]))
    lam_k  <- max(0, lam_k + a_t (-s_k + sum_l q_kl))
    lam1_l <- max(0, lam1_l + a_t (-sum_k q_kl + d_lo_l))
    lam2_l <- max(0, lam2_l + a_t (-d_hi_l + sum_k q_kl))

all four families evaluated on the time-t state (Jacobi style).

``solve`` has one path for every variant: each prepares one ``_FloatStep``
and ends with a packed float vector, the float loop's iterate or, for
``quantized``, the final counts divided by 10^p in a ``simplified`` step's
vector.  One tail evaluates that step's drift there (the stationarity
residual), checks that every array is finite and builds the only
``EquilibriumReport``.

The quantized solver mirrors, bit for bit, the integer arithmetic of the
generated membrane system at scale P = 10^p: values live as object counts,
division by the beta denominator rounds half-up, the step factor a_t is
realized as w floor-halvings followed by a half-up division by ten, and the
projection is pairwise cancellation with surplus deletion.

Cost.  Each route builds its step once per run, and no public function builds
one per call.  Both steps work on one vector z = (q row-major, lam, lam1,
lam2) with the four families as views of it; a drift vector D has the same
layout.  The float step holds ``omega gamma / beta``, ``2 a^2`` and ``2 a b``
as arrays; they are the subexpressions the formula above evaluates, so every
float is the same.  It writes the drift in place into a reused vector and is
one ``z + a_t D`` and one ``max(0, .)``.

The integer step inlines the two gadgets with two identities that are exact
on integers:

    div_round_half(r, den, half) == (r + den - half) // den   if 1 <= half <= den
    scaled_emission(m, w)        == ((m >> w) + 5) // 10      if m >= 0

Adding ``den - half`` carries into the quotient exactly when the remainder
reaches ``half``, and adding 5 carries exactly when the last digit is at
least 5.  ``fixed_point_constants`` gives ``half = ceil(P beta / 2) <=
floor(P beta) = den`` once ``den >= 1``; the step checks both bounds once per
run.  The q part of D is ``(k0 - k1) + (lam1 - lam2) - lam - (q slope + den -
half) // den``, broadcast by row and column; the multiplier parts are the row
sums minus ``supply``, ``dlo`` minus the column sums and the column sums minus
``dhi``.  With ``mag = ((|D| >> w) + 5) // 10``, one pass over the whole
vector emits and cancels: the new count is ``z + mag`` where ``D >= 0`` and
``max(0, z - mag)`` where ``D < 0``.

The counts are int64 while every constant and every count lies in [0, 2^31),
and Python ints (object arrays through the same ufuncs) otherwise.  Under that
bound nothing overflows.  ``q slope + den - half < 2^62 + 2^31``; the other q
terms are below 2^31 in size, so ``|D| < 2^62 + 2^33`` on q.  A row or column
sum is below max(m, n) 2^31, so ``|D| < 2^62`` on the multipliers for any
max(m, n) < 2^31.  Hence ``|D|``, ``mag + 5`` and the new counts, which lie in
[0, 2^31 + |D|), all stay below 2^63.  A run that starts in int64 converts z
once, when ``z.max()`` reaches 2^31, and stays in Python ints, because
products of counts grow as P^2 and p has no upper bound.  On the katrina-
shaped ladder instances the supplies and demand caps pass the bound from p = 6
at 10x30 and from p = 7 at 4x4 and 8x8; a 10x30 run at p = 5 stays in int64
throughout.

Schedule ceiling.  The float route steps by ``step_size`` (exponent
``schedule_exponent``), the oracle and the engine by ``quantized_halvings``.
The two agree up to t = 11,263 and first differ at t = 11,264, where the
float block of w = 10 ends after 1,024 copies and the integer one runs on to
2,048.  The first ten blocks (w = 0..9, 1,024 copies each) give Sum a_t =
204.6 by t = 10,240.  From there each block adds a fixed amount, 0.1 per
float block (1,024 copies at w = 10, then 2^w) and 0.2 per integer block
(2^(w+1) copies), and the blocks double in length.  So Sum a_t grows like 0.1
log2 t on the float route (Sum a_t - 0.1 log2 t is 203.57 at t = 2^16 and
203.60 at t = 2^23) and like 0.2 log2 t on the integer route, and the iterate
stops moving far from the equilibrium.  The float ``converged`` flag (``max
|dq| < tol``) therefore detects a drop in the step size, not the equilibrium:
on the 10x30 ladder instance both float variants stop at iteration 11,265,
the first step taken with a_t = 0.1 / 2^11.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

SIMPLIFIED = "simplified"
FULL = "full"
QUANTIZED = "quantized"

#: Floor on the column sum sum_i q_il in the visibility derivative: below it
#: the derivative is capped at vis_l/2 * VISIBILITY_FLOOR**-0.5.
VISIBILITY_FLOOR = 1e-6


def _exact(x) -> Fraction:
    """Decimal-exact fraction of a parameter (str() recovers the shortest
    decimal literal of a float, which is the intended value of JSON inputs)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return Fraction(str(float(x)))


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------


@dataclass
class ReliefInstance:
    m: int
    n: int
    s: np.ndarray          # (m,) supply caps
    d_lo: np.ndarray       # (n,) lower demand bounds
    d_hi: np.ndarray       # (n,) upper demand bounds
    gamma: np.ndarray      # (m, n) utility factors
    omega: np.ndarray      # (m,) monetization weights
    beta: np.ndarray       # (m,) donation shares
    cost_a: np.ndarray     # (m, n) cost slope coefficients
    cost_b: np.ndarray     # (m, n) cost offset coefficients
    vis_k: np.ndarray      # (n,) visibility coefficients per location

    def __post_init__(self):
        # field types are the annotation strings (postponed evaluation)
        for f in fields(self):
            if f.type == "np.ndarray":
                setattr(self, f.name, np.asarray(getattr(self, f.name), dtype=float))

    def to_dict(self) -> dict:
        """The instance's fields in declaration order; arrays as nested lists."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.tolist() if f.type == "np.ndarray" else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ReliefInstance":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def _float_constants(inst: ReliefInstance) -> dict[str, np.ndarray]:
    """The constants the float step derives from the instance, by name; the
    last is the visibility derivative at the cap ``VISIBILITY_FLOOR``."""
    return {
        "omega*gamma/beta": inst.omega[:, None] * inst.gamma / inst.beta[:, None],
        "2*cost_a**2": 2.0 * inst.cost_a**2,
        "2*cost_a*cost_b": 2.0 * inst.cost_a * inst.cost_b,
        "vis_k/(2*sqrt(VISIBILITY_FLOOR))": inst.vis_k / (2.0 * np.sqrt(VISIBILITY_FLOOR)),
    }


@np.errstate(all="ignore")  # an overflow is a violation, not a warning
def validate(inst: ReliefInstance) -> list[str]:
    """All invariant violations of the instance (empty list means valid)."""
    out: list[str] = []
    m, n = inst.m, inst.n
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1
               for v in (m, n)):
        out.append(f"m and n must be integers >= 1, got m={m!r} n={n!r}")
        return out
    shapes = {
        "s": (inst.s, (m,)), "d_lo": (inst.d_lo, (n,)), "d_hi": (inst.d_hi, (n,)),
        "gamma": (inst.gamma, (m, n)), "omega": (inst.omega, (m,)),
        "beta": (inst.beta, (m,)), "cost_a": (inst.cost_a, (m, n)),
        "cost_b": (inst.cost_b, (m, n)), "vis_k": (inst.vis_k, (n,)),
    }
    for name, (arr, want) in shapes.items():
        if arr.shape != want:
            out.append(f"{name} has shape {arr.shape}, expected {want}")
        elif not np.all(np.isfinite(arr)):
            out.append(f"{name} entries must be finite")
    if out:
        return out
    if np.any(inst.s < 0):
        out.append("supply s must be non-negative")
    if np.any(inst.d_lo < 0):
        out.append("lower demand bounds d_lo must be non-negative")
    for name, arr in (("gamma", inst.gamma), ("omega", inst.omega), ("beta", inst.beta),
                      ("cost_a", inst.cost_a), ("vis_k", inst.vis_k)):
        if np.any(arr <= 0):
            out.append(f"{name} entries must be strictly positive")
    if np.any(inst.cost_b < 0):
        out.append("cost_b entries must be non-negative")
    if not out:  # entries of valid sign: only an overflow is left to find
        for name, value in _float_constants(inst).items():
            if not np.all(np.isfinite(value)):
                out.append(f"derived constant {name} must be finite")
    total_s, total_lo = float(inst.s.sum()), float(inst.d_lo.sum())
    bad = np.nonzero(inst.d_lo > inst.d_hi)[0]
    for j in bad:
        out.append(f"d_lo[{j}]={inst.d_lo[j]} exceeds d_hi[{j}]={inst.d_hi[j]}")
    if total_s < total_lo:
        out.append(
            f"infeasible: total supply {total_s} is below total lower demand {total_lo}"
        )
    return out


# ---------------------------------------------------------------------------
# Diminishing step schedule
# ---------------------------------------------------------------------------


def schedule_exponent(t: int) -> int:
    """Block exponent w of a_t = 0.1 / 2**w: blocks of max(1024, 2**w) copies."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if t < 11264:  # 11 blocks of 1024 cover w = 0..10
        return t // 1024
    w = 11
    lo = 11264
    while True:
        if t < lo + (1 << w):
            return w
        lo += 1 << w
        w += 1


def step_size(t: int) -> float:
    return 0.1 / (1 << schedule_exponent(t))


def quantized_halvings(t: int) -> int:
    """Halving count applied by the integer solver at iteration t.

    The counter machinery of the generated system emits one halving token per
    1024 iterations for the first ten tokens and then doubles the block
    length starting at 2048, so it agrees with ``schedule_exponent`` up to
    iteration 11263 and first differs at 11264.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if t < 10240:
        return t // 1024
    r = t - 10240
    w = 10
    block = 2048
    while r >= block:
        r -= block
        block <<= 1
        w += 1
    return w


# ---------------------------------------------------------------------------
# Floating point solver
# ---------------------------------------------------------------------------


class _Packed(NamedTuple):
    """One vector z = (q row-major, lam, lam1, lam2) and its four parts as
    views; a drift vector has the same layout (g, dl, d1, d2)."""

    z: np.ndarray
    q: np.ndarray      # (m, n)
    lam: np.ndarray    # (m,)
    lam1: np.ndarray   # (n,)
    lam2: np.ndarray   # (n,)


class _FloatStep:
    """The projected step of one (instance, variant) on packed states; the
    drift goes into the reused vector ``d`` (see "Cost" above)."""

    def __init__(self, inst: ReliefInstance, variant: str):
        self.m, self.n = inst.m, inst.n
        self.full = variant == FULL
        c = _float_constants(inst)
        self.gain, self.c2, self.c1 = c["omega*gamma/beta"], c["2*cost_a**2"], c["2*cost_a*cost_b"]
        self.beta = inst.beta[:, None]
        self.s, self.d_lo, self.d_hi, self.vis_k = inst.s, inst.d_lo, inst.d_hi, inst.vis_k
        self.cols = np.empty(inst.n)
        self.d = self.empty()

    def empty(self) -> _Packed:
        m, n = self.m, self.n
        mn = m * n
        z = np.empty(mn + m + 2 * n)
        return _Packed(z, z[:mn].reshape(m, n), z[mn:mn + m], z[mn + m:mn + m + n], z[mn + m + n:])

    def drift(self, x: _Packed) -> int:
        """Write the drift of each family at x, before scaling by a_t, into
        ``self.d``; return the number of visibility derivatives capped at a
        column sum below ``VISIBILITY_FLOOR``."""
        d, cols = self.d, self.cols
        g = d.q
        np.multiply(self.c2, x.q, out=g)
        g += self.c1
        g /= self.beta
        np.subtract(self.gain, g, out=g)
        g -= x.lam[:, None]
        g += x.lam1
        g -= x.lam2
        x.q.sum(axis=0, out=cols)
        capped = 0
        if self.full:
            capped = int(np.count_nonzero(cols < VISIBILITY_FLOOR))
            g += self.vis_k / (2.0 * np.sqrt(np.maximum(cols, VISIBILITY_FLOOR)))
        x.q.sum(axis=1, out=d.lam)
        np.subtract(d.lam, self.s, out=d.lam)
        np.subtract(self.d_lo, cols, out=d.lam1)
        np.subtract(cols, self.d_hi, out=d.lam2)
        return capped

    def advance(self, x: _Packed, out: _Packed, a: float) -> int:
        """out = max(0, x + a * drift(x)); the visibility caps hit at x."""
        capped = self.drift(x)
        dz = self.d.z
        dz *= a
        np.add(x.z, dz, out=out.z)
        np.maximum(0.0, out.z, out=out.z)
        return capped


# ---------------------------------------------------------------------------
# Integer-quantized solver
# ---------------------------------------------------------------------------


@dataclass
class FixedPointConstants:
    """Integer constants of the quantized iteration at scale P = 10^p.

    All floors and ceilings are taken over exact decimal fractions of the
    instance parameters, so the same numbers parameterize both this solver
    and the generated membrane system.
    """

    p: int
    P: int
    k0: list[list[int]]      # floor(P omega_k gamma_kl / beta_k)
    k1: list[list[int]]      # floor(2 P a_kl b_kl / beta_k)
    slope: list[list[int]]   # floor(2 P a_kl^2)
    den: list[int]           # floor(P beta_k)
    half: list[int]          # ceil(P beta_k / 2)
    supply: list[int]        # floor(s_k P)
    dlo: list[int]           # floor(d_lo_l P)
    dhi: list[int]           # floor(d_hi_l P)


def fixed_point_constants(inst: ReliefInstance, p: int) -> FixedPointConstants:
    if p < 1:
        raise ValueError("precision exponent p must be at least 1")
    P = 10**p
    om = [_exact(x) for x in inst.omega]
    be = [_exact(x) for x in inst.beta]
    ga = [[_exact(x) for x in row] for row in inst.gamma]
    ca = [[_exact(x) for x in row] for row in inst.cost_a]
    cb = [[_exact(x) for x in row] for row in inst.cost_b]
    k0 = [[math.floor(P * om[k] * ga[k][l] / be[k]) for l in range(inst.n)] for k in range(inst.m)]
    k1 = [[math.floor(2 * P * ca[k][l] * cb[k][l] / be[k]) for l in range(inst.n)] for k in range(inst.m)]
    slope = [[math.floor(2 * P * ca[k][l] ** 2) for l in range(inst.n)] for k in range(inst.m)]
    den = [math.floor(P * be[k]) for k in range(inst.m)]
    for k, d in enumerate(den):
        if d == 0:
            raise ValueError(
                f"beta[{k}]={inst.beta[k]} floors to zero at p={p}; "
                f"need p >= {_min_precision(be[k])}"
            )
    half = [math.ceil(P * be[k] / 2) for k in range(inst.m)]
    supply = [math.floor(_exact(x) * P) for x in inst.s]
    dlo = [math.floor(_exact(x) * P) for x in inst.d_lo]
    dhi = [math.floor(_exact(x) * P) for x in inst.d_hi]
    return FixedPointConstants(
        p=p, P=P, k0=k0, k1=k1, slope=slope, den=den, half=half,
        supply=supply, dlo=dlo, dhi=dhi,
    )


def _min_precision(beta: Fraction) -> int:
    p = 1
    while math.floor(beta * 10**p) < 1:
        p += 1
    return p


def div_round_half(raw: int, den: int, half: int) -> int:
    """floor(raw/den), plus one when the remainder reaches the half mark."""
    if den <= 0:
        raise ValueError("division constant must be positive")
    return raw // den + (1 if raw % den >= half else 0)


def scaled_emission(magnitude: int, w: int) -> int:
    """Apply the step factor a_t = 0.1/2^w to a count: w floor-halvings (one
    right shift), then division by ten rounding half up."""
    magnitude >>= w
    return magnitude // 10 + (1 if magnitude % 10 >= 5 else 0)


#: Below this bound on every constant and count the packed integer step runs
#: in int64 without overflow (see "Cost" above).
_INT64_SAFE = 1 << 31


class _QuantizedStep:
    """The integer iteration for one set of fixed-point constants on packed
    count vectors z = (q row-major, lam, lam1, lam2): one drift vector, then
    one emission-and-cancellation pass over it.  Constants and counts are
    int64 until one of them reaches ``_INT64_SAFE`` and Python ints from then
    on (see "Cost" above)."""

    def __init__(self, k: FixedPointConstants):
        if any(d <= 0 for d in k.den):
            raise ValueError("division constant must be positive")
        if not all(1 <= h <= d for h, d in zip(k.half, k.den)):
            raise ValueError("half mark must lie between 1 and the division constant")
        self.k = k
        self.m, self.n = len(k.den), len(k.dlo)
        self.mn = self.m * self.n
        flat = [c for table in (k.k0, k.k1, k.slope) for row in table for c in row]
        flat += k.den + k.half + k.supply + k.dlo + k.dhi
        self._use(np.int64 if all(0 <= c < _INT64_SAFE for c in flat) else object)

    def _use(self, dtype) -> None:
        """Hold the constants as arrays of ``dtype``."""
        k = self.k
        self.dtype = dtype
        self.kd = np.array(k.k0, dtype) - np.array(k.k1, dtype)
        self.slope = np.array(k.slope, dtype)
        self.den = np.array(k.den, dtype)[:, None]
        self.dh = self.den - np.array(k.half, dtype)[:, None]
        self.supply = np.array(k.supply, dtype)
        self.dlo = np.array(k.dlo, dtype)
        self.dhi = np.array(k.dhi, dtype)

    def pack(self, counts: list[int]) -> np.ndarray:
        """Counts in the packed order (q row-major, lam, lam1, lam2) as one
        vector; Python ints from here on if one lies outside the int64 bound."""
        if not all(0 <= c < _INT64_SAFE for c in counts):
            self._use(object)
        return np.array(counts, self.dtype)

    def __call__(self, z: np.ndarray, w: int) -> np.ndarray:
        """The next packed state after z, with w halvings in the step factor."""
        m, n, mn = self.m, self.n, self.mn
        q = z[:mn].reshape(m, n)
        lam, lam1, lam2 = z[mn:mn + m], z[mn + m:mn + m + n], z[mn + m + n:]
        d = np.empty_like(z)
        dq = d[:mn].reshape(m, n)
        np.multiply(q, self.slope, out=dq)
        dq += self.dh
        dq //= self.den
        np.subtract(self.kd, dq, out=dq)
        dq += lam1 - lam2
        dq -= lam[:, None]
        cols = q.sum(axis=0)
        np.subtract(q.sum(axis=1), self.supply, out=d[mn:mn + m])
        np.subtract(self.dlo, cols, out=d[mn + m:mn + m + n])
        np.subtract(cols, self.dhi, out=d[mn + m + n:])
        mag = np.abs(d)
        mag >>= w
        mag += 5
        mag //= 10
        nxt = np.where(d >= 0, z + mag, np.maximum(z - mag, 0))
        # an int64 z has no negative count, so neither has nxt
        if self.dtype is not object and nxt.max() >= _INT64_SAFE:
            self._use(object)
            nxt = nxt.astype(object)
        return nxt


def _quantized_states(
    inst: ReliefInstance, p: int, max_iter: int
) -> Iterator[tuple[np.ndarray, bool]]:
    """The packed all-ones state, then each iterate paired with whether its q
    counts equal its predecessor's (the halting condition of the membrane
    system).  Stops after the first such iterate or after max_iter iterates."""
    step = _QuantizedStep(fixed_point_constants(inst, p))
    mn = step.mn
    z = step.pack([10**p] * mn + [0] * (step.m + 2 * step.n))
    yield z, False
    for t in range(max_iter):
        nxt = step(z, quantized_halvings(t))
        halted = bool((nxt[:mn] == z[:mn]).all())
        yield nxt, halted
        if halted:
            return
        z = nxt


def quantized_trajectory(
    inst: ReliefInstance, p: int, max_iter: int
) -> tuple[list[list[list[int]]], bool]:
    """Per-iteration q counts starting from the all-ones state, stopping at
    exact q equality between consecutive iterations (the halting condition of
    the membrane system) or at max_iter.  Returns (trajectory, converged);
    the trajectory includes the initial counts."""
    m, n = inst.m, inst.n
    traj: list[list[list[int]]] = []
    converged = False
    for z, converged in _quantized_states(inst, p, max_iter):
        traj.append(z[:m * n].reshape(m, n).tolist())
    return traj, converged


# ---------------------------------------------------------------------------
# Driver and diagnostics
# ---------------------------------------------------------------------------


@dataclass
class EquilibriumReport:
    q_star: np.ndarray
    lam: np.ndarray
    lam1: np.ndarray
    lam2: np.ndarray
    iterations: int
    converged: bool
    variant: str
    tol: float
    feasibility_residuals: dict[str, np.ndarray] = field(default_factory=dict)
    stationarity_residuals: np.ndarray | None = None
    p: int | None = None
    visibility_cap_events: int = 0


def feasibility_residuals(inst: ReliefInstance, q: np.ndarray) -> dict[str, np.ndarray]:
    rows = q.sum(axis=1)
    cols = q.sum(axis=0)
    return {
        "supply": np.maximum(0.0, rows - inst.s),
        "demand_lo": np.maximum(0.0, inst.d_lo - cols),
        "demand_hi": np.maximum(0.0, cols - inst.d_hi),
    }


@np.errstate(all="ignore")  # an overflow is reported as ValueError below
def solve(
    inst: ReliefInstance,
    variant: str = SIMPLIFIED,
    tol: float = 1e-5,
    max_iter: int = 100_000,
    p: int | None = None,
) -> EquilibriumReport:
    """Iterate the chosen step until convergence or the iteration budget.

    Convergence is measured on q only: max |q^{t+1} - q^t| < tol for the
    float variants, exact count equality for the quantized variant.  The
    start point mirrors the membrane system: every flow at 1.0, every
    multiplier at 0.  A run whose iterate, count / 10^p or residuals leave
    the float range raises ``ValueError``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    violations = validate(inst)
    if violations:
        raise ValueError("invalid instance: " + "; ".join(violations))

    if variant == QUANTIZED:
        if p is None:
            raise ValueError("quantized variant needs a precision exponent p")
        # keep only the last state: the trajectory is never held in memory
        t, (z, converged) = deque(enumerate(_quantized_states(inst, p, max_iter)), maxlen=1)[0]
        step = _FloatStep(inst, SIMPLIFIED)
        cur = step.empty()
        P = 10**p
        try:
            cur.z[:] = [c / P for c in z.tolist()]
        except OverflowError:  # a count does not fit a float
            cur.z[:] = math.inf
        tol = 1 / P  # exact int division: a subnormal or 0.0, never an overflow
        caps = 0
    elif variant in (SIMPLIFIED, FULL):
        if tol <= 0:
            raise ValueError("tol must be positive")
        if not tol < math.inf:  # also false for nan
            raise ValueError("tol must be finite")
        p = None  # the float iteration has no precision exponent
        step = _FloatStep(inst, variant)
        cur, nxt = step.empty(), step.empty()
        cur.z[:] = 0.0
        cur.q[...] = 1.0
        dq = np.empty((inst.m, inst.n))
        converged = False
        caps = t = 0
        while t < max_iter:
            caps += step.advance(cur, nxt, step_size(t))
            t += 1
            np.subtract(nxt.q, cur.q, out=dq)
            np.abs(dq, out=dq)
            cur, nxt = nxt, cur
            if dq.max() < tol:
                converged = True
                break
    else:
        raise ValueError(f"unknown variant {variant!r}")

    overflow = f"the {variant} solve leaves the float range within {t} iterations"
    if not np.isfinite(cur.z).all():
        raise ValueError(overflow)
    step.drift(cur)
    residuals = feasibility_residuals(inst, cur.q)
    if not (np.isfinite(step.d.q).all() and all(np.isfinite(r).all() for r in residuals.values())):
        raise ValueError(overflow)
    return EquilibriumReport(
        q_star=cur.q,
        lam=cur.lam,
        lam1=cur.lam1,
        lam2=cur.lam2,
        iterations=t,
        converged=converged,
        variant=variant,
        tol=tol,
        feasibility_residuals=residuals,
        stationarity_residuals=step.d.q,
        p=p,
        visibility_cap_events=caps,
    )
