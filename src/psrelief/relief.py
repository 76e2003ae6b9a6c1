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
one per call.  A step binds, when it is built, every constant, buffer and
view an iteration reads or writes: two state vectors z = (q row-major, lam,
lam1, lam2) that the iterations alternate and a drift vector D of the same
layout, each with its views (the four families, q flat, lam as an (m, 1)
column), the constants broadcast to (m, n), and two vectors ``ahead = (row
sums, lower bounds, column sums)`` and ``behind = (supplies, column sums,
upper bounds)`` whose one difference is the multiplier part of D.  Each
operation of an iteration is then one ufunc call that writes into a bound
buffer.  Both routes run one loop, ``_PreparedStep.run``, from any state
and iteration.  It walks the schedule one block at a time (``_blocks``):
the step factor a_t, and on the integer route the halving count w, is a
vector refilled at the start of each block.  It has one stop rule: no flow
moved by ``tol`` or more, ``max |dq| < tol``, three ufunc calls per
iteration.  On counts tol is 1, so the rule is exact equality, the halting
condition of the membrane system.

The float step holds ``omega gamma / beta``, ``2 a^2`` and ``2 a b`` as
arrays and evaluates the formula above term by term on the same operands in
the same order (``2 a^2 q``, ``+ 2 a b``, ``/ beta``, subtracted from
``omega gamma / beta``, ``- lam``, ``+ lam1``, ``- lam2``, ``+`` the
visibility derivative), so every float is the formula's; regrouping the
multipliers, dividing by a precomputed quotient, a fused multiply-add or a
BLAS sum would each change bits.  An iteration is then one ``z + a_t D``
and one ``max(0, .)``.  The visibility caps are counted per column into an
int vector and summed once per run.

The integer step inlines the two gadgets, rounding division by the beta
denominator and emission under the step factor, with two identities that are
exact on integers (``tests/helpers.py`` keeps the gadgets as written, the
reference the integer step is checked against):

    div_round_half(r, den, half) == (r + den - half) // den   if 1 <= half <= den
    scaled_emission(m, w)        == ((m >> w) + 5) // 10      if m >= 0

Adding ``den - half`` carries into the quotient exactly when the remainder
reaches ``half``, and adding 5 carries exactly when the last digit is at
least 5.  ``fixed_point_constants`` gives ``half = ceil(P beta / 2) <=
floor(P beta) = den`` once ``den >= 1``; the step checks both bounds once per
run.  The q part of D is ``(k0 - k1) - (q slope + den - half) // den + lam1 -
lam2 - lam``, accumulated left to right and broadcast by row and column; the
multiplier parts are the row sums minus ``supply``, ``dlo`` minus the column
sums and the column sums minus ``dhi``.  With ``mag = ((|D| >> w) + 5) //
10``, one pass over the whole vector emits and cancels: ``mag`` is negated
where ``D < 0``, added to z and clipped at 0.  That is ``z + mag`` where ``D
>= 0`` (never below 0) and ``max(0, z - mag)`` where ``D < 0``; integer
arithmetic is exact, so the order of these steps does not change a count.

The counts are int64 while every constant and every count lies in [0, 2^31),
and Python ints (object arrays through the same ufuncs) otherwise.  Under that
bound nothing overflows.  ``q slope + den - half < 2^62 + 2^31``; ``k0 -
k1`` and each multiplier are below 2^31 in size, so every partial sum of the
q part, and ``|D|`` on q, stays below ``2^62 + 2^33``.  A partial row or
column sum is below max(m, n) 2^31, so ``|D| < 2^62`` on the multipliers for
any max(m, n) < 2^31.  Hence ``|D|``, ``mag + 5``, ``z - mag`` and ``z +
mag``, which lie in (-2^63, 2^31 + |D|), all stay inside int64.  A run that
starts in int64 converts z once, when ``z.max()`` reaches 2^31, and stays in
Python ints, because products of counts grow as P^2 and p has no upper
bound.  On the katrina-shaped ladder instances the supplies and demand caps pass the bound from p = 6
at 10x30 and from p = 7 at 4x4 and 8x8; a 10x30 run at p = 5 stays in int64
throughout.

Schedule ceiling.  The float route steps by ``step_size`` (exponent
``schedule_exponent``, ``_blocks`` of stretch 1), the oracle and the engine
by ``quantized_halvings`` (stretch 2).
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


def _blocks(stretch: int, t: int) -> Iterator[tuple[int, int]]:
    """The blocks w = 0, 1, ... of a halving schedule, max(1024, stretch *
    2**w) iterations each, from iteration t on: the block that holds t and
    every later one, each with the number of its iterations from t on."""
    if t < 0:
        raise ValueError("t must be non-negative")
    w, end = 0, 0
    while True:
        end += max(1024, stretch << w)
        if t < end:
            yield w, end - t
            t = end
        w += 1


def schedule_exponent(t: int) -> int:
    """Block exponent w of a_t = 0.1 / 2**w: blocks of max(1024, 2**w) copies."""
    return next(_blocks(1, t))[0]


def step_size(t: int) -> float:
    return 0.1 / (1 << schedule_exponent(t))


def quantized_halvings(t: int) -> int:
    """Halving count applied by the integer solver at iteration t.

    The counter machinery of the generated system emits one halving token per
    1024 iterations for the first ten tokens and then doubles the block
    length starting at 2048 (blocks of max(1024, 2**(w+1)) copies), so it
    agrees with ``schedule_exponent`` up to iteration 11263 and first differs
    at 11264.
    """
    return next(_blocks(2, t))[0]


# ---------------------------------------------------------------------------
# Floating point solver
# ---------------------------------------------------------------------------


class _Packed(NamedTuple):
    """One vector z = (q row-major, lam, lam1, lam2) and the views of it a
    step reads and writes, made once; a drift vector has the same layout
    (g, dl, d1, d2)."""

    z: np.ndarray
    q: np.ndarray          # (m, n)
    lam: np.ndarray        # (m,)
    lam1: np.ndarray       # (n,)
    lam2: np.ndarray       # (n,)
    flows: np.ndarray      # (m n,): q row-major
    lam_col: np.ndarray    # (m, 1): lam as a column
    multipliers: np.ndarray  # (m + 2 n,): lam, lam1, lam2


def _packed(z: np.ndarray, m: int, n: int) -> _Packed:
    """The views of a packed vector z of an m x n instance."""
    mn = m * n
    return _Packed(z, z[:mn].reshape(m, n), z[mn:mn + m], z[mn + m:mn + m + n],
                   z[mn + m + n:], z[:mn], z[mn:mn + m].reshape(m, 1), z[mn:])


def _multiplier_operands(m: int, n: int, row_cap, col_lo, col_hi, dtype):
    """``ahead`` = (row sums, col_lo, column sums) and ``behind`` = (row_cap,
    column sums, col_hi), whose difference is the multiplier part of a drift,
    and the views the sums go into: the rows and columns of ``ahead`` and the
    columns of ``behind``."""
    ahead, behind = np.empty(m + 2 * n, dtype), np.empty(m + 2 * n, dtype)
    ahead[m:m + n], behind[:m], behind[m + n:] = col_lo, row_cap, col_hi
    return ahead, behind, ahead[:m], ahead[m + n:], behind[m:m + n]


class _PreparedStep:
    """The loop of both prepared steps.  A step binds the list ``states`` of
    two packed state buffers, which the iterations alternate, a buffer
    ``dq`` for the flow change, its schedule ``stretch`` (see ``_blocks``)
    and its stop tolerance ``tol``, and two operations: ``_block(w)`` sets
    the step factor of schedule block w, and ``_advance(i)`` steps from
    ``states[i]`` into the other buffer.  A step that rebinds its buffers
    mid-run replaces them inside the list and sets a new ``dq``."""

    def _load(self, z) -> None:
        self.states[0].z[:] = z

    def run(self, z, t: int, max_iter: int) -> Iterator[tuple[int, _Packed, bool]]:
        """From the packed state z at iteration t, yield (t, state, settled)
        for each iterate, walking the schedule one block at a time.  An
        iterate is settled when no flow moved by ``tol`` or more (max |dq| <
        tol).  Stops after the first settled iterate or at iteration
        max_iter.

        A yielded state is one of the two buffers: the step after next
        overwrites it, so a caller reads or copies each state before it
        takes the next but one."""
        self._load(z)
        i, tol, states, advance = 0, self.tol, self.states, self._advance
        subtract, absolute, max_reduce = np.subtract, np.absolute, np.maximum.reduce
        for w, left in _blocks(self.stretch, t):
            if t >= max_iter:
                return
            self._block(w)
            for _ in range(min(left, max_iter - t)):
                advance(i)
                i, t = 1 - i, t + 1
                new, dq = states[i], self.dq
                subtract(new.flows, states[1 - i].flows, out=dq)
                absolute(dq, out=dq)
                if max_reduce(dq) < tol:
                    yield t, new, True
                    return
                yield t, new, False


class _FloatStep(_PreparedStep):
    """The projected step of one (instance, variant) on packed states,
    prepared once: every constant, buffer and view is bound when the step is
    built, and each operation of an iteration is one ufunc call into a bound
    buffer (see "Cost" above).  The drift at a state goes into ``d``, and
    the visibility caps it hits are added to the per-column counts
    ``caps``.  ``run`` settles at max |dq| < tol; the default 0 never
    settles."""

    stretch = 1

    def __init__(self, inst: ReliefInstance, variant: str, tol: float = 0.0):
        m, n = self.m, self.n = inst.m, inst.n
        self.full = variant == FULL
        self.tol = tol
        self.d = self.empty()
        self.caps = np.zeros(n, np.int64)
        #: the step factor a_t, one copy per entry of z
        self.a = np.empty(m * n + m + 2 * n)
        states = self.states = [self.empty(), self.empty()]
        self.dq = np.empty(m * n)
        self._drift = self._bind_drift(inst)
        d, a, zero = self.d.z, self.a, np.zeros_like(self.a)
        drift, multiply, add, maximum = self._drift, np.multiply, np.add, np.maximum

        def advance(i: int) -> None:
            x, out = states[i], states[1 - i]
            drift(x)
            multiply(d, a, out=d)
            add(x.z, d, out=out.z)
            maximum(zero, out.z, out=out.z)

        self._advance = advance

    def empty(self) -> _Packed:
        return _packed(np.empty(self.m * self.n + self.m + 2 * self.n), self.m, self.n)

    def _block(self, w: int) -> None:
        self.a.fill(0.1 / (1 << w))

    def _bind_drift(self, inst: ReliefInstance):
        """The drift x -> d, with the formula's constants and buffers bound."""
        m, n = self.m, self.n
        c = _float_constants(inst)
        gain, c2, c1 = c["omega*gamma/beta"], c["2*cost_a**2"], c["2*cost_a*cost_b"]
        beta = np.broadcast_to(inst.beta[:, None], (m, n)).copy()
        g, multipliers = self.d.q, self.d.multipliers
        ahead, behind, rows, cols, cols_behind = _multiplier_operands(
            m, n, inst.s, inst.d_lo, inst.d_hi, float)
        full, caps, vis_k = self.full, self.caps, inst.vis_k
        below, vis = np.empty(n, bool), np.empty(n)
        floor, two = np.full(n, VISIBILITY_FLOOR), np.full(n, 2.0)
        multiply, add, subtract, divide = np.multiply, np.add, np.subtract, np.divide
        add_reduce, copyto, less, maximum, sqrt = np.add.reduce, np.copyto, np.less, np.maximum, np.sqrt

        def drift(x: _Packed) -> None:
            multiply(c2, x.q, out=g)
            add(g, c1, out=g)
            divide(g, beta, out=g)
            subtract(gain, g, out=g)
            subtract(g, x.lam_col, out=g)
            add(g, x.lam1, out=g)
            subtract(g, x.lam2, out=g)
            add_reduce(x.q, 1, out=rows)
            add_reduce(x.q, 0, out=cols)
            copyto(cols_behind, cols)
            subtract(ahead, behind, out=multipliers)
            if full:
                less(cols, floor, out=below)
                add(caps, below, out=caps)
                maximum(cols, floor, out=vis)
                sqrt(vis, out=vis)
                multiply(two, vis, out=vis)
                divide(vis_k, vis, out=vis)
                add(g, vis, out=g)

        return drift

    def drift(self, x: _Packed) -> int:
        """Write the drift of each family at x, before scaling by a_t, into
        ``self.d``; return the number of visibility derivatives capped at a
        column sum below ``VISIBILITY_FLOOR``."""
        self.caps.fill(0)
        self._drift(x)
        return int(np.add.reduce(self.caps))


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


#: Below this bound on every constant and count the packed integer step runs
#: in int64 without overflow (see "Cost" above).
_INT64_SAFE = 1 << 31


class _QuantizedStep(_PreparedStep):
    """The integer iteration for one set of fixed-point constants on packed
    count vectors z = (q row-major, lam, lam1, lam2): one drift vector, then
    one emission-and-cancellation pass over it.  Prepared like
    ``_FloatStep``: the constants, two state buffers that the steps
    alternate, the drift and the scratch vectors are bound for one dtype,
    int64 until a constant or count reaches ``_INT64_SAFE`` and Python ints
    (object arrays through the same ufuncs) from then on (see "Cost"
    above).  ``run`` settles when no count of q moved (max |dq| < 1), the
    halting condition of the membrane system."""

    stretch, tol = 2, 1

    def __init__(self, k: FixedPointConstants):
        if any(d <= 0 for d in k.den):
            raise ValueError("division constant must be positive")
        if not all(1 <= h <= d for h, d in zip(k.half, k.den)):
            raise ValueError("half mark must lie between 1 and the division constant")
        self.k = k
        self.m, self.n = len(k.den), len(k.dlo)
        self.mn = self.m * self.n
        self.w = 0
        self.states: list[_Packed] = []
        flat = [c for table in (k.k0, k.k1, k.slope) for row in table for c in row]
        flat += k.den + k.half + k.supply + k.dlo + k.dhi
        self._use(np.int64 if all(0 <= c < _INT64_SAFE for c in flat) else object)

    def _use(self, dtype) -> None:
        """Bind the constants, the buffers and the step for ``dtype``; the
        new state buffers take the counts and the places in ``states`` of
        the old ones."""
        k, m, n = self.k, self.m, self.n
        self.dtype = dtype
        size = self.mn + m + 2 * n
        kd = np.array(k.k0, dtype) - np.array(k.k1, dtype)
        slope = np.array(k.slope, dtype)
        den = np.broadcast_to(np.array(k.den, dtype)[:, None], (m, n)).copy()
        dh = den - np.array(k.half, dtype)[:, None]
        ahead, behind, rows, cols, cols_behind = _multiplier_operands(
            m, n, k.supply, k.dlo, k.dhi, dtype)
        states = [_packed(np.empty(size, dtype), m, n) for _ in range(2)]
        for new, old in zip(states, self.states):
            new.z[:] = old.z
        self.states[:] = states
        self.dq = np.empty(self.mn, dtype)
        self.halvings = np.full(size, self.w, dtype)
        d = _packed(np.empty(size, dtype), m, n)
        dq, mag, negative_at = d.q, np.empty(size, dtype), np.empty(size, bool)
        zero, five, ten = (np.full(size, c, dtype) for c in (0, 5, 10))
        halvings = self.halvings
        multiply, add, subtract, floor_divide = np.multiply, np.add, np.subtract, np.floor_divide
        add_reduce, copyto, absolute, right_shift = np.add.reduce, np.copyto, np.absolute, np.right_shift
        less, negative, maximum = np.less, np.negative, np.maximum

        def step(x: _Packed, out: _Packed) -> None:
            multiply(x.q, slope, out=dq)
            add(dq, dh, out=dq)
            floor_divide(dq, den, out=dq)
            subtract(kd, dq, out=dq)
            add(dq, x.lam1, out=dq)
            subtract(dq, x.lam2, out=dq)
            subtract(dq, x.lam_col, out=dq)
            add_reduce(x.q, 1, out=rows)
            add_reduce(x.q, 0, out=cols)
            copyto(cols_behind, cols)
            subtract(ahead, behind, out=d.multipliers)
            absolute(d.z, out=mag)
            right_shift(mag, halvings, out=mag)
            add(mag, five, out=mag)
            floor_divide(mag, ten, out=mag)
            less(d.z, zero, out=negative_at)
            negative(mag, out=mag, where=negative_at)
            add(x.z, mag, out=out.z)
            maximum(out.z, zero, out=out.z)

        self._step = step

    def _load(self, z) -> None:
        """Load the start counts; Python ints from here on if one lies
        outside the int64 bound."""
        if self.dtype is not object and not all(0 <= c < _INT64_SAFE for c in z):
            self._use(object)
        self.states[0].z[:] = z

    def _block(self, w: int) -> None:
        self.w = w
        self.halvings.fill(w)

    def _advance(self, i: int) -> None:
        """Step from state buffer i into the other one; from the first count
        that reaches ``_INT64_SAFE`` on, in Python ints."""
        out = self.states[1 - i]
        self._step(self.states[i], out)
        # an int64 step yields no negative count, so the maximum is the bound's test
        if self.dtype is not object and np.maximum.reduce(out.z) >= _INT64_SAFE:
            self._use(object)


def _start(inst: ReliefInstance, one) -> list:
    """The packed start state of the membrane system: every flow at ``one``
    (1.0, or 10^p counts), every multiplier at 0."""
    return [one] * (inst.m * inst.n) + [0] * (inst.m + 2 * inst.n)


def quantized_trajectory(
    inst: ReliefInstance, p: int, max_iter: int
) -> tuple[list[list[list[int]]], bool]:
    """Per-iteration q counts starting from the all-ones state, stopping at
    exact q equality between consecutive iterations (the halting condition of
    the membrane system) or at max_iter.  Returns (trajectory, converged);
    the trajectory includes the initial counts."""
    step = _QuantizedStep(fixed_point_constants(inst, p))
    traj = [[[10**p] * inst.n for _ in range(inst.m)]]
    converged = False
    for _, state, converged in step.run(_start(inst, 10**p), 0, max_iter):
        traj.append(state.q.tolist())
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
    tol: float | None
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

    One stop rule covers every variant: the run converges at the first
    iteration that moves no flow by ``tol`` or more, max |q^{t+1} - q^t| <
    tol, with tol 1 on the quantized variant's counts, which is exact count
    equality.  The ``tol`` argument applies to the float variants only: the
    quantized variant neither checks nor reports it (its report's ``tol`` is
    None, as a float report's ``p`` is).  The start point mirrors the
    membrane system: every flow at 1.0, every multiplier at 0.  A run whose
    iterate, count / 10^p or residuals leave the float range raises
    ``ValueError``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    violations = validate(inst)
    if violations:
        raise ValueError("invalid instance: " + "; ".join(violations))

    if variant == QUANTIZED:
        if p is None:
            raise ValueError("quantized variant needs a precision exponent p")
        tol = None  # the quantized iteration has no tolerance
        route, one = _QuantizedStep(fixed_point_constants(inst, p)), 10**p
    elif variant in (SIMPLIFIED, FULL):
        if tol <= 0:
            raise ValueError("tol must be positive")
        if not tol < math.inf:  # also false for nan
            raise ValueError("tol must be finite")
        p = None  # the float iteration has no precision exponent
        route, one = _FloatStep(inst, variant, tol), 1.0
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # keep only the last iterate: the trajectory is never held in memory
    t, cur, converged = deque(route.run(_start(inst, one), 0, max_iter), maxlen=1)[0]
    if variant == QUANTIZED:
        step, counts, caps = _FloatStep(inst, SIMPLIFIED), cur.z.tolist(), 0
        cur = step.states[0]
        try:
            cur.z[:] = [c / one for c in counts]
        except OverflowError:  # a count does not fit a float
            cur.z[:] = math.inf
    else:
        step, caps = route, int(np.add.reduce(route.caps))

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
