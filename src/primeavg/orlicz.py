"""Decreasing rearrangements and an L log^2 L log log L functional.

On a probability space, the decreasing rearrangement of f is

    f*(t) = inf {s > 0 : mu{|f| >= s} <= t},

a nonincreasing right-continuous function on [0, 1).  For the weight
phi(t) = log^2(1+t) log(1+log t) on t >= 1, the functional

    ||f|| = integral_0^1 f*(t) phi(1/t) dt

is the norm used to measure how far beyond L^1 an input must live for the
weak-type maximal bound.  Everything here works on step functions (finite
signals always rearrange to one); the integral reduces per step to
integral phi(1/t) dt, evaluated by an adaptive 64-point Gauss rule.  Each
panel's estimate is compared with the sum over its two halves; a half that
needs refining passes its estimate down as the next whole-panel value.  A
panel is accepted when the two agree to its share of the tolerance, or to
the rounding floor of its value.

The panels the rule reads are known before it runs, so each orlicz_norm
call evaluates them in one phi_weight call on a (P, 64) node block.  Away
from t = 0 a step's first bisection is accepted at once.  At t = 0 phi(1/t)
is singular: the rule halves the first step's panel [0, e] down to its
depth cap, and accepts the bisection of each right half [e/2, e] at once.
That chain's edges are exact halvings of e, so it is listed ahead.  The
block is summed against the weights in one ntheory._dot, which gives each
panel the bits it would have in a block of its own, on any BLAS kernel.  A
pair outside the plan is evaluated on its own.

dyadic_layers reads off a_j = f*(2^-j), the layer heights of the dyadic
decomposition A_j = {f*(2^-j+1) < |f| <= f*(2^-j)} of nominal measure 2^-j,
and layer_lower_bound evaluates

    (1/8) sum_j a_j 2^-j log^2(e 2^j) log(j+1),

which sits below ||f|| for every rearrangement (per-block monotonicity of
f* and phi gives the factor 1/2 with phi(2^j); the quoted form with 1/8 is
weaker still for every j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ntheory import (_GL_NODES, _GL_WEIGHTS, CapacityError, DomainError, _dot, _finite, _integer,
                      _real, _shaped)

_MEASURE_SLACK = 1e-12

# absolute tolerance of orlicz_norm, shared out over the steps and panels
_TOL = 1e-9

# |split - whole| at or below this share of the panel value is rounding
# noise of the two 64-point sums, which no further halving can reduce
_ROUNDING_FLOOR = 64 * np.finfo(np.float64).eps

# the adaptive rule halves a panel at most this many times
_MAX_DEPTH = 60

# the deepest dyadic layer: past it 2^-j is subnormal and e 2^j overflows
_J_CAP = 1022


def phi_weight(t):
    """phi(t) = log^2(1+t) * log(1+log t) for real t >= 1, +inf included
    (_gauss_panels passes it where 1/t overflows); phi(1) = 0."""
    arr = _real(t, "t", points=True, finite=False)
    if not np.all(arr >= 1.0):  # nan too
        raise DomainError("phi_weight is defined for t >= 1")
    return _shaped(np.log1p(arr) ** 2 * np.log1p(np.log(arr)), t)


@dataclass(frozen=True)
class StepRearrangement:
    """A nonincreasing step function on [0, 1): values[i] on [cuts[i], cuts[i+1]).

    values are strictly decreasing and positive; measures are positive and
    sum to at most 1.  Past the total measure the function is 0.
    """

    values: np.ndarray
    measures: np.ndarray

    def __post_init__(self):
        v = _real(self.values, "step values", points=True)
        m = _real(self.measures, "measures", points=True)
        if v.shape != m.shape or v.ndim != 1:
            raise DomainError("values and measures must be matching 1-d arrays")
        if v.size:
            if np.any(m <= 0):
                raise DomainError("measures must be positive")
            if np.any(v <= 0):
                raise DomainError("step values must be positive")
            if np.any(np.diff(v) >= 0):
                raise DomainError("step values must be strictly decreasing")
            if m.sum() > 1.0 + _MEASURE_SLACK:
                raise DomainError("total measure exceeds 1")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "measures", m)

    @property
    def cuts(self) -> np.ndarray:
        """Breakpoints: cumulative measures, starting from 0."""
        return np.concatenate([[0.0], np.cumsum(self.measures)])

    @property
    def total_measure(self) -> float:
        return float(self.measures.sum()) if self.measures.size else 0.0

    def evaluate(self, t):
        """f*(t) at real t >= 0, right-continuous, zero past the total measure."""
        tt = np.atleast_1d(_real(t, "t", points=True))
        if not np.all(tt >= 0):
            raise DomainError("rearrangement argument must be >= 0")
        ext = np.concatenate([self.values, [0.0]])
        return _shaped(ext[np.searchsorted(self.cuts[1:], tt, side="right")], t)

    def distribution(self, s: float) -> float:
        """mu{f* > s} = sum of measures over steps with value > s, s real."""
        s = _real(s, "level s")
        return float(self.measures[self.values > s].sum()) if self.values.size else 0.0

    def scale(self, c: float) -> "StepRearrangement":
        c = _real(c, "scale factor")
        if c <= 0:
            raise DomainError("scale factor must be positive")
        return StepRearrangement(values=self.values * c, measures=self.measures)


def decreasing_rearrangement(pairs) -> StepRearrangement:
    """Rearrange (magnitude, measure) pairs into a step function on [0, 1).

    Magnitudes are taken in absolute value (complex ones too, but never a
    bool); zero-magnitude mass joins the tail where f* vanishes.  Equal
    magnitudes merge.  Each measure goes through the real rule (a finite
    real number, never a bool, a string or bytes).  An item that is not a
    pair of numbers, non-finite input, and total measure above 1 are domain
    errors: the underlying space is a probability space.
    """
    mags, meas = [], []
    for pair in pairs:
        try:
            v, m = pair
            if isinstance(v, (bool, np.bool_)):  # abs() reads it as 0 or 1
                raise TypeError
            mags.append(float(abs(v)))
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"{pair!r} is not a (magnitude, measure) pair "
                              "of numbers") from None
        try:
            meas.append(_real(m, "measure"))
        except DomainError as e:  # named here: a name formed per pair costs its repr
            raise DomainError(f"{pair!r}: {e}") from None
    mags = _finite(mags, "magnitudes")
    meas = np.asarray(meas, dtype=np.float64)
    if np.any(meas < 0):
        raise DomainError("measures must be nonnegative")
    if sum(meas.tolist()) > 1.0 + _MEASURE_SLACK:  # summed in input order
        raise DomainError("total measure exceeds 1")
    keep = (mags > 0) & (meas > 0)
    if not keep.any():
        return StepRearrangement(values=np.zeros(0), measures=np.zeros(0))
    v, m = mags[keep], meas[keep]
    order = np.argsort(v)[::-1]
    v, m = v[order], m[order]
    uv, start = np.unique(-v, return_index=True)  # negate: unique sorts ascending
    merged_v = -uv
    merged_m = np.add.reduceat(m, start)
    return StepRearrangement(values=merged_v, measures=merged_m)


def _gauss_panels(lo: np.ndarray, hi: np.ndarray) -> list[float]:
    """64-point Gauss estimates of integral phi(1/t) dt over the panels
    [lo[i], hi[i]], from one phi_weight call on their (P, 64) node block.

    The rows are summed against the weights in one ntheory._dot, so an
    estimate depends neither on the rows around it nor on the BLAS kernel
    (a matrix-vector product rounds a row by its place in the block).  A
    node t = 0, or one whose 1/t overflows, gives a non-finite estimate
    without a warning: a planned panel may never be read."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = phi_weight(1.0 / (mid[:, None] + half[:, None] * _GL_NODES))
        return (half * _dot(vals, _GL_WEIGHTS)).tolist()


def _planned_pairs(steps: list[tuple]) -> tuple[list[float], dict]:
    """The panel estimates the adaptive rule reads on typical steps, from
    one _gauss_panels call: each step's whole panel, and the bisection
    pairs keyed by their edges (lo, mid, hi).

    Away from t = 0 the rule accepts a step's first bisection.  At t = 0
    the 64-point rule never meets its share of the tolerance on [0, e], so
    the rule halves the first step's panel to the depth cap: the chain
    pairs (0, e_k+1, e_k), e_k the k-th halving of hi done as the rule does
    it (so the edges match bit for bit), and the bisection of each right
    half [e_k+1, e_k], which it accepts at once."""
    lo = np.array([s[1] for s in steps])
    hi = np.array([s[2] for s in steps])
    e = np.full(_MAX_DEPTH + 2, 0.5)
    e[0] = hi[0]  # the first step starts at t = 0
    e = np.multiply.accumulate(e)
    right_lo, right_hi = e[1:-1], e[:-2]  # [e_k+1, e_k], k < _MAX_DEPTH
    parts = [(lo, 0.5 * (lo + hi), hi),  # chain pair k = 0 among them
             (np.zeros(_MAX_DEPTH), e[2:], e[1:-1]),  # k = 1.._MAX_DEPTH
             (right_lo, 0.5 * (right_lo + right_hi), right_hi)]
    p_lo, p_mid, p_hi = (np.concatenate(c) for c in zip(*parts))
    est = _gauss_panels(np.concatenate([lo, p_lo, p_mid]),
                        np.concatenate([hi, p_mid, p_hi]))
    n, p = len(steps), len(p_lo)
    known = dict(zip(zip(p_lo.tolist(), p_mid.tolist(), p_hi.tolist()),
                     zip(est[n:n + p], est[n + p:])))
    return est[:n], known


def _adaptive(lo: float, hi: float, tol: float, whole: float, known: dict,
              depth: int = 0) -> float:
    """Adaptive integral of phi(1/t) over [lo, hi], given the one-panel
    estimate `whole` there and the planned pair estimates `known`; a pair
    outside them is evaluated on its own.  A panel is accepted once
    |split - whole| meets its share of the tolerance or sits at the
    rounding floor of the panel value; a half that needs refining passes
    its estimate down as the next whole-panel value.

    A non-finite half needs a node below 1/DBL_MAX, so the panel holding
    it is narrower than the 1e-300 width floor: the rule accepts that pair
    and the integral comes out non-finite, which orlicz_norm rejects."""
    mid = 0.5 * (lo + hi)
    pair = known.get((lo, mid, hi))
    if pair is None:
        pair = _gauss_panels(np.array([lo, mid]), np.array([mid, hi]))
    left, right = pair
    split = left + right
    err = abs(split - whole)
    if (err <= tol or err <= _ROUNDING_FLOOR * abs(split) or depth >= _MAX_DEPTH
            or hi - lo < 1e-300):
        return split
    return (_adaptive(lo, mid, 0.5 * tol, left, known, depth + 1)
            + _adaptive(mid, hi, 0.5 * tol, right, known, depth + 1))


def orlicz_norm(rearrangement: StepRearrangement) -> float:
    """integral_0^1 f*(t) phi(1/t) dt for a step rearrangement.

    Reduces to sum over steps of a_i * integral phi(1/t) dt and integrates
    each step adaptively; the absolute error is below 1e-8, or near rounding
    relative to the norm where a step value is so large that its share of
    the tolerance _TOL falls below the rounding floor of the panel values.
    Exactly linear under scaling of the values.  A norm past the float64
    range, or a step so short that phi(1/t) overflows on its nodes, is a
    CapacityError.
    """
    if rearrangement.values.size == 0:
        return 0.0
    cuts = rearrangement.cuts.tolist()
    steps = []
    for a, lo, hi in zip(rearrangement.values, cuts[:-1], cuts[1:]):
        hi = min(hi, 1.0)
        if hi > lo:
            steps.append((a, lo, hi))
    wholes, known = _planned_pairs(steps)
    total = 0.0
    nsteps = rearrangement.values.size
    with np.errstate(over="ignore"):
        for (a, lo, hi), whole in zip(steps, wholes):
            total += a * _adaptive(lo, hi, _TOL / (nsteps * max(a, 1.0)), whole, known)
    if not math.isfinite(total):
        raise CapacityError("the Orlicz norm is not finite in float64: a step value "
                            "past the range, or a step so short that phi(1/t) "
                            "overflows on its quadrature nodes")
    return total


def dyadic_layers(rearrangement: StepRearrangement, j_max: int = 50) -> list[tuple[float, float]]:
    """Layer heights (a_j, 2^-j) with a_j = f*(2^-j), j = 1..j_max.

    The nominal layer measures are the dyadic gaps 2^-j; for j beyond the
    resolution of the rearrangement a_j saturates at the top value.  j_max
    past 1022, where 2^-j leaves the normal floats, is a CapacityError.
    """
    j_max = _integer(j_max, "j_max", 1, high=_J_CAP)
    ts = 0.5 ** np.arange(1, j_max + 1)
    heights = rearrangement.evaluate(ts) if rearrangement.values.size else np.zeros(j_max)
    return [(float(a), float(t)) for a, t in zip(np.atleast_1d(heights), ts)]


def layer_lower_bound(rearrangement: StepRearrangement, j_max: int = 50) -> float:
    """(1/8) sum_j a_j 2^-j log^2(e 2^j) log(j+1), a certified lower bound.

    On [2^-j-1, 2^-j) the integrand of the norm is at least a_j phi(2^j),
    so the norm dominates (1/2) sum a_j 2^-j phi(2^j); the quoted weight
    log^2(e 2^j) log(j+1) / 4 sits below phi(2^j) for every j >= 1, which
    gives the constant 1/8.  j_max is checked by dyadic_layers, and a bound
    past the float64 range is a CapacityError.
    """
    total = 0.0
    for j, (a, m) in enumerate(dyadic_layers(rearrangement, j_max), start=1):
        total += a * m * math.log(math.e * 2.0 ** j) ** 2 * math.log(j + 1)
    if not math.isfinite(total / 8.0):
        raise CapacityError("the layer lower bound is not finite in float64")
    return total / 8.0
