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
panel's estimate is compared with the sum over its two halves, which are
evaluated together in one phi_weight call on a 2 x 64 node block; a half
that needs refining passes its estimate down as the next whole-panel value,
so no panel is evaluated twice.  A panel is accepted when the two agree to
its share of the tolerance, or to the rounding floor of its value.

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
from numpy.polynomial.legendre import leggauss

from .ntheory import DomainError, _finite, _integer

_GL_NODES, _GL_WEIGHTS = leggauss(64)

_MEASURE_SLACK = 1e-12

# absolute tolerance of orlicz_norm, shared out over the steps and panels
_TOL = 1e-9

# |split - whole| at or below this share of the panel value is rounding
# noise of the two 64-point sums, which no further halving can reduce
_ROUNDING_FLOOR = 64 * np.finfo(np.float64).eps


def phi_weight(t):
    """phi(t) = log^2(1+t) * log(1+log t) for t >= 1; phi(1) = 0."""
    arr = np.asarray(t, dtype=np.float64)
    if not np.all(arr >= 1.0):  # nan too
        raise DomainError("phi_weight is defined for t >= 1")
    out = np.log1p(arr) ** 2 * np.log1p(np.log(arr))
    return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class StepRearrangement:
    """A nonincreasing step function on [0, 1): values[i] on [cuts[i], cuts[i+1]).

    values are strictly decreasing and positive; measures are positive and
    sum to at most 1.  Past the total measure the function is 0.
    """

    values: np.ndarray
    measures: np.ndarray

    def __post_init__(self):
        v = _finite(np.asarray(self.values, dtype=np.float64), "step values")
        m = _finite(np.asarray(self.measures, dtype=np.float64), "measures")
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
        """f*(t), right-continuous, zero past the total measure."""
        tt = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if not np.all(tt >= 0):  # nan too
            raise DomainError("rearrangement argument must be >= 0")
        ext = np.concatenate([self.values, [0.0]])
        idx = np.searchsorted(self.cuts[1:], tt, side="right")
        out = ext[idx]
        return float(out[0]) if np.ndim(t) == 0 else out

    def distribution(self, s: float) -> float:
        """mu{f* > s} = sum of measures over steps with value > s, s finite."""
        _finite(s, "level s")
        return float(self.measures[self.values > s].sum()) if self.values.size else 0.0

    def scale(self, c: float) -> "StepRearrangement":
        if c <= 0:
            raise DomainError("scale factor must be positive")
        return StepRearrangement(values=self.values * c, measures=self.measures)


def decreasing_rearrangement(pairs) -> StepRearrangement:
    """Rearrange (magnitude, measure) pairs into a step function on [0, 1).

    Magnitudes are taken in absolute value; zero-magnitude mass joins the
    tail where f* vanishes.  Equal magnitudes merge.  Non-finite input, and
    total measure above 1, are domain errors: the underlying space is a
    probability space.
    """
    pairs = list(pairs)
    mags = _finite([float(abs(v)) for v, _ in pairs], "magnitudes")
    meas = _finite([float(m) for _, m in pairs], "measures")
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


def _phi_inv_panels(edges: np.ndarray) -> list[float]:
    """64-point Gauss estimates of integral phi(1/t) dt over each panel
    [edges[i], edges[i+1]], from one phi_weight call on the node block."""
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    vals = phi_weight(1.0 / (mid[:, None] + half[:, None] * _GL_NODES))
    return [h * float(np.dot(_GL_WEIGHTS, v)) for h, v in zip(half.tolist(), vals)]


def _phi_inv_adaptive(lo: float, hi: float, tol: float, whole: float,
                      depth: int = 0) -> float:
    """Adaptive integral of phi(1/t) over [lo, hi], given the one-panel
    estimate `whole` there; both halves are evaluated in one block.  A panel
    is accepted once |split - whole| meets its share of the tolerance or
    sits at the rounding floor of the panel value."""
    mid = 0.5 * (lo + hi)
    left, right = _phi_inv_panels(np.array([lo, mid, hi]))
    split = left + right
    err = abs(split - whole)
    if (err <= tol or err <= _ROUNDING_FLOOR * abs(split) or depth >= 60
            or hi - lo < 1e-300):
        return split
    return (_phi_inv_adaptive(lo, mid, 0.5 * tol, left, depth + 1)
            + _phi_inv_adaptive(mid, hi, 0.5 * tol, right, depth + 1))


def orlicz_norm(rearrangement: StepRearrangement) -> float:
    """integral_0^1 f*(t) phi(1/t) dt for a step rearrangement.

    Reduces to sum over steps of a_i * integral phi(1/t) dt and integrates
    each step adaptively; the absolute error is below 1e-8, or near rounding
    relative to the norm where a step value is so large that its share of
    the tolerance _TOL falls below the rounding floor of the panel values.
    Exactly linear under scaling of the values.
    """
    if rearrangement.values.size == 0:
        return 0.0
    cuts = rearrangement.cuts
    total = 0.0
    nsteps = rearrangement.values.size
    for a, lo, hi in zip(rearrangement.values, cuts[:-1], cuts[1:]):
        if hi > 1.0:
            hi = 1.0
        if hi <= lo:
            continue
        whole, = _phi_inv_panels(np.array([lo, hi]))
        total += a * _phi_inv_adaptive(lo, hi, _TOL / (nsteps * max(a, 1.0)), whole)
    return total


def dyadic_layers(rearrangement: StepRearrangement, j_max: int = 50) -> list[tuple[float, float]]:
    """Layer heights (a_j, 2^-j) with a_j = f*(2^-j), j = 1..j_max.

    The nominal layer measures are the dyadic gaps 2^-j; for j beyond the
    resolution of the rearrangement a_j saturates at the top value.
    """
    j_max = _integer(j_max, "j_max", 1)
    ts = 0.5 ** np.arange(1, j_max + 1)
    heights = rearrangement.evaluate(ts) if rearrangement.values.size else np.zeros(j_max)
    return [(float(a), float(t)) for a, t in zip(np.atleast_1d(heights), ts)]


def layer_lower_bound(rearrangement: StepRearrangement, j_max: int = 50) -> float:
    """(1/8) sum_j a_j 2^-j log^2(e 2^j) log(j+1), a certified lower bound.

    On [2^-j-1, 2^-j) the integrand of the norm is at least a_j phi(2^j),
    so the norm dominates (1/2) sum a_j 2^-j phi(2^j); the quoted weight
    log^2(e 2^j) log(j+1) / 4 sits below phi(2^j) for every j >= 1, which
    gives the constant 1/8.
    """
    total = 0.0
    for j, (a, m) in enumerate(dyadic_layers(rearrangement, j_max), start=1):
        total += a * m * math.log(math.e * 2.0 ** j) ** 2 * math.log(j + 1)
    return total / 8.0
