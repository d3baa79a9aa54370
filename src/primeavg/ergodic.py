"""Concrete ergodic systems, prime-orbit averages, and transference checks.

Two measure-preserving systems are provided: the circle rotation
T x = x + alpha mod 1 under Lebesgue measure, and the cyclic shift
T x = x + 1 mod m under counting measure.  The prime orbit average is

    A_N f(x) = (1/pi(N)) * sum over primes p <= N of f(T^p x).

Rotations store alpha as an exact rational convergent num/den of its
continued fraction with den in [2^33, 2^38) when one exists, so T^k x is
computed in exact int64 arithmetic: the approximant error is below 2^-66
per step, hence below 1e-9 accumulated over orbits of length up to 2^24,
and no floating drift accrues at all.

transference_sample realizes the sampling argument that moves maximal
inequalities from the integers to the dynamical system: with
F = {0 <= n <= R : T^n x in A}, the orbit average of 1_A at T^n x equals
the integer average of 1_F at n for all n <= R - L and N <= L.  Both sides
are computed by different routes in integer arithmetic (orbit shift
accumulation vs signal convolution), so the comparison is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .maximal import Signal, _superlevel_counts, prime_scale_counts
from .ntheory import DomainError, PrimeTable, _finite, _integer, _real

_DEN_MIN = 1 << 33
_DEN_MAX = 1 << 38
_ORBIT_CAP = 1 << 25
_SHIFT_CAP = 1 << 62


def _convergent_in_range(cf: list[int]) -> tuple[int, int]:
    """num/den from the continued fraction [0; a1, a2, ...] with den targeted
    to [2^33, 2^38).

    A terminating expansion whose final denominator is smaller is used
    exactly.  If one partial quotient jumps the denominator past the upper
    bound, the last convergent below it is kept; its error is still below
    1/(den * 2^38).
    """
    h_prev, h = 1, 0
    k_prev, k = 0, 1
    for a in cf:
        h_next = a * h + h_prev
        k_next = a * k + k_prev
        if k_next >= _DEN_MAX:
            break
        h_prev, h = h, h_next
        k_prev, k = k, k_next
        if k >= _DEN_MIN:
            return h, k
    return h, k


def _cf_of_fraction(x: Fraction) -> list[int]:
    out = []
    p, q = x.numerator, x.denominator
    while q:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    return out[1:]  # drop a0 = 0 for x in [0, 1)


@dataclass(frozen=True)
class DynamicalSystem:
    """A circle rotation (kind='rotation') or cyclic shift (kind='shift').

    Rotations act on [0, 1) with alpha = num/den exactly; shifts act on
    residues mod `modulus`.
    """

    kind: str
    num: int = 0
    den: int = 1
    modulus: int = 0

    @classmethod
    def rotation(cls, alpha, cf_depth: int | None = None) -> "DynamicalSystem":
        """Rotation by alpha in [0, 1); 'golden' and 'silver' name the two
        quadratic irrationals (sqrt(5)-1)/2 and sqrt(2)-1, whose continued
        fractions are all 1s and all 2s.  cf_depth, which must be positive
        (alpha = 0 included), caps the number of partial quotients kept
        before the convergent is chosen."""
        if isinstance(alpha, str) and alpha in ("golden", "silver"):
            cf = [1] * 64 if alpha == "golden" else [2] * 48
        else:
            a = _real(alpha, "rotation angle alpha")
            if not 0.0 <= a < 1.0:
                raise DomainError("rotation angle must lie in [0, 1)")
            frac = Fraction(a)
            cf = _cf_of_fraction(frac)
        if cf_depth is not None:
            cf = cf[:_integer(cf_depth, "cf_depth", 1)]
        num, den = _convergent_in_range(cf)
        return cls(kind="rotation", num=num, den=den)

    @classmethod
    def shift(cls, m: int) -> "DynamicalSystem":
        """The shift mod m, 1 <= m <= 2^62: a residue plus an orbit index
        below 2^25 then stays inside int64."""
        return cls(kind="shift", modulus=_integer(m, "modulus m", 1, high=_SHIFT_CAP))

    @property
    def alpha(self) -> float:
        if self.kind != "rotation":
            raise DomainError("alpha is only defined for rotations")
        return self.num / self.den

    def orbit_positions(self, x0, ks: np.ndarray) -> np.ndarray:
        """T^k x0 for each k in ks; floats in [0,1) for rotations, int
        residues for shifts.  k is capped at 2^25 to keep the rotation's
        integer arithmetic inside int64.  On a rotation x0 must be a finite
        real number (ntheory._real); on a shift it must be an integer in the
        int64 range, an integral float such as 3.0 included.

        A rotation adds s = x0 mod 1, a float in [0, 1], to r = (k * num mod
        den) / den <= 1 - 1/den, with den < 2^38; so s + r < 2 and the wrap
        back to [0, 1) is one subtraction of 1.0, exact on [1, 2) by
        Sterbenz's lemma and equal to fmod there (+0.0 at s + r = 1 too)."""
        ks = np.asarray(_integer(ks, "k", points=True), dtype=np.int64)
        if ks.size and (ks.min() < 0 or ks.max() >= _ORBIT_CAP):
            raise DomainError("orbit indices must lie in [0, 2^25)")
        if self.kind == "shift":
            return np.mod(_shift_start(x0) % self.modulus + ks, self.modulus)
        s = _real(x0, "starting point x0") % 1.0
        # k * alpha mod 1 in exact integer arithmetic, the remainder taken as
        # rot - (rot // den) * den: numpy divides an int64 array by one
        # integer with multiply-and-shift (libdivide), about three times
        # faster than np.mod, and rot >= 0 keeps it exact.  x0 enters once,
        # as a float, so rational alphas (including the identity) keep it.
        rot = ks * self.num
        quot = rot // self.den
        quot *= self.den
        rot -= quot
        del quot
        rot = rot.astype(np.float64)
        rot /= self.den
        rot += s
        return np.subtract(rot, rot >= 1.0, out=rot)


def _shift_start(x0) -> int:
    """A shift's starting point as an int: an integer, or an integral float
    such as the CLI's --x0 3 (parsed as 3.0), in [-2^63, 2^63); anything
    else is a DomainError."""
    if isinstance(x0, (float, np.floating)) and float(x0).is_integer():
        x0 = int(x0)
    x0 = _integer(x0, "starting point x0")
    if not -(1 << 63) <= x0 < 1 << 63:
        raise DomainError("starting point x0 must lie in [-2^63, 2^63)")
    return x0


def interval_indicator(a: float, b: float):
    """1_{[a,b)} on the circle, wrapping when a > b; a and b must be finite
    real numbers (ntheory._real)."""
    a, b = _real(a, "interval endpoint a"), _real(b, "interval endpoint b")
    if a <= b:
        return lambda x: ((np.asarray(x) >= a) & (np.asarray(x) < b)).astype(np.float64)
    return lambda x: ((np.asarray(x) >= a) | (np.asarray(x) < b)).astype(np.float64)


def orbit_average(system: DynamicalSystem, f, x0, N: int, table: PrimeTable):
    """A_N f(x0) = (1/pi(N)) sum over primes p <= N of f(T^p x0), N >= 2."""
    ps = table.primes_upto(_integer(N, "N", 2))
    vals = _finite(f(system.orbit_positions(x0, ps)), "observable values")
    out = vals.mean()
    return complex(out) if np.iscomplexobj(vals) else float(out)


@dataclass(frozen=True)
class OrbitAverageTrace:
    """A_{2^n} f(x0) across dyadic scales, with convergence columns.

    diffs[i] = |values[i] - values[i-1]| (nan at i = 0); distances holds
    |values - reference| when a candidate limit is supplied.
    """

    scales: np.ndarray
    values: np.ndarray
    diffs: np.ndarray
    reference: complex | float | None
    distances: np.ndarray | None


def convergence_diagnostic(system: DynamicalSystem, f, x0, n_max: int,
                           table: PrimeTable, reference=None) -> OrbitAverageTrace:
    """Trace of A_{2^n} f(x0) for n = 1..n_max (n_max <= 24).

    One orbit enumeration serves every scale: the sums are read at the
    prime-counting boundaries pi(2^n).  The values of f must be finite.
    A real f is summed in float64, whose running sums are bit for bit the
    real parts of complex128 ones; the n_max sums at pi(2^n) are divided as
    complex128 either way, since numpy's complex division multiplies by the
    reciprocal and a real division can differ in the last bit.  A 0/1-valued
    f is summed between the cuts and the n_max block sums accumulated: every
    partial sum is an integer below 2^53, exact in any order, so these are
    the running sums' bits.  Any other f keeps the sequential running sum.
    """
    if _integer(n_max, "n_max", 1) > 24:
        raise DomainError("n_max must lie in [1, 24]")
    ps = table.primes_upto(1 << n_max)
    vals = _finite(f(system.orbit_positions(x0, ps)), "observable values")
    real_obs = not np.iscomplexobj(vals)
    vals = vals.astype(np.float64 if real_obs else np.complex128, copy=False)
    scales = np.asarray([1 << n for n in range(1, n_max + 1)], dtype=np.int64)
    counts = np.asarray([table.count(int(N)) for N in scales], dtype=np.int64)
    if real_obs and np.all((vals == 0) | (vals == 1)):
        sums = np.cumsum(np.add.reduceat(vals, np.r_[0, counts[:-1]]))
    else:
        sums = np.cumsum(vals)[counts - 1]
    averages = sums.astype(np.complex128) / counts
    if real_obs:
        averages = averages.real
    diffs = np.abs(np.diff(averages, prepend=averages[:1]))
    diffs[0] = np.nan
    dist = np.abs(averages - reference) if reference is not None else None
    return OrbitAverageTrace(scales=scales, values=averages, diffs=diffs,
                             reference=reference, distances=dist)


@dataclass(frozen=True)
class TransferenceResult:
    """Orbit-side vs integer-side maximal averages of an indicator.

    Row k of both count arrays is the superlevel count of
    sup over dyadic N <= L of A_N at level lambda_grid[k], over the window
    0 <= n <= R - L.  identity_discrepancy is the largest absolute
    difference between the two sides' integer prime-count sums; the
    transference identity makes it 0.
    """

    R: int
    L: int
    set_size: int
    scales: np.ndarray
    lambda_grid: np.ndarray
    orbit_counts: np.ndarray
    signal_counts: np.ndarray
    identity_discrepancy: int

    @property
    def counts_equal(self) -> bool:
        return bool(np.array_equal(self.orbit_counts, self.signal_counts))


def transference_sample(system: DynamicalSystem, indicator, x0, R: int, L: int,
                        table: PrimeTable,
                        lambda_grid: np.ndarray | None = None) -> TransferenceResult:
    """Sample F = {0 <= n <= R : T^n x0 in A} and compare maximal averages.

    The orbit side accumulates integer sums sum over p <= N of 1_A(T^(n+p) x0)
    by shifted-slice addition; the integer side takes the exact prime counts
    of 1_F from maximal.prime_scale_counts (integer band sums, FFT-correlated
    bands rounded back to integers with a residual check).  The identity
    A_N(1_A)(T^n x0) = A_N(1_F)(n) for n <= R - L, N <= L makes the two
    integer arrays equal entry for entry, and the superlevel counts compare
    those integers with lambda exactly (as weak_type_sweep does), so they
    agree too.
    """
    L = _integer(L, "L", 2)
    R = _integer(R, "R", L + 1, high=_ORBIT_CAP - 1)  # the orbit's last index
    if lambda_grid is None:
        lambda_grid = np.asarray([0.75, 0.5, 0.25, 0.125])
    lam = np.atleast_1d(_real(lambda_grid, "lambda grid", points=True))
    member = np.asarray(indicator(system.orbit_positions(x0, np.arange(R + 1))))
    W = R - L + 1
    n_top = int(math.log2(L))
    scales = np.asarray([1 << n for n in range(1, n_top + 1)], dtype=np.int64)

    # integer side first, as prime_scale_counts checks that the sampled set
    # is 0/1 before the orbit side takes it as integers
    F = Signal(offset=0, values=member.astype(np.float64))
    signal_sums = np.zeros((scales.size, W), dtype=np.int64)
    for i, (_, k) in enumerate(prime_scale_counts(F, n_top, table)):
        N = int(scales[i])
        signal_sums[i] = k[N: N + W]  # k[0] is the count at n = -N

    # orbit side: shifted-slice accumulation, incremental across scales
    member = member.astype(np.int64)
    acc = np.zeros(W, dtype=np.int64)
    orbit_sums = np.zeros_like(signal_sums)
    prev = 0
    for i, N in enumerate(scales):
        for p in table.primes_upto(int(N))[prev:]:
            acc += member[int(p): int(p) + W]
        prev = table.count(int(N))
        orbit_sums[i] = acc

    discrepancy = int(np.max(np.abs(orbit_sums - signal_sums)))
    counts = [table.count(int(N)) for N in scales]
    return TransferenceResult(
        R=R, L=L, set_size=int(member.sum()), scales=scales, lambda_grid=lam,
        orbit_counts=_superlevel_counts(zip(counts, orbit_sums), lam, W),
        signal_counts=_superlevel_counts(zip(counts, signal_sums), lam, W),
        identity_discrepancy=discrepancy)
