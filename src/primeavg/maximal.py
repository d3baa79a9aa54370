"""Dyadic maximal operators over prime averages, and their measurements.

Signals are finitely supported functions on the integers, stored as an
offset plus a dense value array.  Averaging operators act by correlation,

    (K f)(x) = sum over sites of K.weights * f(x + site),

so that the Fourier multiplier of K is K_hat(xi) = sum w e(+ xi site),
matching the multipliers module.  The two averaging operators are

    A_N f(x) = (1/pi(N))    * sum over primes p <= N of f(x + p),
    M_N f(x) = (1/theta(N)) * sum over primes p <= N of f(x + p) log p,

and partial summation dominates |A_N f| pointwise by sup_N' |M_N' f|.

maximal_dyadic forms sup over n of |op_{2^n} f| for the two prime averages
('averages', 'weighted').  Each scale 2^n is correlated by FFT on its own
circle, the next power of two at least support + 2^n + 1, which is the
smallest one on which that scale does not wrap (cross-validated against
direct correlation).

The multiplier maxima (the residue-class norms of the eta_s-filtered
M^beta averages, the single arc levels nu_n^s, and the remainders
B_n^t = m_{2^n} - Pi_n^t) sample each multiplier on one grid, the next
power of two at least support + 2^n_max, which realizes the operator on a
circle of that circumference; _multiplier_sup transforms the signal once
and keeps the running sup over the grids.

weak_type_sweep measures lambda * |{sup_n A_{2^n} 1_F > lambda}| normalized
by log^2(e/lambda) |F| on a lambda grid.  Since A_N 1_F = k/pi(N) with an
integer count k, the counts are rounded to integers and compared exactly
(prime_scale_counts).  weak_norm implements the discrete weak-ell^1 norm
max_k k * v_(k) over the sorted magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import multipliers as mult
from .multipliers import Injection, Kernel, prime_kernel
from .ntheory import DomainError, PrimeTable

# --- signals ---


@dataclass
class Signal:
    """A finitely supported function on Z: values[i] = f(offset + i)."""

    offset: int
    values: np.ndarray

    @classmethod
    def delta(cls, at: int = 0) -> "Signal":
        return cls(offset=at, values=np.array([1.0]))

    @classmethod
    def interval(cls, start: int, length: int) -> "Signal":
        return cls(offset=start, values=np.ones(length))

    @classmethod
    def indicator(cls, points: np.ndarray | list) -> "Signal":
        pts = np.asarray(sorted(set(int(p) for p in points)), dtype=np.int64)
        if pts.size == 0:
            return cls(offset=0, values=np.zeros(1))
        vals = np.zeros(int(pts[-1] - pts[0]) + 1)
        vals[pts - pts[0]] = 1.0
        return cls(offset=int(pts[0]), values=vals)

    @property
    def support_end(self) -> int:
        return self.offset + len(self.values)

    def lp_norm(self, p: float) -> float:
        return float(np.sum(np.abs(self.values) ** p) ** (1.0 / p))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def mass(self) -> float:
        return float(np.sum(self.values).real)

    def at(self, x: int | np.ndarray):
        """f(x) with zero extension outside the stored window."""
        xi = np.atleast_1d(np.asarray(x, dtype=np.int64)) - self.offset
        ok = (xi >= 0) & (xi < len(self.values))
        out = np.zeros(xi.shape, dtype=self.values.dtype)
        out[ok] = self.values[xi[ok]]
        return out[0] if np.ndim(x) == 0 else out


def random_signal(rng: np.random.Generator, length: int, complex_values: bool = True,
                  offset: int = 0) -> Signal:
    """A Gaussian signal of the given length, scaled to unit ell^2 norm."""
    v = rng.standard_normal(length)
    if complex_values:
        v = v + 1j * rng.standard_normal(length)
    return Signal(offset=offset, values=v / np.linalg.norm(v))


# --- kernel application: exact direct correlation ---


def apply_kernel(kernel: Kernel, f: Signal) -> Signal:
    """Correlate: out(x) = sum_sites w * f(x + site), by exact summation.

    Output support is [f.offset - max_site, f.offset + len - 1].  This is
    the oracle that the FFT correlation of the dyadic maximal functions
    (_prime_scales) is checked against.
    """
    if kernel.sites.size == 0:
        return Signal(offset=f.offset, values=np.zeros_like(f.values))
    smax = kernel.max_site
    dense = np.zeros(smax + 1)
    dense[kernel.sites] = kernel.weights
    return Signal(offset=f.offset - smax,
                  values=np.convolve(f.values, dense[::-1], mode="full"))


def average_primes(N: int, f: Signal, table: PrimeTable) -> Signal:
    """A_N f: the unweighted prime average, weights 1/pi(N)."""
    return apply_kernel(prime_kernel(N, table, weighted=False), f)


def average_primes_weighted(N: int, f: Signal, table: PrimeTable) -> Signal:
    """M_N f: the log-weighted prime average, weights log p / theta(N)."""
    return apply_kernel(prime_kernel(N, table, weighted=True), f)


def prime_average_all_scales(f: Signal, N_max: int, table: PrimeTable,
                             weighted: bool) -> tuple[int, np.ndarray, np.ndarray]:
    """All scales N in [2, N_max] at once, via cumulative sums over the primes.

    Returns (offset, Ns, matrix): row k of the matrix is op_{N} f on the
    common window for N = Ns[k]; between consecutive primes the operator is
    constant, so Ns lists one N per prime count.  Exact direct summation.
    """
    p = table.primes_upto(N_max)
    if p.size == 0:
        raise DomainError("N_max below the first prime")
    L = len(f.values) + int(p[-1])
    acc = np.zeros(L, dtype=np.result_type(f.values, np.float64))
    rows = np.zeros((p.size, L), dtype=acc.dtype)
    w = np.log(p.astype(np.float64)) if weighted else np.ones(p.size)
    norm = np.cumsum(w)
    for k, (pk, wk) in enumerate(zip(p, w)):
        sl = acc[int(p[-1]) - int(pk): int(p[-1]) - int(pk) + len(f.values)]
        sl += wk * f.values
        rows[k] = acc / norm[k]
    return f.offset - int(p[-1]), p.astype(np.int64), rows


# --- dyadic maximal functions ---


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _grid_size(f: Signal, reach: int, floor: int = 0, resolution: int | None = None) -> int:
    """The circle size: `resolution` if given, which must be a positive power
    of two, else the next power of two above support + reach, at least floor."""
    if resolution is None:
        return max(_next_pow2(len(f.values) + reach + 1), floor)
    return mult._check_resolution(resolution)


def _prime_scales(f: Signal, n_max: int, table: PrimeTable, weighted: bool):
    """Yield (kernel, out) for N = 2^n, n = 1..n_max: out[i] = (op_N f)(x) at
    x = f.offset - N + i, over [f.offset - N, f.support_end).

    Scale n is correlated on its own circle Z_n = next_pow2(len f + N + 1),
    the smallest one on which the correlation does not wrap.  f sits at index
    0, so the outputs left of f.offset land at the top of the circle.  Z_n
    never decreases in n, so only the current circle's transform of f is kept.
    """
    real_in = not np.iscomplexobj(f.values)
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real_in else (np.fft.fft, np.fft.ifft)
    L = len(f.values)
    Z = 0
    for n in range(1, n_max + 1):
        N = 1 << n
        k = prime_kernel(N, table, weighted)
        if _grid_size(f, N) != Z:
            Z = _grid_size(f, N)
            fhat = fft(f.values, Z)
        dense = np.zeros(k.max_site + 1)
        dense[k.sites] = k.weights
        out = ifft(fhat * np.conj(fft(dense, Z)), Z)
        yield k, np.concatenate((out[Z - N:], out[:L]))


def prime_scale_counts(F: Signal, n_max: int, table: PrimeTable):
    """Yield (pi(N), counts) for N = 2^n, n = 1..n_max, where counts[i] is
    the exact number of primes p <= N with x + p in F, at x = F.offset - N + i.

    F must be a 0/1 indicator.  The FFT correlation pi(N) * A_N 1_F is rounded
    to int64; a rounding residual of 1/4 or more means roundoff could have
    changed a count, and raises ArithmeticError.
    """
    for k, out in _prime_scales(F, n_max, table, weighted=False):
        scaled = out * k.sites.size
        counts = np.rint(scaled)
        if np.max(np.abs(scaled - counts)) >= 0.25:
            raise ArithmeticError("FFT roundoff too large to round to exact counts")
        yield k.sites.size, counts.astype(np.int64)


def maximal_dyadic(f: Signal, family: str, n_max: int,
                   table: PrimeTable | None = None) -> Signal:
    """sup over n = 1..n_max of |op_{2^n} f|, op = A ('averages') or M
    ('weighted'): the exact maximal function on [f.offset - 2^n_max,
    f.support_end), each scale correlated on its own circle."""
    if family not in ("averages", "weighted"):
        raise DomainError(f"unknown family: {family}")
    if table is None:
        raise DomainError("prime averaging families need a sieve table")
    if n_max < 1:
        raise DomainError("prime averaging families need n_max >= 1")
    run = np.zeros((1 << n_max) + len(f.values))
    for _, out in _prime_scales(f, n_max, table, weighted=(family == "weighted")):
        tail = run[run.size - out.size:]
        np.maximum(tail, np.abs(out), out=tail)
    return Signal(offset=f.offset - (1 << n_max), values=run)


# --- multiplier maxima on one realization circle ---


def _circle(f: Signal, n_max: int, resolution: int | None,
            floor: int = 0) -> np.ndarray:
    """f on the circle that realizes the multipliers at scales up to 2^n_max,
    at index 2^n_max: the kernel's reach to the left of f.  The circle is
    `resolution` points, or _grid_size's default with the given floor; one
    shorter than support + reach would wrap the kernel."""
    if not isinstance(n_max, (int, np.integer)) or n_max < 0:
        raise DomainError("n_max must be an integer >= 0")
    if not (f.values.size and np.all(np.isfinite(f.values)) and np.any(f.values)):
        raise DomainError("multiplier maxima need a finite, nonzero signal")
    reach = 1 << n_max
    Z = _grid_size(f, reach, floor, resolution)
    if len(f.values) + reach > Z:
        raise DomainError(f"grid resolution {Z} is below support + kernel reach "
                          f"{len(f.values) + reach}")
    arr = np.zeros(Z, dtype=np.complex128 if np.iscomplexobj(f.values) else np.float64)
    arr[reach: reach + len(f.values)] = f.values
    return arr


def _spectrum(arr: np.ndarray):
    """(arr_hat, inverse) on the circle of len(arr); F^{-1}(m * arr_hat) is
    inverse(arr_hat * grid[:arr_hat.size], len(arr)) for a grid sampling m at
    j/len(arr) with the e(+) convention, i.e. circular correlation against the
    kernel of m.  A real arr goes through rfft, which needs a Hermitian grid
    (m(-xi) = conj m(xi), true for all kernels here)."""
    if np.iscomplexobj(arr):
        return np.fft.fft(arr), np.fft.ifft
    return np.fft.rfft(arr), np.fft.irfft


def _multiplier_sup(arr: np.ndarray, grids) -> np.ndarray:
    """sup over the grids of |F^{-1}(grid * arr_hat)| on the circle of
    len(arr), arr transformed once; zeros if there are no grids."""
    fhat, inverse = _spectrum(arr)
    run = np.zeros(arr.size)
    for grid in grids:
        np.maximum(run, np.abs(inverse(fhat * grid[: fhat.size], arr.size)), out=run)
    return run


def _signed_frequencies(Z: int) -> np.ndarray:
    """j/Z reduced to [-1/2, 1/2) in FFT index order."""
    j = np.arange(Z, dtype=np.float64) / Z
    return (j + 0.5) % 1.0 - 0.5


def _mbeta_multiplier_grid(N: int, beta: float, Z: int) -> np.ndarray:
    if beta == 1.0:
        return np.asarray(mult.fourier_M_beta(N, beta, np.arange(Z, dtype=np.float64) / Z),
                          dtype=np.complex128)
    return mult.fourier_kernel_grid(mult.kernel_M_beta(N, beta), Z)


# --- weak norms, sweeps ---


def weak_norm(g: Signal | np.ndarray) -> float:
    """Discrete weak-ell^1 norm: max over k >= 1 of k * v_k, v sorted descending.

    Equals sup over lam of lam * #{|g| >= lam}.
    """
    v = np.abs(g.values if isinstance(g, Signal) else np.asarray(g))
    v = np.sort(v.ravel())[::-1]
    if v.size == 0:
        return 0.0
    return float(np.max(v * np.arange(1, v.size + 1)))


def default_lambda_grid(j_max: int = 10) -> np.ndarray:
    """Geometric lambda grid 2^-1, ..., 2^-j_max (decreasing)."""
    return 0.5 ** np.arange(1, j_max + 1)


@dataclass(frozen=True)
class WeakTypeReport:
    """Superlevel counts of sup_n A_{2^n} 1_F on a lambda grid.

    normalized[i] = lambda_i * counts[i] / (log^2(e/lambda_i) * |F|); the
    weak-type L log^2 L bound predicts these stay bounded.
    """

    lambda_grid: np.ndarray
    counts: np.ndarray
    normalized: np.ndarray
    set_size: float
    n_max: int

    @property
    def max_normalized(self) -> float:
        return float(np.max(self.normalized))


def _superlevel_counts(scales, lam: np.ndarray, width: int) -> np.ndarray:
    """|{x : k_N(x) / pi_N > lambda for some N}| for each lambda, exactly.

    scales yields (pi_N, k_N) with integer counts k_N over the last k_N.size
    of `width` points.  k / pi_N > lambda iff k > floor(lambda * pi_N), and
    every float lambda is a ratio of integers, so that floor is exact too.
    """
    # level[x] = how many of the smallest lambdas x exceeds at some scale
    ascending = np.sort(lam)
    ratios = [float(l).as_integer_ratio() for l in ascending]
    level = np.zeros(width, dtype=np.int64)
    for pi_N, k in scales:
        floors = [num * pi_N // den for num, den in ratios]
        # 0 <= k <= pi_N, so one table over that range replaces a search per x
        exceeded = np.searchsorted(floors, np.arange(pi_N + 1), side="left")
        tail = level[width - k.size:]
        np.maximum(tail, exceeded[k], out=tail)
    above = np.bincount(level, minlength=lam.size + 1)[::-1].cumsum()[::-1]
    return above[1 + np.searchsorted(ascending, lam)]


def weak_type_sweep(F: Signal, lambda_grid: np.ndarray, n_max: int,
                    table: PrimeTable) -> WeakTypeReport:
    """Counts |{sup_{n <= n_max} A_{2^n} 1_F > lambda}| over the lambda grid.

    F must be a 0/1 indicator signal and n_max >= 1.  The counts are exact:
    A_{2^n} 1_F(x) = k_n(x) / pi(2^n) with integer k_n (prime_scale_counts),
    compared with lambda in integers (_superlevel_counts).
    Counts are nonincreasing in lambda and zero for lambda >= 1.
    """
    vals = np.asarray(F.values)
    if not np.all((vals == 0) | (vals == 1)):
        raise DomainError("weak_type_sweep expects a 0/1 indicator signal")
    size = float(vals.sum())
    if size == 0:
        raise DomainError("weak_type_sweep needs a nonempty set")
    lam = np.asarray(lambda_grid, dtype=np.float64)
    if lam.size == 0 or not np.all((lam > 0) & (lam < 1)):
        raise DomainError("lambda grid must be nonempty and lie in (0, 1)")
    if n_max < 1:
        raise DomainError("weak_type_sweep needs n_max >= 1")
    counts = _superlevel_counts(prime_scale_counts(F, n_max, table), lam,
                                (1 << n_max) + len(vals))
    normalized = lam * counts / (np.log(np.e / lam) ** 2 * size)
    return WeakTypeReport(lambda_grid=lam, counts=counts, normalized=normalized,
                          set_size=size, n_max=n_max)


# --- residue classes, arc decay, A/B split, ell^p ratios ---


def residue_equidistribution(f: Signal, Q: int, r: int, s: int, beta: float,
                             n_max: int, resolution: int | None = None) -> dict:
    """Weak norm of sup_{0 <= n <= n_max} |M^beta_{2^n} (eta_s-filtered f)|
    along Qx + r, on the realization circle (at least 2^14 points).

    Requires Q <= 2^(2s).  Returns the weak norm, the ell^1 norm of the
    filtered signal on the same residue class, and their ratio; the
    equidistribution bound predicts the ratio stays of size ~1/Q uniformly
    in r.
    """
    if Q < 1 or Q > 4 ** s:
        raise DomainError("residue sampling needs 1 <= Q <= 2^(2s)")
    if not 1 <= r <= Q:
        raise DomainError("residue r must lie in [1, Q]")
    arr = _circle(f, n_max, resolution, floor=1 << 14)
    Z = arr.size
    fhat, inverse = _spectrum(arr)
    eta_grid = mult.eta_s(s, _signed_frequencies(Z)).astype(np.complex128)
    filtered = inverse(fhat * eta_grid[: fhat.size], Z)
    sup = _multiplier_sup(filtered, (_mbeta_multiplier_grid(1 << n, beta, Z)
                                     for n in range(n_max + 1)))
    cls = np.mod(f.offset - (1 << n_max) + np.arange(Z) - r, Q) == 0
    weak = weak_norm(sup[cls])
    l1 = float(np.sum(np.abs(filtered[cls])))
    return {"Q": Q, "r": r, "s": s, "beta": beta,
            "weak_norm": weak, "l1_norm": l1,
            "ratio": weak / l1 if l1 > 0 else math.inf}


def l2_arc_maximal_decay(s: int, f: Signal, n_max: int,
                         resolution: int | None = None,
                         injection: Injection | None = None) -> float:
    """|| sup_{0 <= n <= n_max} |F^{-1}(nu_n^s f_hat)| ||_2 / ||f||_2 on the
    realization circle (at least 2^14 points).

    The single-level maximal bound predicts decay ~2^(-s/2) in the level.
    """
    arr = _circle(f, n_max, resolution, floor=1 << 14).astype(np.complex128)
    sup = _multiplier_sup(arr, (mult.nu_n_s_grid(n, s, arr.size, injection)
                                for n in range(n_max + 1)))
    return float(np.linalg.norm(sup) / f.lp_norm(2.0))


def ab_split_apply(t: float, n: int, f: Signal, table: PrimeTable,
                   injection: Injection | None = None,
                   resolution: int | None = None) -> tuple[Signal, Signal]:
    """The low/high frequency split of M_{2^n} f at threshold t.

    For n >= t: A = F^{-1}(Pi_n^t f_hat) and B = M_{2^n} f - A, realized on a
    common grid.  For n < t: A = M_{2^n} f and B = 0.  A + B reconstructs
    M_{2^n} f exactly.
    """
    if n < 0 or not t >= 0:
        raise DomainError("ab_split_apply needs n >= 0 and t >= 0")
    if n < t:
        a = average_primes_weighted(1 << n, f, table)
        return a, Signal(offset=a.offset, values=np.zeros_like(a.values))
    N = 1 << n
    arr = _circle(f, n, resolution).astype(np.complex128)
    Z = arr.size
    fhat = np.fft.fft(arr)
    pi_grid = mult.pi_n_t_grid(n, t, Z, injection)
    m_grid = mult.prime_multiplier_grid(N, Z, table)
    a_vals = np.fft.ifft(fhat * pi_grid)
    b_vals = np.fft.ifft(fhat * (m_grid - pi_grid))
    off = f.offset - N
    return Signal(offset=off, values=a_vals), Signal(offset=off, values=b_vals)


def b_part_maximal_l2(t: float, f: Signal, n_max: int, table: PrimeTable,
                      injection: Injection | None = None,
                      resolution: int | None = None) -> float:
    """|| sup_{t <= n <= n_max} |B_n^t f| ||_2 / ||f||_2 on the realization
    circle, B_n^t = m_{2^n} - Pi_n^t."""
    if not 0 <= t <= n_max:
        raise DomainError("b_part_maximal_l2 needs 0 <= t <= n_max")
    arr = _circle(f, n_max, resolution).astype(np.complex128)

    def remainders():
        for n in range(math.ceil(t), n_max + 1):
            pi_grid = mult.pi_n_t_grid(n, t, arr.size, injection)
            yield mult.prime_multiplier_grid(1 << n, arr.size, table) - pi_grid

    return float(np.linalg.norm(_multiplier_sup(arr, remainders())) / f.lp_norm(2.0))


def lp_maximal_ratios(f: Signal, ps, n_max: int, table: PrimeTable) -> list[float]:
    """|| sup_n |M_{2^n} f| ||_p / ||f||_p for each p in ps, each in (1, 2],
    all taken from one maximal function.  f must be nonzero."""
    if not ps or not all(1.0 < p <= 2.0 for p in ps):
        raise DomainError("need at least one p, each in (1, 2]")
    if not np.any(f.values):
        raise DomainError("ell^p ratios need a nonzero signal")
    g = maximal_dyadic(f, "weighted", n_max, table)
    return [float(g.lp_norm(p) / f.lp_norm(p)) for p in ps]


def lp_maximal_ratio(f: Signal, p: float, n_max: int, table: PrimeTable) -> float:
    """|| sup_n |M_{2^n} f| ||_p / ||f||_p for p in (1, 2]."""
    return lp_maximal_ratios(f, [p], n_max, table)[0]
