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
B_n^t = m_{2^n} - Pi_n^t) sample each multiplier on one grid, which
realizes the operator on a circle of that circumference: the given
power-of-two resolution (the residue-class and arc-level maxima always
take one), else the next power of two above support + 2^n_max.
_multiplier_sup transforms the signal once, in place, and keeps the running
sup over the grids, each taken as the work buffer of its own step, its
modulus folded in a chunk at a time.  The B-part takes its grids from
multipliers' one remainder route, which builds the window plans before any
grid-sized array, then runs every scale through one grid buffer allocated
once per call and forms nu_n a window at a time; the A/B split takes B
from that route and A from pi_n_t_grid.

weak_type_sweep measures lambda * |{sup_n A_{2^n} 1_F > lambda}| normalized
by log^2(e/lambda) |F| on a lambda grid.  Since A_N 1_F = k/pi(N) with an
integer count k, the counts are computed as integers and compared exactly.
prime_scale_counts adds the primes band by band, (2^(n-1), 2^n] at scale n,
into one int64 accumulator: a band of a few primes as shifted copies of F,
a larger one split into blocks of B >= |F| primes, each block a row of one
batched FFT correlation with F on a 2B-point circle, rounded to integers and
overlap-added.  No transform spans the whole window of the top scale.
weak_norm implements the discrete weak-ell^1 norm max_k k * v_(k) over the
sorted magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import multipliers as mult
from .multipliers import Kernel, prime_kernel
from .ntheory import SIEVE_CAP, DomainError, PrimeTable, _dot, _finite, _integer, _real, _shaped

# --- signals ---


@dataclass
class Signal:
    """A finitely supported function on Z: values[i] = f(offset + i)."""

    offset: int
    values: np.ndarray

    @classmethod
    def delta(cls, at: int = 0) -> "Signal":
        return cls(offset=_integer(at, "at"), values=np.array([1.0]))

    @classmethod
    def interval(cls, start: int, length: int) -> "Signal":
        return cls(offset=_integer(start, "start"),
                   values=np.ones(_integer(length, "length", 0)))

    @classmethod
    def indicator(cls, points: np.ndarray | list) -> "Signal":
        """1_F for the integer points of F (repeats allowed); the empty set
        gives a single zero."""
        pts = np.asarray(points)
        if pts.size == 0:
            return cls(offset=0, values=np.zeros(1))
        pts = np.unique(_integer(pts, "points", points=True)).astype(np.int64)
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
        """f(x) with zero extension outside the stored window, x integer."""
        xi = np.atleast_1d(np.asarray(_integer(x, "x", points=True), dtype=np.int64))
        xi = xi - self.offset
        ok = (xi >= 0) & (xi < len(self.values))
        out = np.zeros(xi.shape, dtype=self.values.dtype)
        out[ok] = self.values[xi[ok]]
        return _shaped(out, x)


def random_signal(rng: np.random.Generator, length: int, complex_values: bool = True,
                  offset: int = 0) -> Signal:
    """A Gaussian signal of the given length, scaled to unit ell^2 norm: divided
    by the square root of the sum of |v|^2 (ntheory._dot).  1 <= length <=
    SIEVE_CAP, the bound on the package's largest array, the sieve; past
    it a CapacityError comes before any draw."""
    length = _integer(length, "length", 1, high=SIEVE_CAP)
    v = rng.standard_normal(length)
    if complex_values:
        v = v + 1j * rng.standard_normal(length)
    return Signal(offset=offset, values=v / np.sqrt(_dot(v, v.conj()).real))


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


def _grid_size(f: Signal, reach: int, resolution: int | None = None) -> int:
    """The circle size: `resolution` if given, which must be a positive power
    of two, else the next power of two above support + reach."""
    if resolution is None:
        return _next_pow2(len(f.values) + reach + 1)
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


def _scale_count(n_max, table: PrimeTable, name: str = "n_max") -> int:
    """n_max as the number of dyadic scales 2^1, ..., 2^n_max: an integer >= 1
    (DomainError), at most log2(table.limit), since the scales need the
    primes up to 2^n_max (CapacityError, before any 1 << n_max).  name is
    the argument's name in either message."""
    return _integer(n_max, name, 1, high=table.limit.bit_length() - 1)


# A band of at most this many primes is added as shifted copies of F: one FFT
# pair on the 2B-point circle costs as much as 55 to 135 such copies (measured
# for |F| = 2^10 to 2^15 on a 2-vCPU x86 VM).  Blocks are at least _MIN_BLOCK
# long, since tiny rows make numpy's batched FFT pay per row (B = 1 ran 2.4x
# slower than B = 2^8 at |F| = 1, n_max 20), and one batched transform holds at
# most _BATCH_POINTS points (and at least one row), which keeps its rows,
# spectra and overlap-add buffer in cache.
_DIRECT_BAND = 64
_MIN_BLOCK = 1 << 8
_BATCH_POINTS = 1 << 16


def prime_scale_counts(F: Signal, n_max: int, table: PrimeTable):
    """Yield (pi(N), counts) for N = 2^n, n = 1..n_max, where counts[i] is
    the exact number of primes p <= N with x + p in F, at x = F.offset - N + i.

    F must be a 0/1 indicator and n_max an integer >= 1, else DomainError;
    weak_type_sweep and ergodic.transference_sample rely on the first check.
    n_max past the table is a CapacityError (_scale_count).

    The primes arrive band by band, (2^(n-1), 2^n] at scale n, and each band
    is added into one int64 accumulator, so scale n yields the counts of the
    bands up to n.  A band of at most _DIRECT_BAND primes adds one shifted copy
    of F per prime; a larger one is correlated with F block by block
    (_add_band), its float counts rounded to integers before they are added.
    """
    n_max = _scale_count(n_max, table)
    ones = F.values == 1
    if not np.all(ones | (F.values == 0)):
        raise DomainError("prime counts need a 0/1 indicator signal")
    L = ones.size
    B = max(_next_pow2(L), _MIN_BLOCK)
    top = 1 << n_max
    counts = np.zeros(top + 2 * B, dtype=np.int64)  # at j = -top - B, ..., B - 1
    zero = top + B  # the index of j = x - F.offset = 0
    primes = table.primes_upto(top)
    fhat = None
    lo = 0
    for n in range(1, n_max + 1):
        hi = int(np.searchsorted(primes, 1 << n, side="right"))
        band = primes[lo:hi]
        if band.size <= _DIRECT_BAND:
            for p in band.tolist():
                counts[zero - p: zero - p + L] += ones
        else:
            if fhat is None:
                fhat = np.fft.rfft(ones, 2 * B)
            _add_band(counts, zero, band, fhat, B)
        lo = hi
        yield hi, counts[zero - (1 << n): zero + L].copy()


def _add_band(counts: np.ndarray, zero: int, band: np.ndarray, fhat: np.ndarray,
              B: int) -> None:
    """counts[zero + j] += #{p in band : F(j + p) = 1}, exactly, for F of
    length at most B with rfft fhat on 2B points.

    The primes p = bB + r (0 <= r < B) of block b form a 0/1 row.  On the
    2B-point circle, which neither F nor a row wraps, irfft(fhat * conj(row
    hat)) holds sum_r F(k + r) at k mod 2B for -B <= k < B: its second half is
    k < 0, its first k >= 0, and that count lands at j = k - bB.  With the
    rows taken from the top block down, row u spans two blocks of B counts
    from start + uB, so consecutive rows overlap by one block; a batch of c
    rows is overlap-added into c + 1 blocks, rounded, and added in int64.  A
    rounding residual of 1/4 or more means roundoff could have changed a
    count, and raises ArithmeticError.
    """
    rev = band[::-1]
    top_block = int(rev[0]) // B
    row = top_block - rev // B  # nondecreasing
    col = rev % B
    start = zero - (top_block + 1) * B
    per = max(1, _BATCH_POINTS // (2 * B))
    m = int(row[-1]) + 1
    for u0 in range(0, m, per):
        c = min(per, m - u0)
        i, k = np.searchsorted(row, [u0, u0 + c])
        rows = np.zeros((c, 2 * B))
        rows[row[i:k] - u0, col[i:k]] = 1.0
        spec = np.fft.rfft(rows, axis=1)
        np.conjugate(spec, out=spec)
        spec *= fhat
        h = np.fft.irfft(spec, 2 * B, axis=1, out=rows)
        seg = np.zeros((c + 1, B))
        seg[:c] = h[:, B:]
        seg[1:] += h[:, :B]
        exact = np.rint(seg)
        if np.max(np.abs(np.subtract(seg, exact, out=seg))) >= 0.25:
            raise ArithmeticError("FFT roundoff too large to round to exact counts")
        out = counts[start + u0 * B: start + (u0 + c + 1) * B]
        np.add(out, exact.ravel(), out=out, casting="unsafe")


def maximal_dyadic(f: Signal, family: str, n_max: int, table: PrimeTable) -> Signal:
    """sup over n = 1..n_max of |op_{2^n} f|, op = A ('averages') or M
    ('weighted'): the exact maximal function on [f.offset - 2^n_max,
    f.support_end), each scale correlated on its own circle.  f must be
    finite; lp_maximal_ratios relies on this check."""
    if family not in ("averages", "weighted"):
        raise DomainError(f"unknown family: {family}")
    n_max = _scale_count(n_max, table)
    _finite(f.values, "signal")
    run = np.zeros((1 << n_max) + len(f.values))
    for _, out in _prime_scales(f, n_max, table, weighted=(family == "weighted")):
        tail = run[run.size - out.size:]
        np.maximum(tail, np.abs(out), out=tail)
    return Signal(offset=f.offset - (1 << n_max), values=run)


# --- multiplier maxima on one realization circle ---


def _circle_size(f: Signal, n_max: int, resolution: int | None) -> int:
    """The size of the circle that realizes the multipliers at scales up to
    2^n_max for f: _grid_size(f, 2^n_max, resolution).  f must be finite and
    nonzero, and one circle shorter than support + reach would wrap the
    kernel.  n_max is at most the last scale a prime table reaches
    (multipliers._SCALE_CAP)."""
    reach = 1 << _integer(n_max, "n_max", 0, high=mult._SCALE_CAP)
    if not np.any(_finite(f.values, "signal")):
        raise DomainError("multiplier maxima need a nonzero signal")
    Z = _grid_size(f, reach, resolution)
    if len(f.values) + reach > Z:
        raise DomainError(f"grid resolution {Z} is below support + kernel reach "
                          f"{len(f.values) + reach}")
    return Z


def _circle(f: Signal, n_max: int, Z: int, dtype=None) -> np.ndarray:
    """f on the circle of Z = _circle_size(f, n_max, ...) points, at index
    2^n_max: the kernel's reach to the left of f.  The dtype is f's kind
    (real or complex) unless given."""
    if dtype is None:
        dtype = np.complex128 if np.iscomplexobj(f.values) else np.float64
    arr = np.zeros(Z, dtype=dtype)
    arr[1 << n_max: (1 << n_max) + len(f.values)] = f.values
    return arr


def _spectrum(arr: np.ndarray):
    """(arr_hat, inverse) on the circle of len(arr); F^{-1}(m * arr_hat) is
    inverse(arr_hat * grid[:arr_hat.size], len(arr)) for a grid sampling m at
    j/len(arr) with the e(+) convention, i.e. circular correlation against the
    kernel of m.  A complex arr is transformed in place, so arr is used up.
    A real arr goes through rfft, which needs a Hermitian grid (m(-xi) =
    conj m(xi), true for all kernels here)."""
    if np.iscomplexobj(arr):
        return np.fft.fft(arr, out=arr), np.fft.ifft
    return np.fft.rfft(arr), np.fft.irfft


def _multiplier_sup(arr: np.ndarray, grids) -> np.ndarray:
    """sup over the grids of |F^{-1}(grid * arr_hat)| on the circle of
    len(arr), arr transformed once (_spectrum, which uses it up); zeros if
    there are no grids.  Each grid is the work buffer of its own step: the
    product, and for a complex arr its inverse transform, are written over
    it, so one buffer may serve every scale.  The modulus is taken and
    folded into the running sup mult._CHUNK points at a time, so a complex
    arr needs no other array the size of the circle than the sup; a real
    one needs one for irfft's output."""
    Z, real_in = arr.size, not np.iscomplexobj(arr)
    fhat, inverse = _spectrum(arr)
    run = np.zeros(Z)
    out = np.empty(Z) if real_in else None
    mag = np.empty(min(Z, mult._CHUNK))
    for grid in grids:
        prod = np.multiply(fhat, grid[: fhat.size], out=grid[: fhat.size])
        y = inverse(prod, Z, out=out if real_in else prod)
        for j in range(0, Z, mag.size):
            np.maximum(run[j:j + mag.size], np.abs(y[j:j + mag.size], out=mag),
                       out=run[j:j + mag.size])
    return run


def _mbeta_multiplier_grid(N: int, beta: float, Z: int) -> np.ndarray:
    if beta == 1.0:
        return np.asarray(mult.fourier_M_beta(N, beta, np.arange(Z, dtype=np.float64) / Z),
                          dtype=np.complex128)
    return mult.fourier_kernel_grid(mult.kernel_M_beta(N, beta), Z)


# --- weak norms, sweeps ---


def weak_norm(g: Signal | np.ndarray) -> float:
    """Discrete weak-ell^1 norm: max over k >= 1 of k * v_k, v sorted descending.

    Equals sup over lam of lam * #{|g| >= lam}.  g must be finite.
    """
    v = np.abs(_finite(g.values if isinstance(g, Signal) else g, "weak_norm values"))
    v = np.sort(v.ravel())[::-1]
    if v.size == 0:
        return 0.0
    return float(np.max(v * np.arange(1, v.size + 1)))


def default_lambda_grid(j_max: int) -> np.ndarray:
    """Geometric lambda grid 2^-1, ..., 2^-j_max (decreasing), for an
    integer j_max >= 1."""
    return 0.5 ** np.arange(1, _integer(j_max, "j_max", 1) + 1)


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
    The lambda grid must be nonempty and lie in (0, 1): weak_type_sweep and
    ergodic.transference_sample rely on this check.

    The level of a point counts at most lam.size lambdas, so it is held in
    the least unsigned type that reaches lam.size (uint8 up to 255 levels),
    and each scale gathers its levels into one reused buffer of that type.
    """
    if lam.size == 0 or not np.all((lam > 0) & (lam < 1)):
        raise DomainError("lambda grid must be nonempty and lie in (0, 1)")
    # level[x] = how many of the smallest lambdas x exceeds at some scale
    ascending = np.sort(lam)
    ratios = [float(l).as_integer_ratio() for l in ascending]
    dtype = np.min_scalar_type(lam.size)
    level = np.zeros(width, dtype=dtype)
    gathered = np.empty(width, dtype=dtype)
    for pi_N, k in scales:
        floors = [num * pi_N // den for num, den in ratios]
        # 0 <= k <= pi_N, so one table over that range replaces a search per x
        exceeded = np.searchsorted(floors, np.arange(pi_N + 1), side="left").astype(dtype)
        tail = level[width - k.size:]
        np.maximum(tail, np.take(exceeded, k, out=gathered[:k.size]), out=tail)
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
    size = float(np.sum(F.values))
    if size == 0:
        raise DomainError("weak_type_sweep needs a nonempty set")
    lam = np.atleast_1d(_real(lambda_grid, "lambda grid", points=True))
    n_max = _scale_count(n_max, table)
    counts = _superlevel_counts(prime_scale_counts(F, n_max, table), lam,
                                (1 << n_max) + len(F.values))
    normalized = lam * counts / (np.log(np.e / lam) ** 2 * size)
    return WeakTypeReport(lambda_grid=lam, counts=counts, normalized=normalized,
                          set_size=size, n_max=n_max)


# --- residue classes, arc decay, A/B split, ell^p ratios ---


def residue_equidistribution(f: Signal, Q: int, r: int, s: int, beta: float,
                             n_max: int, resolution: int) -> dict:
    """Weak norm of sup_{0 <= n <= n_max} |M^beta_{2^n} (eta_s-filtered f)|
    along Qx + r, on the circle of `resolution` points, a power of two at
    least support + 2^n_max.

    Requires Q <= 2^(2s).  Returns the weak norm, the ell^1 norm of the
    filtered signal on the same residue class, and their ratio; the
    equidistribution bound predicts the ratio stays of size ~1/Q uniformly
    in r.
    """
    s = _integer(s, "level s", 0)
    if (_integer(Q, "Q", 1) - 1).bit_length() > 2 * s:  # Q > 4^s, in integers
        raise DomainError("residue sampling needs Q <= 2^(2s)")
    if _integer(r, "r", 1) > Q:
        raise DomainError("residue r must lie in [1, Q]")
    beta = _real(beta, "beta")
    if not 0.5 <= beta <= 1.0:
        raise DomainError("beta must lie in [1/2, 1]")
    Z = _circle_size(f, n_max, resolution)
    fhat, inverse = _spectrum(_circle(f, n_max, Z))
    eta_grid = mult.eta_s(s, mult._circular(np.arange(Z, dtype=np.float64) / Z))
    eta_grid = eta_grid.astype(np.complex128)
    filtered = inverse(fhat * eta_grid[: fhat.size], Z)
    cls = np.mod(f.offset - (1 << n_max) + np.arange(Z) - r, Q) == 0
    l1 = float(np.sum(np.abs(filtered[cls])))
    sup = _multiplier_sup(filtered, (_mbeta_multiplier_grid(1 << n, beta, Z)
                                     for n in range(n_max + 1)))
    weak = weak_norm(sup[cls])
    return {"Q": Q, "r": r, "s": s, "beta": beta,
            "weak_norm": weak, "l1_norm": l1,
            "ratio": weak / l1 if l1 > 0 else math.inf}


def l2_arc_maximal_decay(s: int, f: Signal, n_max: int, resolution: int) -> float:
    """|| sup_{0 <= n <= n_max} |F^{-1}(nu_n^s f_hat)| ||_2 / ||f||_2 on the
    circle of `resolution` points, a power of two at least support + 2^n_max.

    The single-level maximal bound predicts decay ~2^(-s/2) in the level.
    """
    Z = _circle_size(f, n_max, resolution)
    sup = _multiplier_sup(_circle(f, n_max, Z, np.complex128),
                          (mult.nu_n_s_grid(n, s, Z) for n in range(n_max + 1)))
    return math.sqrt(_dot(sup, sup)) / f.lp_norm(2.0)


def ab_split_apply(t: float, n: int, f: Signal,
                   table: PrimeTable) -> tuple[Signal, Signal]:
    """The low/high frequency split of M_{2^n} f at threshold t.

    For n >= t: A = F^{-1}(Pi_n^t f_hat) and B = M_{2^n} f - A, realized on
    one circle, the next power of two above support + 2^n points.  For
    n < t: A = M_{2^n} f and B = 0.  A + B reconstructs M_{2^n} f exactly.
    Needs an integer n >= 1 (2^0 = 1 has no prime), at most log2 of the
    table's limit (_scale_count), and t >= 0.  A is taken from the grid of
    mult.pi_n_t_grid and B from mult._remainder_grids' m_{2^n} - Pi_n^t,
    each turned into its part in place: the bits of the two public grids.
    """
    n = _scale_count(n, table, "n")
    if _real(t, "t") < 0:
        raise DomainError(f"ab_split_apply needs t >= 0, got t = {t}")
    if n < t:
        a = average_primes_weighted(1 << n, f, table)
        return a, Signal(offset=a.offset, values=np.zeros_like(a.values))
    Z = _circle_size(f, n, None)
    a_vals = mult.pi_n_t_grid(n, t, Z)
    b_vals = next(mult._remainder_grids([n], Z, table, mult._levels_for_t(t)))
    fhat, inverse = _spectrum(_circle(f, n, Z, np.complex128))
    for vals in (a_vals, b_vals):  # each multiplier becomes its part, in place
        inverse(np.multiply(fhat, vals, out=vals), Z, out=vals)
    off = f.offset - (1 << n)
    return Signal(offset=off, values=a_vals), Signal(offset=off, values=b_vals)


def b_part_maximal_l2(t: float, f: Signal, n_max: int, table: PrimeTable,
                      resolution: int | None = None) -> float:
    """|| sup_{t <= n <= n_max} |B_n^t f| ||_2 / ||f||_2 on the circle of
    `resolution` points, else of the next power of two above support +
    2^n_max, B_n^t = m_{2^n} - Pi_n^t.  Needs 0 < t <= n_max: the scales run
    from ceil(t), and m_N needs N >= 2.

    The remainder grids come from mult._remainder_grids, which builds the
    window plans of the levels s <= sqrt(t) before anything the size of the
    circle, hands every scale the same buffer and forms nu_n a window at a
    time; f is transformed once, and the sup folds each modulus in a window
    at a time (_multiplier_sup)."""
    if not 0 < _real(t, "t") <= _scale_count(n_max, table):
        raise DomainError(f"b_part_maximal_l2 needs 0 < t <= n_max, got t = {t}")
    Z = _circle_size(f, n_max, resolution)
    grids = mult._remainder_grids(range(math.ceil(t), n_max + 1), Z, table,
                                  mult._levels_for_t(t))
    sup = _multiplier_sup(_circle(f, n_max, Z, np.complex128), grids)
    return math.sqrt(_dot(sup, sup)) / f.lp_norm(2.0)


def lp_maximal_ratios(f: Signal, ps, n_max: int, table: PrimeTable) -> list[float]:
    """|| sup_n |M_{2^n} f| ||_p / ||f||_p for each p in ps, each in (1, 2],
    all taken from one maximal function.  f must be nonzero, and finite, which
    maximal_dyadic checks."""
    ps = np.ravel(_real(ps, "exponents p", points=True)).tolist()
    if not ps or not all(1.0 < p <= 2.0 for p in ps):
        raise DomainError("need at least one p, each in (1, 2]")
    if not np.any(f.values):
        raise DomainError("ell^p ratios need a nonzero signal")
    g = maximal_dyadic(f, "weighted", n_max, table)
    return [float(g.lp_norm(p) / f.lp_norm(p)) for p in ps]


def lp_maximal_ratio(f: Signal, p: float, n_max: int, table: PrimeTable) -> float:
    """|| sup_n |M_{2^n} f| ||_p / ||f||_p for p in (1, 2]."""
    return lp_maximal_ratios(f, [p], n_max, table)[0]
