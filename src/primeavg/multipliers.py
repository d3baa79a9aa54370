"""Major-arc approximating multipliers for prime averages.

The exponential sum attached to the log-weighted prime average is

    m_N(xi) = (1/theta(N)) * sum over primes p <= N of e(xi p) log p,

with e(x) = exp(2 pi i x).  Near a reduced rational a/q it is modelled by

    L_hat[a,q; N](theta) = G(1_q, a) M_hat_N(theta)
                           - G(chi_q, a) M_hat^beta_N(theta)   (exceptional case)

where M^beta_N is the Cesaro-type kernel with weights
(n^beta - (n-1)^beta)/(beta N) on sites 1..N.  By the Landau-Page theorem
at most one real character has a zero this close to 1, so the model takes
at most one exceptional pair (chi, beta), supplied by the caller
(synthetically, unless a scan ever finds one), with chi real and
non-principal and beta in [1/2, 1); its term sits on the arcs a/q whose q
is the modulus of chi (at least 3).

The glued approximant at dyadic scale N = 2^n is

    nu_n(xi)   = sum over levels s of nu_n_s(xi),
    nu_n_s(xi) = sum over arcs a/q at level s of
                 L_hat[a,q; 2^n](xi - a/q) * eta_s(xi - a/q),

where level s collects the reduced fractions with 2^s <= q < 2^(s+1) whose
denominator is square-free or 4 times a square-free number, and
eta_s(xi) = eta(2^(4s) xi) for a fixed smooth plateau cutoff eta (1 on
[-1/4, 1/4], 0 outside (-1/2, 1/2)).  The eta_s supports of distinct arcs at
one level are disjoint.  Pi_n_t truncates the sum at levels s <= sqrt(t).

eta is read on its transition band from a piecewise Chebyshev table, built
once from a Gauss-Legendre rule for the convolution integral; that rule
stays as the table's oracle.

Grid evaluation samples xi = j/G on a power-of-two grid; a grid of any
other size is a DomainError.  The windows of a level's arcs on the supports
of eta_s form one flat plan, cached per (s, G), in the order of a/q and so
of grid index.  A level is added by one window routine (_add_level), a
vectorized pass over the plan's points in a run of grid points and its
mirror image, which the public grids call once over the whole circle; no
sampled grid is memoized.  The principal term is the closed form M_hat_N,
in real arithmetic, from one kernel that fourier_M_beta shares.  Its factor
1/sin(pi theta) does not depend on the scale, so the plan holds it and a
level pass scales it by 2^-n = 1/N, which is exact; every scale reuses the
plan's trigonometry.  Level 0, the one arc 1/1, covers the whole circle;
on a power-of-two grid theta = j/G - 1 is exact, so its window is exactly
antisymmetric about theta = 0 and its plan holds the centre and the right
half only, at grid indices 0..h: no index array and no G(1_1, 1) = 1
factor.  M_hat_N is evaluated on theta >= 0, the left half is filled by
M_hat_N(-theta) = conj(M_hat_N(theta)) times eta reversed, and each half
of a window is added into the grid as one slice.  A level pass gives the
same bits as fourier_M_beta evaluated on every window point.  m_N on a grid goes through
one unnormalized inverse FFT of the folded log p weights, in place, into a
buffer the caller may pass.  Every remainder m_{2^n} - nu_n takes one
route (_remainder_grids): the window plans of its levels are built first,
then every scale reuses one such buffer, from which nu_n is subtracted a
window at a time, with the bits of the two public grids subtracted.
On an exceptional arc window, M_hat^beta_N comes from one FFT of the
weights modulated by e(-n a/q) and folded mod G; the direct sum of
fourier_M_beta is its oracle and the route for arbitrary theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gauss
from .characters import DirichletCharacter
from .ntheory import (FACTOR_CAP, SIEVE_CAP, DomainError, PrimeTable, _dot, _gl_rule,
                      _integer, _real, _shaped, is_squarefree)

DEFAULT_S_MAX = 6
# the last scale index n: nu_n models m_{2^n}, which needs the primes up to
# 2^n, and no prime table reaches past SIEVE_CAP
_SCALE_CAP = SIEVE_CAP.bit_length() - 1
# Points per window of the remainder route (a run of _CHUNK / 2 grid points
# and its mirror image, so that level 0 evaluates its closed form once for
# both) and per chunk of a modulus folded into a max: their temporaries stay
# a few hundred kilobytes at any resolution.
_CHUNK = 1 << 15

# --- kernels ---


@dataclass(frozen=True)
class Kernel:
    """A finitely supported weight sequence: sites (ascending) and weights."""

    sites: np.ndarray
    weights: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def max_site(self) -> int:
        return int(self.sites[-1]) if self.sites.size else 0


def kernel_M_beta(N: int, beta: float) -> Kernel:
    """M^beta_N: weights (n^beta - (n-1)^beta)/(beta N) on sites 1..N.

    beta lies in [1/2, 1]; beta = 1 gives the plain Cesaro average.  N = 0
    yields the empty kernel.  Every weight is <= 1/N and the total mass is
    N^(beta-1)/beta.  N is at most 2^_SCALE_CAP, the last scale a prime
    table reaches; past it a CapacityError comes before any weight.
    """
    if not 0.5 <= _real(beta, "beta") <= 1.0:
        raise DomainError("beta must lie in [1/2, 1]")
    N = _integer(N, "N", 0, high=1 << _SCALE_CAP)
    if N == 0:
        return Kernel(sites=np.empty(0, dtype=np.int64), weights=np.empty(0))
    n = np.arange(1, N + 1, dtype=np.float64)
    w = (n ** beta - (n - 1) ** beta) / (beta * N)
    return Kernel(sites=np.arange(1, N + 1, dtype=np.int64), weights=w)


def kernel_delta(n: int) -> Kernel:
    """The point mass at the integer site 0 <= n <= 2^_SCALE_CAP: sites are
    not negative (apply_kernel), and a kernel reaches no further than the
    last scale a prime table reaches (as kernel_M_beta's N); past it a
    CapacityError comes before the int64 site array."""
    return Kernel(sites=np.array([_integer(n, "site n", 0, high=1 << _SCALE_CAP)],
                                 dtype=np.int64),
                  weights=np.array([1.0]))


def prime_kernel(N: int, table: PrimeTable, weighted: bool) -> Kernel:
    """Averaging kernel over primes <= N: log p / theta(N), or 1/pi(N), for
    an integer N >= 2."""
    N = _integer(N, "N", 2)
    p = table.primes_upto(N)  # a read-only view into the sieve memo
    if weighted:
        w = np.log(p.astype(np.float64)) / table.theta(N)
    else:
        w = np.full(p.size, 1.0 / p.size)
    return Kernel(sites=p, weights=w)


def fourier_kernel(kernel: Kernel, xi: float | np.ndarray) -> np.ndarray | complex:
    """K_hat(xi) = sum of w(site) e(xi site), matching the e(+) convention of m_N.

    A non-finite xi is a DomainError."""
    xv = np.atleast_1d(_real(xi, "xi", points=True))
    out = np.zeros(xv.shape, dtype=np.complex128)
    # chunk the sites to bound the outer-product workspace
    step = max(1, (1 << 22) // max(xv.size, 1))
    for lo in range(0, kernel.sites.size, step):
        s = kernel.sites[lo:lo + step].astype(np.float64)
        w = kernel.weights[lo:lo + step]
        out += (w[None, :] * np.exp(2j * np.pi * np.outer(xv, s))).sum(axis=1)
    return _shaped(out, xi)


def _check_resolution(resolution: int) -> int:
    """resolution, if it is a positive power-of-two integer; else DomainError."""
    resolution = _integer(resolution, "grid resolution", 1)
    if resolution & (resolution - 1):
        raise DomainError("grid resolution must be a positive power of two")
    return resolution


def _folded_transform(sites: np.ndarray, weights: np.ndarray, resolution: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """sum over sites of w e(+j site/G) for j = 0..G-1: one unnormalized inverse
    FFT of the weights folded mod G.  The fold adds each part of the weights
    into a zeroed complex array in site order, and the transform runs in place
    on it; `out`, a complex array of G points, is that array when given."""
    if out is None:
        out = np.zeros(resolution, dtype=np.complex128)
    else:
        out.fill(0.0)
    idx = (sites % resolution).astype(np.int64)
    np.add.at(out.real, idx, weights.real)
    if np.iscomplexobj(weights):
        np.add.at(out.imag, idx, weights.imag)
    return np.fft.ifft(out, norm="forward", out=out)


def fourier_kernel_grid(kernel: Kernel, resolution: int) -> np.ndarray:
    """K_hat sampled on j/resolution via one FFT of the folded weights."""
    return _folded_transform(kernel.sites, kernel.weights, _check_resolution(resolution))


def _mhat_closed(N: int, d: np.ndarray, r: np.ndarray, out: np.ndarray) -> None:
    """The closed form of M_hat_N at reduced frequencies d, given
    r = 1 / (N sin(pi d)) (or 0 where d = 0): out.real = cos(y) s1 r and
    out.imag = sin(y) s1 r, y = pi d (N+1), s1 = sin(pi N d), each product
    taken left to right.  fourier_M_beta and _add_level share it, so the two
    give the same bits wherever their r agree."""
    y = np.pi * d * (N + 1)
    s1 = np.sin(np.pi * N * d)
    np.multiply(np.cos(y), s1, out=out.real)
    out.real *= r
    np.sin(y, out=y)
    np.multiply(y, s1, out=out.imag)
    out.imag *= r


def fourier_M_beta(N: int, beta: float, theta: float | np.ndarray):
    """M_hat^beta_N(theta) for an integer N >= 0 at finite theta.

    For beta = 1 the closed geometric form
    e((N+1) d/2) sin(pi N d) / (N sin(pi d)), d = theta - round(theta), in
    real arithmetic (_mhat_closed): the real and imaginary parts are cos(y)
    and sin(y), y = pi d (N+1), times sin(pi N d), times 1 / (N sin(pi d)),
    and 1 at d = 0.  These are the bits numpy gives for the complex form
    exp(i y) * sin(pi N d) / (N sin(pi d)), and M_hat_N(-theta) is exactly
    conj(M_hat_N(theta)), which _add_level's mirrored level-0 pass relies
    on.  Otherwise the direct sum over the N weights of kernel_M_beta, O(N)
    per point.  The direct sum is the oracle for the folded-FFT route that
    nu_n_s_grid takes on exceptional arc windows.  N is at most
    2^_SCALE_CAP, as in kernel_M_beta (CapacityError).
    """
    N, beta = _integer(N, "N", 0, high=1 << _SCALE_CAP), _real(beta, "beta")
    tv = np.atleast_1d(_real(theta, "theta", points=True))
    if N == 0:
        out = np.zeros(tv.shape, dtype=np.complex128)
    elif beta == 1.0:
        d = tv - np.round(tv)
        zero = d == 0.0
        out = np.empty(tv.shape, dtype=np.complex128)
        r = np.divide(1.0, N * np.sin(np.pi * d), out=np.zeros(d.shape), where=~zero)
        _mhat_closed(N, d, r, out)
        out[zero] = 1.0
    else:
        out = fourier_kernel(kernel_M_beta(N, beta), tv)
    return _shaped(out, theta)


def prime_multiplier(N: int, xi: float | np.ndarray, table: PrimeTable):
    """m_N(xi) = (1/theta(N)) sum_{p <= N} e(xi p) log p, summed directly,
    for an integer N >= 2."""
    return fourier_kernel(prime_kernel(N, table, weighted=True), xi)


def prime_multiplier_grid(N: int, resolution: int, table: PrimeTable) -> np.ndarray:
    """m_N sampled at j/resolution through one FFT of the folded log weights,
    for an integer N >= 2."""
    return fourier_kernel_grid(prime_kernel(N, table, weighted=True), resolution)


# --- the smooth plateau cutoff ---

_BUMP_PANELS = 4
_ETA_TABLE_PANELS, _ETA_TABLE_DEGREE = 64, 16


def _bump_raw(u: np.ndarray) -> np.ndarray:
    """Unnormalized C-infinity bump supported on [-1/8, 1/8]."""
    v = 8.0 * u
    out = np.zeros_like(v)
    inside = np.abs(v) < 1.0
    vi = v[inside]
    out[inside] = np.exp(-1.0 / (1.0 - vi * vi))
    return out


@lru_cache(maxsize=1)
def _bump_norm() -> float:
    total = 0.0
    nodes, weights = _gl_rule()
    edges = np.linspace(-0.125, 0.125, 17)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * float(_dot(_bump_raw(mid + half * nodes), weights))
    return total


def _bump_integral(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of the normalized bump over [lo, hi] (cached fixed-order rule)."""
    out = np.zeros(lo.shape)
    width = hi - lo
    pos = np.flatnonzero(width > 0)
    norm = _bump_norm()
    gl_nodes, gl_weights = _gl_rule()
    for start in range(0, pos.size, 1 << 16):
        sel = pos[start:start + (1 << 16)]
        lo_p, w_p = lo[sel], width[sel]
        acc = np.zeros(lo_p.shape)
        for p in range(_BUMP_PANELS):
            a = lo_p + w_p * (p / _BUMP_PANELS)
            half = w_p / (2 * _BUMP_PANELS)
            mid = a + half
            nodes = mid[:, None] + half[:, None] * gl_nodes[None, :]
            acc += half * _dot(_bump_raw(nodes), gl_weights)
        out[sel] = acc / norm
    return out


@lru_cache(maxsize=1)
def _eta_table() -> np.ndarray:
    """Chebyshev coefficients of eta on the transition band (1/4, 1/2).

    Column k interpolates eta at the n = 17 first-kind Chebyshev points
    t_j = cos(theta_j) of the k-th of 64 equal panels, in the panel's local
    variable t in [-1, 1].  The node values f_j come from the quadrature
    (_bump_integral), which stays the table's oracle; the two agree to about
    2e-15.  The coefficients are the interpolation sums
    c_i = (2/n) sum_j f_j T_i(t_j), c_0 halved, each one _dot (no
    least-squares solve, whose bits depend on the LAPACK kernel), with
    T_i(t_j) = cos(i theta_j) from its angle reduced in integers, each to
    within an ulp.  Built on the first call.
    """
    n = _ETA_TABLE_DEGREE + 1
    t = np.polynomial.chebyshev.chebpts1(n)  # ascending: theta_j = pi (2n - 2j - 1) / 2n
    width = 0.25 / _ETA_TABLE_PANELS
    x = 0.25 + width * (np.arange(_ETA_TABLE_PANELS)[:, None] + 0.5 * (t + 1.0))
    vals = _bump_integral(x.ravel() - 0.375, np.full(x.size, 0.125)).reshape(x.shape)
    turns = np.arange(n)[:, None] * (2 * n - 1 - 2 * np.arange(n)) % (4 * n)
    coef = (2.0 / n) * _dot(np.cos(np.pi / (2 * n) * turns)[:, None], vals)
    coef[0] /= 2
    return coef


def eta(xi: float | np.ndarray):
    """Smooth plateau cutoff: 1 on |xi| <= 1/4, 0 on |xi| >= 1/2, else in [0, 1].

    Realized as the indicator of [-3/8, 3/8] convolved with a normalized
    C-infinity bump supported on [-1/8, 1/8].  On the transition band the
    convolution integral is read from a piecewise Chebyshev table built once
    from a fixed-order Gauss-Legendre rule (_bump_integral), which is the
    table's oracle.  eta is even and exactly 0/1 off the transition bands.
    The clipped table reads exactly 1 or 0 at some band points near |xi| =
    1/4 or 1/2, within its 2e-15 error.  A non-finite xi is a DomainError.
    """
    xv = np.atleast_1d(_real(xi, "xi", points=True))
    a = np.abs(xv)
    out = np.zeros(a.shape)
    out[a <= 0.25] = 1.0
    band = (a > 0.25) & (a < 0.5)
    if band.any():
        u = (a[band] - 0.25) * (4 * _ETA_TABLE_PANELS)  # panel units, exact
        k = np.minimum(u.astype(np.int64), _ETA_TABLE_PANELS - 1)
        vals = np.polynomial.chebyshev.chebval(2.0 * (u - k) - 1.0, _eta_table()[:, k],
                                               tensor=False)
        # the interpolant can leave [0, 1] by an ulp; eta is exactly in [0, 1]
        out[band] = np.clip(vals, 0.0, 1.0)
    return _shaped(out, xi)


def eta_s(s: int, xi: float | np.ndarray):
    """eta_s(xi) = eta(2^(4s) xi): support shrinks to |xi| < 2^(-4s-1).

    |xi| is capped at 1 before scaling and the result at 1 after (eta is 0
    there), and the exponent at 2100, so no xi or s overflows; eta_s is
    [xi = 0] for s >= 269.  A non-finite xi is a DomainError."""
    s = _integer(s, "level s", 0)
    xv = _real(xi, "xi", points=True)
    with np.errstate(over="ignore"):
        scaled = np.ldexp(np.minimum(np.abs(xv), 1.0), min(4 * s, 2100))
    return eta(np.minimum(scaled, 1.0))


def eta_support_radius(s: int) -> float:
    """2^(-4s-1), the half-width of the eta_s support, for an integer level s >= 0."""
    return 0.5 * 2.0 ** (-4 * _integer(s, "level s", 0))


# --- arcs and approximants ---


@dataclass(frozen=True)
class RationalPoint:
    """A reduced rational a/q in (0, 1], tagged with its level s."""

    a: int
    q: int
    s: int

    @property
    def value(self) -> float:
        return self.a / self.q


def arc_admissible(q: int) -> bool:
    """Denominators kept by the arc family: square-free, or 4 * square-free."""
    return is_squarefree(q) or (q % 4 == 0 and is_squarefree(q // 4))


@lru_cache(maxsize=64, typed=True)
def enumerate_arcs(s: int) -> tuple[RationalPoint, ...]:
    """Level-s arcs: reduced a/q with 2^s <= q < 2^(s+1) and admissible q.

    Level 0 is the single point 1/1.  The count is below 2^(2(s+1)).
    Memoized per value and argument type, so the check below runs before
    an entry is shared.  s is at most 31, so that every denominator
    q < 2^(s+1) is within FACTOR_CAP, the cap of the factorization that
    arc_admissible reads; past it a CapacityError comes before any arc.
    """
    s = _integer(s, "level s", 0, high=FACTOR_CAP.bit_length() - 2)
    if s == 0:
        return (RationalPoint(a=1, q=1, s=0),)
    out = []
    for q in range(1 << s, 1 << (s + 1)):
        if not arc_admissible(q):
            continue
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                out.append(RationalPoint(a=a, q=q, s=s))
    return tuple(out)


def _exceptional_pair(exceptional) -> None:
    """The pair rule of each entry that takes one: None, or a tuple (chi,
    beta) of a real non-principal DirichletCharacter (kind 'quadratic', as
    Landau-Page allows) and a beta in [1/2, 1) that passes the real rule
    (ntheory._real); else DomainError."""
    if exceptional is None:
        return
    is_pair = isinstance(exceptional, tuple) and len(exceptional) == 2
    chi, beta = exceptional if is_pair else (None, None)
    if not (isinstance(chi, DirichletCharacter) and chi.kind == "quadratic"
            and 0.5 <= _real(beta, "beta") < 1.0):
        raise DomainError("the exceptional pair must be (chi, beta): chi real and "
                          "non-principal, beta in [1/2, 1)")


def approximant_hat(a: int, q: int, N: int, theta: float | np.ndarray,
                    exceptional: tuple[DirichletCharacter, float] | None = None):
    """L_hat[a,q; N](theta) per the major-arc model: G(1_q, a) M_hat_N(theta),
    less G(chi, a) M_hat^beta_N(theta) when the exceptional pair (chi, beta)
    is given, whose modulus must be q."""
    _exceptional_pair(exceptional)
    tv = np.atleast_1d(_real(theta, "theta", points=True))
    out = gauss.ramanujan_gauss_principal(q, a) * fourier_M_beta(N, 1.0, tv)
    if exceptional is not None:
        chi, beta = exceptional
        if chi.modulus != q:
            raise DomainError("exceptional character modulus must match the arc")
        out = out - gauss.gauss_sum_bruteforce(chi, a) * fourier_M_beta(N, beta, tv)
    return _shaped(out, theta)


def _circular(theta: np.ndarray) -> np.ndarray:
    """Reduce to the fundamental window [-1/2, 1/2)."""
    return (theta + 0.5) % 1.0 - 0.5


def nu_n_s(n: int, s: int, xi: float | np.ndarray,
           exceptional: tuple[DirichletCharacter, float] | None = None):
    """nu_n^s(xi): the level-s layer of the glued approximant at scale 2^n.

    At most one arc contributes at any xi because the eta_s supports are
    disjoint within a level.  The exceptional pair (chi, beta), if given,
    adds its term on the arcs a/q with q the modulus of chi.  A non-finite
    xi is a DomainError.
    """
    _exceptional_pair(exceptional)
    xv = np.atleast_1d(_real(xi, "xi", points=True))
    out = np.zeros(xv.shape, dtype=np.complex128)
    radius = eta_support_radius(s)
    N = 1 << _integer(n, "scale index n", 0, high=_SCALE_CAP)
    q_exc = exceptional[0].modulus if exceptional is not None else None
    for arc in enumerate_arcs(s):
        theta = _circular(xv - arc.value)
        mask = np.abs(theta) < radius
        if not mask.any():
            continue
        th = theta[mask]
        exc = exceptional if arc.q == q_exc else None
        out[mask] += approximant_hat(arc.a, arc.q, N, th, exc) * eta_s(s, th)
    return _shaped(out, xi)


def nu_n(n: int, xi: float | np.ndarray, s_max: int = DEFAULT_S_MAX):
    """nu_n(xi) = sum of the level layers s = 0..s_max."""
    xv = np.atleast_1d(_real(xi, "xi", points=True))
    out = np.zeros(xv.shape, dtype=np.complex128)
    for s in range(_integer(s_max, "s_max", 0) + 1):
        out += nu_n_s(n, s, xv)
    return _shaped(out, xi)


def _levels_for_t(t: float, n: int | None = None) -> int:
    """floor(sqrt(t)) = isqrt(floor(t)) for a real t >= 0, exact in integers;
    given a scale index n, Pi_n^t also needs n >= t."""
    if _real(t, "t") < 0:
        raise DomainError("t must be >= 0")
    if n is not None and _integer(n, "scale index n", 0) < t:
        raise DomainError("Pi_n^t needs n >= t")
    return math.isqrt(math.floor(t))


def pi_n_t(n: int, t: float, xi: float | np.ndarray):
    """Pi_n^t(xi): levels s <= sqrt(t) only.  Requires n >= t."""
    return nu_n(n, xi, s_max=_levels_for_t(t, n))


# --- grid sampling, one pass per level and window ---


@dataclass(frozen=True)
class _WindowPlan:
    """The level-s arc windows on a grid of G points, flattened into one set of
    arrays: theta = j/G - a/q, inv_sin = 1 / sin(pi theta) (0 where theta = 0,
    the part of M_hat_N that does not depend on the scale) and eta_s(theta).

    For s >= 1 the plan holds every point with eta_s(theta) > 0, with its grid
    index idx and g0 = G(1_q, a).  The arcs come in the order of a/q and no
    window wraps (every a/q of a level s >= 1 lies in [1/q, 1 - 1/q], q <
    2^(s+1), farther from 0 and 1 than the radius 2^(-4s-1)), so idx
    ascends strictly: the points of any run of grid indices are one slice of
    the plan.  spans lists (arc, start, stop) for each arc with a
    nonempty window; its points are [start, stop) of every array.

    Level 0's plan, the one arc 1/1, is mirrored: on a power-of-two grid
    theta = j/G - 1 is exact and the window antisymmetric about its centre.
    It holds the centre and the right half only: point i has theta = i/G at
    grid index i, its mirror image -theta sits at G - i, for i = 0..h, h the
    last point with eta_s > 0 (eta is even; a few points below h may have
    eta 0 and add a zero).  Its indices are thus the runs [0, h] and
    [G - h, G) and its g0 is 1, so idx and g0 are None.
    """

    spans: tuple[tuple[RationalPoint, int, int], ...]
    idx: np.ndarray | None
    theta: np.ndarray
    inv_sin: np.ndarray
    eta: np.ndarray
    g0: np.ndarray | None


def _frozen_plan(spans, idx, theta, eta, g0) -> _WindowPlan:
    """The plan of these points, with inv_sin, every array read-only."""
    inv_sin = np.divide(1.0, np.sin(np.pi * theta), out=np.zeros(theta.size),
                        where=theta != 0.0)
    plan = _WindowPlan(spans=spans, idx=idx, theta=theta, inv_sin=inv_sin, eta=eta, g0=g0)
    for a in (idx, theta, inv_sin, eta, g0):
        if a is not None:
            a.flags.writeable = False  # shared by every caller of the memo
    return plan


def _full_windows(s: int, resolution: int) -> _WindowPlan:
    """The plan of level s >= 1 on j/resolution, j = 0..resolution-1."""
    arcs = sorted(enumerate_arcs(s), key=lambda arc: arc.value)
    radius = eta_support_radius(s)
    G = resolution
    c = np.array([arc.a / arc.q for arc in arcs])
    j_lo = np.floor((c - radius) * G).astype(np.int64) + 1
    j_hi = np.ceil((c + radius) * G).astype(np.int64) - 1
    # the runs j_lo[k]..j_hi[k] of every arc k, concatenated
    length = np.maximum(j_hi - j_lo + 1, 0)
    arc_of = np.repeat(np.arange(len(arcs)), length)
    first = np.cumsum(length) - length
    j = np.arange(arc_of.size, dtype=np.int64) - np.repeat(first - j_lo, length)
    theta = j / G - c[arc_of]
    keep = np.flatnonzero(np.abs(theta) < radius)
    ev = eta_s(s, theta[keep])
    keep, ev = keep[ev > 0.0], ev[ev > 0.0]
    arc_of = arc_of[keep]
    bounds = np.searchsorted(arc_of, np.arange(len(arcs) + 1))
    spans = tuple((arc, int(lo), int(hi))
                  for arc, lo, hi in zip(arcs, bounds[:-1], bounds[1:]) if hi > lo)
    # G(1_q, a) only for the arcs that keep a point: at a fine level most keep none
    g0 = np.repeat([gauss.ramanujan_gauss_principal(arc.q, arc.a) for arc, _, _ in spans],
                   [hi - lo for _, lo, hi in spans])
    return _frozen_plan(spans, j[keep], theta[keep], ev, g0)


def _mirrored_level0(resolution: int) -> _WindowPlan:
    """The mirrored plan of level 0 on j/resolution, from its points with
    theta = i/resolution >= 0."""
    theta = np.arange((resolution + 1) // 2) / resolution
    ev = eta_s(0, theta)
    stop = int(np.flatnonzero(ev > 0.0)[-1]) + 1  # h + 1
    return _frozen_plan(((enumerate_arcs(0)[0], 0, stop),), None, theta[:stop], ev[:stop], None)


@lru_cache(maxsize=64, typed=True)
def _eta_windows(s: int, resolution: int) -> _WindowPlan:
    """The window plan of level s on j/resolution, a power of two (every
    route here checks it), cached per (s, resolution) and argument type, so
    the level is checked before an entry is shared: mirrored for level 0."""
    s = _integer(s, "level s", 0)
    return _full_windows(s, resolution) if s else _mirrored_level0(resolution)


def _mbeta_arc_grid(k: Kernel, arc: RationalPoint, resolution: int) -> np.ndarray:
    """M_hat^beta_N(j/G - a/q) for j = 0..G-1, from one folded FFT, for k =
    kernel_M_beta(N, beta).

    The weights of k are modulated by e(-n a/q), the phase read off the
    integer (n a) mod q so that the arc centre is exactly a/q, then folded
    mod G: O(N + G log G) per arc, against O(N * window) for the direct sum
    of fourier_M_beta.
    """
    roots = np.exp(-2j * np.pi * np.arange(arc.q) / arc.q)
    return _folded_transform(k.sites, k.weights * roots[(k.sites * arc.a) % arc.q],
                             resolution)


def _levels(N: int, resolution: int, plans,
            exceptional: tuple[DirichletCharacter, float] | None):
    """(plan, terms) for each plan at scale N = 2^n on j/resolution: terms
    lists (start, stop, G(chi, a) M_hat^beta_N on the plan's points [start,
    stop)) for each arc a/q of the plan whose q is the modulus of the
    exceptional pair's chi, M_hat^beta_N from one folded FFT per arc
    (_mbeta_arc_grid) read at the window's indices.  They are formed once
    per scale and arc, however many windows read them, from one
    kernel_M_beta(N, beta) per scale."""
    chi, beta = exceptional or (None, None)
    spans = [[sp for sp in plan.spans if chi and sp[0].q == chi.modulus] for plan in plans]
    k = kernel_M_beta(N, beta) if any(spans) else None
    return [(plan, tuple((lo, hi, gauss.gauss_sum_bruteforce(chi, arc.a)
                          * _mbeta_arc_grid(k, arc, resolution)[plan.idx[lo:hi]])
                         for arc, lo, hi in arcs))
            for plan, arcs in zip(plans, spans)]


def _closed_form(N: int, plan: _WindowPlan, lo: int, hi: int) -> np.ndarray:
    """M_hat_N on the plan's points [lo, hi) (_mhat_closed), with r = inv_sin
    * 2^-n read from the plan: N = 2^n, so N sin(pi theta) is exact and 1 /
    (N sin(pi theta)) = 2^-n / sin(pi theta) bit for bit, the value
    fourier_M_beta computes.  |theta| < 1/2 on every window, so theta is
    already reduced.  Points with theta = 0 take the direct value 1 + 0j."""
    vals = np.empty(hi - lo, dtype=np.complex128)
    theta = plan.theta[lo:hi]
    _mhat_closed(N, theta, plan.inv_sin[lo:hi] * (1.0 / N), vals)
    vals[theta == 0.0] = 1.0
    return vals


def _add_level(rows: np.ndarray, a: int, resolution: int, N: int, plan: _WindowPlan,
               terms) -> None:
    """Add one level of nu_n, N = 2^n, at j/G, G = resolution, into the two
    rows of a window, a (2, w) array: rows[0] the grid points j = a..a+w-1,
    rows[1] their mirror images j = G-a-w..G-a-1, a + w <= G/2 (at G = 1
    rows[1] is a spare that no level reaches).

    Each point takes the operations of a pass over the whole plan, in their
    order: the closed form (_closed_form), then for s >= 1 the factor g0,
    the exceptional terms (_levels) and eta.  The plan ascends in grid
    index, so a row's points are one slice of it; two rows that meet at G/2
    are one run, passed once.  On level 0's mirrored plan rows[0] holds the
    points i = a..a+w-1 at their own indices and rows[1] the images G - i
    of i = a+1..a+w, so the closed form is evaluated once, on i = a..a+w,
    for both: an image is the conjugate, as M_hat_N(-theta) =
    conj(M_hat_N(theta)) bit for bit, times eta, and each row's run is
    added into it as one slice, the images reversed.  The whole circle is
    the window a = 0, w = G/2.
    """
    w = rows.shape[1]
    if plan.idx is None:
        stop = min(a + w + 1, plan.theta.size)
        vals = _closed_form(N, plan, a, max(a, stop))
        left = np.conjugate(vals[:0:-1])
        left *= plan.eta[a + 1:stop][::-1]
        rows[1][w - left.size:] += left
        right = vals[:w]
        right *= plan.eta[a:a + w]
        rows[0][:right.size] += right
        return
    runs = ([(rows.reshape(-1), a)] if 2 * (a + w) == resolution  # rows meeting at G/2
            else zip(rows, (a, resolution - a - w)))
    for row, j0 in runs:
        k0, k1 = np.searchsorted(plan.idx, (j0, j0 + row.size))
        if k0 == k1:
            continue
        vals = _closed_form(N, plan, k0, k1)
        vals *= plan.g0[k0:k1]
        for lo, hi, term in terms:  # its overlap with [k0, k1), empty if none
            i, j = (min(max(k, lo), hi) for k in (k0, k1))
            vals[i - k0:j - k0] -= term[i - lo:j - lo]
        vals *= plan.eta[k0:k1]
        row[plan.idx[k0:k1] - j0] += vals


def _nu_grid(n: int, resolution: int, ss, exceptional) -> np.ndarray:
    """The levels ss of nu_n at j/resolution, added one pass each into one
    fresh array: _add_level over the whole circle, the window a = 0 of two
    rows of G/2 points (at G = 1 the second row is a spare point)."""
    N = 1 << _integer(n, "scale index n", 0, high=_SCALE_CAP)
    G = _check_resolution(resolution)
    _exceptional_pair(exceptional)
    out = np.zeros(max(G, 2), dtype=np.complex128)
    for plan, terms in _levels(N, G, [_eta_windows(s, G) for s in ss], exceptional):
        _add_level(out.reshape(2, -1), 0, G, N, plan, terms)
    return out[:G]


def nu_n_s_grid(n: int, s: int, resolution: int,
                exceptional: tuple[DirichletCharacter, float] | None = None) -> np.ndarray:
    """nu_n^s sampled at j/resolution: one pass over the level's window plan
    (_eta_windows, cached per (s, resolution)) into a fresh array."""
    return _nu_grid(n, resolution, (s,), exceptional)


def nu_n_grid(n: int, resolution: int, s_max: int = DEFAULT_S_MAX,
              exceptional: tuple[DirichletCharacter, float] | None = None) -> np.ndarray:
    """nu_n sampled at j/resolution: the levels s = 0..s_max added one pass
    each into one fresh array."""
    return _nu_grid(n, resolution, range(_integer(s_max, "s_max", 0) + 1), exceptional)


def pi_n_t_grid(n: int, t: float, resolution: int) -> np.ndarray:
    return nu_n_grid(n, resolution, s_max=_levels_for_t(t, n))


def _remainder_grids(ns, resolution: int, table: PrimeTable, s_max: int,
                     exceptional: tuple[DirichletCharacter, float] | None = None):
    """m_{2^n} - nu_n at j/resolution for each n in ns: the bits of
    prime_multiplier_grid(2^n, ...) - nu_n_grid(n, ..., s_max, exceptional),
    whose arguments the caller checks; the resolution is at least 2, as
    m_{2^n} needs n >= 1.  With s_max = floor(sqrt(t)) and each n >= t,
    nu_n is Pi_n^t.

    The window plans are built at the call, then one grid buffer serves
    every scale: m_{2^n} is folded and transformed in place in it, and the
    circle is walked in windows of _CHUNK points, a run of _CHUNK / 2 (or
    G / 2) points and its mirror image.  Each window's nu_n is summed level
    by level (_add_level) into one window-sized accumulator, which is
    subtracted from m's two runs, so no other array the size of the circle
    is formed.  A scale's grid holds until the next is drawn, and the
    consumer may write over it.
    """
    G = _check_resolution(resolution)
    plans = [_eta_windows(s, G) for s in range(s_max + 1)]
    m = np.empty(G, dtype=np.complex128)
    w = min(_CHUNK, G) // 2
    acc = np.empty((2, w), dtype=np.complex128)

    def grids():
        for n in ns:
            k = prime_kernel(1 << n, table, weighted=True)
            _folded_transform(k.sites, k.weights, G, out=m)
            levels = _levels(1 << n, G, plans, exceptional)
            for a in range(0, G // 2, w):
                acc.fill(0.0)
                for plan, terms in levels:
                    _add_level(acc, a, G, 1 << n, plan, terms)
                for row, b in zip(acc, (a, G - a - w)):
                    np.subtract(m[b:b + w], row, out=m[b:b + w])
            yield m

    return grids()


# --- error reports ---


def approximation_error(n: int, resolution: int, table: PrimeTable,
                        s_max: int = DEFAULT_S_MAX,
                        exceptional: tuple[DirichletCharacter, float] | None = None) -> float:
    """E(n) = max over the grid of |m_{2^n} - nu_n|, from _remainder_grids,
    the modulus taken and folded into the max _CHUNK points at a time.

    The resolution must be a power of two, at least 2^(n/2); the theory makes
    E(n) decay like exp(-c sqrt(n)), which the acceptance suite checks as a
    trend E(n+4) < E(n).
    """
    n, s_max = _integer(n, "scale index n", 0), _integer(s_max, "s_max", 0)
    _exceptional_pair(exceptional)
    if 2 * (_check_resolution(resolution).bit_length() - 1) < n:  # G < 2^(n/2)
        raise DomainError("grid resolution must be at least 2^(n/2)")
    remainder = next(_remainder_grids([n], resolution, table, s_max, exceptional))
    return float(np.max([np.max(np.abs(remainder[j:j + _CHUNK]))
                         for j in range(0, remainder.size, _CHUNK)]))


def partial_summation_bracket(N: int, table: PrimeTable) -> float:
    """theta(N)/log N + sum_{n=2}^{N-1} theta(n) (1/log n - 1/log(n+1)).

    Equals pi(N) exactly; the float evaluation is an identity check.
    2 <= N <= table.limit, since theta reads the primes up to N; past the
    table a CapacityError comes before the arrays over [2, N).
    """
    N = _integer(N, "N", 2, high=table.limit)
    n = np.arange(2, N, dtype=np.float64)
    p = table.primes_upto(N)
    logp = np.log(p.astype(np.float64))
    theta_cum = np.cumsum(logp)
    # theta(n) for n = 2..N-1 via searchsorted on the prime list
    k = np.searchsorted(p, np.arange(2, N), side="right")
    theta_n = np.where(k > 0, theta_cum[np.maximum(k - 1, 0)], 0.0)
    inner = theta_n * (1.0 / np.log(n) - 1.0 / np.log(n + 1.0))
    return float(table.theta(N) / math.log(N) + inner.sum())
