"""Major-arc approximating multipliers for prime averages.

The exponential sum attached to the log-weighted prime average is

    m_N(xi) = (1/theta(N)) * sum over primes p <= N of e(xi p) log p,

with e(x) = exp(2 pi i x).  Near a reduced rational a/q it is modelled by

    L_hat[a,q; N](theta) = G(1_q, a) M_hat_N(theta)
                           - G(chi_q, a) M_hat^beta_N(theta)   (exceptional case)

where M^beta_N is the Cesaro-type kernel with weights
(n^beta - (n-1)^beta)/(beta N) on sites 1..N, and the exceptional term is
only present when a real zero beta of the quadratic L-function mod q is
supplied (synthetically, unless a scan ever finds one).

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
of eta_s form one flat plan, cached per (s, G); each level is added into the
caller's array in one vectorized pass over its plan, and no sampled grid is
memoized.  The principal term is the closed form M_hat_N, in real
arithmetic.  Level 0, the one arc 1/1, covers the whole circle; its plan is
exactly antisymmetric about theta = 0, so M_hat_N is evaluated on theta >= 0
only and the rest is filled by M_hat_N(-theta) = conj(M_hat_N(theta)), with
the same bits as the direct evaluation.  m_N on a grid goes through one
unnormalized inverse FFT of the folded log p weights.  On an injected arc
window, M_hat^beta_N comes from one FFT of the weights modulated by
e(-n a/q) and folded mod G; the direct sum of fourier_M_beta is its oracle
and the route for arbitrary theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gauss
from .characters import DirichletCharacter
from .ntheory import DomainError, PrimeTable, is_squarefree

DEFAULT_S_MAX = 6

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
    N^(beta-1)/beta.
    """
    if not 0.5 <= beta <= 1.0:
        raise DomainError("beta must lie in [1/2, 1]")
    if N < 0:
        raise DomainError("N must be >= 0")
    if N == 0:
        return Kernel(sites=np.empty(0, dtype=np.int64), weights=np.empty(0))
    n = np.arange(1, N + 1, dtype=np.float64)
    w = (n ** beta - (n - 1) ** beta) / (beta * N)
    return Kernel(sites=np.arange(1, N + 1, dtype=np.int64), weights=w)


def kernel_delta(n: int) -> Kernel:
    """The point mass at site n."""
    return Kernel(sites=np.array([n], dtype=np.int64), weights=np.array([1.0]))


def prime_kernel(N: int, table: PrimeTable, weighted: bool) -> Kernel:
    """Averaging kernel over primes <= N: log p / theta(N), or 1/pi(N)."""
    if N < 2:
        raise DomainError("prime averages need N >= 2")
    p = table.primes_upto(N)
    if weighted:
        w = np.log(p.astype(np.float64)) / table.theta(N)
    else:
        w = np.full(p.size, 1.0 / p.size)
    return Kernel(sites=p.copy(), weights=w)


def fourier_kernel(kernel: Kernel, xi: float | np.ndarray) -> np.ndarray | complex:
    """K_hat(xi) = sum of w(site) e(xi site), matching the e(+) convention of m_N."""
    xv = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    out = np.zeros(xv.shape, dtype=np.complex128)
    # chunk the sites to bound the outer-product workspace
    step = max(1, (1 << 22) // max(xv.size, 1))
    for lo in range(0, kernel.sites.size, step):
        s = kernel.sites[lo:lo + step].astype(np.float64)
        w = kernel.weights[lo:lo + step]
        out += (w[None, :] * np.exp(2j * np.pi * np.outer(xv, s))).sum(axis=1)
    if np.ndim(xi) == 0:
        return complex(out[0])
    return out


def _check_resolution(resolution: int) -> int:
    """resolution, if it is a positive power-of-two integer; else DomainError."""
    if (not isinstance(resolution, (int, np.integer)) or resolution < 1
            or resolution & (resolution - 1)):
        raise DomainError("grid resolution must be a positive power of two")
    return resolution


def _folded_transform(sites: np.ndarray, weights: np.ndarray, resolution: int) -> np.ndarray:
    """sum over sites of w e(+j site/G) for j = 0..G-1: one unnormalized inverse
    FFT of the weights folded mod G.  Complex weights fold their two parts
    separately."""
    idx = (sites % resolution).astype(np.int64)
    folded = np.bincount(idx, weights=weights.real, minlength=resolution)
    if np.iscomplexobj(weights):
        folded = folded + 1j * np.bincount(idx, weights=weights.imag, minlength=resolution)
    return np.fft.ifft(folded, norm="forward")


def fourier_kernel_grid(kernel: Kernel, resolution: int) -> np.ndarray:
    """K_hat sampled on j/resolution via one FFT of the folded weights."""
    return _folded_transform(kernel.sites, kernel.weights, _check_resolution(resolution))


def fourier_M_beta(N: int, beta: float, theta: float | np.ndarray):
    """M_hat^beta_N(theta) for an integer N >= 0 at finite theta.

    For beta = 1 the closed geometric form
    e((N+1) d/2) sin(pi N d) / (N sin(pi d)), d = theta - round(theta), in
    real arithmetic: the real and imaginary parts are cos(y) and sin(y),
    y = pi d (N+1), times sin(pi N d), times 1 / (N sin(pi d)).  These are
    the bits numpy gives for the complex form exp(i y) * sin(pi N d) /
    (N sin(pi d)), and M_hat_N(-theta) is exactly conj(M_hat_N(theta)),
    which _add_level's mirrored level-0 pass relies on.  Otherwise the
    direct sum over the N weights of kernel_M_beta, O(N) per point.  The
    direct sum is the oracle for the folded-FFT route that nu_n_s_grid takes
    on injected arc windows.
    """
    if not isinstance(N, (int, np.integer)) or N < 0:
        raise DomainError("N must be an integer >= 0")
    tv = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if not np.isfinite(tv).all():
        raise DomainError("theta must be finite")
    if N == 0:
        out = np.zeros(tv.shape, dtype=np.complex128)
    elif beta == 1.0:
        d = tv - np.round(tv)
        out = np.empty(tv.shape, dtype=np.complex128)
        zero = d == 0.0
        nz = ~zero
        dn = d[nz]
        out[zero] = 1.0
        y = np.pi * dn * (N + 1)
        s1 = np.sin(np.pi * N * dn)
        r = 1.0 / (N * np.sin(np.pi * dn))
        out.real[nz] = np.cos(y) * s1 * r
        out.imag[nz] = np.sin(y) * s1 * r
    else:
        out = np.atleast_1d(fourier_kernel(kernel_M_beta(N, beta), tv))
    if np.ndim(theta) == 0:
        return complex(out[0])
    return out


def prime_multiplier(N: int, xi: float | np.ndarray, table: PrimeTable):
    """m_N(xi) = (1/theta(N)) sum_{p <= N} e(xi p) log p, summed directly."""
    if N < 2:
        raise DomainError("m_N needs N >= 2")
    k = prime_kernel(N, table, weighted=True)
    return fourier_kernel(k, xi)


def prime_multiplier_grid(N: int, resolution: int, table: PrimeTable) -> np.ndarray:
    """m_N sampled at j/resolution through one FFT of the folded log weights."""
    if N < 2:
        raise DomainError("m_N needs N >= 2")
    return fourier_kernel_grid(prime_kernel(N, table, weighted=True), resolution)


# --- the smooth plateau cutoff ---

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
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
    edges = np.linspace(-0.125, 0.125, 17)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * float(_GL_WEIGHTS @ _bump_raw(mid + half * _GL_NODES))
    return total


def _bump_integral(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of the normalized bump over [lo, hi] (cached fixed-order rule)."""
    out = np.zeros(lo.shape)
    width = hi - lo
    pos = np.flatnonzero(width > 0)
    norm = _bump_norm()
    for start in range(0, pos.size, 1 << 16):
        sel = pos[start:start + (1 << 16)]
        lo_p, w_p = lo[sel], width[sel]
        acc = np.zeros(lo_p.shape)
        for p in range(_BUMP_PANELS):
            a = lo_p + w_p * (p / _BUMP_PANELS)
            half = w_p / (2 * _BUMP_PANELS)
            mid = a + half
            nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
            acc += half * (_bump_raw(nodes) @ _GL_WEIGHTS)
        out[sel] = acc / norm
    return out


@lru_cache(maxsize=1)
def _eta_table() -> np.ndarray:
    """Chebyshev coefficients of eta on the transition band (1/4, 1/2).

    Column k interpolates eta at the 17 first-kind Chebyshev points of the
    k-th of 64 equal panels, in the panel's local variable t in [-1, 1].  The
    node values come from the quadrature (_bump_integral), which stays the
    table's oracle; the two agree to about 2e-15.  Built on the first call.
    """
    t = np.polynomial.chebyshev.chebpts1(_ETA_TABLE_DEGREE + 1)
    width = 0.25 / _ETA_TABLE_PANELS
    x = 0.25 + width * (np.arange(_ETA_TABLE_PANELS)[:, None] + 0.5 * (t + 1.0))
    vals = _bump_integral(x.ravel() - 0.375, np.full(x.size, 0.125)).reshape(x.shape)
    return np.polynomial.chebyshev.chebfit(t, vals.T, _ETA_TABLE_DEGREE)


def eta(xi: float | np.ndarray):
    """Smooth plateau cutoff: 1 on |xi| <= 1/4, 0 on |xi| >= 1/2, else in (0, 1).

    Realized as the indicator of [-3/8, 3/8] convolved with a normalized
    C-infinity bump supported on [-1/8, 1/8].  On the transition band the
    convolution integral is read from a piecewise Chebyshev table built once
    from a fixed-order Gauss-Legendre rule (_bump_integral), which is the
    table's oracle.  eta is even and exactly 0/1 off the transition bands.
    A non-finite xi is a DomainError.
    """
    xv = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    if not np.isfinite(xv).all():
        raise DomainError("xi must be finite")
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
    if np.ndim(xi) == 0:
        return float(out[0])
    return out


def eta_s(s: int, xi: float | np.ndarray):
    """eta_s(xi) = eta(2^(4s) xi): support shrinks to |xi| < 2^(-4s-1).

    |xi| is capped at 1 before scaling, where eta_s is already 0, so that a
    large finite xi cannot overflow; a non-finite xi is a DomainError."""
    if not isinstance(s, (int, np.integer)) or s < 0:
        raise DomainError("level s must be an integer >= 0")
    xv = np.asarray(xi, dtype=np.float64)
    if not np.isfinite(xv).all():
        raise DomainError("xi must be finite")
    return eta(np.minimum(np.abs(xv), 1.0) * float(2 ** (4 * s)))


def eta_support_radius(s: int) -> float:
    return 0.5 * 2.0 ** (-4 * s)


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


@lru_cache(maxsize=64)
def enumerate_arcs(s: int) -> tuple[RationalPoint, ...]:
    """Level-s arcs: reduced a/q with 2^s <= q < 2^(s+1) and admissible q.

    Level 0 is the single point 1/1.  The count is below 2^(2(s+1)).
    """
    if not isinstance(s, (int, np.integer)) or s < 0:
        raise DomainError("level s must be an integer >= 0")
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


@dataclass(frozen=True)
class ApproximantSpec:
    """One local model L[a,q; N]: principal term plus optional exceptional term."""

    a: int
    q: int
    N: int
    exceptional: tuple[DirichletCharacter, float] | None = None


def _exceptional_gauss(spec: ApproximantSpec) -> complex:
    """G(chi, a), the coefficient of the exceptional term of spec."""
    chi, _ = spec.exceptional
    if chi.modulus != spec.q:
        raise DomainError("exceptional character modulus must match the arc")
    return gauss.gauss_sum_bruteforce(chi, spec.a)


def approximant_hat(spec: ApproximantSpec, theta: float | np.ndarray):
    """L_hat[a,q; N](theta) per the major-arc model."""
    g0 = gauss.ramanujan_gauss_principal(spec.q, spec.a)
    out = g0 * np.atleast_1d(fourier_M_beta(spec.N, 1.0, theta))
    if spec.exceptional is not None:
        beta = spec.exceptional[1]
        out = out - _exceptional_gauss(spec) * np.atleast_1d(fourier_M_beta(spec.N, beta, theta))
    if np.ndim(theta) == 0:
        return complex(out[0])
    return out


Injection = dict[int, tuple[DirichletCharacter, float]]


def _arc_spec(arc: RationalPoint, N: int, injection: Injection | None) -> ApproximantSpec:
    exc = injection.get(arc.q) if injection else None
    return ApproximantSpec(a=arc.a, q=arc.q, N=N, exceptional=exc)


def _dyadic_scale(n: int) -> int:
    """N = 2^n for an integer scale index n >= 0; else DomainError."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError("scale index n must be an integer >= 0")
    return 1 << int(n)


def _circular(theta: np.ndarray) -> np.ndarray:
    """Reduce to the fundamental window [-1/2, 1/2)."""
    return (theta + 0.5) % 1.0 - 0.5


def nu_n_s(n: int, s: int, xi: float | np.ndarray, injection: Injection | None = None):
    """nu_n^s(xi): the level-s layer of the glued approximant at scale 2^n.

    At most one arc contributes at any xi because the eta_s supports are
    disjoint within a level.  A non-finite xi is a DomainError.
    """
    xv = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    if not np.isfinite(xv).all():
        raise DomainError("xi must be finite")
    out = np.zeros(xv.shape, dtype=np.complex128)
    radius = eta_support_radius(s)
    N = _dyadic_scale(n)
    for arc in enumerate_arcs(s):
        theta = _circular(xv - arc.value)
        mask = np.abs(theta) < radius
        if not mask.any():
            continue
        spec = _arc_spec(arc, N, injection)
        th = theta[mask]
        out[mask] += np.atleast_1d(approximant_hat(spec, th)) * eta_s(s, th)
    if np.ndim(xi) == 0:
        return complex(out[0])
    return out


def nu_n(n: int, xi: float | np.ndarray, s_max: int = DEFAULT_S_MAX,
         injection: Injection | None = None):
    """nu_n(xi) = sum of the level layers s = 0..s_max."""
    xv = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    out = np.zeros(xv.shape, dtype=np.complex128)
    for s in range(s_max + 1):
        out += np.atleast_1d(nu_n_s(n, s, xv, injection))
    if np.ndim(xi) == 0:
        return complex(out[0])
    return out


def _levels_for_t(t: float) -> int:
    """floor(sqrt(t)), guarded against float dust at perfect squares."""
    if not t >= 0:
        raise DomainError("t must be >= 0")
    s = int(math.sqrt(t))
    while (s + 1) * (s + 1) <= t:
        s += 1
    while s * s > t:
        s -= 1
    return s


def pi_n_t(n: int, t: float, xi: float | np.ndarray,
           injection: Injection | None = None):
    """Pi_n^t(xi): levels s <= sqrt(t) only.  Requires n >= t."""
    if n < t:
        raise DomainError("Pi_n^t needs n >= t")
    return nu_n(n, xi, s_max=_levels_for_t(t), injection=injection)


# --- grid sampling, one pass per level ---


@dataclass(frozen=True)
class _WindowPlan:
    """The level-s arc windows on a grid of G points, flattened into one set of
    arrays: grid index, theta = j/G - a/q, eta_s(theta) and G(1_q, a) for each
    point with eta_s(theta) > 0.  spans lists (arc, start, stop) for each arc
    with a nonempty window; its points are [start, stop) of every array.
    Indices are distinct across the level, as the eta_s supports are disjoint.
    mirror is True when theta has odd length and is exactly antisymmetric
    about its centre, with no zero off the centre: theta[i] == -theta[-1-i].
    """

    spans: tuple[tuple[RationalPoint, int, int], ...]
    idx: np.ndarray
    theta: np.ndarray
    eta: np.ndarray
    g0: np.ndarray
    mirror: bool


@lru_cache(maxsize=64)
def _eta_windows(s: int, resolution: int) -> _WindowPlan:
    """The window plan of level s on j/resolution, j = 0..resolution-1.

    Level 0 is the one arc 1/1, theta = j/G - 1 for j symmetric about G: on a
    power-of-two grid these values are exact, so the plan is mirrored.  The
    symmetry is checked here, never assumed.
    """
    arcs = enumerate_arcs(s)
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
    g0 = np.array([gauss.ramanujan_gauss_principal(arc.q, arc.a) for arc in arcs])
    theta = theta[keep]
    h = theta.size // 2
    mirror = theta.size % 2 == 1 and bool(
        np.all((theta[:h] == -theta[:h:-1]) & (theta[:h] != 0.0)))
    plan = _WindowPlan(spans=spans, idx=np.mod(j[keep], G), theta=theta,
                       eta=ev, g0=g0[arc_of], mirror=mirror)
    for a in (plan.idx, plan.theta, plan.eta, plan.g0):
        a.flags.writeable = False  # shared by every caller of the memo
    return plan


def _mbeta_arc_grid(N: int, beta: float, arc: RationalPoint, resolution: int) -> np.ndarray:
    """M_hat^beta_N(j/G - a/q) for j = 0..G-1, from one folded FFT.

    The weights of kernel_M_beta are modulated by e(-n a/q), the phase read
    off the integer (n a) mod q so that the arc centre is exactly a/q, then
    folded mod G: O(N + G log G) per arc, against O(N * window) for the
    direct sum of fourier_M_beta.
    """
    k = kernel_M_beta(N, beta)
    roots = np.exp(-2j * np.pi * np.arange(arc.q) / arc.q)
    return _folded_transform(k.sites, k.weights * roots[(k.sites * arc.a) % arc.q],
                             resolution)


def _add_level(out: np.ndarray, n: int, s: int, injection: Injection | None) -> None:
    """Add nu_n^s at j/len(out) into out, in one pass over the level's plan.

    The principal term is one closed-form M_hat_N call over the window
    points.  On a mirrored plan (level 0) the call covers the centre and the
    right half only, and the left half is the conjugate of the right half
    reversed, as M_hat_N(-theta) = conj(M_hat_N(theta)) bit for bit; the
    centre theta = 0 keeps its direct value 1 + 0j.  An injected exceptional
    term takes M_hat^beta_N from one folded FFT per arc (_mbeta_arc_grid),
    read at the window's indices.
    """
    plan = _eta_windows(s, out.size)
    N = _dyadic_scale(n)
    if plan.mirror:
        h = plan.theta.size // 2
        mhat = np.empty(plan.theta.size, dtype=np.complex128)
        mhat[h:] = fourier_M_beta(N, 1.0, plan.theta[h:])
        np.conjugate(mhat[:h:-1], out=mhat[:h])
    else:
        mhat = fourier_M_beta(N, 1.0, plan.theta)
    vals = plan.g0 * mhat
    for arc, lo, hi in plan.spans:
        if injection and arc.q in injection:
            spec = _arc_spec(arc, N, injection)
            mbeta = _mbeta_arc_grid(N, spec.exceptional[1], arc, out.size)
            vals[lo:hi] -= _exceptional_gauss(spec) * mbeta[plan.idx[lo:hi]]
    out[plan.idx] += vals * plan.eta


def nu_n_s_grid(n: int, s: int, resolution: int,
                injection: Injection | None = None) -> np.ndarray:
    """nu_n^s sampled at j/resolution: one pass over the level's window plan
    (_eta_windows, cached per (s, resolution)) into a fresh array."""
    out = np.zeros(_check_resolution(resolution), dtype=np.complex128)
    _add_level(out, n, s, injection)
    return out


def nu_n_grid(n: int, resolution: int, s_max: int = DEFAULT_S_MAX,
              injection: Injection | None = None) -> np.ndarray:
    """nu_n sampled at j/resolution: the levels s = 0..s_max added one pass
    each into one fresh array."""
    if s_max < 0:
        raise DomainError("s_max must be >= 0")
    out = np.zeros(_check_resolution(resolution), dtype=np.complex128)
    for s in range(s_max + 1):
        _add_level(out, n, s, injection)
    return out


def pi_n_t_grid(n: int, t: float, resolution: int,
                injection: Injection | None = None) -> np.ndarray:
    if n < t:
        raise DomainError("Pi_n^t needs n >= t")
    return nu_n_grid(n, resolution, s_max=_levels_for_t(t), injection=injection)


# --- error reports ---


def approximation_error(n: int, resolution: int, table: PrimeTable,
                        s_max: int = DEFAULT_S_MAX,
                        injection: Injection | None = None) -> float:
    """E(n) = max over the grid of |m_{2^n} - nu_n|.

    The resolution must be a power of two, at least 2^(n/2); the theory makes
    E(n) decay like exp(-c sqrt(n)), which the acceptance suite checks as a
    trend E(n+4) < E(n).
    """
    N = _dyadic_scale(n)
    if _check_resolution(resolution) < 2 ** (n / 2):
        raise DomainError("grid resolution must be at least 2^(n/2)")
    m = prime_multiplier_grid(N, resolution, table)
    nu = nu_n_grid(n, resolution, s_max=s_max, injection=injection)
    return float(np.max(np.abs(m - nu)))


def partial_summation_bracket(N: int, table: PrimeTable) -> float:
    """theta(N)/log N + sum_{n=2}^{N-1} theta(n) (1/log n - 1/log(n+1)).

    Equals pi(N) exactly; the float evaluation is an identity check.
    """
    if N < 2:
        raise DomainError("the bracket needs N >= 2")
    n = np.arange(2, N, dtype=np.float64)
    p = table.primes_upto(N)
    logp = np.log(p.astype(np.float64))
    theta_cum = np.cumsum(logp)
    # theta(n) for n = 2..N-1 via searchsorted on the prime list
    k = np.searchsorted(p, np.arange(2, N), side="right")
    theta_n = np.where(k > 0, theta_cum[np.maximum(k - 1, 0)], 0.0)
    inner = theta_n * (1.0 / np.log(n) - 1.0 / np.log(n + 1.0))
    return float(table.theta(N) / math.log(N) + inner.sum())
