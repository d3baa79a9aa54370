"""Kernel weights, smooth cutoffs, arcs, and glued approximants.

Oracles used here: scipy quadrature for the bump convolution behind eta,
the package's own Gauss-Legendre rule for eta's Chebyshev table, direct
trigonometric sums for every grid-sampled multiplier, and hand
computations for the small-N kernel weights.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import primeavg.gauss as gauss
import primeavg.multipliers as mp
from primeavg.characters import enumerate_quadratic_characters, synthetic_exceptional
from primeavg.ntheory import DomainError, sieve_primes


# --- kernels ---


def test_kernel_m_beta_half_n2_weights():
    k = mp.kernel_M_beta(2, 0.5)
    assert k.sites.tolist() == [1, 2]
    want = np.array([1.0, math.sqrt(2) - 1.0])  # (n^b - (n-1)^b) / (b N)
    assert np.allclose(k.weights, want, atol=1e-15)
    assert abs(k.total_mass - math.sqrt(2)) < 1e-15


@pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("N", [1, 2, 7, 64, 1000])
def test_kernel_m_beta_mass_and_caps(N, beta):
    k = mp.kernel_M_beta(N, beta)
    assert abs(k.total_mass - N ** (beta - 1.0) / beta) < 1e-12
    assert np.all(k.weights > 0)
    assert k.weights[0] <= 1.0 / (beta * N) + 1e-15
    if N > 1:
        assert np.all(k.weights[1:] <= 1.0 / N + 1e-15)
        assert np.all(np.diff(k.weights) <= 1e-15)  # decreasing in n


def test_kernel_m_beta_domain_and_degenerate():
    with pytest.raises(DomainError):
        mp.kernel_M_beta(4, 0.4)
    with pytest.raises(DomainError):
        mp.kernel_M_beta(-1, 0.75)
    with pytest.raises(DomainError):
        mp.kernel_M_beta(2.5, 1.0)  # its weights would sum to 1.2
    k0 = mp.kernel_M_beta(0, 0.75)
    assert k0.sites.size == 0 and k0.total_mass == 0.0
    assert k0.max_site == 0


def test_prime_kernel_masses(table_small):
    k = mp.prime_kernel(100, table_small, weighted=False)
    assert k.sites.tolist() == table_small.primes_upto(100).tolist()
    assert abs(k.total_mass - 1.0) < 1e-14
    kw = mp.prime_kernel(100, table_small, weighted=True)
    assert abs(kw.total_mass - 1.0) < 1e-14  # sum log p / theta(N) = 1
    with pytest.raises(DomainError):
        mp.prime_kernel(1, table_small, weighted=False)


# --- Fourier transforms of kernels ---


def test_fourier_kernel_grid_matches_pointwise(table_small):
    k = mp.prime_kernel(50, table_small, weighted=True)
    G = 64
    grid = mp.fourier_kernel_grid(k, G)
    xi = np.arange(G) / G
    direct = mp.fourier_kernel(k, xi)
    assert np.allclose(grid, direct, atol=1e-12)


def test_fourier_m_beta_closed_form_is_geometric():
    N = 37
    theta = np.linspace(-0.49, 0.5, 101)
    closed = mp.fourier_M_beta(N, 1.0, theta)
    k = mp.kernel_M_beta(N, 1.0)
    direct = mp.fourier_kernel(k, theta)
    assert np.allclose(closed, direct, atol=1e-12)


def test_fourier_m_beta_at_zero_is_mass():
    for beta in [0.5, 0.8, 1.0]:
        k = mp.kernel_M_beta(25, beta)
        assert abs(mp.fourier_M_beta(25, beta, 0.0) - k.total_mass) < 1e-13


@pytest.mark.parametrize("N", [1, 3, 17, 1 << 20])
def test_fourier_m_beta_is_conjugate_symmetric_bit_for_bit(N):
    # the mirrored level-0 pass of the nu grids rests on this libm symmetry
    rng = np.random.default_rng(N)
    dyadic = np.arange(1, 1 << 12) / (1 << 13)  # non-integer, in (0, 1/2)
    theta = np.concatenate([rng.uniform(-3.0, 3.0, 4001), dyadic, dyadic + 2.0])
    theta = theta[theta != np.round(theta)]
    left = mp.fourier_M_beta(N, 1.0, -theta)
    right = np.conj(mp.fourier_M_beta(N, 1.0, theta))
    assert np.array_equal(left.view(np.uint64), right.view(np.uint64))


_BAD_N_OR_THETA = {
    "negative-N": lambda: mp.fourier_M_beta(-4, 1.0, 0.3),
    "fractional-N": lambda: mp.fourier_M_beta(2.5, 1.0, 0.3),
    "nan-theta": lambda: mp.fourier_M_beta(8, 1.0, np.nan),
    "inf-theta": lambda: mp.fourier_M_beta(8, 1.0, np.array([0.1, np.inf])),
    "inf-theta-beta": lambda: mp.fourier_M_beta(8, 0.75, -np.inf),
    "nan-eta": lambda: mp.eta(np.nan),
    "inf-eta": lambda: mp.eta(np.array([0.3, -np.inf])),
    "nan-eta-s": lambda: mp.eta_s(2, np.nan),
    "nan-nu-n-s": lambda: mp.nu_n_s(3, 0, np.nan),
    "inf-kernel": lambda: mp.fourier_kernel(mp.kernel_delta(3), np.inf),
    "nan-kernel": lambda: mp.fourier_kernel(mp.kernel_delta(3), np.array([0.1, np.nan])),
    "nan-m-n": lambda: mp.prime_multiplier(100, np.nan, sieve_primes(128)),
    "fractional-m-n-grid": lambda: mp.prime_multiplier_grid(2.5, 64, sieve_primes(128)),
    "fractional-prime-kernel": lambda: mp.prime_kernel(10.5, sieve_primes(128), True),
    "fractional-delta": lambda: mp.kernel_delta(2.5),
}


@pytest.mark.parametrize("call", _BAD_N_OR_THETA.values(), ids=_BAD_N_OR_THETA.keys())
def test_fourier_m_beta_and_eta_domain(call):
    with pytest.raises(DomainError):
        call()


def test_eta_s_is_zero_far_out_without_overflow():
    assert mp.eta_s(40, 1e300) == 0.0
    assert np.array_equal(mp.eta_s(3, np.array([-1e308, 2.0, 1.0])), np.zeros(3))
    # up to s = 255 the scale 2^(4s) is a float, and eta_s is eta of the
    # scaled |xi|; past it no overflow, and from s = 269 on eta_s is [xi = 0]
    rng = np.random.default_rng(3)
    for s in (0, 2, 64, 255):
        x = np.concatenate([[0.0, 5e-324, 1e300, -1e300],
                            rng.uniform(-2.0, 2.0, 64) * 2.0 ** (-4 * s)])
        want = mp.eta(np.minimum(np.abs(x), 1.0) * 2.0 ** (4 * s))
        assert np.array_equal(mp.eta_s(s, x), want), s
    assert mp.eta_s(256, 0.1) == 0.0
    assert mp.eta_s(256, 5e-324) == 1.0  # 2^-1074 2^1024 = 2^-50 < 1/4
    x = np.array([0.0, 5e-324, -0.1, 1e300])
    assert np.array_equal(mp.eta_s(1000, x), [1.0, 0.0, 0.0, 0.0])


def test_prime_multiplier_grid_matches_pointwise(table_small):
    G = 128
    grid = mp.prime_multiplier_grid(200, G, table_small)
    xi = np.arange(G) / G
    direct = mp.prime_multiplier(200, xi, table_small)
    assert np.allclose(grid, direct, atol=1e-12)
    with pytest.raises(DomainError):
        mp.fourier_kernel_grid(mp.kernel_delta(1), 48)


# --- the smooth plateau cutoff ---


def _eta_oracle(x: float) -> float:
    """Indicator of [-3/8, 3/8] convolved with the normalized bump."""
    def bump(u):
        v = 8.0 * u
        return math.exp(-1.0 / (1.0 - v * v)) if abs(v) < 1 else 0.0
    norm, _ = quad(bump, -0.125, 0.125, epsabs=1e-14)
    lo, hi = max(-0.125, abs(x) - 0.375), min(0.125, abs(x) + 0.375)
    if hi <= lo:
        return 0.0
    val, _ = quad(bump, lo, hi, epsabs=1e-14, limit=200)
    return val / norm


def _band_edges() -> np.ndarray:
    """Points within a few ulps of 1/4, 3/8 and 1/2, on both sides."""
    out = []
    for c in (0.25, 0.375, 0.5):
        lo = hi = c
        for _ in range(4):
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
            out += [lo, hi]
        out += [c, c - 1e-9, c + 1e-9]
    return np.array(out)


def test_eta_plateau_support_and_range():
    xs = np.concatenate([np.linspace(-1.0, 1.0, 2001), _band_edges(), -_band_edges()])
    vals = mp.eta(xs)
    assert np.all(vals[np.abs(xs) <= 0.25] == 1.0)
    assert np.all(vals[np.abs(xs) >= 0.5] == 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.array_equal(vals, mp.eta(-xs))  # even, exactly


def test_eta_table_matches_quadrature():
    # the Chebyshev table against the Gauss-Legendre rule it is built from
    rng = np.random.default_rng(7)
    xs = np.concatenate([0.25 + 0.25 * rng.random(20000),
                         np.linspace(0.25, 0.5, 4097)[1:-1], _band_edges()])
    xs = xs[(xs > 0.25) & (xs < 0.5)]
    quad_vals = np.clip(mp._bump_integral(xs - 0.375, np.full(xs.size, 0.125)), 0.0, 1.0)
    assert np.max(np.abs(mp.eta(xs) - quad_vals)) <= 1e-14


@pytest.mark.parametrize("x", [0.26, 0.3, 0.375, 0.42, 0.46, 0.499])
def test_eta_transition_against_quadrature(x):
    assert abs(mp.eta(x) - _eta_oracle(x)) < 1e-10


def test_eta_s_scaling():
    for s in [0, 1, 2, 3]:
        r = mp.eta_support_radius(s)
        assert r == 0.5 * 2.0 ** (-4 * s)
        assert mp.eta_s(s, r * 0.49) == 1.0
        assert mp.eta_s(s, r) == 0.0
        assert mp.eta_s(s, 2.0 ** (-4 * s) * 0.3) == mp.eta(0.3)
    for s in (-1, 1.5, 2.0, np.nan):
        with pytest.raises(DomainError):
            mp.eta_s(s, 0.1)
        with pytest.raises(DomainError):
            mp.enumerate_arcs(s)


# --- arcs ---


def test_arc_counts_and_properties():
    counts = [len(mp.enumerate_arcs(s)) for s in range(5)]
    assert counts == [1, 3, 14, 48, 184]
    for s in range(5):
        arcs = mp.enumerate_arcs(s)
        assert len(arcs) < 2 ** (2 * (s + 1))
        for arc in arcs:
            assert math.gcd(arc.a, arc.q) == 1
            assert 0 < arc.a <= arc.q
            if s == 0:
                assert (arc.a, arc.q) == (1, 1)
            else:
                assert (1 << s) <= arc.q < (1 << (s + 1))
            assert mp.arc_admissible(arc.q)


def test_arc_admissibility_examples():
    assert mp.arc_admissible(1)
    assert mp.arc_admissible(6)
    assert mp.arc_admissible(4)      # 4 * 1
    assert mp.arc_admissible(12)     # 4 * 3
    assert mp.arc_admissible(8)      # 4 * 2
    assert not mp.arc_admissible(9)
    assert not mp.arc_admissible(16)  # 4 * 4
    assert not mp.arc_admissible(18)


def test_arcs_have_disjoint_eta_windows():
    # within a level, the eta_s supports around distinct arcs are disjoint
    for s in [1, 2, 3]:
        arcs = sorted(mp.enumerate_arcs(s), key=lambda r: r.value)
        r = mp.eta_support_radius(s)
        vals = [a.value for a in arcs]
        gaps = np.diff(vals + [vals[0] + 1.0])
        assert np.all(gaps > 2 * r)


# --- glued approximants ---


def test_nu_grid_matches_pointwise():
    G = 1 << 10
    xi = np.arange(G) / G
    for n, s in [(4, 0), (4, 1), (6, 2)]:
        grid = mp.nu_n_s_grid(n, s, G)
        direct = mp.nu_n_s(n, s, xi)
        assert np.allclose(grid, direct, atol=1e-12)
    full = mp.nu_n_grid(5, G, s_max=3)
    direct = mp.nu_n(5, xi, s_max=3)
    assert np.allclose(full, direct, atol=1e-12)


def test_nu_is_hermitian_for_real_output():
    G = 1 << 9
    vals = mp.nu_n_grid(5, G, s_max=3)
    assert np.allclose(vals[1:], np.conj(vals[1:][::-1]), atol=1e-12)


@pytest.mark.parametrize("G", [1, 2, 16, 1 << 11, 1 << 16])
def test_level0_grid_equals_pointwise_bit_for_bit(G):
    # the grid mirrors the level-0 window; the pointwise route evaluates all
    xi = np.arange(G) / G
    for n in [0, 1, 3, 10, 20]:
        assert np.array_equal(mp.nu_n_s_grid(n, 0, G), mp.nu_n_s(n, 0, xi))


def _level0_window(G):
    # level 0 from the definition: theta = j/G - 1 on the arc 1/1's window
    # j in (G/2, 3G/2), kept where eta > 0, with the grid index j mod G
    j = np.arange(G // 2 + 1, G + G // 2, dtype=np.int64)
    theta = j / G - 1.0
    ev = mp.eta_s(0, theta)
    keep = ev > 0.0
    return np.mod(j[keep], G), theta[keep], ev[keep]


@pytest.mark.parametrize("G", [1 << 4, 1 << 10, 1 << 14, 1 << 18])
@pytest.mark.parametrize("s", range(5))
def test_level_pass_equals_public_closed_form_bit_for_bit(s, G):
    # the level pass reads 1/sin(pi theta) from the plan and scales it by
    # 2^-n; assembled from fourier_M_beta on the same points, the bits agree.
    # Level 0 is checked against its window from the definition (G(1_1, 1) =
    # 1), not against the mirrored plan, which holds theta >= 0 only
    if s == 0:
        idx, theta, ev = _level0_window(G)
        g0 = 1.0
    else:
        plan = mp._eta_windows(s, G)
        idx, theta, ev, g0 = plan.idx, plan.theta, plan.eta, plan.g0
    for n in [0, 1, 5, 12, 17, 20]:
        want = np.zeros(G, dtype=np.complex128)
        want[idx] += g0 * mp.fourier_M_beta(1 << n, 1.0, theta) * ev
        got = mp.nu_n_s_grid(n, s, G)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


@pytest.mark.parametrize("G", [1 << 10, 1 << 14, 1 << 18])
def test_level_plans_ascend_in_grid_index(G):
    # the arcs come in the order of a/q and no window wraps, so the points
    # of any run of grid indices are one slice of the plan; spans tile it
    for s in range(1, 6):
        plan = mp._eta_windows(s, G)
        assert np.all(np.diff(plan.idx) > 0) and np.all((plan.idx > 0) & (plan.idx < G)), s
        assert [a.value for a, _, _ in plan.spans] == sorted(a.value for a, _, _ in plan.spans)
        bounds = [0] + [b for _, lo, hi in plan.spans for b in (lo, hi)] + [plan.idx.size]
        assert bounds[::2] == bounds[1::2], s  # each span starts where the last stopped


def test_only_an_exactly_antisymmetric_plan_is_mirrored():
    G = 1 << 12
    plan = mp._eta_windows(0, G)
    assert plan.idx is None and plan.g0 is None
    # it holds the definition's points with theta >= 0, point i at index i;
    # their mirror images are the definition's points with theta < 0
    h = plan.theta.size - 1
    assert np.array_equal(plan.theta, (G + np.arange(h + 1)) / G - 1.0)
    assert np.array_equal(plan.eta, mp.eta_s(0, plan.theta))
    idx, theta, ev = _level0_window(G)
    right = np.flatnonzero(plan.eta > 0.0)
    assert np.array_equal(idx[theta >= 0], right)
    assert np.array_equal(theta[theta >= 0], plan.theta[right])
    assert np.array_equal(idx[theta < 0], G - right[:0:-1])
    assert np.array_equal(theta[theta < 0], -plan.theta[right[:0:-1]])
    assert np.array_equal(ev[theta < 0], plan.eta[right[:0:-1]])
    assert mp._eta_windows(2, G).idx is not None


@pytest.mark.parametrize("n", [-1, 2.5])
def test_scale_index_must_be_a_nonnegative_integer(n, table_small):
    calls = [lambda: mp.nu_n_s(n, 0, 0.1), lambda: mp.nu_n(n, 0.1),
             lambda: mp.nu_n_s_grid(n, 0, 64), lambda: mp.nu_n_grid(n, 64),
             lambda: mp.pi_n_t(n, 0.0, 0.1), lambda: mp.pi_n_t_grid(n, 0.0, 64),
             lambda: mp.approximation_error(n, 64, table_small)]
    for call in calls:
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("s_max", [-1, 1.5, np.nan])
def test_top_level_must_be_a_nonnegative_integer(s_max, table_small):
    # the pointwise nu_n and its grid route share one check on s_max
    calls = [lambda: mp.nu_n(5, 0.1, s_max=s_max), lambda: mp.nu_n_grid(3, 64, s_max=s_max),
             lambda: mp.approximation_error(3, 64, table_small, s_max=s_max)]
    for call in calls:
        with pytest.raises(DomainError, match="s_max"):
            call()


@pytest.mark.parametrize("resolution", [0, -8, 48, 2.0, 64.0])
def test_grids_need_a_positive_power_of_two_integer(resolution, table_small):
    calls = [lambda: mp.nu_n_s_grid(3, 0, resolution),
             lambda: mp.nu_n_grid(3, resolution),
             lambda: mp.pi_n_t_grid(3, 1.0, resolution),
             lambda: mp.fourier_kernel_grid(mp.kernel_delta(1), resolution),
             lambda: mp.approximation_error(3, resolution, table_small)]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_pi_levels_cutoff():
    G = 1 << 9
    xi = np.arange(G) / G
    # t = 4 keeps levels s <= 2; adding levels beyond sqrt(t) changes nothing
    a = mp.pi_n_t(6, 4.0, xi)
    b = mp.nu_n(6, xi, s_max=2)
    assert np.allclose(a, b, atol=0)
    with pytest.raises(DomainError):
        mp.pi_n_t(3, 4.0, 0.1)
    for call in (mp.pi_n_t, mp.pi_n_t_grid):
        with pytest.raises(DomainError):
            call(5, float("nan"), 64)
    assert mp._levels_for_t(9.0) == 3
    assert mp._levels_for_t(8.999999) == 2


def test_level_count_is_exact_at_squares_and_huge_t():
    # floor(sqrt(t)) at k^2 and at the floats on either side of it
    for k in range(1, 3000):
        t = float(k * k)
        assert mp._levels_for_t(t) == k
        assert mp._levels_for_t(math.nextafter(t, math.inf)) == k
        assert mp._levels_for_t(math.nextafter(t, -math.inf)) == k - 1
    # a t far past any loop's reach, as pi_n_t meets it whenever n >= t
    s = mp._levels_for_t(1e50)
    assert s * s <= int(1e50) < (s + 1) * (s + 1)
    for bad in (math.inf, -math.inf, math.nan, -1.0):
        with pytest.raises(DomainError):
            mp._levels_for_t(bad)


@pytest.mark.parametrize("q", [3, 5, 6])
def test_injected_nu_grid_matches_pointwise(q):
    # q = 6 has no primitive quadratic character; the model takes any
    # character of modulus q
    pair = (enumerate_quadratic_characters(q)[0], 0.8)
    s = q.bit_length() - 1  # the level holding the arcs a/q
    G = 1 << 11
    xi = np.arange(G) / G
    for n in [0, 3, 7, 10]:
        grid = mp.nu_n_s_grid(n, s, G, pair)
        direct = mp.nu_n_s(n, s, xi, pair)
        assert np.max(np.abs(grid - direct)) <= 1e-12


def test_folded_mbeta_matches_direct_sum_at_exact_window_points():
    # dyadic centres a/q make theta = j/G - a/q exact, so the folded FFT and
    # the direct sum of fourier_M_beta see the same frequencies
    G = 1 << 10
    checked = 0
    for s in range(4):
        plan = mp._eta_windows(s, G)
        for arc, lo, hi in plan.spans:
            if arc.q & (arc.q - 1):
                continue
            if s == 0:  # level 0 holds theta >= 0 only; take its window
                idx, theta, _ = _level0_window(G)
            else:
                idx, theta = plan.idx[lo:hi], plan.theta[lo:hi]
            for n in [0, 1, 5, 10]:
                for beta in [0.5, 0.75, 0.95]:
                    folded = mp._mbeta_arc_grid(mp.kernel_M_beta(1 << n, beta), arc, G)[idx]
                    direct = mp.fourier_M_beta(1 << n, beta, theta)
                    assert np.max(np.abs(folded - direct)) <= 1e-13
                    checked += 1
    assert checked == 4 * 3 * (1 + 1 + 2 + 4)  # q = 1, 2, 4, 8


@pytest.mark.parametrize("G", [1 << 14, 1 << 18])
def test_plan_gauss_factors_are_the_per_arc_values(G):
    # g0 is formed only for the arcs that keep a point, with the bits of
    # G(1_q, a) called arc by arc; the spans tile the plan in order
    for s in range(1, 7):
        plan = mp._full_windows(s, G)
        ends = [0] + [hi for _, _, hi in plan.spans]
        assert [lo for _, lo, _ in plan.spans] == ends[:-1]
        assert ends[-1] == plan.g0.size == plan.idx.size  # none at 2^14 past level 4
        for arc, lo, hi in plan.spans:
            want = np.full(hi - lo, gauss.ramanujan_gauss_principal(arc.q, arc.a))
            assert np.array_equal(plan.g0[lo:hi].view(np.uint64), want.view(np.uint64)), (s, arc)


def test_exceptional_arcs_of_a_scale_share_one_kernel(monkeypatch):
    # the four arcs a/8 of level 3 read one kernel_M_beta(N, beta) per scale
    formed = []
    real = mp.kernel_M_beta

    def counted(N, beta):
        formed.append(N)
        return real(N, beta)

    chi = enumerate_quadratic_characters(8)[0]
    want = mp.nu_n_grid(10, 1 << 16, 3, (chi, 0.8))
    monkeypatch.setattr(mp, "kernel_M_beta", counted)
    got = mp.nu_n_grid(10, 1 << 16, 3, (chi, 0.8))
    assert sum(arc.q == 8 for arc, _, _ in mp._eta_windows(3, 1 << 16).spans) == 4
    assert formed == [1 << 10]
    assert np.array_equal(got, want)
    formed.clear()
    mp.nu_n_grid(10, 1 << 16, 2, (chi, 0.8))  # no arc of levels <= 2 has q = 8
    assert formed == []


@pytest.mark.parametrize("q", [8, 12])
def test_injected_grid_depends_on_the_character(q):
    # two quadratic characters mod q with the same beta give different
    # grids, each matching the pointwise layer
    chis = enumerate_quadratic_characters(q)[:2]
    s = q.bit_length() - 1
    G = 1 << 12
    xi = np.arange(G) / G
    grids = []
    for chi in chis:
        grids.append(mp.nu_n_s_grid(8, s, G, (chi, 0.8)))
        assert np.max(np.abs(grids[-1] - mp.nu_n_s(8, s, xi, (chi, 0.8)))) <= 1e-12
    assert np.max(np.abs(grids[0] - grids[1])) > 1e-3


def test_grids_are_fresh_and_levels_add_up_exactly():
    G = 1 << 10
    for pair in [None, synthetic_exceptional(5, 0.9)]:
        calls = [lambda: mp.nu_n_s_grid(8, 2, G, pair),
                 lambda: mp.nu_n_grid(8, G, 3, pair),
                 lambda: mp.pi_n_t_grid(8, 4.0, G)]
        for call in calls:
            want = call().copy()
            call()[:] = 7.0
            assert np.array_equal(call(), want)
        total = np.zeros(G, dtype=np.complex128)
        for s in range(4):
            total = total + mp.nu_n_s_grid(8, s, G, pair)
        assert np.array_equal(mp.nu_n_grid(8, G, 3, pair), total)


def test_synthetic_injection_changes_nu():
    G = 1 << 10
    base = mp.nu_n_grid(8, G, s_max=3)
    injected = mp.nu_n_grid(8, G, s_max=3, exceptional=synthetic_exceptional(5, 0.9))
    delta = float(np.max(np.abs(base - injected)))
    assert delta > 1e-3


def test_approximant_exceptional_modulus_must_match():
    pair = synthetic_exceptional(5, 0.9)
    with pytest.raises(DomainError):
        mp.approximant_hat(1, 3, 16, 0.01, pair)
    # on its own modulus the pair is accepted, and moves the value
    assert mp.approximant_hat(2, 5, 16, 0.01, pair) != mp.approximant_hat(2, 5, 16, 0.01)


# --- error measurements ---


def test_approximation_error_frozen_value(table_small):
    e8 = mp.approximation_error(8, 1 << 14, table_small)
    assert e8 == pytest.approx(0.347062, abs=5e-6)


def test_approximation_error_equals_public_grids_bit_for_bit(table_small):
    # the remainder route against the two public grids it subtracts
    G = 1 << 12
    for pair in [None, synthetic_exceptional(5, 0.9)]:
        for n in [8, 12, 16]:
            want = np.max(np.abs(mp.prime_multiplier_grid(1 << n, G, table_small)
                                 - mp.nu_n_grid(n, G, 3, pair)))
            assert mp.approximation_error(n, G, table_small, 3, pair) == want, (pair, n)


@pytest.mark.parametrize("G", [mp._CHUNK // 2, mp._CHUNK, 4 * mp._CHUNK])
def test_remainder_route_is_the_public_difference_across_window_edges(G, table_small):
    # the route forms nu_n in windows of two runs of w grid points each,
    # starting at multiples of w; at 4 _CHUNK the arcs a/8 of the pair's
    # modulus sit on those edges, so their windows straddle two runs
    w = min(mp._CHUNK, G) // 2
    chi = enumerate_quadratic_characters(8)[0]
    plan = mp._eta_windows(3, G)
    straddling = [arc for arc, lo, hi in plan.spans if arc.q == 8
                  and plan.idx[lo] // w != plan.idx[hi - 1] // w]
    assert len(straddling) == (4 if G > mp._CHUNK else 0)
    for pair in [None, (chi, 0.8)]:
        for n in [9, 16]:
            want = (mp.prime_multiplier_grid(1 << n, G, table_small)
                    - mp.nu_n_grid(n, G, 3, pair))
            got = next(mp._remainder_grids([n], G, table_small, 3, pair))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (pair, n)
            assert mp.approximation_error(n, G, table_small, 3, pair) == np.max(np.abs(want))


def test_approximation_error_peak_stays_within_its_working_set(table_small):
    # warm (the window plans built by a first call): the one grid buffer of
    # the remainder route and its window temporaries, 1.36 grids; the route
    # that formed nu_n and |m - nu| over the whole circle read 3.5 grids
    G = 1 << 18
    grid = 16 * G
    mp.approximation_error(16, G, table_small)
    tracemalloc.start()
    try:
        mp.approximation_error(16, G, table_small)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * grid, peak / grid


def test_approximation_error_domain(table_small):
    with pytest.raises(DomainError):
        mp.approximation_error(8, 1000, table_small)  # not a power of two
    with pytest.raises(DomainError):
        mp.approximation_error(30, 1 << 10, table_small)  # grid too coarse
    with pytest.raises(DomainError):
        mp.approximation_error(8, 1 << 10, table_small, s_max=-1)
    with pytest.raises(DomainError):
        mp.nu_n_grid(8, 1 << 10, s_max=-1)


def test_partial_summation_bracket_equals_prime_count(table_small):
    for N in [2, 3, 10, 97, 1000, 10000]:
        got = mp.partial_summation_bracket(N, table_small)
        want = float(table_small.count(N))
        assert abs(got - want) < 1e-8 * max(want, 1.0)
    for N in (1, 2.5):  # at 2.5 the float bracket would read 1.1255, not pi(2.5) = 1
        with pytest.raises(DomainError):
            mp.partial_summation_bracket(N, table_small)

