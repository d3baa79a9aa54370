"""Prime averaging operators, dyadic maximal functions, and weak norms.

Hand-checked small cases come first; the structural identities (pointwise
domination, A + B reconstruction, sublinearity, translation covariance)
are checked on random signals at fixed seeds.
"""

import math

import numpy as np
import pytest

import primeavg.maximal as mx
from primeavg.multipliers import kernel_M_beta, kernel_delta
from primeavg.ntheory import DomainError


# --- signals ---


def test_signal_constructors_and_access():
    d = mx.Signal.delta(at=3)
    assert d.at(3) == 1.0 and d.at(2) == 0.0
    iv = mx.Signal.interval(-2, 5)
    assert iv.at(np.array([-3, -2, 2, 3])).tolist() == [0.0, 1.0, 1.0, 0.0]
    ind = mx.Signal.indicator([7, 3, 3, 10])
    assert ind.offset == 3
    assert ind.mass() == 3.0
    assert ind.at(np.array([3, 7, 10, 5])).tolist() == [1.0, 1.0, 1.0, 0.0]


def test_signal_norms():
    f = mx.Signal(offset=0, values=np.array([3.0, -4.0]))
    assert f.lp_norm(2.0) == pytest.approx(5.0)
    assert f.lp_norm(1.0) == pytest.approx(7.0)
    assert f.max_abs() == 4.0
    h = mx.Signal(offset=1, values=np.array([-4.0]))
    xs = np.array([0, 1])
    assert (f.at(xs) - h.at(xs)).tolist() == [3.0, 0.0]


# --- averages of a point mass: exact hand values ---


def test_average_of_delta_lists_negated_primes(table_small):
    out = mx.average_primes(10, mx.Signal.delta(), table_small)
    # A_10 delta(x) = 1/4 exactly at x = -p for p in {2, 3, 5, 7}
    for x in [-2, -3, -5, -7]:
        assert out.at(x) == pytest.approx(0.25)
    assert out.at(-4) == 0.0 and out.at(0) == 0.0 and out.at(-8) == 0.0
    w = mx.average_primes_weighted(10, mx.Signal.delta(), table_small)
    theta = sum(math.log(p) for p in [2, 3, 5, 7])
    for p in [2, 3, 5, 7]:
        assert w.at(-p) == pytest.approx(math.log(p) / theta)


def test_apply_kernel_empty_and_delta():
    f = mx.Signal(offset=2, values=np.array([1.0, -1.0, 2.0]))
    out = mx.apply_kernel(kernel_M_beta(0, 1.0), f)
    assert not out.values.any()
    shifted = mx.apply_kernel(kernel_delta(4), f)
    # correlation by delta at site 4 shifts the support left by 4
    assert shifted.offset == -2
    assert shifted.at(np.array([-2, -1, 0])).tolist() == [1.0, -1.0, 2.0]


def test_all_scales_matrix_matches_single_calls(table_small, rng):
    f = mx.random_signal(rng, 40, complex_values=False, offset=5)
    off, Ns, rows = mx.prime_average_all_scales(f, 100, table_small, weighted=False)
    assert Ns.tolist() == table_small.primes_upto(100).tolist()
    for k, N in [(0, 2), (3, 7), (len(Ns) - 1, int(Ns[-1]))]:
        direct = mx.average_primes(N, f, table_small)
        row = mx.Signal(offset=off, values=rows[k])
        xs = np.arange(direct.offset, direct.support_end)
        assert np.allclose(row.at(xs), direct.values, atol=1e-12)


# --- maximal functions ---


def test_maximal_dyadic_delta_hand_case(table_small):
    g = mx.maximal_dyadic(mx.Signal.delta(), "averages", 3, table_small)
    # scales 2, 4, 8: A_2 = delta(x+2), A_4 = (1/2)(x in {-2,-3}),
    # A_8 = (1/4)(x in {-2,-3,-5,-7}); the sup at x = -2 is 1
    assert g.at(-2) == pytest.approx(1.0)
    assert g.at(-3) == pytest.approx(0.5)
    assert g.at(-5) == pytest.approx(0.25)
    assert abs(g.at(-4)) < 1e-12  # FFT roundoff dust off the support


def test_maximal_matches_per_scale_loop(table_small, rng):
    for family in ("averages", "weighted"):
        for complex_values in (False, True):
            for length, n_max in ((64, 6), (300, 12)):
                f = mx.random_signal(rng, length, complex_values=complex_values,
                                     offset=-9)
                g = mx.maximal_dyadic(f, family, n_max, table_small)
                assert g.offset == f.offset - (1 << n_max)
                assert g.support_end == f.support_end
                xs = np.arange(g.offset, g.support_end)
                brute = np.zeros(xs.size)
                for n in range(1, n_max + 1):
                    k = mx.prime_kernel(1 << n, table_small,
                                        weighted=(family == "weighted"))
                    out = mx.apply_kernel(k, f)
                    brute = np.maximum(brute, np.abs(out.at(xs)))
                assert np.allclose(g.values, brute, rtol=0, atol=1e-12)


def test_maximal_sublinearity_and_translation(table_small, rng):
    f = mx.random_signal(rng, 50, complex_values=False, offset=0)
    g = mx.random_signal(rng, 50, complex_values=False, offset=20)
    common = np.arange(f.offset, g.support_end)
    fg = mx.Signal(offset=f.offset, values=f.at(common) + g.at(common))
    mf = mx.maximal_dyadic(f, "averages", 5, table_small)
    mg = mx.maximal_dyadic(g, "averages", 5, table_small)
    mfg = mx.maximal_dyadic(fg, "averages", 5, table_small)
    xs = np.arange(mfg.offset, mfg.support_end)
    assert np.all(mfg.at(xs) <= mf.at(xs) + mg.at(xs) + 1e-12)
    # translation covariance: shifting f shifts the maximal function
    sh = mx.Signal(offset=f.offset + 13, values=f.values)
    msh = mx.maximal_dyadic(sh, "averages", 5, table_small)
    assert np.allclose(msh.at(xs + 13), mf.at(xs), atol=1e-12)


def test_pointwise_domination_by_weighted_sup(table_small, rng):
    # partial summation: |A_N f| <= sup_{N' <= N} |M_{N'} f| pointwise
    for trial in range(5):
        f = mx.random_signal(rng, 48, complex_values=(trial % 2 == 0), offset=-5)
        off, Ns, rows_u = mx.prime_average_all_scales(f, 128, table_small,
                                                      weighted=False)
        _, _, rows_w = mx.prime_average_all_scales(f, 128, table_small,
                                                   weighted=True)
        sup_w = np.max(np.abs(rows_w), axis=0)
        for k in range(len(Ns)):
            assert np.all(np.abs(rows_u[k]) <= sup_w + 1e-10)


def test_maximal_requires_table_and_knows_families(rng, table_small):
    f = mx.random_signal(rng, 8, complex_values=False)
    with pytest.raises(DomainError):
        mx.maximal_dyadic(f, "averages", 3)
    for family in ("averages", "weighted"):
        for n_max in (0, -1):
            with pytest.raises(DomainError):
                mx.maximal_dyadic(f, family, n_max, table_small)
    with pytest.raises(DomainError):
        mx.maximal_dyadic(f, "mbeta-filtered", 3)
    with pytest.raises(DomainError):
        mx.maximal_dyadic(f, "pi", 3)
    with pytest.raises(DomainError):
        mx.maximal_dyadic(f, "nu-s", 3)
    with pytest.raises(DomainError):
        mx.maximal_dyadic(f, "unheard-of", 3)


# --- weak norms ---


def test_weak_norm_hand_values():
    assert mx.weak_norm(np.array([3.0, 1.0, 1.0])) == 3.0
    assert mx.weak_norm(np.array([2.0, 2.0])) == 4.0
    assert mx.weak_norm(np.array([1.0, 1.0, 1.0, 1.0])) == 4.0
    assert mx.weak_norm(np.array([])) == 0.0
    assert mx.weak_norm(mx.Signal(offset=0, values=np.array([-3.0, 1.0, 1.0]))) == 3.0


def test_weak_norm_equals_sup_level_form(rng):
    v = np.abs(rng.standard_normal(200))
    g = mx.Signal(offset=0, values=v)
    # sup over lam of lam * #{|g| >= lam} is attained at a data value
    sup_form = max(lam * int((v >= lam).sum()) for lam in v)
    assert mx.weak_norm(g) == pytest.approx(sup_form)


def test_default_lambda_grid():
    grid = mx.default_lambda_grid(4)
    assert grid.tolist() == [0.5, 0.25, 0.125, 0.0625]


def test_weak_type_sweep_counts_monotone(table_small):
    F = mx.Signal.interval(0, 256)
    rep = mx.weak_type_sweep(F, mx.default_lambda_grid(8), 10, table_small)
    assert rep.set_size == 256.0
    assert np.all(np.diff(rep.counts) >= 0)  # grid decreases, counts grow
    assert rep.max_normalized == float(np.max(rep.normalized))
    assert np.all(rep.counts < np.inf)


def test_weak_type_sweep_validation(table_small):
    with pytest.raises(DomainError):
        mx.weak_type_sweep(mx.Signal(offset=0, values=np.array([0.5])),
                           mx.default_lambda_grid(3), 4, table_small)
    with pytest.raises(DomainError):
        mx.weak_type_sweep(mx.Signal(offset=0, values=np.zeros(4)),
                           mx.default_lambda_grid(3), 4, table_small)
    for bad in ([1.5], [np.nan], [0.5, np.inf], [-np.inf], []):
        with pytest.raises(DomainError):
            mx.weak_type_sweep(mx.Signal.interval(0, 4), np.array(bad), 4,
                               table_small)
    for n_max in (0, -2):
        with pytest.raises(DomainError):
            mx.weak_type_sweep(mx.Signal.interval(0, 4),
                               mx.default_lambda_grid(3), n_max, table_small)


# --- exact superlevel counts against integer oracles ---


def _weak_counts_from_scales(scale_counts, lam):
    """Superlevel counts from exact per-scale counts k_n on a common window:
    x counts for lam = 2^-j when k_n(x) * 2^j > pi(2^n) for some n."""
    js = [int(round(-math.log2(l))) for l in lam]
    assert all(0.5 ** j == l for j, l in zip(js, lam))
    hit = np.zeros((len(js), scale_counts[-1][1].size), dtype=bool)
    for pi_N, k in scale_counts:
        for i, j in enumerate(js):
            hit[i, hit.shape[1] - k.size:] |= k * (1 << j) > pi_N
    return hit.sum(axis=1)


def test_interval_counts_match_closed_form(table_big):
    # F = [0, L): the count at x is #{p <= N : -x <= p <= L - 1 - x}
    L, n_max = 1000, 14
    primes = table_big.prime_list
    scale_counts = list(mx.prime_scale_counts(mx.Signal.interval(0, L), n_max,
                                              table_big))
    oracle = []
    for n, (pi_N, k) in enumerate(scale_counts, start=1):
        N = 1 << n
        x = np.arange(-N, L)
        hi = np.searchsorted(primes, np.minimum(N, L - 1 - x), side="right")
        lo = np.searchsorted(primes, np.maximum(0, -x - 1), side="right")
        want = np.maximum(hi - lo, 0)
        assert pi_N == table_big.count(N)
        assert k.dtype == np.int64 and np.array_equal(k, want), n
        oracle.append((pi_N, want))
    lam = mx.default_lambda_grid(10)
    rep = mx.weak_type_sweep(mx.Signal.interval(0, L), lam, n_max, table_big)
    assert rep.counts.tolist() == _weak_counts_from_scales(oracle, lam).tolist()


def _oracle_scale_counts(F: mx.Signal, n_max: int, table):
    """Brute force: bincount of y - p over y in F and primes p <= 2^n, on
    the window [F.offset - 2^n_max, F.support_end)."""
    ys = F.offset + np.flatnonzero(F.values)
    lo = F.offset - (1 << n_max)
    acc = np.zeros(F.support_end - lo, dtype=np.int64)
    out, done = [], 0
    for n in range(1, n_max + 1):
        ps = table.primes_upto(1 << n)
        for i in range(done, ps.size, 256):
            pairs = ys[None, :] - ps[i: i + 256, None] - lo
            acc += np.bincount(pairs.ravel(), minlength=acc.size)
        done = ps.size
        out.append((ps.size, acc.copy()))
    return out


def _random_set(size: int) -> mx.Signal:
    rng = np.random.default_rng(0)
    return mx.Signal(offset=0,
                     values=(rng.random(8 * size) < 0.125).astype(np.float64))


@pytest.mark.parametrize("family, size, n_max", [
    ("random", 1024, 18), ("primes", 4096, 18), ("ap", 1024, 18),
    ("random", 256, 12), ("primes", 512, 11)])
def test_weak_counts_match_bruteforce_oracle(table_big, family, size, n_max):
    if family == "random":
        F = _random_set(size)
    elif family == "primes":
        F = mx.Signal.indicator(table_big.primes_upto(size))
    else:
        F = mx.Signal.indicator(1 + 3 * np.arange(size))
    lam = mx.default_lambda_grid(10)
    oracle = _oracle_scale_counts(F, n_max, table_big)
    rep = mx.weak_type_sweep(F, lam, n_max, table_big)
    assert rep.counts.tolist() == _weak_counts_from_scales(oracle, lam).tolist()
    if (family, size, n_max) == ("primes", 4096, 18):
        # a known tie: FFT roundoff used to decide it (2384)
        assert rep.counts[1] == 2376


def test_weak_type_sweep_any_lambda_order(table_small):
    # unsorted, repeated and non-dyadic lambdas: same counts as one at a time
    F = mx.Signal.indicator(1 + 3 * np.arange(200))
    lam = np.array([0.1, 0.5, 0.25, 0.1, 1 / 3, 0.75, 0.01])
    rep = mx.weak_type_sweep(F, lam, 10, table_small)
    single = [mx.weak_type_sweep(F, [l], 10, table_small).counts[0] for l in lam]
    assert rep.counts.tolist() == single
    assert rep.counts[0] == rep.counts[3]


# --- residue sampling, arc decay, A/B split ---


def test_residue_equidistribution_domain(rng):
    f = mx.random_signal(rng, 32, complex_values=False)
    with pytest.raises(DomainError):
        mx.residue_equidistribution(f, 5, 1, 1, 0.75, 6)  # Q > 4^s
    with pytest.raises(DomainError):
        mx.residue_equidistribution(f, 4, 0, 1, 0.75, 6)  # r out of range
    for bad in (mx.Signal(offset=0, values=np.zeros(4)),
                mx.Signal(offset=0, values=np.zeros(0)),
                mx.Signal(offset=0, values=np.array([1.0, np.nan]))):
        with pytest.raises(DomainError):
            mx.residue_equidistribution(bad, 4, 1, 1, 0.75, 6)
    with pytest.raises(DomainError):
        mx.residue_equidistribution(f, 4, 1, 1, 0.75, -1)  # n_max < 0
    for s, n_max in ((1.5, 4), (1, 4.0), (1, 2.5)):  # non-integer level or n_max
        with pytest.raises(DomainError):
            mx.residue_equidistribution(f, 4, 1, s, 0.75, n_max)
    out = mx.residue_equidistribution(f, 4, 2, 1, 0.75, 6, resolution=1 << 12)
    assert set(out) == {"Q", "r", "s", "beta", "weak_norm", "l1_norm", "ratio"}
    assert out["ratio"] > 0


@pytest.mark.parametrize("resolution", [0, -8, 1000, 1024.0])
def test_explicit_grid_must_be_positive_power_of_two(table_small, rng, resolution):
    f = mx.random_signal(rng, 32, complex_values=False)
    calls = [
        lambda: mx.l2_arc_maximal_decay(1, f, 4, resolution=resolution),
        lambda: mx.residue_equidistribution(f, 4, 1, 1, 0.75, 4, resolution=resolution),
        lambda: mx.ab_split_apply(4.0, 6, f, table_small, resolution=resolution),
        lambda: mx.b_part_maximal_l2(4.0, f, 6, table_small, resolution=resolution),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_explicit_grid_must_hold_support_and_reach(table_small, rng):
    # 32 + 2^4 fits a circle of 64 points; 32 + 2^6 would wrap the kernel
    f = mx.random_signal(rng, 32, complex_values=False)
    calls = [
        lambda: mx.l2_arc_maximal_decay(1, f, 6, resolution=64),
        lambda: mx.residue_equidistribution(f, 4, 1, 1, 0.75, 6, resolution=64),
        lambda: mx.ab_split_apply(4.0, 6, f, table_small, resolution=64),
        lambda: mx.b_part_maximal_l2(4.0, f, 6, table_small, resolution=64),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()
    assert mx.l2_arc_maximal_decay(1, f, 4, resolution=64) > 0


@pytest.mark.parametrize("complex_values", [False, True])
def test_residue_rows_follow_a_shift_of_f(rng, complex_values):
    # shifting f by one moves every sample of the maximal function and of the
    # filtered signal by one, so the class r + 1 (mod Q) of the shifted f
    # holds exactly the values of the class r of f
    f = mx.random_signal(rng, 40, complex_values=complex_values, offset=-3)
    sh = mx.Signal(offset=f.offset + 1, values=f.values)
    Q = 4
    for r in range(1, Q + 1):
        row = mx.residue_equidistribution(f, Q, r, 1, 0.75, 6)
        moved = mx.residue_equidistribution(sh, Q, r % Q + 1, 1, 0.75, 6)
        assert moved["weak_norm"] == row["weak_norm"]
        assert moved["l1_norm"] == row["l1_norm"]


def test_l2_arc_decay_decreases_in_s(rng):
    f = mx.random_signal(rng, 128, complex_values=True)
    vals = [mx.l2_arc_maximal_decay(s, f, 8, resolution=1 << 12)
            for s in range(4)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        mx.l2_arc_maximal_decay(1, f, -1)  # n_max < 0
    for s, n_max in ((1.5, 4), (1, 2.5), (np.nan, 4)):
        with pytest.raises(DomainError):
            mx.l2_arc_maximal_decay(s, f, n_max)
    for bad in (mx.Signal(offset=0, values=np.zeros(4)),
                mx.Signal(offset=0, values=np.zeros(0))):
        with pytest.raises(DomainError):
            mx.l2_arc_maximal_decay(1, bad, 4)


def test_ab_split_reconstructs_weighted_average(table_small, rng):
    f = mx.random_signal(rng, 100, complex_values=False, offset=3)
    a, b = mx.ab_split_apply(4.0, 6, f, table_small)
    assert a.offset == b.offset
    direct = mx.average_primes_weighted(1 << 6, f, table_small)
    xs = np.arange(direct.offset, direct.support_end)
    recon = mx.Signal(offset=a.offset, values=a.values + b.values)
    assert np.allclose(recon.at(xs).real, direct.values, atol=1e-8)
    # below threshold the B part is identically zero
    a2, b2 = mx.ab_split_apply(4.0, 3, f, table_small)
    assert not b2.values.any()
    assert np.allclose(a2.values, mx.average_primes_weighted(8, f, table_small).values)
    for t, n in ((np.nan, 6), (-1.0, 6), (4.0, -1)):
        with pytest.raises(DomainError):
            mx.ab_split_apply(t, n, f, table_small)


def test_b_part_l2_decreases_in_t(table_small, rng):
    f = mx.random_signal(rng, 64, complex_values=True)
    v4 = mx.b_part_maximal_l2(4.0, f, 10, table_small, resolution=1 << 12)
    v9 = mx.b_part_maximal_l2(9.0, f, 10, table_small, resolution=1 << 12)
    assert v9 < v4
    with pytest.raises(DomainError):
        mx.b_part_maximal_l2(9.0, f, 8, table_small, resolution=1 << 12)
    with pytest.raises(DomainError):
        mx.b_part_maximal_l2(np.nan, f, 6, table_small)
    for bad in (mx.Signal(offset=0, values=np.zeros(4)),
                mx.Signal(offset=0, values=np.zeros(0))):
        with pytest.raises(DomainError):
            mx.b_part_maximal_l2(4.0, bad, 6, table_small)


def test_lp_maximal_ratio_domain(table_small, rng):
    f = mx.random_signal(rng, 32, complex_values=False)
    with pytest.raises(DomainError):
        mx.lp_maximal_ratio(f, 1.0, 4, table_small)
    with pytest.raises(DomainError):
        mx.lp_maximal_ratio(f, 2.5, 4, table_small)
    with pytest.raises(DomainError):
        mx.lp_maximal_ratios(f, [], 4, table_small)
    r = mx.lp_maximal_ratio(f, 2.0, 6, table_small)
    assert 0 < r < 10
    with pytest.raises(DomainError):
        mx.lp_maximal_ratio(mx.Signal(offset=0, values=np.zeros(4)), 2.0, 4,
                            table_small)
    with pytest.raises(DomainError):
        mx.lp_maximal_ratios(mx.Signal(offset=0, values=np.zeros(0)), [1.5], 4,
                             table_small)
    with pytest.raises(DomainError):
        mx.lp_maximal_ratios(f, [1.5, np.nan], 4, table_small)


def test_lp_maximal_ratios_share_one_maximal_function(table_small, rng):
    f = mx.random_signal(rng, 40, complex_values=True)
    ps = [1.25, 1.5, 2.0]
    ratios = mx.lp_maximal_ratios(f, ps, 7, table_small)
    assert ratios == [mx.lp_maximal_ratio(f, p, 7, table_small) for p in ps]
