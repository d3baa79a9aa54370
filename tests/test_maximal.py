"""Prime averaging operators, dyadic maximal functions, and weak norms.

Hand-checked small cases come first; the structural identities (pointwise
domination, A + B reconstruction, sublinearity, translation covariance)
are checked on random signals at fixed seeds.
"""

import math
import tracemalloc

import numpy as np
import pytest

import primeavg.maximal as mx
import primeavg.multipliers as mult
import primeavg.ntheory as nt
from primeavg.multipliers import kernel_M_beta, kernel_delta
from primeavg.ntheory import SIEVE_CAP, DomainError, _dot


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


def test_apply_kernel_refuses_a_negative_site_before_its_dense_kernel(monkeypatch):
    # sites [-1, 3] returned a wrong correlation: dense[-1] is the top site,
    # so the weight of -1 was read at 3
    f = mx.Signal(offset=0, values=np.array([1.0, 2.0, 4.0]))
    right = mx.apply_kernel(mx.Kernel(sites=np.array([0, 3]), weights=np.array([0.5, 0.25])), f)
    assert right.offset == -3
    assert right.values.tolist() == [0.25, 0.5, 1.0, 0.5, 1.0, 2.0]

    def zeros(*args, **kwargs):
        raise AssertionError("dense kernel formed")

    monkeypatch.setattr(mx.np, "zeros", zeros)
    for sites in ([-1, 3], [-2], [3, -1]):
        kernel = mx.Kernel(sites=np.array(sites), weights=np.full(len(sites), 0.5))
        with pytest.raises(DomainError, match="sites >= 0"):
            mx.apply_kernel(kernel, f)


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
    for family in ("averages", "weighted"):
        for n_max in (0, -1):
            with pytest.raises(DomainError):
                mx.maximal_dyadic(f, family, n_max, table_small)
    with pytest.raises(DomainError):
        mx.maximal_dyadic(f, "mbeta-filtered", 3, table_small)
    with pytest.raises(DomainError):
        mx.maximal_dyadic(f, "pi", 3, table_small)
    with pytest.raises(DomainError):
        mx.maximal_dyadic(f, "nu-s", 3, table_small)
    with pytest.raises(DomainError):
        mx.maximal_dyadic(f, "unheard-of", 3, table_small)


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
    scale_counts = [(pi_N, k.copy()) for pi_N, k in
                    mx.prime_scale_counts(mx.Signal.interval(0, L), n_max, table_big)]
    oracle = []
    for n, (pi_N, k) in enumerate(scale_counts, start=1):
        N = 1 << n
        x = np.arange(-N, L)
        hi = np.searchsorted(primes, np.minimum(N, L - 1 - x), side="right")
        lo = np.searchsorted(primes, np.maximum(0, -x - 1), side="right")
        want = np.maximum(hi - lo, 0)
        assert pi_N == table_big.count(N)
        assert k.dtype == np.int32 and np.array_equal(k, want), n
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


# --- band-blocked prime counts ---


def _set_of_length(length: int, offset: int) -> mx.Signal:
    """A seeded 0/1 set whose window is exactly `length` points long."""
    vals = (np.random.default_rng(length).random(length) < 0.3).astype(np.float64)
    vals[0] = vals[-1] = 1.0
    return mx.Signal(offset=offset, values=vals)


def _assert_scale_counts_match_oracle(F: mx.Signal, n_max: int, table):
    got = [(pi_N, k.copy()) for pi_N, k in mx.prime_scale_counts(F, n_max, table)]
    oracle = _oracle_scale_counts(F, n_max, table)
    assert len(got) == n_max
    for n, ((pi_N, k), (pi_want, want)) in enumerate(zip(got, oracle), start=1):
        cut = want.size - k.size  # the oracle's window starts 2^n_max left of F
        assert pi_N == pi_want and k.dtype == np.int32 and cut == (1 << n_max) - (1 << n)
        assert np.array_equal(k, want[cut:]) and not want[:cut].any(), n


@pytest.mark.parametrize("n_max", [1, 3, 12])
@pytest.mark.parametrize("offset", [0, -7, 13])
@pytest.mark.parametrize("length", [1, 2, 1023, 1024, 1025, 8190])
def test_scale_counts_match_bruteforce_oracle(table_big, length, offset, n_max):
    # at n_max 1 and 3 every band is added as shifted copies of F, and every
    # set from 1023 points on is longer than 2^n_max; at n_max 12 the bands
    # past 2^9 are correlated in blocks of B = 2^8 (|F| <= 2) up to 2^13
    _assert_scale_counts_match_oracle(_set_of_length(length, offset), n_max, table_big)


def test_scale_counts_over_several_batches_of_blocks(table_big):
    # |F| = 1 takes the least block: band 17 holds 2^16 / B blocks, more than
    # one batched transform takes
    B = mx._MIN_BLOCK
    assert (1 << 16) // B > max(1, mx._BATCH_POINTS // (2 * B))
    _assert_scale_counts_match_oracle(mx.Signal.delta(at=-5), 17, table_big)


def test_scale_counts_guard_fires_on_roundoff(table_big, monkeypatch):
    # an inverse transform off by 0.3 could move a count once rounded
    irfft = np.fft.irfft
    monkeypatch.setattr(mx.np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    with pytest.raises(ArithmeticError):
        list(mx.prime_scale_counts(mx.Signal.interval(0, 100), 12, table_big))


def test_superlevel_counts_past_255_levels_match_a_direct_count(table_big):
    # 300 levels take the uint16 level type; lambda = j / 512 is exact, so
    # k / pi_N > lambda is k * 512 > j * pi_N in integers
    F = _random_set(700)
    n_max = 12
    scale_counts = [(pi_N, k.copy()) for pi_N, k in mx.prime_scale_counts(F, n_max, table_big)]
    width = (1 << n_max) + F.values.size
    js = np.random.default_rng(5).permutation(np.arange(1, 301))
    lam = js / 512
    assert np.min_scalar_type(lam.size) == np.uint16
    hit = np.zeros((lam.size, width), dtype=bool)
    for pi_N, k in scale_counts:
        hit[:, width - k.size:] |= k[None, :] * 512 > js[:, None] * pi_N
    got = mx._superlevel_counts(iter(scale_counts), lam, width)
    assert got.tolist() == hit.sum(axis=1).tolist()
    assert len(set(got.tolist())) > 100  # the levels are told apart


def test_scale_counts_are_read_only_views_in_int32(table_big):
    # every count is at most pi(2^n_max) <= SIEVE_CAP, so int32 holds it
    # exactly; each scale is a view of the one accumulator, not a copy
    assert SIEVE_CAP <= np.iinfo(np.int32).max
    F = mx.Signal.interval(0, 100)
    for _, k in mx.prime_scale_counts(F, 12, table_big):
        assert k.dtype == np.int32 and not k.flags.writeable and k.base is not None
        with pytest.raises(ValueError):
            k[0] = 0


def test_weak_type_sweep_peak_at_n_max_18(table_big):
    # one int32 accumulator over the window, viewed (not copied) at each
    # scale, one band's batch buffers, and the superlevel levels and one
    # scale's gathered levels in uint8: about 3.81 MiB, against 6.2 MiB with
    # an int64 accumulator, a copy per scale and fresh batch buffers, 8.2 MiB
    # with int64 levels too, and 23.3 MiB for a full-circle FFT pair per scale.
    # np.take and np.bincount still cast a whole window to intp: taken
    # 2^15 points at a time the peak is 3.13 MiB, but no 2 MiB block is then
    # freed to lift glibc's mmap threshold, and the later sweeps fault 3x more
    F = mx.Signal.interval(0, 1024)
    lam = mx.default_lambda_grid(10)
    mx.weak_type_sweep(F, lam, 18, table_big)  # warm
    tracemalloc.start()
    try:
        mx.weak_type_sweep(F, lam, 18, table_big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.9 * (1 << 20), peak


# --- residue sampling, arc decay, A/B split ---


def test_residue_equidistribution_domain(rng):
    f = mx.random_signal(rng, 32, complex_values=False)
    with pytest.raises(DomainError):
        mx.residue_equidistribution(f, 5, 1, 1, 0.75, 6, 1 << 14)  # Q > 4^s
    with pytest.raises(DomainError):
        mx.residue_equidistribution(f, 4, 0, 1, 0.75, 6, 1 << 14)  # r out of range
    for bad in (mx.Signal(offset=0, values=np.zeros(4)),
                mx.Signal(offset=0, values=np.zeros(0)),
                mx.Signal(offset=0, values=np.array([1.0, np.nan]))):
        with pytest.raises(DomainError):
            mx.residue_equidistribution(bad, 4, 1, 1, 0.75, 6, 1 << 14)
    with pytest.raises(DomainError):
        mx.residue_equidistribution(f, 4, 1, 1, 0.75, -1, 1 << 14)  # n_max < 0
    for s, n_max in ((1.5, 4), (1, 4.0), (1, 2.5)):  # non-integer level or n_max
        with pytest.raises(DomainError):
            mx.residue_equidistribution(f, 4, 1, s, 0.75, n_max, 1 << 14)
    out = mx.residue_equidistribution(f, 4, 2, 1, 0.75, 6, resolution=1 << 12)
    assert set(out) == {"Q", "r", "s", "beta", "weak_norm", "l1_norm", "ratio"}
    assert out["ratio"] > 0


def test_residue_level_past_the_float_range(rng):
    # 2^(4s) is no float past s = 255; eta_s is [xi = 0] there, at any level
    f = mx.random_signal(rng, 32, complex_values=False)
    out = mx.residue_equidistribution(f, 4, 1, 256, 0.9, 3, 64)
    assert math.isfinite(out["ratio"])
    assert mx.residue_equidistribution(f, 4, 1, 1000, 0.9, 3, 64) == {**out, "s": 1000}


@pytest.mark.parametrize("resolution", [0, -8, 1000, 1024.0])
def test_explicit_grid_must_be_positive_power_of_two(table_small, rng, resolution):
    f = mx.random_signal(rng, 32, complex_values=False)
    calls = [
        lambda: mx.l2_arc_maximal_decay(1, f, 4, resolution=resolution),
        lambda: mx.residue_equidistribution(f, 4, 1, 1, 0.75, 4, resolution=resolution),
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
        row = mx.residue_equidistribution(f, Q, r, 1, 0.75, 6, 1 << 14)
        moved = mx.residue_equidistribution(sh, Q, r % Q + 1, 1, 0.75, 6,
                                            1 << 14)
        assert moved["weak_norm"] == row["weak_norm"]
        assert moved["l1_norm"] == row["l1_norm"]


# --- residue_equidistribution's one held filtered signal and sup ---


@pytest.fixture()
def residue_builds(monkeypatch):
    """The f of every held entry residue_equidistribution builds while the
    test runs, starting from an empty store."""
    builds = []
    real = mx._residue_entry

    def counted(f, *args):
        builds.append(f)
        return real(f, *args)

    monkeypatch.setattr(mx, "_residue_entry", counted)
    monkeypatch.delitem(nt._HELD, "residue", raising=False)
    return builds


def _residue_per_class(f, Q, r, s, beta, n_max, Z):
    """(weak norm, l1 norm) of one class, filtered signal and sup formed for
    that class alone, the l1 norm read before the sup uses the signal up."""
    fhat, inverse = mx._spectrum(mx._circle(f, n_max, Z))
    eta_grid = mult.eta_s(s, mult._circular(np.arange(Z, dtype=np.float64) / Z))
    filtered = inverse(fhat * eta_grid.astype(np.complex128)[: fhat.size], Z)
    cls = np.mod(f.offset - (1 << n_max) + np.arange(Z) - r, Q) == 0
    l1 = float(np.sum(np.abs(filtered[cls])))
    sup = mx._multiplier_sup(filtered, (mx._mbeta_multiplier_grid(1 << n, beta, Z)
                                        for n in range(n_max + 1)))
    return mx.weak_norm(sup[cls]), l1


def _bits(row):
    return np.array([row["weak_norm"], row["l1_norm"], row["ratio"]]).view(np.uint64)


@pytest.mark.parametrize("Q,s", [(4, 1), (4, 2), (16, 2)])
@pytest.mark.parametrize("complex_values", [False, True])
def test_residue_classes_share_one_entry_with_the_bits_of_each_alone(
        Q, s, complex_values, residue_builds, monkeypatch):
    # every class of one f reads the one held entry, and gets the bits of
    # the per-class route and of the same call on an empty store
    f = mx.random_signal(np.random.default_rng(Q + s), 48, complex_values=complex_values,
                         offset=-5)
    rows = [mx.residue_equidistribution(f, Q, r, s, 0.9, 7, 1 << 12) for r in range(1, Q + 1)]
    assert len(residue_builds) == 1
    for r, row in enumerate(rows, 1):
        weak, l1 = _residue_per_class(f, Q, r, s, 0.9, 7, 1 << 12)
        want = {**row, "weak_norm": weak, "l1_norm": l1, "ratio": weak / l1}
        assert np.array_equal(_bits(row), _bits(want)), r
        monkeypatch.delitem(nt._HELD, "residue")
        alone = mx.residue_equidistribution(f, Q, r, s, 0.9, 7, 1 << 12)
        assert np.array_equal(_bits(row), _bits(alone)), r
        assert row == alone
    filtered, sup = nt._HELD["residue"][2]
    assert not (filtered.flags.writeable or sup.flags.writeable)


def test_residue_entry_misses_on_any_change_of_its_key(residue_builds):
    f = mx.random_signal(np.random.default_rng(33), 40, complex_values=False)
    args = dict(Q=4, s=1, beta=0.75, n_max=6, resolution=1 << 10)

    def misses(g, **changed):
        before = len(residue_builds)
        for r in (1, 2):
            mx.residue_equidistribution(g, **{**args, "r": r, **changed})
        return len(residue_builds) - before

    assert misses(f) == 1
    assert misses(f) == 0
    assert misses(f, Q=2) == 0  # Q and r are read off the entry
    assert misses(mx.Signal(offset=f.offset + 1, values=f.values)) == 1  # offset
    assert misses(f) == 1
    assert misses(mx.Signal(offset=f.offset, values=f.values.astype(np.complex128))) == 1
    assert misses(mx.Signal(offset=f.offset, values=np.append(f.values, 0.0))) == 1  # shape
    assert misses(f) == 1
    assert misses(f, s=2) == 1
    assert misses(f, beta=0.8) == 1
    assert misses(f, n_max=5) == 1
    assert misses(f, resolution=1 << 11) == 1
    assert misses(f) == 1
    f.values[7] = 2.0  # written in place
    assert misses(f) == 1
    assert misses(f) == 0


def test_residue_hit_still_checks_its_arguments(residue_builds):
    # every argument check comes before the held entry is read
    f = mx.random_signal(np.random.default_rng(34), 40)
    mx.residue_equidistribution(f, 4, 1, 1, 0.75, 6, 1 << 10)
    for bad in [(5, 1, 1, 0.75), (4, 0, 1, 0.75), (4, 5, 1, 0.75), (4, 1, 1, 0.3),
                (4, 1, 1.5, 0.75), (4.0, 1, 1, 0.75)]:
        with pytest.raises(DomainError):
            mx.residue_equidistribution(f, *bad, 6, 1 << 10)
    with pytest.raises(nt.CapacityError):
        mx.residue_equidistribution(f, 4, 1, 1, 0.75, 10**30, 1 << 10)
    with pytest.raises(DomainError):
        mx.residue_equidistribution(f, 4, 1, 1, 0.75, 6, 64)  # the circle wraps
    assert len(residue_builds) == 1


def test_residue_miss_drops_the_held_entry_before_it_builds(residue_builds):
    # a miss peaks at one cold call, which already counts the entry it
    # builds: keeping the old entry through the build would add its bytes
    rng = np.random.default_rng(35)
    f, g = (mx.random_signal(rng, 200) for _ in range(2))
    args = (4, 1, 1, 0.75, 10, 1 << 14)
    mx.residue_equidistribution(f, *args)  # warm the eta tables
    nt._HELD.pop("residue")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mx.residue_equidistribution(f, *args)
        cold = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        mx.residue_equidistribution(g, *args)
        miss = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    entry = sum(a.nbytes for a in nt._HELD["residue"][2])
    assert entry == 24 << 14  # complex filtered signal and float sup
    assert miss <= cold + (16 << 10), (miss, cold, entry)


def test_l2_arc_decay_decreases_in_s(rng):
    f = mx.random_signal(rng, 128, complex_values=True)
    vals = [mx.l2_arc_maximal_decay(s, f, 8, resolution=1 << 12)
            for s in range(4)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        mx.l2_arc_maximal_decay(1, f, -1, 1 << 14)  # n_max < 0
    for s, n_max in ((1.5, 4), (1, 2.5), (np.nan, 4)):
        with pytest.raises(DomainError):
            mx.l2_arc_maximal_decay(s, f, n_max, 1 << 14)
    for bad in (mx.Signal(offset=0, values=np.zeros(4)),
                mx.Signal(offset=0, values=np.zeros(0))):
        with pytest.raises(DomainError):
            mx.l2_arc_maximal_decay(1, bad, 4, 1 << 14)


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


def _public_circle_spectrum(f, n_max, G):
    # f at index 2^n_max on the complex circle of G points, transformed once
    arr = np.zeros(G, dtype=np.complex128)
    arr[1 << n_max: (1 << n_max) + len(f.values)] = f.values
    return np.fft.fft(arr)


@pytest.mark.parametrize("G", [1 << 12, 1 << 14])
@pytest.mark.parametrize("complex_values", [True, False])
def test_b_part_equals_public_grids_bit_for_bit(G, complex_values, table_small):
    # the buffered loop against the route through the public grids: one
    # inverse FFT of fhat * (m_N - Pi_n^t) per scale, its modulus folded
    # into a running max
    f = mx.random_signal(np.random.default_rng(G + complex_values), 200,
                         complex_values=complex_values, offset=-7)
    n_max = 10
    fhat = _public_circle_spectrum(f, n_max, G)
    for t in (4.0, 9.0):
        run = np.zeros(G)
        for n in range(math.ceil(t), n_max + 1):
            grid = (mult.prime_multiplier_grid(1 << n, G, table_small)
                    - mult.pi_n_t_grid(n, t, G))
            run = np.maximum(run, np.abs(np.fft.ifft(fhat * grid)))
        want = math.sqrt(_dot(run, run)) / f.lp_norm(2.0)
        assert mx.b_part_maximal_l2(t, f, n_max, table_small, resolution=G) == want, t


def test_ab_split_equals_public_grids_bit_for_bit(table_small):
    f = mx.random_signal(np.random.default_rng(5), 100, complex_values=True)
    for t, n in ((4.0, 6), (9.0, 11)):
        a, b = mx.ab_split_apply(t, n, f, table_small)
        G = a.values.size
        fhat = _public_circle_spectrum(f, n, G)
        pi_grid = mult.pi_n_t_grid(n, t, G)
        m_grid = mult.prime_multiplier_grid(1 << n, G, table_small)
        assert np.array_equal(a.values.view(np.uint64),
                              np.fft.ifft(fhat * pi_grid).view(np.uint64))
        assert np.array_equal(b.values.view(np.uint64),
                              np.fft.ifft(fhat * (m_grid - pi_grid)).view(np.uint64))


def test_b_part_peak_stays_within_its_working_set(table_small):
    # The unit is one complex grid.  Cold, the window plans are built inside
    # the call, before the grid buffers, and eta's band on the level-0 plan
    # sets the peak at 5.9 grids (7.1 when nu_n and |.| took a grid each).
    # Warm, the scales run through the signal's transform, one remainder
    # buffer, the real sup and the plans, with window-sized temporaries:
    # 4.2 grids (5.5 before).  Each bound allows a third of a grid more;
    # the level-0 plan holds 0.75
    G = 1 << 16
    grid = 16 * G
    f = mx.random_signal(np.random.default_rng(16), 512, complex_values=True)
    mult._eta_windows.cache_clear()
    nt._gl_rule()  # importing numpy.polynomial is no part of the call's working set
    for bound in (6.25, 4.5):
        tracemalloc.start()
        try:
            mx.b_part_maximal_l2(4.0, f, 15, table_small, resolution=G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * grid, (bound, peak / grid)
    plan = mult._eta_windows(0, G)
    held = sum(a.nbytes for a in (plan.idx, plan.theta, plan.inv_sin, plan.eta, plan.g0)
               if a is not None)
    assert held <= grid, held / grid


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


_NOT_INTEGER_OR_NOT_FINITE = {
    "dyadic-n-max": lambda f, F, t: mx.maximal_dyadic(f, "averages", 2.5, t),
    "sweep-n-max": lambda f, F, t: mx.weak_type_sweep(F, np.array([0.5]), 2.5, t),
    "split-n": lambda f, F, t: mx.ab_split_apply(1.0, 2.5, f, t),
    "lp-nan-signal": lambda f, F, t: mx.lp_maximal_ratios(
        mx.Signal(offset=0, values=np.array([1.0, np.nan])), [1.5], 3, t),
    "residue-Q": lambda f, F, t: mx.residue_equidistribution(
        f, 2.5, 1, 1, 0.75, 3, 1 << 14),
    "residue-r": lambda f, F, t: mx.residue_equidistribution(
        f, 4, 1.5, 1, 0.75, 3, 1 << 14),
    "dyadic-nan-signal": lambda f, F, t: mx.maximal_dyadic(
        mx.Signal(offset=0, values=np.array([1.0, np.nan])), "averages", 3, t),
    "dyadic-inf-signal": lambda f, F, t: mx.maximal_dyadic(
        mx.Signal(offset=0, values=np.array([np.inf, 1.0])), "weighted", 3, t),
    "weak-norm-nan": lambda f, F, t: mx.weak_norm(np.array([1.0, np.nan])),
    "weak-norm-inf": lambda f, F, t: mx.weak_norm(
        mx.Signal(offset=0, values=np.array([-np.inf, 1.0]))),
    "all-scales-nan-N": lambda f, F, t: mx.prime_average_all_scales(f, np.nan, t, True),
    "lambda-grid-fractional": lambda f, F, t: mx.default_lambda_grid(2.5),
    "lambda-grid-empty": lambda f, F, t: mx.default_lambda_grid(0),
}


@pytest.mark.parametrize("call", _NOT_INTEGER_OR_NOT_FINITE.values(),
                         ids=_NOT_INTEGER_OR_NOT_FINITE.keys())
def test_counts_must_be_integers_and_signals_finite(call, table_small, rng):
    f = mx.random_signal(rng, 16, complex_values=False)
    with pytest.raises(DomainError):
        call(f, mx.Signal.interval(0, 8), table_small)


_SCALE_ONE_IS_NOT_PRIME = {
    "b-part-t-0": (lambda f, t: mx.b_part_maximal_l2(0.0, f, 4, t), "t = 0.0"),
    "split-n-0": (lambda f, t: mx.ab_split_apply(1.0, 0, f, t), "n = 0"),
    "split-t-0-n-0": (lambda f, t: mx.ab_split_apply(0.0, 0, f, t), "n = 0"),
}


@pytest.mark.parametrize("call,named", _SCALE_ONE_IS_NOT_PRIME.values(),
                         ids=_SCALE_ONE_IS_NOT_PRIME.keys())
def test_b_part_entry_points_reject_scale_one(call, named, table_small, rng):
    # N = 2^0 = 1 has no prime; the entry point names the argument at fault
    with pytest.raises(DomainError, match=named):
        call(mx.random_signal(rng, 16, complex_values=True), table_small)


# --- lp_maximal_ratios' one held maximal function ---


@pytest.fixture()
def scale_runs(monkeypatch):
    """The n_max of every _prime_scales run, i.e. of every maximal function
    formed, while the test runs."""
    runs = []
    real = mx._prime_scales

    def counted(f, n_max, table, weighted):
        runs.append(n_max)
        return real(f, n_max, table, weighted)

    monkeypatch.setattr(mx, "_prime_scales", counted)
    return runs


def _lp_direct(f, ps, n_max, table):
    g = mx.maximal_dyadic(f, "weighted", n_max, table)
    return [float(g.lp_norm(p) / f.lp_norm(p)) for p in ps]


def test_lp_maximal_ratios_share_one_maximal_function(table_small, rng, scale_runs):
    # single-p calls on one f form its maximal function once, with the bits
    # of one call for every p and of the direct route
    f = mx.random_signal(rng, 40, complex_values=True)
    ps = [1.25, 1.5, 2.0]
    got = [mx.lp_maximal_ratio(f, p, 7, table_small) for p in ps]
    assert scale_runs == [7]
    assert got == mx.lp_maximal_ratios(f, ps, 7, table_small)
    assert scale_runs == [7]
    assert got == _lp_direct(f, ps, 7, table_small)
    assert not nt._HELD["lp"][2].flags.writeable


def test_lp_memo_misses_on_any_change_of_its_key(table_small, scale_runs):
    # a twin table holds the same primes but is another object: the key
    # takes the table by identity
    f = mx.random_signal(np.random.default_rng(32), 48)
    twin = type(table_small)(limit=table_small.limit, prime_list=table_small.prime_list)
    moved = mx.Signal(offset=f.offset + 1, values=f.values)
    ps = [1.5, 2.0]

    def formed(g, n_max, table):
        before = len(scale_runs)
        got = mx.lp_maximal_ratios(g, ps, n_max, table)
        runs = len(scale_runs) - before
        assert got == _lp_direct(g, ps, n_max, table)
        return runs

    assert formed(f, 8, table_small) == 1
    assert formed(f, 8, table_small) == 0
    assert formed(f, 7, table_small) == 1  # another n_max
    assert formed(f, 7, twin) == 1  # another table
    assert formed(moved, 7, twin) == 1  # another offset
    moved.values[5] = 2.0  # written in place, through both signals
    assert formed(moved, 7, twin) == 1
    assert formed(moved, 7, twin) == 0


def test_an_lp_miss_frees_the_held_maximal_function_first(table_small):
    # at n_max 14 the held maximal function is 2^14 + 64 doubles (128.5 KiB)
    # of the 2.2 MB one call peaks at; two misses in a row peak as one does,
    # within the key's copy of a signal (1 KiB) and a little allocator slack
    f, g, h = (mx.random_signal(np.random.default_rng(s), 64) for s in (33, 34, 35))
    mx.lp_maximal_ratios(f, [1.5], 14, table_small)
    peaks = []
    for signals in ([g], [h, f]):
        tracemalloc.start()
        try:
            for s in signals:
                mx.lp_maximal_ratios(s, [1.5], 14, table_small)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 16 * 1024, (peaks, 8 * ((1 << 14) + 64))
