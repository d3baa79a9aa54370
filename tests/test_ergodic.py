"""Circle rotations, orbit averages, and the transference identity.

The rotation oracle is exact rational arithmetic with Fraction; the
silver-rotation orbit average is checked against an independent mpmath
summation at high precision.
"""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import primeavg.ergodic as er
from primeavg.ntheory import CapacityError, DomainError


# --- system construction ---


def test_rotation_convergent_denominator_window():
    for name in ["golden", "silver"]:
        sys = er.DynamicalSystem.rotation(name)
        assert (1 << 33) <= sys.den < (1 << 38)
        assert math.gcd(sys.num, sys.den) == 1
    g = er.DynamicalSystem.rotation("golden")
    target = (math.sqrt(5) - 1) / 2
    assert abs(g.alpha - target) < 1e-15
    s = er.DynamicalSystem.rotation("silver")
    assert abs(s.alpha - (math.sqrt(2) - 1)) < 1e-15


def test_rotation_from_float_and_depth():
    r = er.DynamicalSystem.rotation(0.25)
    assert Fraction(r.num, r.den) == Fraction(1, 4)
    ident = er.DynamicalSystem.rotation(0.0)
    assert (ident.num, ident.den) == (0, 1)
    # shallow continued fraction: golden with depth 3 is [1;1,1] = 2/3
    shallow = er.DynamicalSystem.rotation("golden", cf_depth=3)
    assert Fraction(shallow.num, shallow.den) == Fraction(2, 3)
    with pytest.raises(DomainError):
        er.DynamicalSystem.rotation(1.5)
    # the cf_depth check holds at alpha = 0 too, whose expansion is empty
    for alpha in ("golden", 0.5, 0.0):
        with pytest.raises(DomainError):
            er.DynamicalSystem.rotation(alpha, cf_depth=0)


def test_shift_system_and_validation():
    sh = er.DynamicalSystem.shift(97)
    ks = np.arange(200)
    pos = sh.orbit_positions(3, ks)
    assert pos.tolist() == [(3 + k) % 97 for k in range(200)]
    # an integral float, as the CLI parses --x0 3, is the integer 3; a start
    # far outside [0, m) is reduced mod m exactly
    assert np.array_equal(sh.orbit_positions(3.0, ks), pos)
    assert np.array_equal(sh.orbit_positions(np.int64(3), ks), pos)
    assert np.array_equal(sh.orbit_positions(3 - 97 * 10**15, ks), pos)
    assert np.array_equal(sh.orbit_positions(float(3 + 97 * 2**40), ks), pos)
    with pytest.raises(DomainError):
        er.DynamicalSystem.shift(0)
    with pytest.raises(DomainError):
        sh.alpha


def test_shift_modulus_cap_keeps_residues_exact():
    # a residue below 2^62 plus an index below 2^25 cannot wrap int64; past
    # the cap, shift(2^63 - 1) mapped 2^63 - 2 by 5 steps to 2, not 4
    big = er.DynamicalSystem.shift(1 << 62)
    assert big.orbit_positions((1 << 62) - 1, np.array([5, (1 << 25) - 1])).tolist() == \
        [4, (1 << 25) - 2]
    for m in ((1 << 62) + 1, 2**63 - 1, 10**30):
        with pytest.raises(CapacityError):
            er.DynamicalSystem.shift(m)


def test_orbit_positions_match_fraction_oracle():
    sys = er.DynamicalSystem.rotation("golden")
    alpha = Fraction(sys.num, sys.den)
    x0 = 0.3
    ks = np.array([0, 1, 2, 977, 514229, (1 << 25) - 1])
    got = sys.orbit_positions(x0, ks)
    for k, g in zip(ks, got):
        rot = (int(k) * alpha) % 1
        want = (x0 + float(rot)) % 1.0
        assert abs(g - want) < 1e-12
    with pytest.raises(DomainError):
        sys.orbit_positions(0.0, np.array([1 << 25]))
    with pytest.raises(DomainError):
        sys.orbit_positions(0.0, np.array([-1]))
    with pytest.raises(DomainError):
        sys.orbit_positions(math.nan, ks)


_EDGE_STARTS = [0.0, -0.0, -1e-20, -5e-324, 0.999999999999, 1 - 2**-53,
                -(1 - 2**-53), 5.5, -3.25, 1e15, 0.3, 0.7071067811865476]


@pytest.mark.parametrize("alpha", ["golden", "silver", 0.0, 0.5, 1 / 3, 0.123456789])
def test_orbit_positions_bit_identical_to_the_fmod_formula(alpha):
    # the one-subtraction wrap must give the bits of the fmod wrap, +0.0 at
    # s + r = 1 (x0 = -1e-20 has s = 1.0 and r = 0 at k = 0) included
    sys = er.DynamicalSystem.rotation(alpha)
    num, den = sys.num, sys.den
    rng = np.random.default_rng(11)
    ks = np.concatenate([np.arange(2000), rng.integers(0, 1 << 25, 2000),
                         [(1 << 25) - 1]]).astype(np.int64)
    for x0 in _EDGE_STARTS + list(rng.random(8)):
        want = np.mod(float(x0) % 1.0 + np.mod(ks * num, den) / den, 1.0)
        got = sys.orbit_positions(x0, ks)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), x0
        assert np.all((got >= 0.0) & (got < 1.0))


def test_identity_rotation_keeps_x0():
    ident = er.DynamicalSystem.rotation(0.0)
    pos = ident.orbit_positions(0.3, np.arange(5))
    assert np.allclose(pos, 0.3)


def test_interval_indicator_wraps():
    f = er.interval_indicator(0.0, 0.5)
    assert f(np.array([0.0, 0.49, 0.5, 0.9])).tolist() == [1.0, 1.0, 0.0, 0.0]
    wrap = er.interval_indicator(0.9, 0.1)
    assert wrap(np.array([0.95, 0.05, 0.5])).tolist() == [1.0, 1.0, 0.0]


def test_interval_indicator_rejects_non_finite_endpoints():
    for a, b in ((math.nan, 0.5), (0.0, math.inf), (-math.inf, 0.5)):
        with pytest.raises(DomainError):
            er.interval_indicator(a, b)


# --- orbit averages ---


def test_orbit_average_silver_rational_value(table_small):
    # with f = 1_{[0, 1/2)} every term is 0 or 1: the N = 1024 average is a
    # ratio of integers, reproduced exactly by high-precision arithmetic
    sys = er.DynamicalSystem.rotation("silver")
    f = er.interval_indicator(0.0, 0.5)
    got = er.orbit_average(sys, f, 0.0, 1 << 10, table_small)
    with mpmath.workdps(60):
        alpha = mpmath.mpf(sys.num) / sys.den
        hits = 0
        ps = table_small.primes_upto(1 << 10)
        for p in ps:
            hits += 1 if mpmath.frac(int(p) * alpha) < mpmath.mpf(1) / 2 else 0
        want = mpmath.mpf(hits) / len(ps)
    assert got == pytest.approx(float(want), abs=1e-15)
    assert er.orbit_average(sys, f, 0.0, 1 << 10, table_small) == pytest.approx(80 / 172)


def test_orbit_average_respects_domain(table_small):
    sys = er.DynamicalSystem.rotation("golden")
    with pytest.raises(DomainError):
        er.orbit_average(sys, er.interval_indicator(0, 0.5), 0.0, 1, table_small)


def test_convergence_diagnostic_constant_observable(table_small):
    sys = er.DynamicalSystem.rotation("golden")
    trace = er.convergence_diagnostic(sys, lambda x: np.ones_like(x), 0.1, 8,
                                      table_small, reference=1.0)
    assert np.allclose(trace.values, 1.0)
    assert np.isnan(trace.diffs[0])
    assert np.allclose(trace.diffs[1:], 0.0)
    assert np.allclose(trace.distances, 0.0)
    assert trace.scales.tolist() == [2, 4, 8, 16, 32, 64, 128, 256]


def test_convergence_diagnostic_exponential_decays(table_small):
    # exp(2 pi i x) has mean zero; averages at the top scale sit well below
    # the first-scale magnitude
    sys = er.DynamicalSystem.rotation("golden")
    f = lambda x: np.exp(2j * np.pi * np.asarray(x))
    trace = er.convergence_diagnostic(sys, f, 0.0, 14, table_small, reference=0.0)
    assert np.iscomplexobj(trace.values)
    assert trace.distances[-1] < 0.1 * trace.distances[0]
    with pytest.raises(DomainError):
        er.convergence_diagnostic(sys, f, 0.0, 0, table_small)
    with pytest.raises(DomainError):
        er.convergence_diagnostic(sys, f, 0.0, 25, table_small)


@pytest.mark.parametrize("observable", ["indicator", "cosine", "float32", "bool"])
def test_convergence_diagnostic_real_sum_is_the_complex_sums_real_part(observable,
                                                                       table_small):
    # a real f is summed in float64; its values must be the bits of the
    # complex128 route's real parts
    fs = {"indicator": er.interval_indicator(0.9, 0.2),
          "cosine": lambda x: np.cos(2 * np.pi * np.asarray(x)),
          "float32": lambda x: np.cos(2 * np.pi * np.asarray(x)).astype(np.float32),
          "bool": lambda x: np.asarray(x) < 0.3}
    f = fs[observable]
    sys = er.DynamicalSystem.rotation("silver")
    for x0 in (0.0, 0.37, -1e-20, 1e15):
        real = er.convergence_diagnostic(sys, f, x0, 16, table_small, reference=0.5)
        cplx = er.convergence_diagnostic(sys, lambda x: np.asarray(f(x)).astype(np.complex128),
                                         x0, 16, table_small, reference=0.5)
        assert real.values.dtype == np.float64
        assert np.array_equal(real.values.view(np.int64), cplx.values.real.view(np.int64))


def test_convergence_diagnostic_peak_at_n_max_20(table_big):
    # the orbit, the observable's values and their float64 running sums: about
    # 2.1 arrays of pi(2^20) doubles, against 5.0 with a complex128 running
    # sum and a float mod 1
    sys = er.DynamicalSystem.rotation("golden")
    f = er.interval_indicator(0.0, 0.5)
    er.convergence_diagnostic(sys, f, 0.1, 20, table_big, reference=0.5)  # warm
    tracemalloc.start()
    try:
        er.convergence_diagnostic(sys, f, 0.1, 20, table_big, reference=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * table_big.count(1 << 20), peak


# --- transference ---


def test_transference_counts_exactly_equal(table_small):
    sys = er.DynamicalSystem.rotation("golden")
    res = er.transference_sample(sys, er.interval_indicator(0.0, 0.5), 0.37,
                                 R=4096, L=256, table=table_small)
    assert res.identity_discrepancy == 0
    assert res.counts_equal
    assert res.scales.tolist() == [2, 4, 8, 16, 32, 64, 128, 256]
    assert 0 < res.set_size < 4097


def test_transference_whole_and_empty_sets(table_small):
    sys = er.DynamicalSystem.rotation("golden")
    whole = er.transference_sample(sys, lambda x: np.ones_like(np.asarray(x)),
                                   0.0, R=512, L=16, table=table_small)
    # the maximal average of the full set is identically 1
    assert whole.identity_discrepancy == 0
    assert whole.orbit_counts.tolist() == [512 - 16 + 1] * 4
    empty = er.transference_sample(sys, lambda x: np.zeros_like(np.asarray(x)),
                                   0.0, R=512, L=16, table=table_small)
    assert empty.set_size == 0
    assert empty.orbit_counts.tolist() == [0] * 4
    assert empty.counts_equal


def test_transference_counts_compare_lambda_exactly(table_small):
    # F = {11, 13}: A_16 1_F(0) = 2/6 lies above the double nearest 1/3, but
    # the float quotient 2/6 rounds onto it
    sys = er.DynamicalSystem.shift(100)
    res = er.transference_sample(sys, lambda x: np.isin(np.asarray(x), [11, 13]),
                                 0, R=20, L=16, table=table_small,
                                 lambda_grid=np.array([1 / 3]))
    assert res.orbit_counts.tolist() == [1]
    assert res.signal_counts.tolist() == [1]


def test_transference_validation(table_small):
    sys = er.DynamicalSystem.rotation("golden")
    for lam in ([math.nan], [0.5, math.inf], [0.0], [1.0]):
        with pytest.raises(DomainError):
            er.transference_sample(sys, er.interval_indicator(0, 0.5), 0.0,
                                   R=64, L=8, table=table_small,
                                   lambda_grid=np.array(lam))
    with pytest.raises(DomainError):
        er.transference_sample(sys, er.interval_indicator(0, 0.5), 0.0,
                               R=16, L=16, table=table_small)
    with pytest.raises(DomainError):
        er.transference_sample(sys, lambda x: np.asarray(x) * 0.5 + 0.2, 0.0,
                               R=64, L=8, table=table_small)

