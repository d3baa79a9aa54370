"""Circle rotations, orbit averages, and the transference identity.

The rotation oracle is exact rational arithmetic with Fraction; the
silver-rotation orbit average is checked against an independent mpmath
summation at high precision.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import primeavg.ergodic as er
from primeavg.ntheory import DomainError


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
    with pytest.raises(DomainError):
        er.DynamicalSystem.shift(0)
    with pytest.raises(DomainError):
        sh.alpha


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

