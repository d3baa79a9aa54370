"""Inputs outside an entry point's domain raise DomainError.

Each case is one call that once died with a raw TypeError, ValueError,
IndexError or ArithmeticError, accepted a bool or a float as an integer,
or returned a number (nan, inf or 0.0 among them) for a nan or infinite
input.  The integer and finite rules
they now go through live in ntheory (_integer, _finite).  The exceptional
pairs below were accepted, or met only on an arc of their modulus, before
the pair rule of multipliers (_exceptional_pair) checked them at entry.
The audit bounds below raised only once the first row was drawn, and an
audit past characters.ENUM_CAP ran every modulus up to the cap before its
CapacityError.  A scale count past the prime table ran the scales it could,
or died forming 1 << n_max, before the capacity rule (ntheory._integer's
upper bound) checked it at entry.  A string or a two-element array for the
zero-region constant c or a synthetic beta died with a raw TypeError or
ValueError, and l_function_real read a string s as its number and returned
an empty array for no points, before the real rule (ntheory._real).  A
shift truncated a fractional starting point and died on a huge one, a
rotation died with a raw TypeError on a complex or string one, and a nan
or infinite observable value came back as the orbit average, before
ergodic checked them; the finite rule itself died with a raw TypeError on
strings.  A rearrangement item that was not a pair of numbers died with a
raw ValueError or TypeError, a string measure was read as its number and a
bool one as 0 or 1, and a string scale factor died with a raw TypeError,
before the measures and the factor went through the real rule.  The rows
after integer-rule-too-long-to-print are the real arguments that were
converted or compared by hand before every one went through the real
rule: a string was read as its number or died with a raw TypeError or
ValueError, a bool was read as 0 or 1, a complex point or a Fraction beta
of an exceptional pair died with a raw TypeError, two rotation angles
with a raw ValueError, and evaluate returned 0.0 at t = inf, which is
not a finite point.  A bool magnitude of a rearrangement was read as 1.
A lambda grid given as one number died with a raw AxisError, and an
exponent list given as one number or as an array with a raw TypeError
or ValueError; the tests after the table check that each now equals the
same call with a list.  A beta outside [1/2, 1] reached
residue_equidistribution's DomainError only once its first M^beta grid
was drawn, after the signal was transformed and filtered.  A scale index,
level or signal length past its cap died with a raw OverflowError,
ValueError or MemoryError before the capacity rule bounded it at entry.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import primeavg.ergodic as er
import primeavg.gauss as ga
import primeavg.maximal as mx
import primeavg.multipliers as mp
import primeavg.ntheory as nt
from primeavg.characters import (ENUM_CAP, enumerate_characters,
                                 enumerate_quadratic_characters, exceptional_zero_scan,
                                 l_function_real, principal_character,
                                 synthetic_exceptional)
from primeavg.orlicz import (StepRearrangement, decreasing_rearrangement, dyadic_layers,
                             layer_lower_bound, orlicz_norm, phi_weight)

_SHIFT = er.DynamicalSystem.shift(5)
_GOLDEN = er.DynamicalSystem.rotation("golden")
_HALF = er.interval_indicator(0.0, 0.5)
_CHI = enumerate_quadratic_characters(5)[0]
_CHI_COMPLEX = next(chi for chi in enumerate_characters(5) if chi.kind == "other")
_STEPS = StepRearrangement(values=np.array([2.0, 1.0]), measures=np.array([0.25, 0.5]))
_F = mx.random_signal(np.random.default_rng(0), 16)


def _position(x):
    return np.asarray(x, dtype=np.float64)


_CASES = {
    "convergence-n-max-2.5": lambda t: er.convergence_diagnostic(_SHIFT, _position, 0, 2.5, t),
    "convergence-n-max-true": lambda t: er.convergence_diagnostic(
        _SHIFT, _position, 0, True, t),
    "transference-R-100.5": lambda t: er.transference_sample(_SHIFT, _HALF, 0, 100.5, 16, t),
    "transference-L-16.5": lambda t: er.transference_sample(_SHIFT, _HALF, 0, 100, 16.5, t),
    "transference-empty-grid": lambda t: er.transference_sample(
        _SHIFT, _HALF, 0, 100, 16, t, lambda_grid=[]),
    "shift-2.5": lambda t: er.DynamicalSystem.shift(2.5),
    "shift-orbit-nan": lambda t: _SHIFT.orbit_positions(math.nan, np.arange(4)),
    "shift-orbit-x0-2.5": lambda t: _SHIFT.orbit_positions(2.5, np.arange(4)),
    "shift-orbit-x0-1e30": lambda t: _SHIFT.orbit_positions(10**30, np.arange(4)),
    "rotation-orbit-x0-complex": lambda t: _GOLDEN.orbit_positions(1 + 2j, np.arange(4)),
    "rotation-orbit-x0-string": lambda t: _GOLDEN.orbit_positions("0.5", np.arange(4)),
    "convergence-observable-nan": lambda t: er.convergence_diagnostic(
        _SHIFT, lambda x: np.full(np.shape(x), math.nan), 0, 4, t),
    "orbit-average-observable-inf": lambda t: er.orbit_average(
        _SHIFT, lambda x: np.full(np.shape(x), math.inf), 0, 16, t),
    "orbit-average-observable-strings": lambda t: er.orbit_average(
        _SHIFT, lambda x: np.full(np.shape(x), "1"), 0, 16, t),
    "rotation-cf-depth-2.5": lambda t: er.DynamicalSystem.rotation("golden", cf_depth=2.5),
    "orbit-index-1.5": lambda t: _SHIFT.orbit_positions(0, [1.5, 3]),
    "interval-negative": lambda t: mx.Signal.interval(0, -1),
    "interval-2.5": lambda t: mx.Signal.interval(0, 2.5),
    "indicator-nan": lambda t: mx.Signal.indicator([math.nan]),
    "indicator-1.5": lambda t: mx.Signal.indicator([1.5, 3]),
    "delta-at-1.5": lambda t: mx.Signal.delta(at=1.5),
    "signal-at-1.5": lambda t: mx.Signal.interval(0, 4).at(1.5),
    "random-signal-empty": lambda t: mx.random_signal(np.random.default_rng(0), 0),
    "scale-counts-not-0-1": lambda t: list(mx.prime_scale_counts(
        mx.Signal(offset=0, values=np.array([0.5, 1.0])), 3, t)),
    "scale-counts-n-max-2.5": lambda t: list(mx.prime_scale_counts(
        mx.Signal.interval(0, 4), 2.5, t)),
    "scale-counts-n-max-true": lambda t: list(mx.prime_scale_counts(
        mx.Signal.interval(0, 4), True, t)),
    "scale-counts-n-max-0": lambda t: list(mx.prime_scale_counts(
        mx.Signal.interval(0, 4), 0, t)),
    "gauss-brute-1.5": lambda t: ga.gauss_sum_bruteforce(_CHI, 1.5),
    "twisted-brute-nan": lambda t: ga.twisted_character_sum_bruteforce(_CHI, math.nan),
    "expsum-brute-1.5": lambda t: ga.gauss_exponential_sum_bruteforce(_CHI, 1.5),
    "chi-1.5": lambda t: _CHI(1.5),
    "phi-weight-nan": lambda t: phi_weight(math.nan),
    "rearrangement-evaluate-nan": lambda t: _STEPS.evaluate(math.nan),
    "rearrangement-distribution-nan": lambda t: _STEPS.distribution(math.nan),
    "rearrangement-pair-of-one": lambda t: decreasing_rearrangement([(1.0,)]),
    "rearrangement-string-magnitude": lambda t: decreasing_rearrangement([("a", 0.5)]),
    "rearrangement-string-measure": lambda t: decreasing_rearrangement([(1.0, "0.5")]),
    "rearrangement-bytes-measure": lambda t: decreasing_rearrangement([(1.0, b"0.5")]),
    "rearrangement-bool-measure": lambda t: decreasing_rearrangement([(1.0, True)]),
    "rearrangement-scale-string": lambda t: _STEPS.scale("2"),
    "maximal-dyadic-true": lambda t: mx.maximal_dyadic(mx.Signal.delta(), "weighted", True, t),
    "eta-s-true": lambda t: mp.eta_s(True, 0.0),
    "enumerate-arcs-true": lambda t: mp.enumerate_arcs(True),
    "eta-radius-nan": lambda t: mp.eta_support_radius(math.nan),
    "eta-radius-minus-inf": lambda t: mp.eta_support_radius(-math.inf),
    "eta-radius-2.5": lambda t: mp.eta_support_radius(2.5),
    # the window plans are memoized; the entry of level 1 (0) must not
    # answer for True (False)
    "nu-grid-level-true-after-level-1": lambda t: (mp.nu_n_s_grid(0, 1, 64),
                                                   mp.nu_n_s_grid(0, True, 64)),
    "nu-grid-level-false-after-level-0": lambda t: (mp.nu_n_s_grid(0, 0, 64),
                                                    mp.nu_n_s_grid(0, False, 64)),
    "factorize-true": lambda t: nt.factorize(True),
    "lambda-grid-true": lambda t: mx.default_lambda_grid(True),
    # an exceptional pair is (real non-principal chi, beta in [1/2, 1))
    "nu-grid-pair-beta-nan": lambda t: mp.nu_n_grid(8, 1024, 1, (_CHI, math.nan)),
    "approximation-error-pair-beta-7": lambda t: mp.approximation_error(
        8, 1024, t, 1, (_CHI, 7.0)),
    "nu-s-grid-pair-principal-mod-1": lambda t: mp.nu_n_s_grid(
        3, 0, 64, (principal_character(1), 0.7)),
    "nu-s-pair-principal-mod-5": lambda t: mp.nu_n_s(3, 2, 0.4, (principal_character(5), 0.9)),
    "approximant-pair-complex-mod-5": lambda t: mp.approximant_hat(
        2, 5, 16, 0.01, (_CHI_COMPLEX, 0.9)),
    "approximant-bare-character": lambda t: mp.approximant_hat(2, 5, 16, 0.01, _CHI),
    # the audit checks its bounds when called, not at the first row
    "audit-rows-q-max-0": lambda t: ga.verify_quadratic_rows(0),
    "audit-rows-q-min-past-q-max": lambda t: ga.verify_quadratic_rows(5, q_min=6),
    "audit-rows-q-max-4.5": lambda t: ga.verify_quadratic_rows(4.5),
    # the real arguments of characters go through one rule (ntheory._real)
    "zero-scan-c-string": lambda t: exceptional_zero_scan(5, c="1"),
    "zero-scan-c-pair": lambda t: exceptional_zero_scan(5, c=np.array([1.0, 2.0])),
    "synthetic-beta-string": lambda t: synthetic_exceptional(5, "0.9"),
    "synthetic-beta-pair": lambda t: synthetic_exceptional(5, np.array([0.9, 0.95])),
    "l-function-s-string": lambda t: l_function_real(_CHI, "1"),
    "l-function-s-empty": lambda t: l_function_real(_CHI, np.array([])),
    "integer-rule-bool": lambda t: nt._integer(True, "n", 0),
    "integer-rule-numpy-bool": lambda t: nt._integer(np.True_, "n", 0),
    # past 4300 digits str() of an integer raises a raw ValueError
    "integer-rule-too-long-to-print": lambda t: nt._integer(-10**5000, "n", 0),
    # every real argument of the public API goes through ntheory._real
    "eta-string": lambda t: mp.eta("0.1"),
    "eta-bool": lambda t: mp.eta(True),
    "eta-s-string-xi": lambda t: mp.eta_s(1, "x"),
    "eta-complex": lambda t: mp.eta(0.3 + 0j),
    "fourier-kernel-string": lambda t: mp.fourier_kernel(mp.kernel_delta(2), "0.1"),
    "fourier-m-beta-bool-beta": lambda t: mp.fourier_M_beta(4, True, 0.1),
    "fourier-m-beta-string-beta": lambda t: mp.fourier_M_beta(4, "1", 0.1),
    "fourier-m-beta-string-beta-n-0": lambda t: mp.fourier_M_beta(0, "x", 0.1),
    "kernel-m-beta-bool": lambda t: mp.kernel_M_beta(4, True),
    "kernel-m-beta-string": lambda t: mp.kernel_M_beta(4, "1"),
    "approximant-string-theta": lambda t: mp.approximant_hat(1, 3, 4, "0.1"),
    "nu-n-string": lambda t: mp.nu_n(3, "0.1"),
    "nu-n-s-bool": lambda t: mp.nu_n_s(3, 1, True),
    "pi-n-t-string-t": lambda t: mp.pi_n_t(8, "4", 0.1),
    "pi-n-t-grid-string-t": lambda t: mp.pi_n_t_grid(8, "4", 64),
    "residue-bool-beta": lambda t: mx.residue_equidistribution(_F, 4, 1, 1, True, 4, 256),
    "weak-type-string-lambda": lambda t: mx.weak_type_sweep(
        mx.Signal.interval(0, 8), ["0.5"], 4, t),
    "lp-ratio-string-p": lambda t: mx.lp_maximal_ratio(_F, "1.5", 4, t),
    "b-part-bool-t": lambda t: mx.b_part_maximal_l2(True, _F, 4, t),
    "ab-split-string-t": lambda t: mx.ab_split_apply("1", 4, _F, t),
    "rotation-string": lambda t: er.DynamicalSystem.rotation("0.3"),
    "rotation-complex": lambda t: er.DynamicalSystem.rotation(0.3 + 0j),
    "rotation-two-angles": lambda t: er.DynamicalSystem.rotation(np.array([0.3, 0.4])),
    "approximant-pair-fraction-beta": lambda t: mp.approximant_hat(
        2, 5, 16, 0.01, (_CHI, Fraction(3, 4))),
    "interval-bool-endpoint": lambda t: er.interval_indicator(True, 0.5),
    "phi-weight-string": lambda t: phi_weight("2"),
    "phi-weight-bool": lambda t: phi_weight(True),
    "rearrangement-string-values": lambda t: StepRearrangement(
        values=np.array(["2"]), measures=np.array([0.5])),
    "rearrangement-bool-values": lambda t: StepRearrangement(
        values=np.array([True]), measures=np.array([0.5])),
    "rearrangement-evaluate-string": lambda t: _STEPS.evaluate("0.1"),
    "rearrangement-evaluate-bool": lambda t: _STEPS.evaluate(True),
    "rearrangement-evaluate-inf": lambda t: _STEPS.evaluate(math.inf),
    "rearrangement-distribution-bool": lambda t: _STEPS.distribution(True),
    "rearrangement-bool-magnitude": lambda t: decreasing_rearrangement([(True, 0.5)]),
    "rearrangement-numpy-bool-magnitude": lambda t: decreasing_rearrangement(
        [(np.True_, 0.5)]),
}


@pytest.mark.parametrize("call", _CASES.values(), ids=_CASES.keys())
def test_outside_the_domain_is_a_domain_error(call, table_small):
    with pytest.raises(nt.DomainError):
        call(table_small)


def test_a_number_is_a_one_point_lambda_grid(table_small):
    F = mx.Signal.interval(0, 8)
    one, listed = (mx.weak_type_sweep(F, grid, 4, table_small) for grid in (0.5, [0.5]))
    for field in ("lambda_grid", "counts", "normalized"):
        assert getattr(one, field).tolist() == getattr(listed, field).tolist()
    shift = er.DynamicalSystem.shift(97)
    one, listed = (er.transference_sample(shift, er.interval_indicator(0.0, 0.5), 3, 200, 16,
                                          table_small, lambda_grid=grid)
                   for grid in (0.5, [0.5]))
    for field in ("lambda_grid", "orbit_counts", "signal_counts"):
        assert getattr(one, field).tolist() == getattr(listed, field).tolist()


@pytest.mark.parametrize("ps, listed", [(1.5, [1.5]), (np.array([1.5, 2.0]), [1.5, 2.0])],
                         ids=["number", "array"])
def test_exponents_may_be_a_number_or_an_array(ps, listed, table_small):
    assert mx.lp_maximal_ratios(_F, ps, 4, table_small) == \
        mx.lp_maximal_ratios(_F, listed, 4, table_small)


_HUGE_STEP = decreasing_rearrangement([(1e308, 0.5)])

# values past the float64 range: each returned a silent inf (with overflow
# warnings) or, for j_max, died with a raw OverflowError or ValueError
_CAPACITY_CASES = {
    "orlicz-norm-value-1e308": lambda: orlicz_norm(_HUGE_STEP),
    "layer-bound-value-1e308": lambda: layer_lower_bound(_HUGE_STEP),
    # the norm is finite and tiny, but 1/t overflows on the nodes read
    "orlicz-norm-first-step-1e-320": lambda: orlicz_norm(
        decreasing_rearrangement([(1.0, 1e-320)])),
    "layers-j-max-1023": lambda: dyadic_layers(_STEPS, 1023),
    "layer-bound-j-max-2000": lambda: layer_lower_bound(_STEPS, 2000),
    "layers-j-max-1e30": lambda: dyadic_layers(_STEPS, 10**30),
}


@pytest.mark.parametrize("call", _CAPACITY_CASES.values(), ids=_CAPACITY_CASES.keys())
def test_past_the_float64_range_is_a_capacity_error(call):
    with pytest.raises(nt.CapacityError):
        call()


_SCALE_CALLS = {
    "scale-counts": lambda n, t: next(mx.prime_scale_counts(mx.Signal.interval(0, 4), n, t)),
    "weak-type-sweep": lambda n, t: mx.weak_type_sweep(mx.Signal.interval(0, 4), [0.5], n, t),
    "maximal-dyadic": lambda n, t: mx.maximal_dyadic(mx.Signal.delta(), "averages", n, t),
}


@pytest.mark.parametrize("n_max", [10**30, 2**62, 17], ids=["1e30", "2^62", "one-past-the-table"])
@pytest.mark.parametrize("call", _SCALE_CALLS.values(), ids=_SCALE_CALLS.keys())
def test_scale_index_past_the_table_fails_before_any_scale(call, n_max, table_small,
                                                           monkeypatch):
    # table_small holds the primes up to 2^16.  Every scale reads the table,
    # so a read means a scale ran (or 1 << n_max was formed) before the check
    def read(self, x, name):
        raise AssertionError(f"table read at {name}")

    monkeypatch.setattr(nt.PrimeTable, "_rank", read)
    with pytest.raises(nt.CapacityError):
        call(n_max, table_small)


# scale indices, levels and lengths past their caps: at 10^30 each died with
# a raw OverflowError (forming 1 << 10^30) or, for random_signal, a raw
# ValueError; a scale index of 31 to 1023 returned a number from 2^n far past
# any prime table (nu_n_grid a nan at 1023)
_INDEX_CASES = {
    "nu-n-s-n-1e30": lambda t: mp.nu_n_s(10**30, 1, 0.3),
    "nu-n-s-n-past-the-sieve-scale": lambda t: mp.nu_n_s(31, 1, 0.3),
    "nu-n-n-1e30": lambda t: mp.nu_n(10**30, 0.3, s_max=1),
    "nu-n-s-grid-n-1e30": lambda t: mp.nu_n_s_grid(10**30, 1, 64),
    "nu-n-grid-n-past-the-sieve-scale": lambda t: mp.nu_n_grid(1023, 64, 1),
    "pi-n-t-n-1e30": lambda t: mp.pi_n_t(10**30, 1.0, 0.3),
    "pi-n-t-grid-n-1e30": lambda t: mp.pi_n_t_grid(10**30, 1.0, 64),
    "enumerate-arcs-1e30": lambda t: mp.enumerate_arcs(10**30),
    "enumerate-arcs-past-the-factorization-cap": lambda t: mp.enumerate_arcs(32),
    "b-part-n-max-1e30": lambda t: mx.b_part_maximal_l2(1.0, _F, 10**30, t),
    "ab-split-n-1e30": lambda t: mx.ab_split_apply(1.0, 10**30, _F, t),
    "ab-split-n-past-the-table": lambda t: mx.ab_split_apply(1.0, 17, _F, t),
    "l2-arc-n-max-1e30": lambda t: mx.l2_arc_maximal_decay(1, _F, 10**30, 64),
    "residue-n-max-1e30": lambda t: mx.residue_equidistribution(_F, 4, 1, 1, 0.9, 10**30, 64),
    "random-signal-length-1e30": lambda t: mx.random_signal(np.random.default_rng(0), 10**30),
    "kernel-m-beta-n-1e30": lambda t: mp.kernel_M_beta(10**30, 0.75),
    "fourier-m-beta-n-2^40": lambda t: mp.fourier_M_beta(2**40, 0.75, 0.1),
    # a raw ValueError at 10^30 and a raw MemoryError at 2^34 and 2^40; a
    # j_max of 10^30 a raw ValueError, and 0.5 ** 1075 is 0.0, off the grid
    "interval-length-1e30": lambda t: mx.Signal.interval(0, 10**30),
    "interval-length-2^34": lambda t: mx.Signal.interval(0, 2**34),
    "indicator-span-2^40": lambda t: mx.Signal.indicator([0, 2**40]),
    "lambda-grid-j-max-1e30": lambda t: mx.default_lambda_grid(10**30),
}


@pytest.mark.parametrize("call", _INDEX_CASES.values(), ids=_INDEX_CASES.keys())
def test_an_index_past_its_cap_is_a_capacity_error(call, table_small):
    with pytest.raises(nt.CapacityError):
        call(table_small)


@pytest.mark.parametrize("beta", [0.3, 1.5])
def test_residue_beta_outside_its_range_fails_before_any_transform(beta, monkeypatch):
    # beta was checked only when the first M^beta grid was drawn, after the
    # circle, its transform and the eta_s-filtered signal were formed
    def spectrum(arr):
        raise AssertionError("signal transformed")

    monkeypatch.setattr(mx, "_spectrum", spectrum)
    with pytest.raises(nt.DomainError):
        mx.residue_equidistribution(_F, 4, 1, 1, beta, 4, 256)


@pytest.mark.parametrize("R", [10**30, 1 << 25], ids=["1e30", "2^25"])
def test_transference_past_the_orbit_cap_fails_before_sampling(R, table_small):
    # the orbit of T^n x0 for n <= R is sampled only for R < 2^25, the cap of
    # orbit_positions; past it np.arange(R + 1) died with a raw ValueError
    def indicator(x):
        raise AssertionError("orbit sampled")

    with pytest.raises(nt.CapacityError):
        er.transference_sample(er.DynamicalSystem.rotation("golden"), indicator, 0.1,
                               R, 8, table_small)


def test_capacity_rule_bounds_python_and_numpy_integers():
    assert nt._integer(np.int64(7), "n", 0, high=7) == 7
    with pytest.raises(nt.CapacityError, match="n = 18446744073709551615 exceeds"):
        nt._integer(np.uint64(2**64 - 1), "n", 0, high=7)
    with pytest.raises(nt.CapacityError, match="an integer of 16610 bits"):
        nt._integer(10**5000, "n", 0, high=5)


@pytest.mark.parametrize("audit", [ga.verify_quadratic_rows, ga.verify_quadratic_range])
def test_audit_past_the_enumeration_cap_fails_before_any_modulus(audit, monkeypatch):
    # every modulus of the audit starts with its roots of unity
    def audited(q):
        raise AssertionError(f"modulus {q} audited")

    monkeypatch.setattr(ga, "roots_of_unity", audited)
    with pytest.raises(nt.CapacityError):
        audit(ENUM_CAP + 1)
