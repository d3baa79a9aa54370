"""Acceptance suite: twelve end-to-end criteria, one test each.

Every test prints a single "criterion NN PASS/FAIL" line (visible under
pytest -s, and in the captured output on failure) and then asserts.  The
criteria pin down the public behavior of the package at fixed tolerances:
exactness of the Gauss-sum closed forms, pointwise domination of the prime
averages by the weighted maximal function, the decay of the multiplier
approximation error, level and frequency-split maximal bounds, weak-type
constants against frozen fixtures, Orlicz norms against quadrature, exact
transference counts, orbit convergence on the golden rotation, and the
clean exceptional-zero scan.

Budget-sensitive tests assert their own wall-clock ceilings.  The slowest
items (the weak-type sweeps and the frequency-split maximal norms) run in
well under a minute each on commodity hardware against ceilings of 5 to 10
minutes, so a pass is not machine-marginal.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import primeavg.characters as ch
import primeavg.cli as cli
import primeavg.ergodic as er
import primeavg.maximal as mx
import primeavg.multipliers as mu
import primeavg.orlicz as orl
from primeavg.gauss import verify_quadratic_range

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "frozen_constants.json"


def _report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}")


@pytest.fixture(scope="module")
def quadratic_audit():
    """Shared exhaustive audit over q <= 200, with its wall-clock time."""
    t0 = time.perf_counter()
    records = verify_quadratic_range(200)
    return records, time.perf_counter() - t0


def test_criterion_01_gauss_closed_forms_exact(quadratic_audit):
    records, elapsed = quadratic_audit
    failures = sum(r["failures"] for r in records)
    checks = sum(r["checks"] for r in records)
    moduli = {r["q"] for r in records}
    ok = (failures == 0 and moduli == set(range(1, 201))
          and checks > 200_000 and elapsed <= 60.0)
    _report(1, f"closed forms vs brute force, {checks} checks, "
               f"{failures} failures, {elapsed:.1f}s", ok)
    assert failures == 0
    assert moduli == set(range(1, 201))
    assert checks > 200_000
    assert elapsed <= 60.0


def test_criterion_02_vanishing_laws_exhaustive(quadratic_audit):
    records, _ = quadratic_audit
    vanish_checks = sum(r["vanish_checks"] for r in records)
    vanish_failures = sum(r["vanish_failures"] for r in records)
    ok = vanish_failures == 0 and vanish_checks > 10_000
    _report(2, f"structural zeros confirmed at {vanish_checks} points, "
               f"{vanish_failures} violations", ok)
    assert vanish_failures == 0
    assert vanish_checks > 10_000


def test_criterion_03_gauss_modulus_bound(quadratic_audit):
    records, _ = quadratic_audit
    # bound_ratio = max_a |G(chi, a)| * phi(q) / sqrt(q0), so ratio <= 1 + eps
    # is the bound |G| <= sqrt(q0)/phi(q) + eps' with eps' <= eps for every
    # character in the audited family.
    worst = max(r["bound_ratio"] for r in records)
    ok = worst <= 1.0 + 1e-9
    _report(3, f"|G| <= sqrt(q0)/phi(q), worst ratio {worst:.15f}", ok)
    assert worst <= 1.0 + 1e-9


def test_criterion_04_pointwise_domination_and_bracket(table_small):
    rng = np.random.default_rng(20240421)
    worst_slack = -np.inf
    for _ in range(200):
        length = int(rng.integers(8, 96))
        f = mx.random_signal(rng, length, complex_values=True)
        _, _, rows_u = mx.prime_average_all_scales(f, 512, table_small,
                                                   weighted=False)
        _, _, rows_w = mx.prime_average_all_scales(f, 512, table_small,
                                                   weighted=True)
        bound = float(np.max(np.abs(rows_w)))
        peaks = np.max(np.abs(rows_u), axis=1)
        worst_slack = max(worst_slack, float(np.max(peaks) - bound))
        assert np.all(peaks <= bound + 1e-10)

    worst_rel = 0.0
    for n in range(2, 10_001):
        lhs = mu.partial_summation_bracket(n, table_small)
        pi_n = table_small.count(n)
        worst_rel = max(worst_rel, abs(lhs - pi_n) / pi_n)
    ok = worst_slack <= 1e-10 and worst_rel <= 1e-8
    _report(4, "200 signals dominated "
               f"(slack {worst_slack:.1e}); bracket identity rel err "
               f"{worst_rel:.1e} over N <= 10^4", ok)
    assert worst_rel <= 1e-8


def test_criterion_05_multiplier_approximation_trend(table_big):
    t0 = time.perf_counter()
    errs = {n: mu.approximation_error(n, 1 << 14, table_big, s_max=6)
            for n in (8, 12, 16, 20)}
    elapsed = time.perf_counter() - t0
    ok = (errs[12] < errs[8] and errs[16] < errs[12] and errs[20] < errs[16]
          and elapsed <= 300.0)
    _report(5, "E(n) decreasing: " +
               ", ".join(f"E({n})={errs[n]:.6f}" for n in (8, 12, 16, 20)) +
               f", {elapsed:.1f}s", ok)
    assert errs[12] < errs[8]
    assert errs[16] < errs[12]
    assert errs[20] < errs[16]
    assert elapsed <= 300.0


def test_criterion_06_arc_level_l2_decay():
    medians = {}
    for s in range(6):
        norms = []
        for seed in range(20):
            rng = np.random.default_rng(20240800 + seed)
            f = mx.random_signal(rng, 256, complex_values=True)
            norms.append(mx.l2_arc_maximal_decay(s, f, 12, resolution=1 << 16))
        medians[s] = float(np.median(norms))
    ok = all(medians[s + 2] < medians[s] for s in range(4))
    _report(6, "level maximal medians " +
               ", ".join(f"s={s}: {medians[s]:.5f}" for s in range(6)), ok)
    for s in range(4):
        assert medians[s + 2] < medians[s]


def test_criterion_07_ab_split_reconstruction_and_decay(table_big):
    rng = np.random.default_rng(20240801)
    f = mx.random_signal(rng, 512, complex_values=True)

    for t, n in ((4.0, 6), (9.0, 12), (16.0, 20)):
        a, b = mx.ab_split_apply(t, n, f, table_big)
        ref = mx.average_primes_weighted(1 << n, f, table_big)
        # both live on grids containing the reference support
        total = a.values + b.values
        k = ref.offset - a.offset
        err = np.linalg.norm(total[k: k + len(ref.values)] - ref.values)
        rel = float(err / np.linalg.norm(ref.values))
        assert rel <= 1e-8, (t, n, rel)

    norms = {t: mx.b_part_maximal_l2(t, f, 20, table_big,
                                     resolution=1 << 21)
             for t in (4.0, 9.0, 16.0)}
    ok = norms[9.0] < norms[4.0] and norms[16.0] < norms[9.0]
    _report(7, "split reconstructs exactly; high-frequency maximal norms " +
               ", ".join(f"t={t:g}: {norms[t]:.5f}" for t in (4.0, 9.0, 16.0)),
            ok)
    assert norms[9.0] < norms[4.0]
    assert norms[16.0] < norms[9.0]


def test_criterion_08_weak_type_constants(table_big):
    frozen = json.loads(FIXTURE_PATH.read_text())
    lam = mx.default_lambda_grid(10)
    configs = [("interval", 1024), ("interval", 2048),
               ("random", 1024), ("random", 2048),
               ("primes", 4096), ("primes", 8192)]
    t0 = time.perf_counter()
    measured = {}
    for family, size in configs:
        F = cli._build_set(family, size, 0)
        report = mx.weak_type_sweep(F, lam, 20, table_big)
        assert np.all(np.isfinite(report.normalized)), (family, size)
        measured[(family, size)] = report.max_normalized
    elapsed = time.perf_counter() - t0

    drift_ok = True
    for (family, size), value in measured.items():
        old = float(frozen[f"weak_type/{family}/{size}"])
        drift_ok &= abs(value - old) / old <= 0.25
    doubling = [abs(measured[(f, 2 * s)] - measured[(f, s)]) / measured[(f, s)]
                for f, s in (("interval", 1024), ("random", 1024),
                             ("primes", 4096))]
    ok = drift_ok and max(doubling) <= 0.25 and elapsed <= 600.0
    _report(8, "weak-type constants stable: max doubling change "
               f"{max(doubling):.1%}, all cells finite, {elapsed:.1f}s", ok)
    for (family, size), value in measured.items():
        old = float(frozen[f"weak_type/{family}/{size}"])
        assert abs(value - old) / old <= 0.25, (family, size, value, old)
    assert max(doubling) <= 0.25
    assert elapsed <= 600.0


def _orlicz_indicator_oracle(measure: float) -> float:
    """integral_0^mu phi(1/t) dt by adaptive quadrature."""
    val, err = quad(lambda t: orl.phi_weight(1.0 / max(t, 1e-300)),
                    0.0, measure, limit=200)
    assert err < 5e-8
    return val


def test_criterion_09_orlicz_norms_and_layer_bound():
    worst = 0.0
    for measure in (1.0, 0.5, 0.25):
        r = orl.StepRearrangement(values=np.array([1.0]),
                                  measures=np.array([measure]))
        got = orl.orlicz_norm(r)
        want = _orlicz_indicator_oracle(measure)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-6, measure

    bound_ok = True
    for seed in range(50):
        rng = np.random.default_rng(20240900 + seed)
        k = int(rng.integers(3, 16))
        mags = rng.lognormal(0.0, 2.0, size=k)
        meas = rng.random(k)
        meas = meas / meas.sum()
        r = orl.decreasing_rearrangement(list(zip(mags, meas)))
        bound_ok &= orl.layer_lower_bound(r) <= orl.orlicz_norm(r) + 1e-12
        assert bound_ok, seed
    ok = worst <= 1e-6 and bound_ok
    _report(9, f"indicator norms within {worst:.1e} of quadrature; "
               "layer bound below the norm on 50 random rearrangements", ok)
    assert ok


def test_criterion_10_transference_counts(table_small):
    golden = er.DynamicalSystem.rotation("golden")
    all_equal = True
    for i in range(10):
        rng = np.random.default_rng(907 + i)
        a = float(rng.random()) * 0.9
        width = 0.05 + float(rng.random()) * 0.4
        R = int(rng.integers(1 << 11, 1 << 13))
        L = 1 << int(rng.integers(4, 9))
        x0 = float(rng.random())
        res = er.transference_sample(
            golden, er.interval_indicator(a, (a + width) % 1.0),
            x0, R=R, L=L, table=table_small)
        all_equal &= res.counts_equal and res.identity_discrepancy == 0
        assert res.identity_discrepancy == 0, i
        assert res.counts_equal, i
    _report(10, "orbit and integer superlevel counts identical on "
                "10 sampled configurations", all_equal)
    assert all_equal


def test_criterion_11_orbit_convergence(table_big):
    golden = er.DynamicalSystem.rotation("golden")
    f = er.interval_indicator(0.0, 0.5)
    rng = np.random.default_rng(20240811)
    d_early, d_late = [], []
    for x0 in rng.random(100):
        trace = er.convergence_diagnostic(golden, f, float(x0), 22,
                                          table_big, reference=0.5)
        d_early.append(trace.distances[9])    # scale 2^10
        d_late.append(trace.distances[21])    # scale 2^22
    m_early = float(np.median(d_early))
    m_late = float(np.median(d_late))
    ok = m_late < m_early
    _report(11, f"median |average - 1/2|: {m_early:.5f} at 2^10 vs "
                f"{m_late:.6f} at 2^22", ok)
    assert m_late < m_early


def test_criterion_12_no_exceptional_zeros():
    found, uncertified = [], []
    margin = np.inf
    min_l1 = np.inf
    for q in range(3, 401):
        scan = ch.exceptional_zero_scan(q, c=1.0)
        if scan.found:
            found.append(q)
        if not scan.certified:
            uncertified.append(q)
        margin = min(margin, scan.margin)
        for chi in ch.enumerate_quadratic_characters(q):
            if chi.kind == "principal":
                continue
            min_l1 = min(min_l1, float(np.real(ch.l_function_real(chi, 1.0))))

    base = mu.nu_n_grid(12, 1 << 14)
    injected = mu.nu_n_grid(12, 1 << 14,
                            exceptional=ch.synthetic_exceptional(5, 0.9))
    deviation = float(np.max(np.abs(base - injected)))
    ok = not found and not uncertified and min_l1 > 0.0 and deviation > 1e-3
    _report(12, f"scan clean and certified for q <= 400 (worst margin {margin:.4f}), "
                f"min L(1, chi) = {min_l1:.4f}, "
                f"synthetic zero moves the multiplier by {deviation:.4f}", ok)
    assert found == []
    assert uncertified == []
    assert min_l1 > 0.0
    assert deviation > 1e-3
