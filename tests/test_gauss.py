"""Gauss-sum closed forms against brute-force summation.

Every closed form has a direct double-sum counterpart in the module;
these tests pin a handful of exact small cases and then lean on the
bulk verifier, which is itself exercised end to end in the acceptance
suite at the full modulus range.
"""

import cmath
import math

import numpy as np
import pytest

import primeavg.gauss as gs
from primeavg.characters import (enumerate_characters,
                                 enumerate_quadratic_characters,
                                 principal_character)
from primeavg.ntheory import DomainError, _dot, euler_phi, is_squarefree, mobius


def test_tau_quadratic_mod_3_is_i_sqrt_3():
    chi = enumerate_quadratic_characters(3)[0]
    assert cmath.isclose(gs.tau(chi), 1j * math.sqrt(3), abs_tol=1e-12)


def test_tau_quadratic_mod_5_is_sqrt_5():
    chi = enumerate_quadratic_characters(5)[0]
    assert cmath.isclose(gs.tau(chi), math.sqrt(5), abs_tol=1e-12)


def test_tau_laws_for_primitive_quadratics():
    # |tau|^2 = q and tau^2 = chi(-1) q, checked where the character is
    # primitive (prime moduli) so the laws apply with q0 = q
    for q in [3, 5, 7, 11, 13, 19, 23]:
        chi = enumerate_quadratic_characters(q)[0]
        t = gs.tau(chi)
        assert abs(abs(t) - math.sqrt(q)) < 1e-10
        assert cmath.isclose(t * t, complex(chi(-1)) * q, abs_tol=1e-9)


@pytest.mark.parametrize("q", [5, 8, 12, 40])
def test_tau_memo_returns_the_direct_sum(q):
    for chi in [principal_character(q)] + enumerate_quadratic_characters(q):
        assert chi._tau is None
        direct = euler_phi(q) * gs.gauss_sum_bruteforce(chi, 1)
        first = gs.tau(chi)
        assert chi._tau == first == direct
        assert gs.tau(chi) == first


def test_gauss_bruteforce_is_the_twisted_sum_over_phi_bit_for_bit():
    # tau, and through it every gauss-verify report, reads these exact bits:
    # the units sum chi(a) e(a x / q) as one ntheory._dot sum, then / phi(q)
    got, want = [], []
    for q in range(1, 25):
        roots = gs.roots_of_unity(q)
        for chi in enumerate_characters(q):
            units = chi.unit_residues()
            for x in range(-q, 2 * q):
                got.append(gs.gauss_sum_bruteforce(chi, x))
                want.append(complex(_dot(roots[(units * (x % q)) % q], chi.values[units]))
                            / euler_phi(q))
    got, want = np.array(got), np.array(want)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_audit_sums_are_the_public_brute_routes_bit_for_bit():
    # the audit sums every character of a modulus in one call per kind; each
    # row must be the public route's sum for that character alone
    for au in gs._quadratic_audit(1, 40):
        chi, q, xs = au.chi, au.q, range(au.q)
        g_all = gs.gauss_sum_bruteforce_all(chi)
        assert np.array_equal(au.g_brute.view(np.uint64), g_all.view(np.uint64)), q
        twisted = np.array([gs.twisted_character_sum_bruteforce(chi, x) for x in xs])
        expsum = np.array([gs.gauss_exponential_sum_bruteforce(chi, x) for x in xs])
        assert np.array_equal(au.twisted, gs._abs_err(gs.twisted_character_sum_closed(chi, xs),
                                                      twisted)), q
        assert np.array_equal(au.expsum, gs._abs_err(gs.gauss_exponential_sum(chi, xs),
                                                     expsum)), q


def test_closed_form_matches_bruteforce_sample():
    for q in [3, 4, 5, 8, 9, 12, 15, 21, 45]:
        for chi in [principal_character(q)] + enumerate_quadratic_characters(q):
            for a in range(1, q + 1):
                if math.gcd(a, q) != 1:
                    continue
                brute = gs.gauss_sum_bruteforce(chi, a)
                if chi.kind == "principal":
                    closed = gs.ramanujan_gauss_principal(q, a)
                else:
                    closed = gs.gauss_sum_closed(chi, a)
                assert abs(brute - closed) < 1e-11


def test_gauss_sum_closed_rejects_non_coprime_shift():
    chi = enumerate_quadratic_characters(12)[0]
    with pytest.raises(DomainError):
        gs.gauss_sum_closed(chi, 4)


def test_vanishing_when_modulus_over_conductor_not_squarefree():
    # mod 9 quadratic lift? 9 has no quadratic character with conductor 3
    # times a square, but the principal character mod 9 vanishes at a = 3k
    # via mu(9/gcd) = mu(9) = 0; and any chi mod 12 with conductor 3 has
    # q/q0 = 4 not squarefree, so G(chi, a) = 0 for all coprime a
    chi12 = next(c for c in enumerate_quadratic_characters(12)
                 if gs.conductor(c).conductor == 3)
    for a in [1, 5, 7, 11]:
        assert gs.gauss_sum_closed(chi12, a) == 0
        assert abs(gs.gauss_sum_bruteforce(chi12, a)) < 1e-12


def test_twisted_sum_closed_all_shifts():
    for q in [5, 8, 12, 18, 24]:
        for chi in enumerate_quadratic_characters(q):
            for x in range(-q, 2 * q + 1):
                brute = gs.twisted_character_sum_bruteforce(chi, x)
                closed = gs.twisted_character_sum_closed(chi, x)
                assert abs(brute - closed) < 1e-10 * q


def test_exponential_sum_closed_all_shifts():
    for q in [5, 8, 12, 18, 24]:
        for chi in enumerate_quadratic_characters(q):
            for x in range(0, 2 * q + 1):
                brute = gs.gauss_exponential_sum_bruteforce(chi, x)
                closed = gs.gauss_exponential_sum(chi, x)
                assert abs(brute - closed) < 1e-10 * q


def _pointwise(chi, x):
    """(gauss, twisted, expsum) at one integer x in Python complex arithmetic:
    the per-point formulas, kept as the reference for the array code (gauss
    is None off the units)."""
    q = chi.modulus
    dec = gs.conductor(chi)
    q0, star = dec.conductor, dec.primitive_char
    t = gs.tau(star)
    m = q // q0
    r = math.gcd(q, x)
    gauss = None
    if r == 1:
        gauss = 0j if mobius(m) == 0 else (
            mobius(m) * complex(star(x)) * complex(star(m)) * t / euler_phi(q))
    twisted = 0j
    if m % r == 0 and mobius(m // r) != 0:
        twisted = ((euler_phi(q) // euler_phi(q // r)) * complex(star(x // r))
                   * complex(star(m // r)) * mobius(m // r) * t)
    expsum = 0j
    if is_squarefree(m) and math.gcd(m, q0) == 1 and m % r == 0:
        expsum = mobius(r) * q0 * euler_phi(r) / euler_phi(q) * complex(star(-x))
    return gauss, twisted, expsum


def test_array_calls_equal_scalar_calls():
    # one copy of each formula: an array of points gives, entry by entry,
    # the scalar value and the pointwise reference (the same repr, so signed
    # zeros too), at every unit or x in [0, q) and at points below 0 and
    # from q up
    for q in range(1, 61):
        chars = (enumerate_characters(q) if q <= 12
                 else [principal_character(q)] + enumerate_quadratic_characters(q))
        xs = np.concatenate([np.arange(q), [-1, -q, -q - 5, q, q + 1, 2 * q + 3]])
        for chi in chars:
            units = chi.unit_residues()
            for kind, fn, points in (
                    (0, gs.gauss_sum_closed,
                     np.concatenate([units, units - q, units + 2 * q])),
                    (1, gs.twisted_character_sum_closed, xs),
                    (2, gs.gauss_exponential_sum, xs)):
                arr = fn(chi, points)
                assert arr.shape == points.shape
                scalars = [fn(chi, int(p)) for p in points]
                assert all(type(v) is complex for v in scalars)
                want = [repr(_pointwise(chi, int(p))[kind]) for p in points]
                assert [repr(v) for v in arr.tolist()] == want
                assert [repr(v) for v in scalars] == want
                assert fn(chi, points[-1]) == scalars[-1]  # a numpy integer
        arr = gs.ramanujan_gauss_principal(q, xs)
        scalars = [gs.ramanujan_gauss_principal(q, int(a)) for a in xs]
        assert all(type(v) is float for v in scalars)
        want = [mobius(q // math.gcd(q, int(a))) / euler_phi(q // math.gcd(q, int(a)))
                for a in xs]
        assert arr.tolist() == scalars == want


def test_closed_forms_reject_non_integer_points():
    chi = enumerate_quadratic_characters(12)[0]
    for fn in (gs.gauss_sum_closed, gs.twisted_character_sum_closed,
               gs.gauss_exponential_sum):
        for bad in (2.5, 1.0, np.array([1.0, 5.0])):
            with pytest.raises(DomainError):
                fn(chi, bad)
    with pytest.raises(DomainError):
        gs.gauss_sum_closed(chi, np.array([1, 4]))  # 4 is not a unit mod 12


def test_ramanujan_values_mod_10():
    # c_q(a)/phi(q) for q = 10: gcd runs over divisors of 10
    assert gs.ramanujan_gauss_principal(10, 10) == 1.0
    assert gs.ramanujan_gauss_principal(10, 5) == pytest.approx(-1.0)
    assert gs.ramanujan_gauss_principal(10, 2) == pytest.approx(-1.0 / 4.0)
    assert gs.ramanujan_gauss_principal(10, 1) == pytest.approx(1.0 / 4.0)
    with pytest.raises(DomainError):
        gs.ramanujan_gauss_principal(0, 1)


def test_bound_ratio_never_exceeds_one():
    # every principal and quadratic character with q < 80
    records = gs.verify_quadratic_range(79)
    assert len(records) == sum(1 + len(enumerate_quadratic_characters(q))
                               for q in range(1, 80))
    assert all(r["bound_ratio"] <= 1.0 + 1e-12 for r in records)


def test_verify_range_is_clean_and_counts_add_up():
    records = gs.verify_quadratic_range(100)
    assert all(r["failures"] == 0 for r in records)
    assert all(r["vanish_failures"] == 0 for r in records)
    # one record per character: principal plus quadratics for each q
    per_q = {}
    for r in records:
        per_q.setdefault(r["q"], []).append(r)
    assert set(per_q) == set(range(1, 101))
    for q, rows in per_q.items():
        assert len(rows) == 1 + len(enumerate_quadratic_characters(q))
        assert rows[0]["kind"] == "principal"


def test_verify_rows_stream_covers_every_comparison_point():
    rows = list(gs.verify_quadratic_rows(40))
    assert all(ok for *_xs, ok in rows)
    # one row per coprime shift, per twisted/exponential shift, plus the
    # two tau laws, for the principal and each quadratic character
    expect = sum((1 + len(enumerate_quadratic_characters(q)))
                 * (euler_phi(q) + 2 * q + 2)
                 for q in range(1, 41))
    assert len(rows) == expect
    q_set = {r[0] for r in rows}
    assert q_set == set(range(1, 41))


def test_range_records_reduce_the_rows():
    # the per-character maxima and check counts are the rows of the same
    # characters, plus q Ramanujan checks for each principal character
    records = gs.verify_quadratic_range(24)
    rows = list(gs.verify_quadratic_rows(24))
    field = {"a": "gauss_err", "S x": "twisted_err", "E x": "expsum_err",
             "tau": "tau_mod_err", "tau^2": "tau_sq_err"}
    for q in range(1, 25):
        recs = [r for r in records if r["q"] == q]
        q_rows = [r for r in rows if r[0] == q]
        assert sum(r["checks"] for r in recs) == len(q_rows) + q
        for label, name in field.items():
            want = max(r[3] for r in q_rows if r[2].split("=")[0] == label)
            assert max(r[name] for r in recs) == want, (q, name)


def test_audit_rejects_empty_ranges():
    with pytest.raises(DomainError):
        gs.verify_quadratic_range(0)
    with pytest.raises(DomainError):
        list(gs.verify_quadratic_rows(5, q_min=6))
    with pytest.raises(DomainError):
        list(gs.verify_quadratic_rows(-5))
    # non-integer bounds
    for bad in (dict(q_max=5.5), dict(q_max=4.5)):
        with pytest.raises(DomainError):
            gs.verify_quadratic_range(**bad)
        with pytest.raises(DomainError):
            list(gs.verify_quadratic_rows(**bad))
    with pytest.raises(DomainError):
        list(gs.verify_quadratic_rows(10, q_min=1.0))
    for q, a in ((5.0, 2), (5, 2.0), (0, 1)):
        with pytest.raises(DomainError):
            gs.ramanujan_gauss_principal(q, a)
