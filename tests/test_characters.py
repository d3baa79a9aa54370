"""Character group, conductor, and L-series tests.

The conductor oracle below is definitional: the smallest divisor d of q
such that the character is constant on unit residues that agree mod d.
The L-series oracle is mpmath's Hurwitz zeta summed against the values.
"""

import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import primeavg.characters as ch
from primeavg.ntheory import DomainError, euler_phi


MODULI = [1, 2, 3, 4, 5, 8, 9, 12, 15, 16, 21, 24, 40, 45]


def test_principal_character_table():
    chi = ch.principal_character(12)
    for n in range(12):
        expect = 1.0 if math.gcd(n, 12) == 1 else 0.0
        assert chi(n) == expect
    assert chi.kind == "principal"
    assert chi.is_real


@pytest.mark.parametrize("q", MODULI)
def test_enumeration_size_and_orthogonality(q):
    chars = ch.enumerate_characters(q)
    phi = euler_phi(q)
    assert len(chars) == phi
    assert chars[0].kind == "principal"
    units = chars[0].unit_residues()
    V = np.array([c.values[units] for c in chars])  # (phi, phi)
    gram = V @ V.conj().T
    assert np.allclose(gram, phi * np.eye(phi), atol=1e-10)
    # column orthogonality: sum over characters separates unit residues
    gram2 = V.conj().T @ V
    assert np.allclose(gram2, phi * np.eye(phi), atol=1e-10)


@pytest.mark.parametrize("q", [5, 8, 9, 12, 21])
def test_complete_multiplicativity(q):
    for chi in ch.enumerate_characters(q):
        vals = chi.values
        m, n = np.meshgrid(np.arange(q), np.arange(q))
        assert np.allclose(vals[(m * n) % q], vals[m] * vals[n], atol=1e-12)


def _conductor_brute(chi) -> int:
    q = chi.modulus
    units = [a for a in range(q) if math.gcd(a, q) == 1]
    for d in sorted(d for d in range(1, q + 1) if q % d == 0):
        classes = {}
        ok = True
        for a in units:
            r = a % d
            if r in classes and abs(classes[r] - chi(a)) > 1e-12:
                ok = False
                break
            classes.setdefault(r, chi(a))
        if ok:
            return d
    return q


@pytest.mark.parametrize("q", range(1, 61))
def test_conductor_matches_definition(q):
    for chi in ch.enumerate_characters(q):
        dec = ch.conductor(chi)
        assert dec.conductor == _conductor_brute(chi)
        # the primitive part reproduces chi on units, phase for phase
        units = chi.unit_residues()
        star = dec.primitive_char
        assert star.modulus == dec.conductor and star.order == chi.order
        assert np.array_equal(star.phases[units % star.modulus], chi.phases[units])
        assert np.allclose(chi.values[units], star.values[units % star.modulus],
                           atol=1e-12)


def test_known_conductors_mod_8_and_12():
    cond8 = sorted(ch.conductor(c).conductor
                   for c in ch.enumerate_quadratic_characters(8))
    assert cond8 == [4, 8, 8]
    cond12 = sorted(ch.conductor(c).conductor
                    for c in ch.enumerate_quadratic_characters(12))
    assert cond12 == [3, 4, 12]


def test_is_primitive_flag():
    # mod 5: the quadratic character is primitive; principal is not (q > 1)
    quad5 = ch.enumerate_quadratic_characters(5)[0]
    assert ch.is_primitive(quad5)
    assert not ch.is_primitive(ch.principal_character(5))
    assert ch.is_primitive(ch.principal_character(1))


@pytest.mark.parametrize("q", MODULI)
def test_quadratic_enumeration_is_the_order_two_slice(q):
    by_filter = []
    for chi in ch.enumerate_characters(q):
        on_units = chi.values[chi.phases >= 0]
        real_pm1 = np.allclose(on_units.imag, 0, atol=1e-12)
        has_minus = real_pm1 and np.any(on_units.real < 0)
        if has_minus:
            by_filter.append(tuple(np.round(on_units.real).astype(int)))
    listed = [tuple(np.round(c.values[c.phases >= 0].real).astype(int))
              for c in ch.enumerate_quadratic_characters(q)]
    assert sorted(listed) == sorted(by_filter)
    for c in ch.enumerate_quadratic_characters(q):
        assert c.kind == "quadratic"


def test_equality_compares_phases_not_memos():
    # two enumerations build distinct arrays with equal phases
    first = ch.enumerate_quadratic_characters(5)
    second = ch.enumerate_quadratic_characters(5)
    assert first == second
    ch.conductor(first[0])  # fills the memo on one side only
    assert first[0] == second[0]
    quartic = next(c for c in ch.enumerate_characters(5) if c.kind == "other")
    conj = ch.DirichletCharacter(
        modulus=5, order=quartic.order,
        phases=np.where(quartic.phases >= 0, (-quartic.phases) % quartic.order, -1),
        values=quartic.values.conj())
    assert conj != quartic
    assert conj in ch.enumerate_characters(5)
    # the same values over twice the order
    doubled = ch.DirichletCharacter(
        modulus=5, order=2 * quartic.order,
        phases=np.where(quartic.phases >= 0, 2 * quartic.phases, -1),
        values=quartic.values)
    assert doubled == quartic
    assert ch.principal_character(5) != ch.principal_character(10)
    assert quartic != 5


@functools.lru_cache(maxsize=None)
def _hurwitz_term(q: int, a: int, s: float):
    """The 40-digit term of unit a in L(s, chi) = sum chi(a) term(q, a, s):
    zeta(s, a/q) q^-s, or -psi(a/q)/q at s = 1 exactly, where the Hurwitz
    pole residues cancel and L(1, chi) = -(1/q) sum chi(a) psi(a/q).  It does
    not depend on chi, so each is computed once for every character mod q."""
    with mpmath.workdps(40):
        if s == 1.0:
            return -mpmath.digamma(mpmath.mpf(a) / q) / q
        return mpmath.zeta(s, mpmath.mpf(a) / q) * mpmath.power(q, -s)


def _l_oracle(chi, s: float) -> complex:
    q = chi.modulus
    with mpmath.workdps(40):
        acc = mpmath.mpc(0)
        for a in chi.unit_residues():
            acc += mpmath.mpc(chi(int(a))) * _hurwitz_term(q, int(a), s)
        return complex(acc)


def test_l_function_closed_forms():
    chi4 = ch.enumerate_quadratic_characters(4)[0]
    assert abs(ch.l_function_real(chi4, 1.0) - math.pi / 4) < 1e-13
    chi3 = ch.enumerate_quadratic_characters(3)[0]
    assert abs(ch.l_function_real(chi3, 1.0) - math.pi / (3 * math.sqrt(3))) < 1e-13


@pytest.mark.parametrize("q", [3, 4, 5, 7, 12, 37])
def test_l_function_against_hurwitz_oracle(q):
    ss = [0.25, 0.5, 0.75, 0.999, 1.0, 1.001, 1.25, 1.5]
    for chi in ch.enumerate_characters(q):
        if chi.kind == "principal":
            continue
        for s in ss:
            got = ch.l_function_real(chi, s)
            want = _l_oracle(chi, s)
            if chi.is_real:
                assert abs(got - want.real) < 5e-13 * max(1.0, abs(want))
            else:
                assert abs(got - want) < 5e-13 * max(1.0, abs(want))


def test_l_function_vectorizes_over_s():
    chi = ch.enumerate_quadratic_characters(5)[0]
    grid = np.linspace(0.3, 1.5, 17)
    vec = ch.l_function_real(chi, grid)
    point = np.array([ch.l_function_real(chi, float(s)) for s in grid])
    assert np.allclose(vec, point, rtol=0, atol=1e-15)


def test_l_function_domain_checks():
    chi = ch.enumerate_quadratic_characters(5)[0]
    with pytest.raises(DomainError):
        ch.l_function_real(chi, 0.0)
    with pytest.raises(DomainError):
        ch.l_function_real(chi, 1.6)
    with pytest.raises(DomainError):
        ch.l_function_real(ch.principal_character(5), 1.0)
    for bad in (math.nan, math.inf, -math.inf, np.array([0.5, math.nan])):
        with pytest.raises(DomainError):
            ch.l_function_real(chi, bad)


def test_zero_scan_small_moduli_clean():
    res = ch.exceptional_zero_scan(5)
    assert not res.found
    assert res.beta is None
    assert res.min_abs_l > 0.1
    res7 = ch.exceptional_zero_scan(7, c=2.0)
    assert not res7.found
    # 1 - c/log q rounds to 1: the window is the one point s = 1
    point = ch.exceptional_zero_scan(5, c=1e-300)
    assert not point.found and point.certified and point.margin == math.inf


def test_zero_scan_domain_checks():
    with pytest.raises(DomainError):
        ch.exceptional_zero_scan(2)
    with pytest.raises(DomainError):
        ch.exceptional_zero_scan(5, c=0.0)
    with pytest.raises(DomainError):
        ch.exceptional_zero_scan(5.5)
    for bad in ({"c": math.nan}, {"c": math.inf}):
        with pytest.raises(DomainError):
            ch.exceptional_zero_scan(5, **bad)
    # the enumerators check the modulus before the untyped group memo, so
    # 5.0 is rejected even once the entry for 5 exists
    ch.enumerate_characters(5)
    for make in (ch.principal_character, ch.enumerate_characters,
                 ch.enumerate_quadratic_characters):
        for bad in (5.0, math.nan, 0, -3):
            with pytest.raises(DomainError):
                make(bad)
        assert make(np.int64(7)) == make(7)
    assert ch.exceptional_zero_scan(np.int64(7)) == ch.exceptional_zero_scan(7)
    with pytest.raises(ch.CapacityError):
        ch.enumerate_characters(ch.ENUM_CAP + 1)


def _window(q):
    return max(0.5, 1.0 - 1.0 / math.log(q)), 1.0


@pytest.mark.parametrize("q", range(3, 61))
def test_zero_scan_shared_block_is_the_l_function(q, monkeypatch):
    # the scan applies each character to one Hurwitz block per round of
    # points; every value must be exactly the oracle's on those points, not
    # merely close to it.  The first round is the closed coarse grid
    calls = []
    sample = ch._quadratic_l_values

    def record(*args):
        values, err = sample(*args)
        calls.append((args[-1], values))
        return values, err

    monkeypatch.setattr(ch, "_quadratic_l_values", record)
    res = ch.exceptional_zero_scan(q)
    chars = ch.enumerate_quadratic_characters(q)
    assert np.array_equal(calls[0][0], np.linspace(*_window(q), ch._COARSE_INTERVALS + 1))
    for s, values in calls:
        assert len(values) == len(chars)
        for vals, chi in zip(values, chars):
            assert np.array_equal(vals, ch.l_function_real(chi, s))
    assert not res.found
    assert res.min_abs_l == min(float(np.min(np.abs(v))) for _, v in calls)


@pytest.mark.parametrize("q", range(3, 61))
def test_zero_scan_certificate_is_sound(q):
    # the certified lower bound on |L| over the closed window must not
    # exceed what a dense grid of the window finds
    res = ch.exceptional_zero_scan(q)
    assert res.certified and not res.found and res.diagnostic is None
    assert res.margin > 1.0 and res.l_lower_bound > 0.0
    dense = np.linspace(*_window(q), 4096)
    least = min(float(np.min(np.abs(ch.l_function_real(chi, dense))))
                for chi in ch.enumerate_quadratic_characters(q))
    assert res.l_lower_bound <= least <= res.min_abs_l


@pytest.mark.parametrize("q", [3, 4, 5, 7, 12, 37])
def test_evaluation_error_bound_holds_against_the_oracle(q):
    # the stated error bound of the shared block covers the 40-digit oracle
    s = np.array([0.5, 0.75, 0.999, 1.0])
    chars = ch.enumerate_quadratic_characters(q)
    units = np.flatnonzero(ch._group_data(q).unit_mask)
    values, err = ch._quadratic_l_values(q, units, [chi.values[units].real for chi in chars],
                                         s)
    assert np.all(err < 1e-11)
    for vals, chi in zip(values, chars):
        want = np.array([_l_oracle(chi, float(x)).real for x in s])
        assert np.all(np.abs(vals - want) <= err)


def test_zero_scan_finds_and_proves_a_sign_change(monkeypatch):
    # L mod 5 shifted down by its value at 0.8 crosses zero there: the scan
    # must bracket it on its grid, bisect it and prove it by the sign change
    chi = ch.enumerate_quadratic_characters(5)[0]
    shift = ch.l_function_real(chi, 0.8)
    sample, direct = ch._quadratic_l_values, ch.l_function_real

    def shifted(*args):
        values, err = sample(*args)
        return values - shift, err

    monkeypatch.setattr(ch, "_quadratic_l_values", shifted)
    monkeypatch.setattr(ch, "l_function_real", lambda chi, s: direct(chi, s) - shift)
    res = ch.exceptional_zero_scan(5)
    assert res.found and res.certified and res.character_index == 0
    assert res.diagnostic is None
    assert abs(res.beta - 0.8) < 1e-12


@pytest.mark.parametrize("q, patch", [
    (5, {"_lipschitz": lambda q, sigma: 1e9}),  # no subinterval can close
    (163, {"_HALVINGS": 0}),                    # its coarse grid leaves one open
])
def test_zero_scan_that_cannot_certify_says_so(q, patch, monkeypatch):
    for name, value in patch.items():
        monkeypatch.setattr(ch, name, value)
    res = ch.exceptional_zero_scan(q)
    assert not res.found and not res.certified
    assert res.diagnostic == "window-not-certified"
    assert 0.0 < res.margin <= 1.0 and res.l_lower_bound <= 0.0


def _class_number(d: int) -> int:
    """h(d) for a negative discriminant d: the reduced forms (a, b, c) with
    b^2 - 4ac = d, |b| <= a <= c and b >= 0 when |b| = a or a = c."""
    h = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a) == 0:
                c = num // (4 * a)
                if c >= a and not (c == a and b < 0):
                    h += 1
        a += 1
    return h


def test_l_at_one_matches_the_class_number_formula():
    # L(1, chi) = 2 pi h(-q) / (w sqrt q) for odd primitive quadratic chi mod
    # q (Davenport, ch. 6): an integer count, independent of the Hurwitz block
    checked = 0
    for q in range(3, 401):
        for chi in ch.enumerate_quadratic_characters(q):
            if chi.values[q - 1].real != -1.0 or not ch.is_primitive(chi):
                continue
            w = {3: 6, 4: 4}.get(q, 2)
            want = 2.0 * math.pi * _class_number(-q) / (w * math.sqrt(q))
            got = ch.l_function_real(chi, 1.0)
            assert abs(got - want) <= 1e-13 * want, q
            checked += 1
    assert checked == 122  # the negative fundamental discriminants down to -400


@pytest.mark.parametrize("q", range(3, 61))
def test_blocked_hurwitz_head_is_the_one_array_sum(q):
    # the head written as one (m, u, K) power array summed over k; at 512
    # points it takes several blocks of s-rows, the last one short
    units = np.flatnonzero(ch._group_data(q).unit_mask)
    x = units.astype(np.float64) / q
    k = np.arange(ch._EM_K, dtype=np.float64)
    for points in (512, 1, 37):
        grid = np.linspace(max(0.5, 1.0 - 1.0 / math.log(q)), 1.0, points + 2)[1:-1]
        sv = grid[:, None]
        want = ((x[None, :, None] + k[None, None, :]) ** (-sv[:, :, None])).sum(axis=2)
        assert np.array_equal(ch._hurwitz_head(x, sv), want), (q, points)


def test_zero_scan_peak_stays_within_its_blocks():
    # warm: the group and character memos of q = 149 exist.  The one
    # (512, 148, 28) head array of 17 MB is never formed; the blocks and
    # the (512, 148) terms of the Euler-Maclaurin tail peak under 4 MB
    ch.exceptional_zero_scan(149)
    tracemalloc.start()
    try:
        ch.exceptional_zero_scan(149)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 << 20, peak


def test_synthetic_pair_is_explicit_opt_in():
    chi, beta = ch.synthetic_exceptional(5, 0.9)
    assert beta == 0.9
    assert chi.modulus == 5
    assert chi.kind == "quadratic"
    assert ch.is_primitive(chi)
    with pytest.raises(DomainError):
        ch.synthetic_exceptional(5, 0.4)
    with pytest.raises(DomainError):
        ch.synthetic_exceptional(5, 1.0)

