"""Normalized Gauss sums and their closed forms.

The normalized Gauss sum here is

    G(chi, n) = (1/phi(q)) * sum over units r mod q of chi(r) e(r n / q),

with e(x) = exp(2 pi i x).  tau(chi) = phi(q) G(chi, 1) is the classical
(unnormalized) sum; for a primitive character mod q0 it satisfies
|tau| = sqrt(q0) and tau^2 = q0 chi(-1) when chi is quadratic.

Every closed form below has a brute-force counterpart so the two routes can
be compared exhaustively:

  * gauss_sum_closed: G(chi, a) for a coprime to q through the primitive
    character chi_star mod q0 and mu(q/q0).
  * twisted_character_sum_closed: sum over units a of chi(a) e(a x / q) for
    arbitrary integer x, nonzero only when gcd(q, x) divides q/q0.
  * gauss_exponential_sum: sum over units a of G(chi, a) e(x a / q), nonzero
    only when q/q0 is square-free and coprime to q0.
  * ramanujan_gauss_principal: G for the principal character, which reduces
    to the Ramanujan sum, G(1_q, a) = mu(q/g) / phi(q/g) with g = gcd(q, a).

Each closed form takes one integer point or an integer array of points, as
multipliers.fourier_M_beta takes a float or an array, from one copy of its
formula: a scalar gives a Python complex (a float for the Ramanujan sum), an
array gives an array of its shape.  The factors that depend on a point only
through r = gcd(q, x), a divisor of q, are tabulated once per divisor, and
complex products are formed component-wise in the scalar formula's order,
so every array entry is the scalar value bit for bit.

The closed forms share tau(chi_star) of the induced primitive character.
tau sums it directly once per character object and memoizes it there, and
the primitive character itself is memoized by conductor.  The exhaustive
audit behind gauss-verify and criteria 01-03 (verify_quadratic_range,
verify_quadratic_rows) calls each closed form once per character, on the
array of units or on every x in [0, q), against direct sums over the units:
two ntheory._dot calls per modulus serve all its characters, each row the
bits of the public brute-force route for that character alone, so no error
printed depends on the BLAS kernel or on the other characters.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .characters import (ENUM_CAP, DirichletCharacter, conductor,
                         enumerate_quadratic_characters, principal_character)
from .ntheory import (DomainError, _dot, _integer, _shaped, divisors, euler_phi, is_squarefree,
                      mobius)


@lru_cache(maxsize=1024, typed=True)
def roots_of_unity(q: int) -> np.ndarray:
    """exp(2 pi i k / q) for k in [0, q), read-only: the memo shares it."""
    q = _integer(q, "q", 1)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    roots.flags.writeable = False
    return roots


def gauss_sum_bruteforce(chi: DirichletCharacter, n: int) -> complex:
    """G(chi, n) = (1/phi(q)) sum over units a mod q of chi(a) e(a n / q):
    the direct twisted sum over phi(q)."""
    return twisted_character_sum_bruteforce(chi, n) / euler_phi(chi.modulus)


def gauss_sum_bruteforce_all(chi: DirichletCharacter) -> np.ndarray:
    """G(chi, n) for every n in [0, q), each a direct sum over the units
    (ntheory._dot) divided by phi(q)."""
    q = chi.modulus
    units = chi.unit_residues()
    roots = roots_of_unity(q)[np.arange(q)[:, None] * units % q]  # (q, units)
    return _dot(roots, chi.values[units]) / euler_phi(q)


def tau(chi: DirichletCharacter) -> complex:
    """tau(chi) = phi(q) G(chi, 1).  The |tau| = sqrt(q0) law needs chi primitive.

    Summed once per character object and memoized on it, as conductor
    memoizes the primitive decomposition.
    """
    if chi._tau is None:
        chi._tau = euler_phi(chi.modulus) * gauss_sum_bruteforce(chi, 1)
    return chi._tau


def _points(x, q: int) -> np.ndarray:
    """An integer point or integer array of points, reduced mod q, as int64.

    Every closed form here depends on its point only through the residue
    mod q (the conductor q0 divides q), so reducing first changes no value.
    """
    x = _integer(x, "point", points=True)
    if isinstance(x, int):
        return np.asarray(x % q, dtype=np.int64)
    return np.mod(x, q).astype(np.int64)


def _as_complex(re, im, like: np.ndarray):
    """re + i im shaped like the points (ntheory._shaped)."""
    out = np.empty(like.shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return _shaped(out, like)


# Complex arithmetic on (re, im) component pairs, term for term as Python
# evaluates it on complex scalars (an integer factor k enters as k + 0j, and
# dividing by n is Smith's quotient by n + 0j), so values match that
# evaluation bit for bit, signed zeros included; numpy's complex loops need
# not round the same way.

def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(re, im, n: int):
    """(re + i im) / n for a positive integer n."""
    return (re + im * 0.0) / n, (im - re * 0.0) / n


def gauss_sum_closed(chi: DirichletCharacter,
                     a: int | np.ndarray) -> complex | np.ndarray:
    """Closed form for G(chi, a), a coprime to q (an integer or an array).

    G(chi, a) = mu(q/q0)/phi(q) * chi_star(a) chi_star(q/q0) tau(chi_star),
    which vanishes unless q/q0 is square-free and coprime to q0.
    """
    q = chi.modulus
    a = _points(a, q)
    if np.any(np.gcd(a, q) != 1):
        raise DomainError("gauss_sum_closed requires gcd(a, q) = 1")
    dec = conductor(chi)
    q0 = dec.conductor
    star = dec.primitive_char
    m = q // q0
    mu = mobius(m)
    if mu == 0:
        return _as_complex(0.0, 0.0, a)
    sa = star(a)
    sm = complex(star(m))
    t = tau(star)
    re, im = _cmul(mu, 0.0, sa.real, sa.imag)
    re, im = _cmul(re, im, sm.real, sm.imag)
    re, im = _cmul(re, im, t.real, t.imag)
    return _as_complex(*_cdiv(re, im, euler_phi(q)), a)


def twisted_character_sum_bruteforce(chi: DirichletCharacter, x: int) -> complex:
    """sum over units a mod q of chi(a) e(a x / q), summed directly."""
    x = _integer(x, "x")
    q = chi.modulus
    units = chi.unit_residues()
    roots = roots_of_unity(q)
    return complex(_dot(roots[(units * (x % q)) % q], chi.values[units]))


def twisted_character_sum_closed(chi: DirichletCharacter,
                                 x: int | np.ndarray) -> complex | np.ndarray:
    """Closed form for sum over units a of chi(a) e(a x / q), any integer x
    (or an integer array).

    With r = gcd(q, x): zero unless r divides q/q0, in which case the sum is
    phi(q)/phi(q/r) * chi_star(x/r) chi_star(q/(r q0)) mu(q/(r q0)) tau(chi_star).
    """
    q = chi.modulus
    x = _points(x, q)
    dec = conductor(chi)
    q0 = dec.conductor
    star = dec.primitive_char
    # the factors that depend on x only through r, tabulated per divisor r
    # of q/q0; at every other divisor of q, mu stays 0 and the sum vanishes
    phi = euler_phi(q)
    k, mu = np.zeros(q + 1), np.zeros(q + 1)
    sm = np.zeros(q + 1, dtype=np.complex128)
    for d in divisors(q // q0):
        m = q // (d * q0)
        k[d] = phi // euler_phi(q // d)
        mu[d] = mobius(m)
        sm[d] = star(m)
    r = np.gcd(x, q)  # gcd(q, 0) = q
    # r | x, so x // r is exact; chi_star reduces it mod q0
    s = star(x // r)
    t = tau(star)
    k, mu, sm = k[r], mu[r], sm[r]
    re, im = _cmul(k, 0.0, s.real, s.imag)
    re, im = _cmul(re, im, sm.real, sm.imag)
    re, im = _cmul(re, im, mu, 0.0)
    re, im = _cmul(re, im, t.real, t.imag)
    zero = mu == 0
    return _as_complex(np.where(zero, 0.0, re), np.where(zero, 0.0, im), x)


def gauss_exponential_sum_bruteforce(chi: DirichletCharacter, x: int) -> complex:
    """sum over units a mod q of G(chi, a) e(x a / q), with G computed directly."""
    x = _integer(x, "x")
    q = chi.modulus
    units = chi.unit_residues()
    roots = roots_of_unity(q)
    g_all = gauss_sum_bruteforce_all(chi)
    return complex(_dot(roots[(units * (x % q)) % q], g_all[units]))


def gauss_exponential_sum(chi: DirichletCharacter,
                          x: int | np.ndarray) -> complex | np.ndarray:
    """Closed form for sum over units a of G(chi, a) e(x a / q), x an integer
    or an integer array.

    With r = gcd(q, x), the sum equals mu(r) q0 phi(r)/phi(q) chi_star(-x)
    provided q/q0 is square-free, coprime to q0, and r divides q/q0;
    otherwise it vanishes.
    """
    q = chi.modulus
    x = _points(x, q)
    dec = conductor(chi)
    q0 = dec.conductor
    star = dec.primitive_char
    m = q // q0
    # mu(r) q0 phi(r)/phi(q) per divisor r of m, 0 at every other r
    coef = np.zeros(q + 1)
    if is_squarefree(m) and math.gcd(m, q0) == 1:
        phi = euler_phi(q)
        for d in divisors(m):
            coef[d] = mobius(d) * q0 * euler_phi(d) / phi
    c = coef[np.gcd(x, q)]
    s = star(-x)
    re, im = _cmul(c, 0.0, s.real, s.imag)
    zero = c == 0
    return _as_complex(np.where(zero, 0.0, re), np.where(zero, 0.0, im), x)


def ramanujan_gauss_principal(q: int, a: int | np.ndarray) -> float | np.ndarray:
    """G(1_q, a) = c_q(a)/phi(q) = mu(q/g)/phi(q/g), g = gcd(q, a), for an
    integer a or an integer array."""
    q = _integer(q, "q", 1)
    a = _points(a, q)
    by_gcd = np.zeros(q + 1)
    for g in divisors(q):
        by_gcd[g] = mobius(q // g) / euler_phi(q // g)
    out = by_gcd[np.gcd(a, q)]
    return _shaped(out, a)


_TOL_SCALE = 1e-9  # an audit check at modulus q passes at |error| <= _TOL_SCALE * q


class _CharacterAudit(NamedTuple):
    """One character's comparisons: |closed - brute| at every unit a (gauss)
    and at every x in [0, q) (twisted, expsum), where the exponential sum's
    closed form is structurally zero (vanish), and the errors of the tau
    laws of the induced primitive character."""

    q: int
    index: int
    chi: DirichletCharacter
    q0: int
    g_brute: np.ndarray
    units: np.ndarray
    gauss: np.ndarray
    twisted: np.ndarray
    expsum: np.ndarray
    vanish: np.ndarray
    tau: float
    tau_sq: float


def _abs_err(closed: np.ndarray, brute: np.ndarray) -> np.ndarray:
    """|closed - brute| per point, as hypot of the component differences:
    what abs gives on one complex scalar (np.abs on a complex array can
    differ in the last ulp)."""
    return np.hypot(closed.real - brute.real, closed.imag - brute.imag)


def _quadratic_audit(q_min: int, q_max: int):
    """The one comparison loop behind verify_quadratic_range and _rows.

    Checks the arguments of both when called, before any modulus is
    audited: integers 1 <= q_min <= q_max, and q_max at most ENUM_CAP, the
    enumeration cap of characters.  Returns an iterator that, for every
    modulus q_min <= q <= q_max, yields a _CharacterAudit per character with
    chi^2 principal (the principal character first).
    """
    q_min = _integer(q_min, "q_min", 1)
    q_max = _integer(q_max, "q_max", q_min, high=ENUM_CAP)
    return (au for q in range(q_min, q_max + 1) for au in _modulus_audit(q))


def _modulus_audit(q: int):
    """The _CharacterAudit of each character of _quadratic_audit at one
    modulus q.  Each closed form is called once per character, on the array
    of units or on every x in [0, q).  The direct sums over the units of all
    the characters come from two ntheory._dot calls, each row the bits of
    its character's sum alone: the twisted sums, which over phi(q) are
    g_brute (the rows of gauss_sum_bruteforce_all), and the exponential
    sums of g_brute."""
    xs = np.arange(q)
    chars = [principal_character(q)] + enumerate_quadratic_characters(q)
    units = chars[0].unit_residues()  # the units of q, whatever the character
    mat = roots_of_unity(q)[xs[:, None] * units % q]  # e(x a / q)
    twisted = _dot(mat, np.array([chi.values[units] for chi in chars])[:, None])
    g_brute = twisted / euler_phi(q)
    exp_brute = _dot(mat, g_brute[:, None, units])
    for index, chi in enumerate(chars):
        expsum = gauss_exponential_sum(chi, xs)
        dec = conductor(chi)
        q0 = dec.conductor
        t = tau(dec.primitive_char)
        yield _CharacterAudit(
            q, index, chi, q0, g_brute[index], units,
            gauss=_abs_err(gauss_sum_closed(chi, units), g_brute[index, units]),
            twisted=_abs_err(twisted_character_sum_closed(chi, xs), twisted[index]),
            expsum=_abs_err(expsum, exp_brute[index]),
            vanish=expsum == 0,
            tau=abs(abs(t) - math.sqrt(q0)),
            tau_sq=abs(t * t - q0 * complex(dec.primitive_char(-1))))


def verify_quadratic_range(q_max: int) -> list[dict]:
    """Exhaustive closed-form vs brute-force audit over all quadratic characters.

    For every modulus 1 <= q <= q_max and every character with chi^2 principal
    (the principal character included), compares the three closed forms
    against direct summation: G(chi, a) over all units a, the twisted sum
    over every x in [0, q), and the Gauss exponential sum over every
    x in [0, q); checks the tau laws on the induced primitive character and
    the Ramanujan evaluation for the principal character; and counts the
    vanishing cases where the closed form is structurally zero.  A check
    fails unless the absolute error is at most _TOL_SCALE * q.

    Returns one record per (q, character) with the maximum errors, the
    modulus bound ratio, and check/failure counts.
    """
    records = []
    for au in _quadratic_audit(1, q_max):
        q, chi = au.q, au.chi
        # |G(chi, a)| <= sqrt(q0)/phi(q) over the units, so this never exceeds 1
        bound_ratio = float(np.max(np.abs(au.g_brute[au.units]))
                            * euler_phi(q) / math.sqrt(au.q0))
        errs = {"gauss_err": au.gauss, "twisted_err": au.twisted,
                "expsum_err": au.expsum, "tau_mod_err": au.tau,
                "tau_sq_err": au.tau_sq, "principal_err": 0.0}
        checks = au.units.size + 2 * q + 2
        if chi.kind == "principal":
            errs["principal_err"] = _abs_err(
                ramanujan_gauss_principal(q, np.arange(q)), au.g_brute)
            checks += q
        errs = {k: float(np.max(v, initial=0.0)) for k, v in errs.items()}
        tol = _TOL_SCALE * q
        # the closed form is 0 at a vanishing point, so its error is |brute|
        vanish_failures = int(np.count_nonzero(~(au.expsum[au.vanish] <= tol)))
        records.append({
            "q": q, "index": au.index, "kind": chi.kind, **errs,
            "bound_ratio": bound_ratio,
            "vanish_checks": int(np.count_nonzero(au.vanish)),
            "vanish_failures": vanish_failures,
            "checks": checks,
            "failures": sum(not e <= tol for e in errs.values()) + vanish_failures,
        })
    return records


def verify_quadratic_rows(q_max: int, q_min: int = 1):
    """Per-check rows of the quadratic-character audit, for report emission.

    Returns an iterator of (q, q0, point, abs_err, ok) tuples, one per
    comparison: point is 'a=<n>' for the Gauss closed form at each unit,
    then 'S x=<n>' for the twisted sum and 'E x=<n>' for the exponential sum
    at each x in turn, then 'tau'/'tau^2' for the primitive laws.  ok means
    abs_err <= _TOL_SCALE * q.  The bounds are checked when called, as
    _quadratic_audit checks them; the rows are computed as they are drawn.
    """
    return _audit_rows(_quadratic_audit(q_min, q_max))


def _audit_rows(audits):
    for au in audits:
        q, q0 = au.q, au.q0
        tol = _TOL_SCALE * q
        for a, err in zip(au.units.tolist(), au.gauss.tolist()):
            yield q, q0, f"a={a}", err, err <= tol
        for x, (s_err, e_err) in enumerate(zip(au.twisted.tolist(),
                                               au.expsum.tolist())):
            yield q, q0, f"S x={x}", s_err, s_err <= tol
            yield q, q0, f"E x={x}", e_err, e_err <= tol
        yield q, q0, "tau", au.tau, au.tau <= tol
        yield q, q0, "tau^2", au.tau_sq, au.tau_sq <= tol
