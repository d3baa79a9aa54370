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

The closed forms share tau(chi_star) of the induced primitive character.
tau sums it directly once per character object and memoizes it there, and
the primitive character itself is memoized by conductor, so an audit over
every unit a and shift x of a character pays for one sum.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter, conductor
from .ntheory import DomainError, euler_phi, is_squarefree, mobius


@lru_cache(maxsize=1024)
def roots_of_unity(q: int) -> np.ndarray:
    """exp(2 pi i k / q) for k in [0, q)."""
    return np.exp(2j * np.pi * np.arange(q) / q)


def gauss_sum_bruteforce(chi: DirichletCharacter, n: int) -> complex:
    """G(chi, n) summed directly over the units mod q."""
    q = chi.modulus
    units = chi.unit_residues()
    roots = roots_of_unity(q)
    val = chi.values[units] @ roots[(units * (n % q)) % q]
    return complex(val) / euler_phi(q)


def gauss_sum_bruteforce_all(chi: DirichletCharacter) -> np.ndarray:
    """G(chi, n) for every n in [0, q), as one matrix product."""
    q = chi.modulus
    units = chi.unit_residues()
    roots = roots_of_unity(q)
    idx = (units[:, None] * np.arange(q)[None, :]) % q
    return (chi.values[units] @ roots[idx]) / euler_phi(q)


def tau(chi: DirichletCharacter) -> complex:
    """tau(chi) = phi(q) G(chi, 1).  The |tau| = sqrt(q0) law needs chi primitive.

    Summed once per character object and memoized on it, as conductor
    memoizes the primitive decomposition.
    """
    if chi._tau is None:
        chi._tau = euler_phi(chi.modulus) * gauss_sum_bruteforce(chi, 1)
    return chi._tau


def gauss_sum_closed(chi: DirichletCharacter, a: int) -> complex:
    """Closed form for G(chi, a), a coprime to q.

    G(chi, a) = mu(q/q0)/phi(q) * chi_star(a) chi_star(q/q0) tau(chi_star),
    which vanishes unless q/q0 is square-free and coprime to q0.
    """
    q = chi.modulus
    if math.gcd(a, q) != 1:
        raise DomainError("gauss_sum_closed requires gcd(a, q) = 1")
    dec = conductor(chi)
    q0 = dec.conductor
    star = dec.primitive_char
    m = q // q0
    mu = mobius(m)
    if mu == 0:
        return 0.0 + 0.0j
    val = mu * complex(star(a)) * complex(star(m)) * tau(star)
    return val / euler_phi(q)


def twisted_character_sum_bruteforce(chi: DirichletCharacter, x: int) -> complex:
    """sum over units a mod q of chi(a) e(a x / q), summed directly."""
    q = chi.modulus
    units = chi.unit_residues()
    roots = roots_of_unity(q)
    return complex(chi.values[units] @ roots[(units * (x % q)) % q])


def twisted_character_sum_closed(chi: DirichletCharacter, x: int) -> complex:
    """Closed form for sum over units a of chi(a) e(a x / q), any integer x.

    With r = gcd(q, x): zero unless r divides q/q0, in which case the sum is
    phi(q)/phi(q/r) * chi_star(x/r) chi_star(q/(r q0)) mu(q/(r q0)) tau(chi_star).
    """
    q = chi.modulus
    dec = conductor(chi)
    q0 = dec.conductor
    star = dec.primitive_char
    r = math.gcd(q, x)  # gcd(q, 0) = q
    if (q // q0) % r != 0:
        return 0.0 + 0.0j
    m = q // (r * q0)
    mu = mobius(m)
    if mu == 0:
        return 0.0 + 0.0j
    # r | x, so x // r is exact; chi_star reduces it mod q0
    val = (euler_phi(q) // euler_phi(q // r)) * complex(star(x // r)) \
        * complex(star(m)) * mu * tau(star)
    return val


def gauss_exponential_sum_bruteforce(chi: DirichletCharacter, x: int) -> complex:
    """sum over units a mod q of G(chi, a) e(x a / q), with G computed directly."""
    q = chi.modulus
    units = chi.unit_residues()
    roots = roots_of_unity(q)
    g_all = gauss_sum_bruteforce_all(chi)
    return complex(g_all[units] @ roots[(units * (x % q)) % q])


def gauss_exponential_sum(chi: DirichletCharacter, x: int) -> complex:
    """Closed form for sum over units a of G(chi, a) e(x a / q).

    With r = gcd(q, x), the sum equals mu(r) q0 phi(r)/phi(q) chi_star(-x)
    provided q/q0 is square-free, coprime to q0, and r divides q/q0;
    otherwise it vanishes.
    """
    q = chi.modulus
    dec = conductor(chi)
    q0 = dec.conductor
    star = dec.primitive_char
    m = q // q0
    r = math.gcd(q, x)
    if not is_squarefree(m) or math.gcd(m, q0) != 1 or m % r != 0:
        return 0.0 + 0.0j
    return mobius(r) * q0 * euler_phi(r) / euler_phi(q) * complex(star(-x))


def ramanujan_gauss_principal(q: int, a: int) -> float:
    """G(1_q, a) = c_q(a)/phi(q) = mu(q/g)/phi(q/g), g = gcd(q, a)."""
    if q < 1:
        raise DomainError("modulus must be >= 1")
    g = math.gcd(q, a)
    m = q // g
    return mobius(m) / euler_phi(m)


# record field of each comparison kind, in record order; 'vanish' is an
# exponential-sum check whose closed form is structurally zero, and
# 'principal' (the Ramanujan evaluation) is added by verify_quadratic_range
_ERR_FIELD = {"gauss": "gauss_err", "twisted": "twisted_err",
              "expsum": "expsum_err", "vanish": "expsum_err",
              "tau": "tau_mod_err", "tau^2": "tau_sq_err",
              "principal": "principal_err"}
_POINT = {"gauss": "a={}", "twisted": "S x={}", "expsum": "E x={}",
          "vanish": "E x={}", "tau": "tau", "tau^2": "tau^2"}


def _quadratic_audit(q_min: int, q_max: int):
    """The one comparison loop behind verify_quadratic_range and _rows.

    For every modulus q_min <= q <= q_max and every character with chi^2
    principal (the principal character first), yields
    (q, index, chi, q0, g_brute, checks).  checks lists one
    (kind, n, abs_err) per closed-form vs brute-force comparison, in report
    order: 'gauss' at each unit a = n; 'twisted', then 'expsum' or 'vanish',
    at each x = n in [0, q); then 'tau' and 'tau^2' (n is None) for the laws
    of the induced primitive character.
    """
    from .characters import enumerate_quadratic_characters, principal_character

    if q_min < 1 or q_max < q_min:
        raise DomainError("the quadratic audit needs 1 <= q_min <= q_max")
    for q in range(q_min, q_max + 1):
        roots = roots_of_unity(q)
        mat = roots[np.outer(np.arange(q), np.arange(q)) % q]
        chars = [principal_character(q)] + enumerate_quadratic_characters(q)
        for index, chi in enumerate(chars):
            units = chi.unit_residues()
            g_brute = gauss_sum_bruteforce_all(chi)
            checks = [("gauss", a, abs(gauss_sum_closed(chi, a) - g_brute[a]))
                      for a in units.tolist()]
            twisted_brute = mat @ chi.values
            gvec = np.zeros(q, dtype=np.complex128)
            gvec[units] = g_brute[units]
            exp_brute = mat @ gvec
            for x in range(q):
                checks.append(("twisted", x, abs(
                    twisted_character_sum_closed(chi, x) - twisted_brute[x])))
                closed = gauss_exponential_sum(chi, x)
                checks.append(("vanish" if closed == 0 else "expsum", x,
                               abs(closed - exp_brute[x])))
            dec = conductor(chi)
            q0 = dec.conductor
            t = tau(dec.primitive_char)
            checks.append(("tau", None, abs(abs(t) - math.sqrt(q0))))
            checks.append(("tau^2", None,
                           abs(t * t - q0 * complex(dec.primitive_char(-1)))))
            yield q, index, chi, q0, g_brute, checks


def verify_quadratic_range(q_max: int, tol_scale: float = 1e-9,
                           q_min: int = 1) -> list[dict]:
    """Exhaustive closed-form vs brute-force audit over all quadratic characters.

    For every modulus q_min <= q <= q_max and every character with chi^2 principal
    (the principal character included), compares the three closed forms
    against direct summation: G(chi, a) over all units a, the twisted sum
    over every x in [0, q), and the Gauss exponential sum over every
    x in [0, q); checks the tau laws on the induced primitive character and
    the Ramanujan evaluation for the principal character; and counts the
    vanishing cases where the closed form is structurally zero.  A check
    fails when the absolute error exceeds tol_scale * q.

    Returns one record per (q, character) with the maximum errors, the
    modulus bound ratio, and check/failure counts.
    """
    records = []
    for q, index, chi, q0, g_brute, checks in _quadratic_audit(q_min, q_max):
        # |G(chi, a)| <= sqrt(q0)/phi(q) over the units, so this never exceeds 1
        bound_ratio = float(np.max(np.abs(g_brute[chi.unit_residues()]))
                            * euler_phi(q) / math.sqrt(q0))
        if chi.kind == "principal":
            checks = checks + [
                ("principal", a, abs(ramanujan_gauss_principal(q, a) - g_brute[a]))
                for a in range(q)]
        tol = tol_scale * q
        errs = dict.fromkeys(_ERR_FIELD.values(), 0.0)
        vanish_checks = vanish_failures = 0
        for kind, _, err in checks:
            field = _ERR_FIELD[kind]
            if err > errs[field]:
                errs[field] = err
            if kind == "vanish":
                vanish_checks += 1
                if err > tol:  # the closed form is 0, so err = |brute|
                    vanish_failures += 1
        records.append({
            "q": q, "index": index, "kind": chi.kind, **errs,
            "bound_ratio": bound_ratio,
            "vanish_checks": vanish_checks, "vanish_failures": vanish_failures,
            "checks": len(checks),
            "failures": sum(e > tol for e in errs.values()) + vanish_failures,
        })
    return records


def verify_quadratic_rows(q_max: int, tol_scale: float = 1e-9,
                          q_min: int = 1):
    """Per-check rows of the quadratic-character audit, for report emission.

    Yields (q, q0, point, abs_err, ok) tuples, one per comparison: point is
    'a=<n>' for the Gauss closed form, 'S x=<n>' for the twisted sum,
    'E x=<n>' for the exponential sum, and 'tau'/'tau^2' for the primitive
    laws.  ok means abs_err <= tol_scale * q.
    """
    for q, _, _, q0, _, checks in _quadratic_audit(q_min, q_max):
        tol = tol_scale * q
        for kind, n, err in checks:
            yield q, q0, _POINT[kind].format(n), err, err <= tol
