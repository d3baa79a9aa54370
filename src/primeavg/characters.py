"""Dirichlet characters, L-functions on the real axis, and the zero scan.

Characters mod q are stored as full value tables indexed by residue.  The
values are roots of unity, so alongside the complex table each character
keeps an integer phase table: chi(x) = exp(2 pi i * phase[x] / order) on the
units, with phase = -1 off the units.  Equality, conjugates, and the
principal/quadratic classification are then exact integer arithmetic.  A
character memoizes its primitive decomposition (conductor) and its Gauss sum
tau (filled by gauss.tau) on first use.

Enumeration walks the unit group (Z/q)^* through its cyclic components:
(Z/p^k)^* is cyclic for odd p, and (Z/2^k)^* is {+-1} x <5> for k >= 3.

L(s, chi) for non-principal chi is evaluated through the Hurwitz-zeta
Euler-Maclaurin expansion summed against the character, with the pole terms
cancelled exactly using sum chi(a) = 0, so s = 1 needs no special casing.
The sum over the units is the reduction rule's (ntheory._dot), so each L
value depends on its own s alone: not on the other points of the call, and
not on the BLAS kernel.

The zero scan certifies, rather than samples, that no quadratic L mod q
vanishes on the closed window [max(1/2, 1 - c/log q), 1]: |L'| is at most
Lip = phi(q)/(e sigma) there, so a subinterval whose endpoint values keep
their sign and have |L(a)| + |L(b)| above Lip (b - a), plus a stated bound
on the evaluation error, holds no zero.  It starts from a coarse grid and
halves only the subintervals not yet closed.  The Hurwitz block
zeta(s, a/q) over the units a does not depend on chi, so each round of
points builds it once and applies every quadratic character's weights to
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .ntheory import (CapacityError, DomainError, _dot, _integer, _real, _shaped, divisors,
                      euler_phi, factorize)

ENUM_CAP = 10 ** 6
_BISECT_STEPS = 60  # halvings of a sign-change bracket in the zero scan
_COARSE_INTERVALS = 32  # equal subintervals of the zero scan's first grid
_HALVINGS = 8       # halvings of a coarse subinterval before the scan stops refining
_ZERO_TOL = 1e-8    # |L| below this at a scan sample is declared a zero


@dataclass
class DirichletCharacter:
    """A Dirichlet character mod q as a full value table.

    Attributes:
        modulus: The modulus q >= 1.
        order: Common denominator of the phase numerators.  Not necessarily
            the multiplicative order of the character.
        phases: int64 array of length q; phases[x] = k means the value at
            residue x is exp(2 pi i k / order); -1 marks non-units.
        values: complex128 array of length q with the actual values.

    Two characters are equal when they have the same modulus and the same
    phases once both are scaled to a common order; the memo fields are
    ignored.
    """

    modulus: int
    order: int
    phases: np.ndarray
    values: np.ndarray
    _decomp: "PrimitiveDecomposition | None" = field(default=None, repr=False,
                                                     compare=False)
    _tau: complex | None = field(default=None, repr=False, compare=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        if self.modulus != other.modulus:
            return False
        L = math.lcm(self.order, other.order)
        return np.array_equal(self._phases_at(L), other._phases_at(L))

    def _phases_at(self, order: int) -> np.ndarray:
        """The phase table over the given multiple of self.order."""
        return np.where(self.phases >= 0,
                        np.mod(self.phases * (order // self.order), order), -1)

    def __call__(self, n: int | np.ndarray) -> complex | np.ndarray:
        return self.values[np.mod(_integer(n, "n", points=True), self.modulus)]

    @property
    def kind(self) -> str:
        """'principal', 'quadratic' (real with a -1), or 'other'."""
        on_units = self.phases[self.phases >= 0]
        if np.all(on_units == 0):
            return "principal"
        half = self.order // 2
        if self.order % 2 == 0 and np.all((on_units == 0) | (on_units == half)):
            return "quadratic"
        return "other"

    @property
    def is_real(self) -> bool:
        return self.kind != "other"

    def unit_residues(self) -> np.ndarray:
        return np.flatnonzero(self.phases >= 0)


@dataclass(frozen=True)
class PrimitiveDecomposition:
    """chi = chi_star lifted from its conductor: chi(n) = chi_star(n) on units."""

    conductor: int
    primitive_char: DirichletCharacter


class _GroupData:
    """Generators, orders, and discrete logs of (Z/q)^*."""

    def __init__(self, q: int):
        self.q = q
        gens: list[int] = []
        orders: list[int] = []
        for p, e in factorize(q).factors:
            pe = p ** e
            rest = q // pe
            if p == 2:
                if e == 2:
                    gens.append(_crt_lift(3, pe, rest))
                    orders.append(2)
                elif e >= 3:
                    gens.append(_crt_lift(pe - 1, pe, rest))
                    orders.append(2)
                    gens.append(_crt_lift(5, pe, rest))
                    orders.append(2 ** (e - 2))
            else:
                gens.append(_crt_lift(_primitive_root(p, e), pe, rest))
                orders.append(euler_phi(pe))
        self.gens = gens
        self.orders = orders
        self.exponent = math.lcm(*orders) if orders else 1
        self.phi = euler_phi(q)

        k = len(gens)
        dlog = np.full((q, max(k, 1)), -1, dtype=np.int64)
        unit_mask = np.zeros(q, dtype=bool)
        if q == 1:
            unit_mask[0] = True
        elif k == 0:  # q == 2, trivial unit group
            unit_mask[1] = True
        else:
            idx = [0] * k
            x = 1
            for _ in range(self.phi):
                dlog[x, :k] = idx
                for i in reversed(range(k)):
                    idx[i] += 1
                    x = (x * gens[i]) % q
                    if idx[i] < orders[i]:
                        break
                    idx[i] = 0
            unit_mask = dlog[:, 0] >= 0
        for arr in (dlog, unit_mask):
            arr.flags.writeable = False  # shared by every caller of the memo
        self.dlog = dlog
        self.unit_mask = unit_mask


def _crt_lift(g: int, pe: int, rest: int) -> int:
    """The residue mod pe*rest that is g mod pe and 1 mod rest."""
    if rest == 1:
        return g % pe
    m = pe * rest
    inv_rest = pow(rest, -1, pe)
    inv_pe = pow(pe, -1, rest)
    return (g * rest * inv_rest + 1 * pe * inv_pe) % m


def _primitive_root(p: int, e: int) -> int:
    """Smallest primitive root mod p, lifted to p^e if needed."""
    phi_p = p - 1
    prime_divs = [r for r, _ in factorize(phi_p).factors]
    g = 2
    while True:
        if all(pow(g, phi_p // r, p) != 1 for r in prime_divs):
            break
        g += 1
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


@lru_cache(maxsize=512)
def _group_data(q: int) -> _GroupData:
    """The memo of (Z/q)^*, keyed by value: callers pass q through _integer
    first, as 5.0 would find the entry for 5 (and a numpy integer would
    reach pow() in _primitive_root)."""
    return _GroupData(q)


def _char_from_exponents(q: int, ks: tuple[int, ...]) -> DirichletCharacter:
    g = _group_data(q)
    L = g.exponent
    phases = np.full(q, -1, dtype=np.int64)
    if not g.gens:
        phases[g.unit_mask] = 0
    else:
        scale = np.array([k * (L // d) for k, d in zip(ks, g.orders)], dtype=np.int64)
        units = np.flatnonzero(g.unit_mask)
        phases[units] = np.mod(_dot(g.dlog[units, : len(g.gens)], scale), L)
    return _char_from_phases(q, phases, L)


def _char_from_phases(q: int, phases: np.ndarray, order: int) -> DirichletCharacter:
    values = np.zeros(q, dtype=np.complex128)
    units = phases >= 0
    values[units] = np.exp(2j * np.pi * phases[units] / order)
    return DirichletCharacter(modulus=q, order=order, phases=phases, values=values)


def principal_character(q: int) -> DirichletCharacter:
    """The principal character mod q: 1 on units, 0 elsewhere."""
    q = _integer(q, "q", 1)
    g = _group_data(q)
    return _char_from_exponents(q, tuple(0 for _ in g.gens))


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first, in a fixed order.

    The order is lexicographic in the exponent tuples on the unit-group
    generators, so repeated calls enumerate identically.  q is capped at
    ENUM_CAP.
    """
    q = _integer(q, "q", 1, high=ENUM_CAP)
    g = _group_data(q)
    return [_char_from_exponents(q, ks) for ks in product(*(range(d) for d in g.orders))]


def enumerate_quadratic_characters(q: int) -> list[DirichletCharacter]:
    """The quadratic characters mod q (order matches enumerate_characters)."""
    q = _integer(q, "q", 1)
    g = _group_data(q)
    choices = [(0, d // 2) if d % 2 == 0 else (0,) for d in g.orders]
    out = []
    for ks in product(*choices):
        if any(ks):
            out.append(_char_from_exponents(q, ks))
    return out


def conductor(chi: DirichletCharacter) -> PrimitiveDecomposition:
    """Minimal period decomposition of chi.

    The conductor q0 is the least divisor d of q such that chi(m) = chi(n)
    whenever m = n (mod d) and gcd(mn, q) = 1; as chi is multiplicative,
    that is the least d with chi trivial on the units u = 1 (mod d).  The
    induced primitive character chi_star mod q0 agrees with chi on the units
    of q, which reduce onto every unit mod q0.
    """
    if chi._decomp is not None:
        return chi._decomp
    units = chi.unit_residues()
    on_units = chi.phases[units]
    q0 = next(d for d in divisors(chi.modulus)
              if not np.any(on_units[units % d == 1 % d]))
    phases = np.full(q0, -1, dtype=np.int64)
    phases[units % q0] = on_units
    star = _char_from_phases(q0, phases, chi.order)
    decomp = PrimitiveDecomposition(conductor=q0, primitive_char=star)
    chi._decomp = decomp
    return decomp


def is_primitive(chi: DirichletCharacter) -> bool:
    return conductor(chi).conductor == chi.modulus


# --- L-functions on the real axis ---

_EM_K = 28          # directly summed terms
_HEAD_BLOCK = 1 << 15  # powers (x+k)^(-s) of the Hurwitz head formed at once
# B_2j / (2j)! for j = 1..11, each an int true division, which rounds the exact
# quotient once; the Euler-Maclaurin correction depth is their count
_EM_COEF = [n / (d * math.factorial(2 * j))
            for j, (n, d) in enumerate([(1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
                                        (-691, 2730), (7, 6), (-3617, 510), (43867, 798),
                                        (-174611, 330), (854513, 138)],
                                       start=1)]


def _phi1m(u: np.ndarray) -> np.ndarray:
    """expm1(u)/u, stable through u = 0."""
    u = np.asarray(u, dtype=np.float64)
    small = np.abs(u) < 1e-8
    safe = np.where(small, 1.0, u)
    return np.where(small, 1.0 + u / 2.0, np.expm1(safe) / safe)


def _hurwitz_head(x: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """The directly summed head sum_{k<K} (x_j + k)^(-s_i), as an (m, u) block.

    Summed over blocks of s-rows that hold at most _HEAD_BLOCK powers, never
    one (m, u, K) array; each row's powers and its sum over k are the ones
    that array would give, so the blocking moves no bit.
    """
    xk = x[:, None] + np.arange(_EM_K, dtype=np.float64)  # (u, K)
    head = np.empty((sv.shape[0], x.size))
    step = max(1, _HEAD_BLOCK // xk.size)
    for i in range(0, sv.shape[0], step):
        head[i:i + step] = (xk ** (-sv[i:i + step, :, None])).sum(axis=2)
    return head


def _hurwitz_block(q: int, units: np.ndarray, s: np.ndarray) -> np.ndarray:
    """zeta(s_i, a_j/q) - 1/(s_i - 1) by Euler-Maclaurin, as an (m, u) block.

    s holds m real points and units the u residues a.  The removed pole term
    does not depend on a, so it cancels against the weights w = chi(a) of any
    non-principal character: q^(-s) times _dot(block, w), each row summed
    over the units on its own (ntheory._dot), is L(s, chi).  The block
    depends on q, the units and s, never on chi.
    """
    sv = s[:, None]  # (m, 1)
    x = units.astype(np.float64) / q  # (u,)
    base = _hurwitz_head(x, sv)

    y = x[None, :] + _EM_K
    logy = np.log(y)
    # [(y)^(1-s) - 1]/(s-1), the pole-free remainder of y^(1-s)/(s-1)
    mid = -logy * _phi1m(-(sv - 1.0) * logy)
    tail = 0.5 * y ** (-sv)
    poch = np.ones_like(sv)
    for j, c in enumerate(_EM_COEF, start=1):
        # pochhammer s(s+1)...(s+2j-2)
        if j == 1:
            poch = sv.copy()
        else:
            poch = poch * (sv + (2 * j - 3)) * (sv + (2 * j - 2))
        tail = tail + c * poch * y ** (-(sv + 2 * j - 1))

    return base + mid + tail


def l_function_real(chi: DirichletCharacter, s: float | np.ndarray):
    """L(s, chi) for non-principal chi and real s in (0, 1.5].

    Uses the Euler-Maclaurin expansion of the Hurwitz zeta values zeta(s, a/q)
    summed against chi(a) (_hurwitz_block).  The 1/(s-1) pole is removed
    exactly before summation (it cancels against sum chi(a) = 0), so the
    evaluation is uniformly accurate through s = 1.  Returns a real result
    when chi is real-valued.
    """
    if chi.kind == "principal":
        raise DomainError("L-series evaluation requires a non-principal character")
    sv = np.atleast_1d(_real(s, "s", points=True))
    if not sv.size or not np.all((sv > 0.0) & (sv <= 1.5)):
        raise DomainError("need at least one s, each in (0, 1.5]")

    q = chi.modulus
    units = chi.unit_residues()
    w = chi.values[units]
    if chi.is_real:
        w = w.real
    return _shaped((q ** (-sv)) * _dot(_hurwitz_block(q, units, sv), w), s)


@dataclass(frozen=True)
class ExceptionalZeroResult:
    """Outcome of the real-zero scan near s = 1.

    found is True when some quadratic L changes sign between two samples of
    the window (beta is then the bisected zero) or falls below the zero
    tolerance at a sample (beta is that sample, with a diagnostic); the
    character is character_index into enumerate_quadratic_characters.

    certified is True when the outcome is proved: found is False and the
    Lipschitz certificate closes every subinterval of the window for every
    character, or found is True by a sign change between samples whose |L|
    both exceed their evaluation error.  A scan that cannot close a
    subinterval within its refinement floor returns found False, certified
    False and the diagnostic "window-not-certified", never a bare clean
    result.

    min_abs_l is the least |L| over the points sampled.  l_lower_bound is
    the least, over subintervals [a, b] and characters, of
    (|L(a)| + |L(b)| - err(a) - err(b) - Lip (b - a)) / 2, a lower bound on
    |L| over the closed window that is positive exactly when every
    subinterval is closed; margin is the least ratio
    (|L(a)| + |L(b)| - err(a) - err(b)) / (Lip (b - a)), above 1 exactly
    then.  Lip and err are _lipschitz and _evaluation_error.
    """

    modulus: int
    found: bool
    beta: float | None = None
    character_index: int | None = None
    diagnostic: str | None = None
    min_abs_l: float = math.inf
    c: float = 1.0
    certified: bool = False
    l_lower_bound: float = -math.inf
    margin: float = 0.0


def _lipschitz(q: int, sigma: float) -> float:
    """phi(q)/(e sigma), a bound on |L'(s, chi)| for s >= sigma >= 1/2 and any
    non-principal chi mod q: the partial sums of chi never exceed phi(q)/2,
    and log(x) x^(-s) has total variation 2/(e s) on [1, inf)."""
    return euler_phi(q) / (math.e * sigma)


# |B_24|/24!, the first Euler-Maclaurin coefficient past _EM_COEF
_EM_NEXT = 236364091 / (2730 * math.factorial(24))


def _evaluation_error(q: int, s: np.ndarray, block: np.ndarray) -> np.ndarray:
    """A bound on the error of q^(-s) _dot(block, w) as L(s, chi), for the
    block of _hurwitz_block on s in [1/2, 1] and weights w in {-1, 0, 1}.

    Truncation: the Euler-Maclaurin remainder of each zeta(s, a/q) lies
    between 0 and the first omitted term, |B_24|/24! s(s+1)...(s+22)
    y^(-s-23) with y >= _EM_K, since every even derivative of y^(-s) is
    positive (DLMF 2.10.i).  Rounding: the head, mid and tail terms of an
    entry add in absolute value to at most |entry| + 40 (|mid| is at most
    y^(1-s) log y < 18.2 and |tail| < 0.1 for y < 29), each formed to within
    50 units of roundoff u; the sum over the phi(q) units, numpy's pairwise
    sum in ntheory._dot, adds at most phi(q) u times the absolute entries,
    as a sum of phi(q) terms in any order does.  (phi(q) + 64) u sum(|entry| + 40)
    covers both, and the factor q^(-s) and its product add a few u more.
    """
    phi = block.shape[1]
    poch = np.prod(s[:, None] + np.arange(23.0), axis=1)
    truncation = phi * _EM_NEXT * poch * float(_EM_K) ** (-(s + 23.0))
    rounding = (phi + 64) * (np.finfo(np.float64).eps / 2) * (
        np.abs(block).sum(axis=1) + 40.0 * phi)
    return q ** (-s) * (truncation + rounding)


def _quadratic_l_values(q: int, units: np.ndarray, weights: list[np.ndarray],
                        s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, err): values[i] = L(s, chi_i) for the real weights chi_i on
    the units, and err the _evaluation_error bound at each point.  One
    Hurwitz block on s serves every character in one _dot, and each row is
    the one l_function_real gives on s."""
    block = _hurwitz_block(q, units, s)
    return q ** (-s) * _dot(np.asarray(weights)[:, None], block), _evaluation_error(q, s, block)


def exceptional_zero_scan(q: int, c: float = 1.0) -> ExceptionalZeroResult:
    """Certify that no quadratic L mod q has a real zero in the closed window
    [max(1/2, 1 - c/log q), 1], or find one.

    Every quadratic character's L is sampled on _COARSE_INTERVALS + 1 equally
    spaced points of the window.  A sign change between neighbouring samples
    is bisected to a zero, and |L| below _ZERO_TOL at a sample is declared a
    zero with a diagnostic.  Otherwise a subinterval [a, b] on which L keeps
    its sign holds no zero when |L(a)| + |L(b)| - err(a) - err(b) exceeds
    Lip (b - a), Lip = _lipschitz(q, window start) bounding |L'| and err
    the _evaluation_error bound.  Subintervals not yet closed for some
    character are halved, up to _HALVINGS times, and each round's new points
    share one Hurwitz block over all the characters (_quadratic_l_values).
    See ExceptionalZeroResult for the certificate fields.
    """
    q = _integer(q, "q", 3)
    c = _real(c, "the zero-region constant c")
    if not c > 0:
        raise DomainError("the zero-region constant c must be positive")
    lo = max(0.5, 1.0 - c / math.log(q))
    lip = _lipschitz(q, lo)
    chars = enumerate_quadratic_characters(q)
    units = np.flatnonzero(_group_data(q).unit_mask)
    weights = [chi.values[units].real for chi in chars]
    s = np.linspace(lo, 1.0, _COARSE_INTERVALS + 1)
    values, err = _quadratic_l_values(q, units, weights, s)
    halvings = 0
    while True:
        mags = np.abs(values)
        slack = mags[:, :-1] + mags[:, 1:] - (err[:-1] + err[1:])
        need = lip * np.diff(s)
        with np.errstate(divide="ignore", invalid="ignore"):  # a window of one point
            margin = float((slack / need).min())
        stats = dict(modulus=q, c=c, min_abs_l=float(mags.min()),
                     l_lower_bound=float((slack.min(axis=0) - need).min() / 2),
                     margin=margin)
        for idx, (chi, vals) in enumerate(zip(chars, values)):
            change = np.flatnonzero(vals[:-1] * vals[1:] < 0)
            if change.size:
                i = change[0]
                proved = mags[idx, i] > err[i] and mags[idx, i + 1] > err[i + 1]
                return ExceptionalZeroResult(found=True, beta=_bisect(chi, s[i], s[i + 1]),
                                             character_index=idx, certified=bool(proved),
                                             **stats)
            hit = np.flatnonzero(mags[idx] < _ZERO_TOL)
            if hit.size:
                return ExceptionalZeroResult(found=True, beta=float(s[hit[0]]),
                                             character_index=idx,
                                             diagnostic="below-tolerance-without-sign-change",
                                             **stats)
        open_ = np.flatnonzero((slack <= need).any(axis=0))
        if not open_.size:
            return ExceptionalZeroResult(found=False, certified=True, **stats)
        if halvings == _HALVINGS:
            return ExceptionalZeroResult(found=False, diagnostic="window-not-certified",
                                         **stats)
        mid = 0.5 * (s[open_] + s[open_ + 1])
        new_values, new_err = _quadratic_l_values(q, units, weights, mid)
        s = np.insert(s, open_ + 1, mid)
        values = np.insert(values, open_ + 1, new_values, axis=1)
        err = np.insert(err, open_ + 1, new_err)
        halvings += 1


def _bisect(chi: DirichletCharacter, a: float, b: float) -> float:
    """The zero of L(s, chi) bracketed by a sign change on [a, b], to
    _BISECT_STEPS halvings."""
    fa = float(l_function_real(chi, a))
    for _ in range(_BISECT_STEPS):
        m = 0.5 * (a + b)
        fm = float(l_function_real(chi, m))
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def synthetic_exceptional(q: int, beta: float) -> tuple[DirichletCharacter, float]:
    """A manufactured exceptional pair (chi, beta) for sensitivity runs.

    Picks the first primitive quadratic character mod q.  beta must be a
    real number in [1/2, 1).  This never comes out of the scan; callers opt
    in explicitly.
    """
    beta = _real(beta, "synthetic beta")
    if not 0.5 <= beta < 1.0:
        raise DomainError("synthetic beta must lie in [1/2, 1)")
    for chi in enumerate_quadratic_characters(q):
        if is_primitive(chi):
            return chi, beta
    raise DomainError(f"no primitive quadratic character mod {q}")
