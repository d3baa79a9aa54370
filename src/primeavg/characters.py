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
The Hurwitz block zeta(s, a/q) over the units a does not depend on chi, so
the zero scan builds it once per modulus and applies every quadratic
character's weights to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .ntheory import CapacityError, DomainError, _integer, divisors, euler_phi, factorize

ENUM_CAP = 10 ** 6
_BISECT_STEPS = 60  # halvings of a sign-change bracket in the zero scan
_GRID_POINTS = 512  # interior sample points of the zero scan window
_ZERO_TOL = 1e-8    # |L| below this on the scan grid is declared a zero


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
        phases[units] = np.mod(g.dlog[units, : len(g.gens)] @ scale, L)
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
# B_2j / (2j)! for j = 1..11; the Euler-Maclaurin correction depth is their count
_EM_COEF = [float(Fraction(b) / math.factorial(2 * j))
            for j, b in enumerate([Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                                   Fraction(-1, 30), Fraction(5, 66),
                                   Fraction(-691, 2730), Fraction(7, 6),
                                   Fraction(-3617, 510), Fraction(43867, 798),
                                   Fraction(-174611, 330), Fraction(854513, 138)],
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
    does not depend on a, so it cancels against the weights chi(a) of any
    non-principal character: q^(-s) * (block @ w) is L(s, chi).  The block
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
    s_in = np.asarray(s, dtype=np.float64)
    if not np.all((s_in > 0.0) & (s_in <= 1.5)):
        raise DomainError("s must be finite and lie in (0, 1.5]")
    scalar = s_in.ndim == 0
    sv = np.atleast_1d(s_in)

    q = chi.modulus
    units = chi.unit_residues()
    w = chi.values[units]
    real_out = chi.is_real
    if real_out:
        w = w.real
    out = (q ** (-sv)) * (_hurwitz_block(q, units, sv) @ w)
    if not real_out:
        out = out.astype(np.complex128)
    if scalar:
        return out[0].item() if not real_out else float(out[0])
    return out


@dataclass(frozen=True)
class ExceptionalZeroResult:
    """Outcome of the real-zero scan near s = 1.

    found is False when |L| stays above the zero tolerance on the whole scan
    window.  beta and character_index (into enumerate_quadratic_characters)
    are set when found.  diagnostic flags numerically murky cases.
    """

    modulus: int
    found: bool
    beta: float | None = None
    character_index: int | None = None
    diagnostic: str | None = None
    min_abs_l: float = math.inf
    c: float = 1.0


def _quadratic_l_values(q: int, grid: np.ndarray):
    """(index, chi, L(grid, chi)) for each quadratic chi mod q, in
    enumerate_quadratic_characters order.  One Hurwitz block on the grid
    serves every character, and each value is the one l_function_real gives."""
    units = np.flatnonzero(_group_data(q).unit_mask)
    scale = q ** (-grid)
    block = _hurwitz_block(q, units, grid)
    for idx, chi in enumerate(enumerate_quadratic_characters(q)):
        yield idx, chi, scale * (block @ chi.values[units].real)


def exceptional_zero_scan(q: int, c: float = 1.0) -> ExceptionalZeroResult:
    """Scan (max(1/2, 1 - c/log q), 1) for a real zero of any quadratic L mod q.

    Each quadratic character's L is sampled on _GRID_POINTS interior points;
    a sign change triggers bisection, and |L| below _ZERO_TOL anywhere is
    declared a zero.  A grid value below tolerance without a sign change is
    reported with a diagnostic instead of silently passing.  The Hurwitz
    block on the grid is built once for q and shared by every character
    (_quadratic_l_values).
    """
    q = _integer(q, "q", 3)
    if not 0 < c < math.inf:
        raise DomainError("the zero-region constant c must be finite and positive")
    lo = max(0.5, 1.0 - c / math.log(q))
    hi = 1.0
    grid = np.linspace(lo, hi, _GRID_POINTS + 2)[1:-1]
    min_abs = math.inf
    for idx, chi, vals in _quadratic_l_values(q, grid):
        min_abs = min(min_abs, float(np.min(np.abs(vals))))
        hit = np.flatnonzero(np.abs(vals) < _ZERO_TOL)
        sign_change = np.flatnonzero(vals[:-1] * vals[1:] < 0)
        if sign_change.size:
            a, b = grid[sign_change[0]], grid[sign_change[0] + 1]
            fa = float(l_function_real(chi, a))
            for _ in range(_BISECT_STEPS):
                m = 0.5 * (a + b)
                fm = float(l_function_real(chi, m))
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            beta = 0.5 * (a + b)
            return ExceptionalZeroResult(modulus=q, found=True, beta=beta,
                                         character_index=idx, min_abs_l=min_abs, c=c)
        if hit.size:
            return ExceptionalZeroResult(modulus=q, found=True, beta=float(grid[hit[0]]),
                                         character_index=idx,
                                         diagnostic="below-tolerance-without-sign-change",
                                         min_abs_l=min_abs, c=c)
    return ExceptionalZeroResult(modulus=q, found=False, min_abs_l=min_abs, c=c)


def synthetic_exceptional(q: int, beta: float) -> tuple[DirichletCharacter, float]:
    """A manufactured exceptional pair (chi, beta) for sensitivity runs.

    Picks the first primitive quadratic character mod q.  beta must sit in
    [1/2, 1).  This never comes out of the scan; callers opt in explicitly.
    """
    if not 0.5 <= beta < 1.0:
        raise DomainError("synthetic beta must lie in [1/2, 1)")
    for chi in enumerate_quadratic_characters(q):
        if is_primitive(chi):
            return chi, beta
    raise DomainError(f"no primitive quadratic character mod {q}")
