"""Prime sieves, Chebyshev-type counting, and multiplicative functions.

Provides the sieve of Eratosthenes (memoized per limit in the process),
whose PrimeTable answers prime counting pi(N) (PrimeTable.count) and the
log-weighted count theta(N) = sum of log p over primes p <= N
(PrimeTable.theta), and the classical multiplicative functions (mobius,
euler_phi, is_squarefree, divisors, all read from one memoized factorize).

It also holds the argument rules every module checks against: DomainError,
the integer rule (_integer, whose upper bound raises CapacityError), the
finite rule (_finite), the real rule built on it (_real), and the shape
rule of an entry that takes a number or an array of points (_shaped).  The
reduction rule is kept here too: every sum of products, norm and table fit
in the package goes through _dot, so no printed number depends on the BLAS
kernel or on the other rows of a call; beside it sits the one Gauss-Legendre
rule the package integrates with.  All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

SIEVE_CAP = 1 << 30
FACTOR_CAP = 1 << 32


class CapacityError(ValueError):
    """Raised when an argument exceeds a configured capacity cap."""


class DomainError(ValueError):
    """Raised when an argument is outside the documented domain."""


def _integer(x, name: str, low: float = -math.inf, points: bool = False,
             high: float = math.inf):
    """The integer rule of every entry point: x is a Python or NumPy integer,
    never a bool, and at least `low`; it is returned as an int.  With
    points=True, an array of an integer dtype also passes, unbounded and
    as is, and an empty one (as from an empty list) comes back as int64.
    Anything else is a DomainError naming the argument.

    `high` is the capacity rule beside it: an integer above it is a
    CapacityError, raised before the caller forms anything of its size.
    An integer too long to print (Python refuses past 4300 digits) is named
    by its bit length in either message."""
    shown = x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        x = int(x)
        if x.bit_length() > 64:
            shown = f"an integer of {x.bit_length()} bits"
        if x > high:
            raise CapacityError(f"{name} = {shown} exceeds its cap {high}")
        if x >= low:
            return x
    elif points:
        arr = np.asarray(x)
        if arr.size == 0:
            return arr.astype(np.int64)
        if arr.dtype.kind in "iu":
            return arr
    bound = f" >= {low}" if low > -math.inf else ""
    raise DomainError(f"need an integer {name}{bound}, got {name} = {shown}")


def _finite(x, name: str) -> np.ndarray:
    """The finite rule: x as an array, real or complex with its dtype
    unchanged, if every entry is finite; else (strings and other objects
    included) a DomainError naming it."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "biufc" or not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    return arr


def _real(x, name: str, points: bool = False, finite: bool = True):
    """The real rule: x is a finite real number, a Python or NumPy integer or
    float but never a bool or a string, and is returned as a float.  With
    points=True an array of them also passes, empty included, and comes back
    as a float64 array (0-d for a number), copied only if its dtype differs.
    finite=False lets +-inf and nan through, for the one caller whose domain
    holds +inf and bounds the rest itself (orlicz.phi_weight).  Anything else
    is a DomainError naming the argument."""
    if type(x) is float and not points and math.isfinite(x):
        return x  # the common case, without an array round trip
    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf" or (arr.ndim and not points):
        raise DomainError(f"{name} must be a real number, got {type(x).__name__}")
    arr = arr.astype(np.float64, copy=False)
    if finite:
        _finite(arr, name)
    return arr if points else float(arr)


def _shaped(out: np.ndarray, like):
    """The shape rule of every entry that takes a number or an array of
    points: out, the answer at the points of `like`, as it is when `like` is
    an array, and its one entry as a Python complex (complex out) or float
    (any other) when `like` is a number."""
    if np.ndim(like):
        return out
    return complex(out.item()) if out.dtype.kind == "c" else float(out.item())


# the 64-point Gauss-Legendre rule on [-1, 1] that eta's table (multipliers)
# and the rearrangement norm (orlicz) integrate with, formed once at import
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _dot(a, b):
    """The reduction rule of every sum of products, norm and table fit: the
    sum over the last axis of a * b, an axis of one length in both, the
    other axes broadcast against each other.

    Each output is numpy's pairwise sum (add.reduce) of its own products,
    laid out C-contiguous first, so it depends on its terms alone: not on
    the other rows of the call, nor on the BLAS kernel, which rounds a row
    of a matrix product by its place in the block, nor on the memory order
    (add.reduce down a strided axis sums in another order).  A complex sum
    is summed from real products, since numpy's complex multiply rounds by
    the SIMD level it runs at: with one real operand, the real and the
    imaginary part each from n products; with two complex ones, from 2n
    interleaved products, (ar, ai) against (br, -bi) and against (bi, br),
    so that swapping two complex operands can move the imaginary part's
    last bit (every caller passes its table of roots of unity first).  The
    answer has the broadcast shape less its last axis."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind != "c":
        a, b = b, a
    if a.dtype.kind != "c":
        return np.add.reduce(np.ascontiguousarray(a * b), axis=-1)
    if b.dtype.kind == "c":
        pairs = np.ascontiguousarray(a).view(np.float64)
        re, im = (_dot(pairs, np.stack(w, axis=-1).reshape(b.shape[:-1] + (-1,)))
                  for w in ((b.real, -b.imag), (b.imag, b.real)))
    else:
        re, im = _dot(a.real, b), _dot(a.imag, b)
    out = np.empty(re.shape, np.complex128)
    out.real, out.imag = re, im
    return out


@dataclass
class PrimeTable:
    """Sieve output over [0, limit].

    Attributes:
        limit: Largest integer covered by the sieve.
        prime_list: Ascending int64 array of the primes <= limit, read-only
            (shared by every caller of the memo, as is the lazily filled
            theta table).
    """

    limit: int
    prime_list: np.ndarray
    _theta_cum: np.ndarray | None = field(default=None, repr=False)

    def _rank(self, x: float, name: str) -> int:
        """The number of primes <= x: DomainError on a non-finite x,
        CapacityError past the sieve limit."""
        if not -math.inf < x < math.inf:  # exact for integers of any size
            raise DomainError(f"{name}({x}) needs a finite argument")
        if x > self.limit:
            raise CapacityError(f"{name}({x}) exceeds sieve limit {self.limit}")
        return int(np.searchsorted(self.prime_list, math.floor(x), side="right"))

    def count(self, n: float) -> int:
        """Number of primes <= n."""
        return self._rank(n, "count")

    def theta(self, x: float) -> float:
        """Chebyshev theta: sum of log p over primes p <= x."""
        k = self._rank(x, "theta")
        if self._theta_cum is None:
            logs = np.log(self.prime_list.astype(np.float64))
            self._theta_cum = np.concatenate(([0.0], np.cumsum(logs)))
            self._theta_cum.flags.writeable = False
        return float(self._theta_cum[k])

    def primes_upto(self, n: float) -> np.ndarray:
        """View of prime_list restricted to primes <= n."""
        return self.prime_list[:self._rank(n, "primes_upto")]


_TABLES: dict[int, PrimeTable] = {}


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes over [0, limit], memoized per limit in the process.

    Args:
        limit: Inclusive sieve bound, 2 <= limit <= SIEVE_CAP.

    Returns:
        PrimeTable with the ascending prime list.
    """
    limit = _integer(limit, "limit", 2, high=SIEVE_CAP)
    table = _TABLES.get(limit)
    if table is None:
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for i in range(2, math.isqrt(limit) + 1):
            if flags[i]:
                flags[i * i:: i] = False
        primes = np.flatnonzero(flags).astype(np.int64)
        primes.flags.writeable = False
        table = _TABLES[limit] = PrimeTable(limit=limit, prime_list=primes)
    return table


# --- multiplicative functions (trial division against a small shared sieve) ---

_SMALL_LIMIT = 1 << 16


def _small_primes() -> np.ndarray:
    """The primes up to 2^16, read from the sieve memo."""
    return sieve_primes(_SMALL_LIMIT).prime_list


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p_i^e_i with p_i ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]


@lru_cache(maxsize=1024, typed=True)
def factorize(n: int) -> Factorization:
    """Trial-division factorization; capped at n <= FACTOR_CAP = 2^32.

    Memoized per value and argument type (Factorization is frozen, so callers
    share the cached objects); mobius, euler_phi, is_squarefree and divisors
    all read it.
    """
    n = _integer(n, "n", 1, high=FACTOR_CAP)
    m = n
    out: list[tuple[int, int]] = []
    for p in _small_primes():
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        out.append((m, 1))
    return Factorization(n=n, factors=tuple(out))


def mobius(n: int) -> int:
    """Mobius function: (-1)^k on square-free n with k prime factors, else 0."""
    f = factorize(n)
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient."""
    f = factorize(n)
    out = 1
    for p, e in f.factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def is_squarefree(n: int) -> bool:
    """True iff no prime divides n twice."""
    return all(e == 1 for _, e in factorize(n).factors)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)
