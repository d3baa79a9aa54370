import numpy as np
import pytest

from primeavg import ntheory as nt


def _trial_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


def test_sieve_matches_trial_division():
    table = nt.sieve_primes(3000)
    assert table.primes_upto(3000).tolist() == _trial_primes(3000)


def test_prime_count_and_theta_against_direct_sums(table_small):
    ps = _trial_primes(5000)
    for x in (2, 10, 97, 1000, 4999):
        below = [p for p in ps if p <= x]
        assert table_small.count(x) == len(below)
        assert table_small.theta(x) == pytest.approx(
            sum(np.log(float(p)) for p in below), rel=1e-12)


def test_mobius_divisor_sum_identity():
    # sum over d | n of mu(d) is 1 at n = 1 and 0 otherwise
    for n in range(1, 2000):
        total = sum(nt.mobius(d) for d in nt.divisors(n))
        assert total == (1 if n == 1 else 0)


def test_phi_divisor_sum_identity():
    for n in range(1, 2000):
        assert sum(nt.euler_phi(d) for d in nt.divisors(n)) == n


def test_factorize_reconstructs_and_respects_cap():
    rng = np.random.default_rng(5)
    for n in rng.integers(2, 10 ** 9, 200):
        f = nt.factorize(int(n))
        prod = 1
        for p, e in f.factors:
            prod *= p ** e
        assert prod == int(n)
    with pytest.raises(nt.CapacityError):
        nt.factorize((1 << 32) + 1)


def test_factorize_memo_is_shared_and_int_callers_get_ints():
    assert nt.factorize(360) is nt.factorize(360)
    # a numpy integer gets its own entry: int callers never see numpy scalars
    wide = nt.factorize(np.int64(2 * 3 * 10007))
    narrow = nt.factorize(2 * 3 * 10007)
    assert narrow == wide
    assert all(type(p) is int for p, _ in narrow.factors)
    assert type(nt.euler_phi(2 * 3 * 10007)) is int
    for bad, err in ((0, nt.DomainError), ((1 << 32) + 1, nt.CapacityError)):
        for _ in range(2):  # errors are raised again, never cached
            with pytest.raises(err):
                nt.factorize(bad)


def test_squarefree_agrees_with_mobius():
    for n in range(1, 3000):
        assert nt.is_squarefree(n) == (nt.mobius(n) != 0)


def test_divisors_sorted_and_complete():
    for n in (1, 12, 97, 360, 1024):
        ds = nt.divisors(n)
        assert ds == sorted(ds)
        assert all(n % d == 0 for d in ds)
        assert len(ds) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_sieve_domain_and_capacity():
    with pytest.raises(nt.CapacityError):
        nt.sieve_primes(nt.SIEVE_CAP + 1)
    t = nt.sieve_primes(2)
    assert t.primes_upto(2).tolist() == [2]


@pytest.mark.parametrize("call", [
    lambda: nt.factorize(np.nan), lambda: nt.factorize(2.5), lambda: nt.mobius(np.nan),
    lambda: nt.euler_phi(np.nan), lambda: nt.sieve_primes(2.5)],
    ids=["factorize-nan", "factorize-2.5", "mobius-nan", "phi-nan", "sieve-2.5"])
def test_arithmetic_needs_integer_arguments(call):
    # nan has no prime factor below it, so unchecked it would factor as the
    # empty product and give mobius(nan) == phi(nan) == 1
    with pytest.raises(nt.DomainError):
        call()


def test_primes_upto_respects_table_limit(table_small):
    with pytest.raises(nt.CapacityError):
        table_small.primes_upto((1 << 16) + 1)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("lookup", ["count", "theta", "primes_upto"])
def test_prime_lookups_need_a_finite_argument(lookup, x, table_small):
    with pytest.raises(nt.DomainError, match=lookup):
        getattr(table_small, lookup)(x)


def _memo_arrays(table):
    from primeavg import characters, gauss, multipliers

    table.theta(100)  # fills the lazy theta table
    group = characters._group_data(15)
    return {"prime-list": table.prime_list, "primes-upto": table.primes_upto(100),
            "theta-table": table._theta_cum, "roots-of-unity": gauss.roots_of_unity(12),
            "group-dlog": group.dlog, "group-units": group.unit_mask,
            "prime-kernel-sites": multipliers.prime_kernel(100, table, True).sites}


@pytest.mark.parametrize("name", ["prime-list", "primes-upto", "theta-table",
                                  "roots-of-unity", "group-dlog", "group-units",
                                  "prime-kernel-sites"])
def test_memoized_arrays_are_read_only(name, table_small):
    # each array is shared by every caller of its memo, so a write into one
    # caller's copy would corrupt the others
    arr = _memo_arrays(table_small)[name]
    with pytest.raises(ValueError):
        arr[0] = arr[0]
