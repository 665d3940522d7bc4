import math
import os
import random

import numpy as np
import pytest

from carmichael.enumerator import _bounded_divisors
from carmichael.primes import (
    Factorization,
    factorize,
    is_prime,
    prime_sieve,
    smallest_factor_table,
)


def naive_prime_count(limit):
    """Trial-division counter, the independent check on the sieve."""
    count = 0
    for n in range(2, limit + 1):
        for d in range(2, math.isqrt(n) + 1):
            if n % d == 0:
                break
        else:
            count += 1
    return count


def test_sieve_small():
    assert prime_sieve(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_sieve(2) == [2]
    assert prime_sieve(1) == []


@pytest.mark.parametrize("limit", [10**3, 10**4, 10**5])
def test_sieve_count_matches_naive_trial_division(limit):
    assert len(prime_sieve(limit)) == naive_prime_count(limit)


def test_sieve_count_at_one_million():
    # 78498 was re-verified once with naive_prime_count(10**6) (slow).
    assert len(prime_sieve(10**6)) == 78498


def test_sieve_agrees_with_trial_division_at_every_end():
    # Every end from 0 to 2000, so both parities of the last odd entry
    # are covered.
    primes = [n for n in range(2, 2001)
              if all(n % d for d in range(2, math.isqrt(n) + 1))]
    for n in range(2001):
        assert prime_sieve(n) == [p for p in primes if p <= n], n
        assert len(smallest_factor_table(n)) == n // 2 + 1, n


def test_smallest_factor_table_values():
    spf = smallest_factor_table(999)
    for n in range(3, 1000, 2):
        smallest = next(d for d in range(2, n + 1) if n % d == 0)
        if smallest == n:
            assert spf[n >> 1] == 0
        else:
            assert spf[n >> 1] == smallest


def test_smallest_factor_table_is_uint16_below_2_32(monkeypatch):
    assert smallest_factor_table(2**23).dtype == np.uint16

    def allocate(*args):
        raise AssertionError("allocated a table at 2**32")

    monkeypatch.setattr("carmichael.primes._odd_sieve", allocate)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        smallest_factor_table(2**32)


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads the resident size from Linux's /proc")
def test_a_rebuilt_smallest_factor_table_gives_its_memory_back():
    # A table in its own mapping leaves the resident size when freed,
    # whatever the heap looks like, so a rebuild cannot grow the heap.
    def resident():
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    smallest_factor_table(2**23)  # built and freed, as by an earlier run
    table = smallest_factor_table(2**23)  # 8 MiB, every page written
    before = resident()
    del table
    assert before - resident() >= 7 * 2**20


def test_is_prime_record_values():
    assert is_prime(68786257)
    assert is_prime(174763)
    assert not is_prime(1)
    assert not is_prime(561)


def test_is_prime_agrees_with_sieve_to_one_million():
    flags = bytearray(10**6 + 1)
    for p in prime_sieve(10**6):
        flags[p] = 1
    for n in range(10**6 + 1):
        assert is_prime(n) == bool(flags[n]), n


def test_is_prime_above_64_bits():
    # 2**89 - 1 is a Mersenne prime; neighbours are composite.
    m89 = 2**89 - 1
    assert is_prime(m89)
    assert not is_prime(m89 - 2)
    assert not is_prime(m89 + 2)
    # Square of a >2**64 prime must be rejected (Lucas guard).
    p = 2**89 - 1
    assert not is_prime(p * p)
    # Smallest factors of the d = 13 record value, all below 2**64, and
    # the value itself is composite.
    assert not is_prime(1791562810662585767521)


def test_factorize_paper_values():
    f = factorize(9463098235353841)
    assert f.factors == ((13, 1), (31, 1), (541, 1), (631, 1), (68786257, 1))
    f = factorize(9585921133193329)
    assert f.factors == ((174763, 1), (199729, 1), (274627, 1))
    assert factorize(32).factors == ((2, 5),)


def test_factorize_rejects_below_two():
    with pytest.raises(ValueError):
        factorize(1)


def test_factorize_random_roundtrip():
    rng = random.Random(99)
    for _ in range(10_000):
        n = rng.randrange(2, 1 << 63)
        f = factorize(n)
        assert f.value() == n
        for p, e in f.factors:
            assert e >= 1
            assert is_prime(p)
        assert list(f.primes()) == sorted(f.primes())


def test_factorize_is_deterministic():
    # Same input, same split path, every time.
    n = 614889782588491410 * 7  # smooth times a prime
    assert factorize(n).factors == factorize(n).factors
    hard = 1000003 * 1000033
    assert factorize(hard).factors == ((1000003, 1), (1000033, 1))


def divisors(n, hi=None):
    """Divisors of n up to hi by the enumerator's divisor route, sorted."""
    return sorted(_bounded_divisors(factorize(n).factors, n if hi is None else hi))


def test_divisors_examples():
    assert divisors(32) == [1, 2, 4, 8, 16, 32]
    # P - 1 for prefix {5,13}: candidates q - 1 completing 1105
    assert divisors(64) == [1, 2, 4, 8, 16, 32, 64]
    assert divisors(97) == [1, 97]
    assert divisors(33 - 1, 29) == [1, 2, 4, 8, 16]


def test_divisors_properties():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randrange(2, 10**9)
        f = factorize(n)
        divs = divisors(n)
        assert len(divs) == math.prod(e + 1 for _, e in f.factors)
        assert divs == sorted(set(divs))
        assert all(n % d == 0 for d in divs)


def test_divisors_cap():
    # 2^6 * 3^6 * 5^6 * 7^6 has 2401 divisors; the bound keeps the
    # ones above it from ever being generated.
    n = (2 * 3 * 5 * 7) ** 6
    assert divisors(n, 1000) == [d for d in range(1, 1001) if n % d == 0]
    assert divisors(n, 0) == []


def test_factorization_helpers():
    f = Factorization(((3, 1), (11, 1), (17, 1)))
    assert f.value() == 561
    assert f.primes() == (3, 11, 17)
    assert f.is_squarefree()
    assert not Factorization(((3, 2),)).is_squarefree()
