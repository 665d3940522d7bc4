import math
import random

import pytest

from carmichael.arith import invmod, iroot


def test_invmod_examples():
    assert invmod(3, 10) == 7
    assert invmod(33 % 10, 10) == 7  # prefix {3,11} of 561: P = 33
    assert invmod(4, 10) is None


@pytest.mark.parametrize("m", [0, 1])
def test_invmod_rejects_degenerate_modulus(m):
    with pytest.raises(ValueError):
        invmod(1, m)


def test_invmod_by_exhaustive_scan():
    for m in (10, 12, 97, 561):
        for a in range(m):
            expected = None
            for x in range(1, m):
                if a * x % m == 1:
                    expected = x
                    break
            assert invmod(a, m) == expected


def test_invmod_property_random():
    rng = random.Random(11)
    for _ in range(5_000):
        m = rng.randrange(2, 1 << 80)
        a = rng.randrange(1, m)
        x = invmod(a, m)
        if x is None:
            assert math.gcd(a, m) != 1
        else:
            assert 0 < x < m
            assert a * x % m == 1


def test_iroot_examples():
    assert iroot(10**16, 2) == 10**8
    assert iroot(9463098235353841, 2) == 97278457
    assert 97278457**2 <= 9463098235353841 < 97278458**2
    assert iroot(7, 3) == 1
    assert iroot(1000, 3) == 10
    assert iroot(999, 3) == 9


@pytest.mark.parametrize("k", range(3, 21))
def test_iroot_brackets_powers_and_the_float_seed_threshold(k):
    # m**k +- 1 for m near 2**50 and for small m, then n on either side
    # of 50 * k bits: exact powers and their neighbours, large and small.
    ms = [2, 3, 10, 12345, 2**50 - 2, 2**50 - 1, 2**50, 2**50 + 1]
    ns = [m**k + e for m in ms for e in (-1, 0, 1)]
    for bits in (50 * k - 1, 50 * k, 50 * k + 1):
        ns += [2**bits - 1, 2**bits, 2**bits + 1]
    for n in ns:
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k


def test_iroot_rejects_zero_index():
    with pytest.raises(ValueError):
        iroot(5, 0)


def test_iroot_bracketing_100k_random():
    rng = random.Random(31337)
    for _ in range(100_000):
        n = rng.randrange(1 << 120)
        k = rng.randrange(1, 40)
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k


def test_quotient_remainder_identity():
    rng = random.Random(5)
    for _ in range(20_000):
        a = rng.randrange(1 << 126)
        b = rng.randrange(1, 1 << 126)
        q, r = divmod(a, b)
        assert a == q * b + r
        assert 0 <= r < b
