"""The engine's three-factor numbers against a formula that shares no code
with it.

For N = P * q * r Carmichael with primes P < q < r, Korselt's criterion
makes q - 1 divide P * r - 1 and r - 1 divide P * q - 1 (as q = 1 modulo
q - 1, and so on).  Write P * r - 1 = C * (q - 1) and P * q - 1 =
D * (r - 1); then D < P < C, and solving the two for q and r gives

    q - 1 = (P - 1) * (P + D) / Delta,  r - 1 = (P - 1) * (P + C) / Delta,

with Delta = C * D - P**2 > 0.  So for each least prime P the numbers are
finitely many: D runs over 2..P - 1, Delta over the divisors of
(P - 1) * (P + D), and C = (Delta + P**2) / D must be whole.  Each
candidate is kept when q and r are primes with P < q < r and P - 1
divides N - 1, which is the rest of Korselt's criterion.  Primality and
divisors here are by trial division.
"""

import math

from carmichael.enumerator import enumerate_carmichael


def is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def divisors(n):
    small = [f for f in range(1, math.isqrt(n) + 1) if n % f == 0]
    return set(small) | {n // f for f in small}


def three_factor_numbers(least_below, limit):
    """Every Carmichael P * q * r < limit with least prime P < least_below."""
    found = set()
    for P in filter(is_prime, range(3, least_below)):
        for D in range(2, P):
            for delta in divisors((P - 1) * (P + D)):
                C, rem = divmod(delta + P * P, D)
                if rem or C <= P:
                    continue
                q = (P - 1) * (P + D) // delta + 1
                r = (P - 1) * (P + C) // delta + 1
                n = P * q * r
                if (P < q < r and n < limit and (n - 1) % (P - 1) == 0
                        and is_prime(q) and is_prime(r)):
                    found.add((n, (P, q, r)))
    return sorted(found)


def test_formula_finds_the_first_three_factor_numbers():
    assert three_factor_numbers(8, 10**4) == [
        (561, (3, 11, 17)), (1105, (5, 13, 17)), (1729, (7, 13, 19)),
        (2465, (5, 17, 29)), (2821, (7, 13, 31)), (6601, (7, 23, 41)),
        (8911, (7, 19, 67))]


def test_engine_three_factor_numbers_match_the_formula():
    # d = 3 alone at 10**12 takes about a second.
    limit, least_below = 10**12, 300
    cat = enumerate_carmichael(limit, 3, 3)
    engine = [(e.value, e.factors) for e in cat.entries
              if e.factors[0] < least_below]
    assert engine == three_factor_numbers(least_below, limit)
    assert len(engine) == 306
