"""Carmichael verification: Korselt's criterion, Fermat scans, brute force.

A Carmichael number is a composite N such that b**(N-1) == 1 (mod N) for
every b coprime to N; equivalently (Korselt) N is composite, square-free,
has at least three prime factors, and p - 1 divides N - 1 for every prime
p dividing N.  This module decides membership exactly.

`oracle_enumerate` is a deliberately independent implementation used to
cross-check the backtracking enumerator: it factors every odd number below
the limit through a smallest-factor sieve (batch trial division) and
applies the Korselt divisibility conditions directly, sharing none of the
enumerator's search machinery.  `PAPER_COUNTS` holds the published
counts C(10**n) that a full enumeration must reproduce.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass

from .primes import Factorization, is_prime, smallest_factor_table

__all__ = [
    "CarmichaelEntry",
    "korselt_failure",
    "korselt_witness",
    "fermat_scan",
    "ALL_BASES",
    "oracle_enumerate",
    "ORACLE_LIMIT_CAP",
    "PAPER_COUNTS",
]

ORACLE_LIMIT_CAP = 10**8

# n -> C(10**n), the number of Carmichael numbers below 10**n: the source
# paper's counts up to 10**16 and OEIS A055553 at 10**17.
PAPER_COUNTS = {
    3: 1, 4: 7, 5: 16, 6: 43, 7: 105, 8: 255, 9: 646, 10: 1547,
    11: 3605, 12: 8241, 13: 19279, 14: 44706, 15: 105212, 16: 246683,
    17: 585355,
}


@dataclass(frozen=True, order=True)
class CarmichaelEntry:
    """One Carmichael number with its ascending prime factorization."""

    value: int
    factors: tuple[int, ...]

    def __str__(self) -> str:
        return " ".join([str(self.value), *map(str, self.factors)])

    def validate(self) -> None:
        """Check every entry invariant; raise ValueError on violation."""
        if list(self.factors) != sorted(set(self.factors)):
            raise ValueError(f"{self.value}: factors not strictly ascending")
        if len(self.factors) < 3:
            raise ValueError(f"{self.value}: fewer than 3 prime factors")
        for p in self.factors:
            if p == 2:
                raise ValueError(f"{self.value}: even prime factor")
            if not is_prime(p):
                raise ValueError(f"{self.value}: factor {p} is not prime")
        prod = math.prod(self.factors)
        if prod != self.value:
            raise ValueError(f"{self.value}: factors multiply to {prod}")
        p = korselt_witness(self.value, self.factors)
        if p is not None:
            raise ValueError(
                f"{self.value}: {p} - 1 does not divide {self.value} - 1"
            )


def korselt_witness(n: int, primes: Iterable[int]) -> int | None:
    """The first p in `primes` with p - 1 not dividing n - 1, or None.

    This is the divisibility clause of Korselt's criterion, shared by
    `CarmichaelEntry.validate` (which checks every entry the enumerator
    merges) and `korselt_failure` (behind `carmichael verify`).
    """
    nm1 = n - 1
    for p in primes:
        if nm1 % (p - 1):
            return p
    return None


def korselt_failure(n: int, f: Factorization) -> str | None:
    """Name of the first failing Korselt clause, or None when n passes."""
    if f.value() != n:
        raise ValueError(f"factorization does not multiply to {n}")
    if len(f.factors) == 1 and f.factors[0][1] == 1:
        return "prime"
    if not f.is_squarefree():
        return "not square-free"
    if len(f.factors) < 3:
        return "fewer than 3 prime factors"
    p = korselt_witness(n, f.primes())
    if p is not None:
        return f"{p} - 1 does not divide n - 1"
    return None


# Sentinel for exhaustive base testing in fermat_scan.
ALL_BASES = None


def fermat_scan(n: int, base_budget: int | None = 64) -> bool:
    """Fermat test over many bases: False iff a coprime witness is found.

    With base_budget = ALL_BASES every b in [2, n-2] coprime to n is
    tested (the definition itself; intended for n <= 10**5).  Otherwise
    base_budget pseudo-random bases are drawn from a generator seeded by
    n, so the scan is deterministic per input.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    if base_budget is ALL_BASES:
        bases = range(2, n - 1)
    else:
        rng = random.Random(n)
        bases = (rng.randrange(2, max(n - 1, 3)) for _ in range(base_budget))
    for b in bases:
        if math.gcd(b, n) != 1:
            continue
        if pow(b, n - 1, n) != 1:
            return False
    return True


def oracle_enumerate(limit: int) -> list[CarmichaelEntry]:
    """Carmichael numbers < limit by sieve-driven trial division.

    Test oracle only: shares no code with the backtracking enumerator so
    that agreement between the two is meaningful evidence.
    """
    if limit > ORACLE_LIMIT_CAP:
        raise ValueError(
            f"oracle limit {limit} above cap {ORACLE_LIMIT_CAP}; "
            "use the real enumerator beyond desk scale"
        )
    entries: list[CarmichaelEntry] = []
    if limit <= 3:
        return entries
    top = limit - 1
    spf = memoryview(smallest_factor_table(top))  # Python ints
    for n in range(9, limit, 2):
        p = spf[n >> 1]
        if p == 0:
            continue  # prime
        nm1 = n - 1
        factors = []
        m = n
        while True:
            if nm1 % (p - 1):
                factors = None
                break
            m //= p
            if m % p == 0:
                factors = None  # not square-free
                break
            factors.append(p)
            if m == 1:
                break
            p = spf[m >> 1]
            if p == 0:
                p = m
        if factors is not None and len(factors) >= 3:
            entries.append(CarmichaelEntry(n, tuple(factors)))
    return entries
