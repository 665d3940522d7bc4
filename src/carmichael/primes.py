"""Prime generation, primality testing and factorization.

Primality policy
----------------
* n < 2**64: Miller-Rabin with the published deterministic base ladder
  (smallest proven base set for each threshold, ending with the first
  twelve primes which are proven correct up to 3.18e23 > 2**64).  These
  answers are unconditionally correct.
* n >= 2**64: Baillie-PSW (strong base-2 Miller-Rabin plus a strong Lucas
  test with Selfridge's parameters).  No BPSW pseudoprime is known; all
  results in this range are flagged as BPSW-attested by callers that
  report them.

Every primality decision on the main enumeration path (numbers below
10**16) falls in the deterministic range.

Factorization is deterministic: trial division by a fixed table of small
primes, then Brent-cycle Pollard rho with polynomial offsets c = 1, 2, 3,
... tried in order, so repeated runs always split composites the same way.
Rho takes at most `_RHO_STEPS` steps per composite, over all its offsets,
and then raises `FactoringBudgetExceeded` instead of running on: `verify`
reports such a number as unresolved, and an enumeration that meets one
fails, naming its search task.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .arith import iroot

__all__ = [
    "Factorization",
    "FactoringBudgetExceeded",
    "prime_sieve",
    "is_prime",
    "factorize",
]

# Deterministic Miller-Rabin base ladder: (bound, bases) means the bases
# are proven sufficient for every n < bound.
_MR_LADDER: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)
_BPSW_FLOOR = 1 << 64
# Entries of `_odd_sieve` that every prime marks before any moves on to
# the next: 2**19 uint16 entries are 1 MiB, which stays in cache while the
# primes stride through it.
_SEGMENT = 1 << 19


def _odd_sieve(limit: int, dtype) -> np.ndarray:
    """Entry i, for i <= limit // 2, is the smallest prime factor of 2*i + 1.

    0 marks a prime (or 1).  The odd primes up to isqrt(limit) are stored
    with strided numpy writes, one segment of `_SEGMENT` entries at a time
    and largest prime first within it, so the smallest factor wins; entries
    are exact for numbers up to limit.  Whole-array strides would stream
    the table through memory once per prime: in fresh processes a table of
    2**26 took 0.91 s against 0.18 s by segments, and one of 2**23
    0.063 s against 0.018 s (BENCH_spf.json).  With dtype
    bool an entry only says whether 2*i + 1 is composite.  The entries get
    their own private anonymous mapping, freed with the array: on the heap,
    a rebuilt 8 MiB table could find its old space split and grow the heap.
    """
    n = limit // 2 + 1
    sieve = np.frombuffer(
        mmap.mmap(-1, n * np.dtype(dtype).itemsize, flags=mmap.MAP_PRIVATE),
        dtype)
    primes = prime_sieve(math.isqrt(limit))[:0:-1]  # odd, largest first
    marks = [p * p // 2 for p in primes]  # each prime's next entry to mark
    for end in range(_SEGMENT, n + _SEGMENT, _SEGMENT):
        for i, p in enumerate(primes):
            mark = marks[i]
            if mark < end:
                sieve[mark:end:p] = p
                marks[i] = mark + (end - mark + p - 1) // p * p
    return sieve


def prime_sieve(limit: int) -> list[int]:
    """All primes <= limit, ascending, from one odd-only sieve."""
    if limit < 2:
        return []
    prime = _odd_sieve(limit, bool)[: (limit + 1) // 2]
    np.logical_not(prime, out=prime)  # in place: entry 0, for 1, is True
    values = np.flatnonzero(prime) * 2 + 1
    del prime  # before the list, which is about 5 times larger
    values[0] = 2  # in place of 1
    return values.tolist()


def smallest_factor_table(limit: int) -> np.ndarray:
    """Smallest-prime-factor table for odd numbers, limit // 2 + 1 entries.

    Entry i describes the odd number 2*i + 1; the value is its smallest
    prime factor, or 0 when 2*i + 1 is prime (or 1).  The entries are
    uint16, which is exact because none exceeds isqrt(limit) < 2**16, so
    limit must be below 2**32.  Python readers index `memoryview(table)`,
    which yields Python ints; numpy scalars would keep uint16 arithmetic.
    """
    if limit >= 1 << 32:
        raise ValueError(f"smallest-factor table limit {limit} >= 2**32")
    return _odd_sieve(limit, np.uint16)


def _miller_rabin(n: int, bases: tuple[int, ...]) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters."""
    if math.isqrt(n) ** 2 == n:
        return False
    d = 5
    while True:
        j = _jacobi(d % n, n)
        if j == 0 and abs(d) != n:
            return False
        if j == -1:
            break
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4

    k = n + 1
    s = 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # Compute U_k, V_k, Q^k by the binary chain.
    u, v, qk = 1, p, q % n
    for bit in bin(k)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = u * p + v, v * p + u * d
            if u % 2:
                u += n
            if v % 2:
                v += n
            u = u // 2 % n
            v = v // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Primality per the module policy (deterministic below 2**64)."""
    if n < 2:
        return False
    for p in _TINY_PRIMES:
        if n % p == 0:
            return n == p
    if n < _BPSW_FLOOR:
        for bound, bases in _MR_LADDER:
            if n < bound:
                return _miller_rabin(n, bases)
        raise AssertionError("unreachable: ladder covers 2**64")
    return _miller_rabin(n, (2,)) and _strong_lucas(n)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ascending (prime, exponent) pairs."""

    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


# Trial-division table used by factorize(); small enough that a full scan
# is cheap, large enough that rho only ever sees hard cofactors.
_TRIAL_PRIMES: tuple[int, ...] = tuple(prime_sieve(1023))
# Rho's step budget per composite, summed over its offsets.  Rho needs
# about sqrt(p) steps to find a prime factor p, so this finds factors up
# to about 2**46; the whole budget took 9.3 s on a 121-bit product of two
# primes on a 2 vCPU Xeon sandbox.
_RHO_STEPS = 1 << 24


class FactoringBudgetExceeded(ArithmeticError):
    """Rho found no factor within `_RHO_STEPS` steps."""


def _brent_rho(n: int) -> int:
    """A nontrivial factor of odd composite n, deterministically.

    Brent's cycle-finding variant of Pollard rho with batched gcds; the
    polynomial offset c walks 1, 2, 3, ... so the split sequence is fixed.
    Raises `FactoringBudgetExceeded` rather than take more than
    `_RHO_STEPS` steps.
    """
    steps = 0
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g = 1
        ys = y
        while g == 1:
            # This round takes r steps to x, then at most r more.
            steps += 2 * r
            if steps > _RHO_STEPS:
                raise FactoringBudgetExceeded(
                    f"no factor of {n} within {_RHO_STEPS} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # Batch overshot: redo the last block one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    # Unsplittable by rho across 999 offsets: only plausible for perfect
    # powers of a single prime; peel those off exactly.
    for k in range(2, n.bit_length() + 1):
        r = iroot(n, k)
        if r**k == n:
            return r
    raise ArithmeticError(f"failed to split composite {n}")


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n >= 2, deterministic."""
    if n < 2:
        raise ValueError(f"cannot factorize {n}")
    found: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        if d in (1, m):  # pragma: no cover - rho always splits composites
            raise ArithmeticError(f"rho returned trivial factor for {m}")
        stack.append(d)
        stack.append(m // d)
    return Factorization(tuple(sorted(found.items())))
