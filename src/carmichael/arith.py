"""Exact integer arithmetic helpers.

Everything here works on plain Python integers, which are arbitrary
precision: products never wrap silently, so the usual 128-bit headaches
(double-width intermediates, overflow traps) do not arise.  `iroot` runs
Newton's iteration on integers alone, so no rounding can perturb it.
"""

from __future__ import annotations

import math

__all__ = ["invmod", "iroot"]


def _check_modulus(m: int) -> None:
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")


def invmod(a: int, m: int) -> int | None:
    """Inverse of a modulo m, or None when gcd(a, m) != 1.

    A missing inverse is a normal outcome for callers (it prunes search
    branches), so it is reported as None rather than by raising.
    """
    _check_modulus(m)
    try:
        return pow(a, -1, m)
    except ValueError:
        return None


def iroot(n: int, k: int) -> int:
    """Largest r with r**k <= n, computed in exact integer arithmetic."""
    if k < 1:
        raise ValueError(f"root index must be >= 1, got {k}")
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    # Newton's iteration, seeded from the bit length above the root.
    r = 1 << -(-n.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r
