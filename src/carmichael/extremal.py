"""Smallest Carmichael number with d prime factors, and record scans."""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import Catalog
from .enumerator import enumerate_carmichael, min_odd_prime_product
from .korselt import CarmichaelEntry

__all__ = ["RecordSet", "smallest_with_factors", "scan_records"]


def smallest_with_factors(d: int, worker_count: int = 1) -> CarmichaelEntry:
    """Minimal Carmichael number with exactly d prime factors.

    Iterative deepening: enumerate with the bound starting at the product
    of the d smallest odd primes (an unconditional lower bound) and double
    until something turns up; the first nonempty run dominates the cost
    and exhaustiveness of the enumeration proves minimality.
    """
    if not 3 <= d <= 20:
        raise ValueError(f"supported factor counts are 3..20, got {d}")
    bound = min_odd_prime_product(d) * 2
    while True:
        cat = enumerate_carmichael(bound, d, d, worker_count)
        if cat.entries:
            return cat.entries[0]
        bound *= 2


@dataclass(frozen=True)
class RecordSet:
    """Extremal primes over a catalog and the entries hosting them."""

    largest_prime_factor: tuple[int, CarmichaelEntry]
    largest_least_prime_factor: tuple[int, CarmichaelEntry]


def scan_records(cat: Catalog) -> RecordSet:
    """Single pass over the catalog; ties broken by smaller N."""
    if not cat.entries:
        raise ValueError("cannot scan an empty catalog")
    best_max: tuple[int, CarmichaelEntry] | None = None
    best_least: tuple[int, CarmichaelEntry] | None = None
    for entry in cat.entries:
        top, bottom = entry.factors[-1], entry.factors[0]
        if best_max is None or top > best_max[0]:
            best_max = (top, entry)
        if best_least is None or bottom > best_least[0]:
            best_least = (bottom, entry)
    return RecordSet(best_max, best_least)

