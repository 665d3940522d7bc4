"""Distribution statistics over a Carmichael catalog.

Reproduces every table of the source dataset: total and per-factor-count
counts at checkpoints, the k(X) exponent function, decade growth ratios,
C(X) as a power of X, residue-class tabulations, per-prime divisor and
least-prime-factor counts, and the extremal records.  Counting is strict:
C(X) covers entries < X.  Every count table comes from one pass over the
sorted catalog, which adds each slice between consecutive checkpoints to
a running tally (`_tally`).

All logarithms in `k_of` and `power_exponents` are natural; the unit tests
pin that convention by matching the published five-decimal values.
Formatted output rounds half-to-even at the published precision (5
decimals for k and exponents, 3 for ratios).
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .catalog import Catalog
from .enumerator import max_factor_count
from .extremal import RecordSet, scan_records
from .korselt import CarmichaelEntry
from .primes import prime_sieve

__all__ = [
    "DEFAULT_PRIME_CAP",
    "DEFAULT_MODULI",
    "StatsReport",
    "default_checkpoints",
    "validate_checkpoints",
    "count_table",
    "k_of",
    "growth_ratios",
    "power_exponents",
    "residue_table",
    "prime_tables",
    "build_report",
    "write_report",
    "TABLE_NAMES",
]

DEFAULT_PRIME_CAP = 97
DEFAULT_MODULI = (5, 7, 11, 12)
# A residue table has a cell for every class at every checkpoint, however
# few entries the catalog holds; larger tables are refused.
RESIDUE_CELLS = 1 << 20
# A prime table has a row for each odd prime up to its cap, and the same
# bound on its cells.  There are more than RESIDUE_CELLS odd primes below
# 2**24, so a cap at or above it is refused before anything is sieved.
PRIME_CAP_MAX = 1 << 24
TABLE_NAMES = (
    "counts",
    "counts-by-d",
    "k",
    "ratios",
    "exponents",
    "residues",
    "prime-divisors",
    "least-primes",
    "records",
)


def default_checkpoints(bound: int) -> list[int]:
    """Decades from 10**3 up to bound, plus 25*10**9 when in range."""
    cps = []
    x = 10**3
    while x <= bound:
        cps.append(x)
        x *= 10
    extra = 25 * 10**9
    if extra <= bound:
        cps.append(extra)
    return sorted(cps)


def validate_checkpoints(cat: Catalog, cps: list[int]) -> None:
    bound = cat.limit
    if not cps:
        raise ValueError(
            f"no checkpoints: the default decades start at 10**3,"
            f" the catalog bound is {bound}"
        )
    if list(cps) != sorted(set(cps)) or cps[0] < 561:
        raise ValueError("checkpoints must be ascending and at least 561")
    if bound is None:
        return
    for x in cps:
        if x > bound:
            raise ValueError(
                f"checkpoint {x} exceeds the catalog bound {bound}"
            )


def _factor_range(cat: Catalog) -> tuple[int, int | None]:
    """The factor counts `cat` covers; None for no upper end.

    Without d headers a catalog covers 3..max_factor_count(limit), and
    without a limit either, every factor count.
    """
    d_min = int(cat.provenance.get("d_min", 3))
    if "d_max" in cat.provenance:
        return d_min, int(cat.provenance["d_max"])
    return d_min, None if cat.limit is None else max_factor_count(cat.limit)


def _check_factor_range(cat: Catalog, cps: list[int]) -> None:
    """Refuse a catalog whose header restricts the factor count.

    It holds only part of the Carmichael numbers below its bound, so
    every count taken from it would be short.  Without a limit the counts
    reach the largest checkpoint X, below which a Carmichael number has up
    to max_factor_count(X) prime factors; the refusal shows that range
    open, "3..", as the catalog names no bound.
    """
    d_min, d_max = _factor_range(cat)
    bound = cat.limit if cat.limit is not None else max(cps, default=None)
    full = max_factor_count(bound) if bound is not None else None
    if d_min > 3 or (None not in (d_max, full) and d_max < full):
        end = full if cat.limit is not None else ""
        raise ValueError(
            f"the catalog holds only d = {d_min}..{d_max or ''} prime"
            f" factors, not 3..{end}: its counts would be short"
        )


def _tally(
    cat: Catalog,
    cps: list[int],
    keys: Callable[[list[CarmichaelEntry]], Iterable[Hashable]],
) -> dict[int, Counter]:
    """For each checkpoint X, a Counter of keys(entries < X).

    One pass over the sorted catalog: each slice between consecutive
    checkpoints is counted once and added to a running total.
    """
    validate_checkpoints(cat, cps)
    values = cat.values()
    running: Counter = Counter()
    out = {}
    lo = 0
    for x in cps:
        hi = bisect_left(values, x, lo)
        running.update(keys(cat.entries[lo:hi]))
        out[x] = running.copy()
        lo = hi
    return out


def count_table(
    cat: Catalog, cps: list[int]
) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """C(X) and C(d, X) for each checkpoint X (strictly below X)."""
    tally = _tally(cat, cps, lambda s: (len(e.factors) for e in s))
    counts = {x: c.total() for x, c in tally.items()}
    by_d = {(d, x): c[d] for x, c in tally.items() for d in sorted(c)}
    return counts, by_d


def k_of(x: int, c: int) -> float:
    """k with C(X) = X * exp(-k * ln X * lnlnln X / lnln X)."""
    if x < 10**3:
        raise ValueError(f"need X >= 10**3, got {x}")
    if c < 1:
        raise ValueError(f"need a positive count, got {c}")
    ln_x = math.log(x)
    return (ln_x - math.log(c)) * math.log(ln_x) / (ln_x * math.log(math.log(ln_x)))


def growth_ratios(decade_counts: dict[int, int]) -> dict[int, float]:
    """C(10**n) / C(10**(n-1)) keyed by n, for each consecutive pair."""
    return {
        n: decade_counts[n] / decade_counts[n - 1]
        for n in sorted(decade_counts)
        if decade_counts.get(n - 1, 0) > 0
    }


def power_exponents(decade_counts: dict[int, int]) -> dict[int, float]:
    """ln C(10**n) / (n ln 10) keyed by n, for each positive count."""
    return {
        n: math.log(c) / (n * math.log(10))
        for n, c in sorted(decade_counts.items())
        if c > 0
    }


def residue_table(
    cat: Catalog, modulus: int, cps: list[int]
) -> dict[tuple[int, int], int]:
    """Counts of entries < X in each residue class modulo m."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if modulus * len(cps) > RESIDUE_CELLS:
        raise ValueError(
            f"a residue table modulo {modulus} at {len(cps)} checkpoints has"
            f" {modulus * len(cps)} cells, above the bound of {RESIDUE_CELLS}"
        )
    tally = _tally(cat, cps, lambda s: (e.value % modulus for e in s))
    return {(cls, x): c.get(cls, 0) for x, c in tally.items() for cls in range(modulus)}


def prime_tables(
    cat: Catalog, primes: list[int], cps: list[int]
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """Divisor counts and least-prime-factor counts per prime and X."""
    if len(primes) * len(cps) > RESIDUE_CELLS:
        raise ValueError(
            f"prime tables of {len(primes)} primes at {len(cps)} checkpoints"
            f" have {len(primes) * len(cps)} cells, above the bound of"
            f" {RESIDUE_CELLS}"
        )
    wanted = set(primes)
    divisor = _tally(
        cat, cps, lambda s: (p for e in s for p in e.factors if p in wanted)
    )
    least = _tally(cat, cps, lambda s: (e.factors[0] for e in s))
    return (
        {(p, x): divisor[x][p] for x in cps for p in primes},
        {(p, x): least[x][p] for x in cps for p in primes},
    )


@dataclass
class StatsReport:
    checkpoints: list[int]
    counts: dict[int, int]
    counts_by_d: dict[tuple[int, int], int]
    k_values: dict[int, float]
    ratios: dict[int, float]
    exponents: dict[int, float]
    moduli: tuple[int, ...]
    residues: dict[int, dict[tuple[int, int], int]]
    primes: list[int]
    prime_divisor_counts: dict[tuple[int, int], int]
    least_prime_counts: dict[tuple[int, int], int]
    records: RecordSet | None
    tables: tuple[str, ...] = field(default=TABLE_NAMES)

    def check_consistency(self) -> None:
        """Cross-table invariants; raises AssertionError on violation."""
        d_counts: dict[int, int] = {}
        for (_, x), c in self.counts_by_d.items():
            d_counts[x] = d_counts.get(x, 0) + c
        for x, total in self.counts.items():
            assert d_counts.get(x, 0) == total, f"per-d sum mismatch at {x}"
        for m, table in self.residues.items():
            per_x: dict[int, int] = {}
            for (_, x), c in table.items():
                per_x[x] = per_x.get(x, 0) + c
            for x, total in per_x.items():
                assert total == self.counts[x], f"mod-{m} sum mismatch at {x}"
        if 5 in self.residues and (5, self.checkpoints[-1]) in self.prime_divisor_counts:
            for x in self.checkpoints:
                assert self.residues[5][(0, x)] == self.prime_divisor_counts[(5, x)]
        for x in self.checkpoints:
            if (3, x) in self.prime_divisor_counts:
                assert (
                    self.prime_divisor_counts[(3, x)]
                    == self.least_prime_counts[(3, x)]
                )


def _decade_counts(counts: dict[int, int]) -> dict[int, int]:
    out = {}
    for x, c in counts.items():
        n = round(math.log10(x))
        if 10**n == x:
            out[n] = c
    return out


def build_report(
    cat: Catalog,
    cps: list[int] | None = None,
    moduli: tuple[int, ...] = DEFAULT_MODULI,
    prime_cap: int = DEFAULT_PRIME_CAP,
    tables: tuple[str, ...] = TABLE_NAMES,
) -> StatsReport:
    if cps is None:
        bound = cat.limit
        if bound is None:
            bound = cat.entries[-1].value + 1 if cat.entries else 10**3
        cps = default_checkpoints(bound)
    _check_factor_range(cat, cps)
    counts, by_d = count_table(cat, cps)
    decades = _decade_counts(counts)
    k_values = {x: k_of(x, c) for x, c in counts.items() if c > 0 and x >= 10**3}
    ratios = growth_ratios(decades)
    exponents = power_exponents(decades)
    # Only the tables asked for are built: a residue table has m rows and
    # a prime table one row per prime up to prime_cap.
    residues = ({m: residue_table(cat, m, cps) for m in moduli}
                if "residues" in tables else {})
    primes, div_counts, least_counts = [], {}, {}
    if {"prime-divisors", "least-primes"} & set(tables):
        if prime_cap >= PRIME_CAP_MAX:
            raise ValueError(
                f"prime tables up to {prime_cap} have more than"
                f" {RESIDUE_CELLS} rows, above the bound of {RESIDUE_CELLS}"
                f" cells"
            )
        primes = [p for p in prime_sieve(prime_cap) if p > 2]
        div_counts, least_counts = prime_tables(cat, primes, cps)
    records = scan_records(cat) if cat.entries else None
    return StatsReport(
        checkpoints=list(cps),
        counts=counts,
        counts_by_d=by_d,
        k_values=k_values,
        ratios=ratios,
        exponents=exponents,
        moduli=tuple(moduli),
        residues=residues,
        primes=primes,
        prime_divisor_counts=div_counts,
        least_prime_counts=least_counts,
        records=records,
        tables=tables,
    )


# ---------------------------------------------------------------------------
# Emission: one CSV per table plus an aligned-text mirror.


def _tables(report: StatsReport):
    """(table name, file stem, header, rows) for every table.

    The rows are generators, so a table that is not written costs
    nothing; each must be consumed before the next table is drawn.
    """
    cps = report.checkpoints
    yield "counts", "counts", ["checkpoint", "count"], (
        [x, report.counts[x]] for x in cps
    )
    all_d = sorted({d for d, _ in report.counts_by_d})
    header = ["checkpoint", *[f"d{d}" for d in all_d], "total"]
    yield "counts-by-d", "counts_by_d", header, (
        [x, *[report.counts_by_d.get((d, x), 0) for d in all_d], report.counts[x]]
        for x in cps
    )
    yield "k", "k_values", ["checkpoint", "k"], (
        [x, f"{report.k_values[x]:.5f}"] for x in cps if x in report.k_values
    )
    yield "ratios", "growth_ratios", ["n", "ratio"], (
        [n, f"{v:.3f}"] for n, v in sorted(report.ratios.items())
    )
    yield "exponents", "power_exponents", ["n", "exponent"], (
        [n, f"{v:.5f}"] for n, v in sorted(report.exponents.items())
    )
    for m, table in report.residues.items():
        yield "residues", f"residues_mod{m}", ["class", *cps], (
            [cls, *[table[(cls, x)] for x in cps]] for cls in range(m)
        )
    for name, stem, table in (
        ("prime-divisors", "prime_divisor_counts", report.prime_divisor_counts),
        ("least-primes", "least_prime_counts", report.least_prime_counts),
    ):
        yield name, stem, ["p", *cps], (
            [p, *[table[(p, x)] for x in cps]] for p in report.primes
        )
    if report.records is not None:
        yield "records", "records", ["record", "prime", "value", "factors"], (
            [label, p, e.value, ".".join(map(str, e.factors))]
            for label in ("largest_prime_factor", "largest_least_prime_factor")
            for p, e in [getattr(report.records, label)]
        )


def write_report(report: StatsReport, out_dir: str | Path) -> list[Path]:
    """Write each requested table as <stem>.csv and an aligned <stem>.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, stem, header, rows in _tables(report):
        if name not in report.tables:
            continue
        lines = [list(map(str, r)) for r in chain([header], rows)]
        csv_path, txt_path = out / f"{stem}.csv", out / f"{stem}.txt"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(lines)
        widths = [max(map(len, col)) for col in zip(*lines)]
        with open(txt_path, "w", encoding="utf-8") as fh:
            for r in lines:
                fh.write("  ".join(v.rjust(w) for v, w in zip(r, widths)).rstrip() + "\n")
        written += [csv_path, txt_path]
    return written
