"""Distribution statistics over a Carmichael catalog.

Reproduces every table of the source dataset: total and per-factor-count
counts at checkpoints, the k(X) exponent function, decade growth ratios,
C(X) as a power of X, residue-class tabulations, per-prime divisor and
least-prime-factor counts, and the extremal records.  Counting is strict:
C(X) covers entries < X.

All logarithms in `k_of` and `power_exponent` are natural; the unit tests
pin that convention by matching the published five-decimal values.
Formatted output rounds half-to-even at the published precision (5
decimals for k and exponents, 3 for ratios).
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import Catalog
from .enumerator import max_factor_count
from .extremal import RecordSet, scan_records
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


def _check_factor_range(cat: Catalog) -> None:
    """Refuse a catalog whose header restricts the factor count.

    It holds only part of the Carmichael numbers below its bound, so
    every count taken from it would be short.  A catalog without d_min
    and d_max headers is taken as complete.
    """
    limit = cat.limit
    full = max_factor_count(limit) if limit is not None else 3
    d_min = int(cat.provenance.get("d_min", 3))
    d_max = int(cat.provenance.get("d_max", full))
    if d_min > 3 or d_max < full:
        raise ValueError(
            f"the catalog holds only d = {d_min}..{d_max} prime factors,"
            f" not 3..{full}: its counts would be short"
        )


def count_table(
    cat: Catalog, cps: list[int]
) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """C(X) and C(d, X) for each checkpoint X (strictly below X)."""
    validate_checkpoints(cat, cps)
    values = cat.values()
    counts: dict[int, int] = {}
    by_d: dict[tuple[int, int], int] = {}
    sizes = [len(e.factors) for e in cat.entries]
    for x in cps:
        n = bisect_left(values, x)
        counts[x] = n
        for d in sorted(set(sizes[:n])):
            by_d[(d, x)] = 0
        for d in sizes[:n]:
            by_d[(d, x)] += 1
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
    """C(10**n) / C(10**(n-1)) keyed by n."""
    out = {}
    for n in sorted(decade_counts):
        if n - 1 in decade_counts and decade_counts[n - 1] > 0:
            out[n] = decade_counts[n] / decade_counts[n - 1]
    if not out:
        raise ValueError("need counts at consecutive decade checkpoints")
    return out


def power_exponents(decade_counts: dict[int, int]) -> dict[int, float]:
    """ln C(10**n) / (n ln 10) keyed by n."""
    out = {}
    for n, c in sorted(decade_counts.items()):
        if c > 0:
            out[n] = math.log(c) / (n * math.log(10))
    if not out:
        raise ValueError("no usable decade counts")
    return out


def residue_table(
    cat: Catalog, modulus: int, cps: list[int]
) -> dict[tuple[int, int], int]:
    """Counts of entries < X in each residue class modulo m."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    validate_checkpoints(cat, cps)
    values = cat.values()
    out: dict[tuple[int, int], int] = {}
    for x in cps:
        n = bisect_left(values, x)
        row = [0] * modulus
        for v in values[:n]:
            row[v % modulus] += 1
        for cls in range(modulus):
            out[(cls, x)] = row[cls]
    return out


def prime_tables(
    cat: Catalog, primes: list[int], cps: list[int]
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """Divisor counts and least-prime-factor counts per prime and X."""
    validate_checkpoints(cat, cps)
    divisor: dict[tuple[int, int], int] = {}
    least: dict[tuple[int, int], int] = {}
    wanted = set(primes)
    values = cat.values()
    for x in cps:
        n = bisect_left(values, x)
        div_row = {p: 0 for p in primes}
        least_row = {p: 0 for p in primes}
        for e in cat.entries[:n]:
            for p in e.factors:
                if p in wanted:
                    div_row[p] += 1
            lp = e.factors[0]
            if lp in wanted:
                least_row[lp] += 1
        for p in primes:
            divisor[(p, x)] = div_row[p]
            least[(p, x)] = least_row[p]
    return divisor, least


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
    _check_factor_range(cat)
    if cps is None:
        bound = cat.limit
        if bound is None:
            bound = cat.entries[-1].value + 1 if cat.entries else 10**3
        cps = default_checkpoints(bound)
    validate_checkpoints(cat, cps)
    counts, by_d = count_table(cat, cps)
    decades = _decade_counts(counts)
    k_values = {x: k_of(x, c) for x, c in counts.items() if c > 0 and x >= 10**3}
    ratios = growth_ratios(decades) if len(decades) > 1 else {}
    exponents = power_exponents(decades) if decades else {}
    residues = {m: residue_table(cat, m, cps) for m in moduli}
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


def _fmt(value: float, places: int) -> str:
    return f"{value:.{places}f}"


def write_report(report: StatsReport, out_dir: str | Path) -> list[Path]:
    """Write each requested table as <name>.csv and <name>.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, header: list[str], rows: list[list[str]]) -> None:
        csv_path = out / f"{name}.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        txt_path = out / f"{name}.txt"
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        with open(txt_path, "w", encoding="utf-8") as fh:
            fh.write(
                "  ".join(h.rjust(w) for h, w in zip(header, widths)).rstrip()
                + "\n"
            )
            for r in rows:
                fh.write(
                    "  ".join(v.rjust(w) for v, w in zip(r, widths)).rstrip()
                    + "\n"
                )
        written.extend([csv_path, txt_path])

    cps = report.checkpoints
    names = set(report.tables)

    if "counts" in names:
        emit(
            "counts",
            ["checkpoint", "count"],
            [[str(x), str(report.counts[x])] for x in cps],
        )
    if "counts-by-d" in names:
        all_d = sorted({d for d, _ in report.counts_by_d})
        header = ["checkpoint", *[f"d{d}" for d in all_d], "total"]
        rows = []
        for x in cps:
            row = [str(x)]
            row += [str(report.counts_by_d.get((d, x), 0)) for d in all_d]
            row.append(str(report.counts[x]))
            rows.append(row)
        emit("counts_by_d", header, rows)
    if "k" in names:
        emit(
            "k_values",
            ["checkpoint", "k"],
            [
                [str(x), _fmt(report.k_values[x], 5)]
                for x in cps
                if x in report.k_values
            ],
        )
    if "ratios" in names:
        emit(
            "growth_ratios",
            ["n", "ratio"],
            [[str(n), _fmt(v, 3)] for n, v in sorted(report.ratios.items())],
        )
    if "exponents" in names:
        emit(
            "power_exponents",
            ["n", "exponent"],
            [[str(n), _fmt(v, 5)] for n, v in sorted(report.exponents.items())],
        )
    if "residues" in names:
        for m in report.moduli:
            table = report.residues[m]
            header = ["class", *[str(x) for x in cps]]
            rows = [
                [str(cls), *[str(table[(cls, x)]) for x in cps]]
                for cls in range(m)
            ]
            emit(f"residues_mod{m}", header, rows)
    if "prime-divisors" in names:
        header = ["p", *[str(x) for x in cps]]
        rows = [
            [str(p), *[str(report.prime_divisor_counts[(p, x)]) for x in cps]]
            for p in report.primes
        ]
        emit("prime_divisor_counts", header, rows)
    if "least-primes" in names:
        header = ["p", *[str(x) for x in cps]]
        rows = [
            [str(p), *[str(report.least_prime_counts[(p, x)]) for x in cps]]
            for p in report.primes
        ]
        emit("least_prime_counts", header, rows)
    if "records" in names and report.records is not None:
        rec = report.records
        emit(
            "records",
            ["record", "prime", "value", "factors"],
            [
                [
                    "largest_prime_factor",
                    str(rec.largest_prime_factor[0]),
                    str(rec.largest_prime_factor[1].value),
                    ".".join(map(str, rec.largest_prime_factor[1].factors)),
                ],
                [
                    "largest_least_prime_factor",
                    str(rec.largest_least_prime_factor[0]),
                    str(rec.largest_least_prime_factor[1].value),
                    ".".join(map(str, rec.largest_least_prime_factor[1].factors)),
                ],
            ],
        )
    return written
