"""Catalog persistence: bit-exact text files of Carmichael numbers.

This module reads and writes the format and nothing else; what a header
means for the numbers a catalog covers is for its readers to act on
(`stats` refuses a catalog restricted by factor count).

Format: UTF-8 text.  Header lines start with '#' and carry `key: value`
provenance pairs (generator version, limit, factor-count range, count).
Each record line is the decimal value of N, a space, then its ascending
prime factors separated by single spaces.  Records are sorted ascending,
one per line, no trailing whitespace.  The writer emits no timestamps,
so identical inputs produce byte-identical files.  Files ending in .gz
are transparently decompressed on read.  A catalog is written to a
temporary file beside its destination and renamed into place, so a write
that fails never leaves a partial catalog behind.
"""

from __future__ import annotations

import gzip
import io
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .korselt import CarmichaelEntry

__all__ = ["Catalog", "CatalogFormatError", "write_catalog", "read_catalog",
           "complete_provenance"]


class CatalogFormatError(Exception):
    pass


# Headers that readers parse as integers.
_INT_HEADERS = ("limit", "d_min", "d_max")


@dataclass
class Catalog:
    """Ascending, deduplicated Carmichael entries plus provenance."""

    entries: list[CarmichaelEntry] = field(default_factory=list)
    provenance: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def limit(self) -> int | None:
        """Bound below which this catalog is complete, when recorded."""
        raw = self.provenance.get("limit")
        return int(raw) if raw is not None else None

    def values(self) -> list[int]:
        return [e.value for e in self.entries]


def complete_provenance(limit: int, d_min: int, d_max: int,
                        count: int) -> dict[str, str]:
    """The header of a catalog of all `count` Carmichael numbers below
    `limit` with d_min..d_max prime factors."""
    return {
        "generator": f"carmichael {__version__}",
        "limit": str(limit),
        "d_min": str(d_min),
        "d_max": str(d_max),
        "count": str(count),
    }


def _record_lines(cat: Catalog):
    """The text of `cat`, one header or record line at a time."""
    yield "# carmichael catalog\n"
    for k, v in cat.provenance.items():
        yield f"# {k}: {v}\n"
    for e in cat.entries:
        yield f"{e}\n"


def write_catalog(cat: Catalog, destination: str | Path) -> None:
    path = Path(destination)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as raw:
            # One write: deflate's output depends on how its input is cut.
            data = "".join(_record_lines(cat)).encode("utf-8")
            if path.suffix == ".gz":
                # mtime zero and no embedded name: identical catalogs
                # compress to byte-identical files wherever they are written
                with gzip.GzipFile(
                    filename="", fileobj=raw, mode="wb", mtime=0
                ) as fh:
                    fh.write(data)
            else:
                raw.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _open_text(source: str | Path) -> io.TextIOBase:
    path = Path(source)
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


def _lines(fh):
    """The lines of fh; a compressed stream that ends early is an error."""
    try:
        yield from fh
    except EOFError:
        raise CatalogFormatError(
            "the compressed stream ends early: the catalog is truncated"
        ) from None


def read_catalog(source: str | Path, validate: bool = False) -> Catalog:
    """Parse a catalog file; optionally re-verify every entry.

    With validate=True each record is checked against the full entry
    invariants (ascending prime factors, correct product, the Korselt
    divisibility conditions), which makes corrupted records loud.  A
    last record without a line end, or a `count` header that disagrees
    with the records read, is always an error, so a truncated file cannot
    pass for a shorter catalog; so is a record at or above the `limit`
    header, which every writer of catalogs keeps below, and a `limit`,
    `d_min` or `d_max` header that is not a whole number in decimal
    digits.
    """
    entries: list[CarmichaelEntry] = []
    provenance: dict[str, str] = {}
    last = 0
    cut_short = False
    with _open_text(source) as fh:
        for lineno, raw in enumerate(_lines(fh), start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if ":" in body:
                    key, _, value = (s.strip() for s in body.partition(":"))
                    if key in _INT_HEADERS and not (value.isascii()
                                                    and value.isdigit()):
                        raise CatalogFormatError(
                            f"line {lineno}: header {key}: {value!r} is not a"
                            " whole number in decimal digits"
                        )
                    provenance[key] = value
                continue
            try:
                numbers = [int(tok) for tok in line.split()]
            except ValueError as exc:
                raise CatalogFormatError(f"line {lineno}: {exc}") from None
            if len(numbers) < 2:
                raise CatalogFormatError(
                    f"line {lineno}: expected a value and its factors"
                )
            entry = CarmichaelEntry(numbers[0], tuple(numbers[1:]))
            if entry.value <= last:
                raise CatalogFormatError(
                    f"line {lineno}: records not strictly ascending"
                )
            last = entry.value
            if validate:
                try:
                    entry.validate()
                except ValueError as exc:
                    raise CatalogFormatError(f"line {lineno}: {exc}") from None
            entries.append(entry)
            cut_short = not raw.endswith("\n")
    declared = provenance.get("count")
    if declared is not None and declared != str(len(entries)):
        raise CatalogFormatError(
            f"header count {declared} but {len(entries)} records:"
            " the catalog is truncated or damaged"
        )
    if cut_short:
        raise CatalogFormatError(
            f"line {lineno}: the last record has no line end:"
            " the catalog is truncated"
        )
    cat = Catalog(entries, provenance)
    if cat.limit is not None and entries and last >= cat.limit:
        raise CatalogFormatError(
            f"record {last} is not below the header limit {cat.limit}"
        )
    return cat

