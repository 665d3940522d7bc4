"""Command-line front end.

Subcommands: enumerate, smallest, verify, stats, oracle.  All results go
to stdout in machine-parseable form; diagnostics and progress go to
stderr.  Exit status: 0 success, 1 verification failure (a number that
is not Carmichael, or one left unresolved because rho's step budget ran
out) or runtime error, 2 usage error.  Reruns with identical inputs
produce byte-identical outputs regardless of --jobs.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path

from . import __version__
from .catalog import (
    Catalog,
    CatalogFormatError,
    complete_provenance,
    open_text,
    read_catalog,
    write_catalog,
)
from .enumerator import (
    default_worker_count,
    enumerate_carmichael,
    max_factor_count,
)
from .extremal import smallest_with_factors
from .korselt import CarmichaelEntry, korselt_failure, oracle_enumerate
from .primes import FactoringBudgetExceeded, factorize
from .stats import (
    DEFAULT_MODULI,
    DEFAULT_PRIME_CAP,
    TABLE_NAMES,
    build_report,
    write_report,
)


def exact_int(text: str) -> int:
    """Parse '561', '1e12' or '2.5e10' to an exact integer."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value.is_finite():
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    # int(value) costs time quadratic in its digits, and Python will not
    # print more than this many anyway (4300 unless set; the limit came
    # with Python 3.10.7).
    digits = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    if 0 < digits <= value.adjusted():
        raise argparse.ArgumentTypeError(f"more than {digits} digits: {text!r}")
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def _int_list(text: str) -> list[int]:
    values = [exact_int(tok) for tok in text.split(",") if tok]
    if not values:
        raise argparse.ArgumentTypeError(f"no numbers in {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carmichael",
        description="Enumerate Carmichael numbers and reproduce their statistics.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="catalog all Carmichael numbers below a bound")
    p.add_argument("--limit", type=exact_int, required=True)
    p.add_argument("--min-factors", type=int, default=3)
    p.add_argument("--max-factors", type=int, default=None)
    p.add_argument("--jobs", type=int, default=default_worker_count())
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("smallest", help="smallest Carmichael number with d prime factors")
    p.add_argument("--factors", type=int, required=True, metavar="D")
    p.add_argument("--jobs", type=int, default=default_worker_count())

    p = sub.add_parser("verify", help="check numbers against Korselt's criterion")
    p.add_argument("numbers", nargs="*", type=exact_int, metavar="N")
    p.add_argument("--file", type=Path, help="file with one number per line")

    p = sub.add_parser("stats", help="compute distribution tables from a catalog")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--checkpoints", type=_int_list, default=None,
                   help="comma-separated bounds (default: decades plus 25e9)")
    p.add_argument("--tables", default="all",
                   help=f"comma-separated subset of {','.join(TABLE_NAMES)}")
    p.add_argument("--mod", type=_int_list, default=list(DEFAULT_MODULI),
                   help="moduli for residue tables")
    p.add_argument("--primes-up-to", type=int, default=DEFAULT_PRIME_CAP)
    p.add_argument("--out-dir", type=Path, required=True)

    p = sub.add_parser("oracle", help="brute-force enumeration (small bounds only)")
    p.add_argument("--limit", type=exact_int, required=True)
    p.add_argument("--out", type=Path, default=None)
    return parser


def _progress_printer(label: str):
    if not sys.stderr.isatty():
        return None
    state = {"last": -1}

    def report(done: int, total: int) -> None:
        pct = 100 * done // max(total, 1)
        if pct != state["last"]:
            state["last"] = pct
            print(f"\r{label}: {pct}%", end="", file=sys.stderr, flush=True)
            if done == total:
                print(file=sys.stderr)

    return report


def _cmd_enumerate(args) -> int:
    # Refused before the search, which can take hours, not after it.
    if not args.out.parent.is_dir():
        raise OSError(f"no directory {args.out.parent} to write {args.out} in")
    if args.out.is_dir():
        raise OSError(f"{args.out} is a directory, not a catalog file")
    cat = enumerate_carmichael(args.limit, args.min_factors, args.max_factors,
                               args.jobs, _progress_printer("enumerate"))
    write_catalog(cat, args.out)
    print(f"count={len(cat)} limit={args.limit}")
    return 0


def _cmd_smallest(args) -> int:
    entry = smallest_with_factors(args.factors, worker_count=args.jobs)
    note = _bpsw_note(entry)
    if note:
        print(note, file=sys.stderr)
    print(entry)
    return 0


def _bpsw_note(entry: CarmichaelEntry) -> str | None:
    """The caveat a printed entry needs, or None when it needs none.

    `is_prime` proves primality below 2**64 and rests on Baillie-PSW above
    it.  BPSW never rejects a prime, so the search misses no Carmichael
    number and minimality holds either way; only a printed factor at or
    above 2**64 is not proven prime.
    """
    big = [p for p in entry.factors if p >= 1 << 64]
    if not big:
        return None
    return (f"note: factors {', '.join(map(str, big))} are at or above 2**64 "
            f"and BPSW-verified, not proven prime")


def _cmd_verify(args) -> int:
    numbers = list(args.numbers)
    if args.file:
        with open_text(args.file) as fh:
            for i, line in enumerate(fh, 1):
                line = line.strip()
                if line and not line.startswith("#"):
                    try:
                        numbers.append(exact_int(line.split()[0]))
                    except argparse.ArgumentTypeError as exc:
                        raise ValueError(f"{args.file}:{i}: {exc}") from None
    if not numbers:
        raise ValueError("no numbers given")
    all_ok = True
    for n in numbers:
        if n < 2:
            print(f"{n} not-carmichael (smaller than 2)")
            all_ok = False
            continue
        if n % 2 == 0:
            # Every Carmichael number is odd: no need to factor n.
            print(f"{n} not-carmichael (even)")
            all_ok = False
            continue
        if pow(2, n - 1, n) != 1:
            # A Carmichael number passes every base coprime to it, so a
            # failing base proves the answer without factoring n.
            print(f"{n} not-carmichael (Fermat witness 2)")
            all_ok = False
            continue
        try:
            f = factorize(n)
        except FactoringBudgetExceeded as exc:
            print(f"{n} unresolved ({exc})")
            all_ok = False
            continue
        reason = korselt_failure(n, f)
        if reason is None:
            print(f"{n} carmichael")
        else:
            shown = "·".join(
                str(p) if e == 1 else f"{p}^{e}" for p, e in f.factors
            )
            print(f"{n} not-carmichael ({reason}: {shown})")
            all_ok = False
    return 0 if all_ok else 1


def _cmd_stats(args) -> int:
    try:
        cat = read_catalog(args.input)
    except CatalogFormatError as exc:
        raise CatalogFormatError(f"{args.input}: {exc}") from None
    tables = TABLE_NAMES if args.tables == "all" else tuple(args.tables.split(","))
    report = build_report(
        cat,
        args.checkpoints,
        moduli=tuple(args.mod),
        prime_cap=args.primes_up_to,
        tables=tables,
    )
    report.check_consistency()
    written = write_report(report, args.out_dir)
    for path in written:
        print(path)
    return 0


def _cmd_oracle(args) -> int:
    entries = oracle_enumerate(args.limit)
    if args.out:
        header = complete_provenance(
            args.limit, 3, max_factor_count(args.limit), len(entries))
        write_catalog(Catalog(entries, header), args.out)
    print(f"count={len(entries)}")
    return 0


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "smallest": _cmd_smallest,
    "verify": _cmd_verify,
    "stats": _cmd_stats,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, CatalogFormatError) as exc:
        print(f"carmichael {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"carmichael {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
