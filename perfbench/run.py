#!/usr/bin/env python3
"""Benchmark of the carmichael CLI on the paper's tables and deep searches.

Run from the repository root:

    python3 perfbench/run.py --workload paper-1e11 --seed 1 --seconds 40 --trace 0

Each workload drives `carmichael.cli.main` in this process, exactly as a
user's command line would, and checks every result against values pinned
here.  With `--trace 0` it repeats the workload until `--seconds` are
spent and reports the end-to-end metrics (medians over repetitions).
With `--trace 1` it runs the workload once untraced and once with the
per-layer tracer of `tracer.py`, checks the tracer's invariants and
reports the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
status is 0 only when every check passed.  NOTES.md says why each
workload exists and which end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
from tracer import PACKAGE, Tracer  # noqa: E402

SETUP_SAMPLES = 5

# The paper's C(X) at X = 10**3 .. 10**11, and C(d, 10**8).
PAPER_COUNTS = {
    10**3: 1, 10**4: 7, 10**5: 16, 10**6: 43, 10**7: 105, 10**8: 255,
    10**9: 646, 10**10: 1547, 10**11: 3605,
}
PAPER_COUNTS_BY_D = {10**8: {3: 84, 4: 144, 5: 27}}
# Smallest Carmichael number with exactly D prime factors.
SMALLEST = {
    13: 1791562810662585767521,
    14: 87674969936234821377601,
    15: 6553130926752006031481761,
    16: 1590231231043178376951698401,
    17: 35237869211718889547310642241,
}


@dataclass(frozen=True)
class Workload:
    """One benchmark input.  `limit` set: enumerate then stats; else smallest."""

    name: str
    limit: int = 0
    jobs: int = 1
    counts: dict = field(default_factory=dict)
    counts_by_d: dict = field(default_factory=dict)
    smallest: dict = field(default_factory=dict)

    def checks_per_pass(self) -> int:
        per_d = sum(map(len, self.counts_by_d.values()))
        return len(self.counts) + per_d + len(self.smallest) + bool(self.limit)

    def setup_args(self) -> tuple[int, int]:
        """Arguments of the first table build the workload triggers."""
        if self.limit:
            return self.limit, 3
        d = min(self.smallest)
        return 2 * _odd_prime_product(d), d


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-1e11", 10**11, 1, PAPER_COUNTS, PAPER_COUNTS_BY_D),
        Workload("paper-1e11-j2", 10**11, 2, PAPER_COUNTS, PAPER_COUNTS_BY_D),
        Workload("smallest-deep", smallest=SMALLEST),
    )
}


def _is_prime_small(p: int) -> bool:
    if p < 2 or p % 2 == 0:
        return p == 2
    return all(p % q for q in range(3, int(p**0.5) + 1, 2))


def _odd_prime_product(count: int) -> int:
    product, p = 1, 3
    while count:
        if _is_prime_small(p):
            product *= p
            count -= 1
        p += 2
    return product


def _korselt_ok(n: int, factors: list[int]) -> bool:
    """Independent check of a reported Carmichael number and its factors."""
    product = 1
    for p in factors:
        product *= p
    return (
        product == n
        and len(factors) >= 3
        and factors == sorted(set(factors))
        and all(p % 2 and (n - 1) % (p - 1) == 0 for p in factors)
    )


# ---------------------------------------------------------------------------
# Running one repetition of a workload.


class Checks:
    """Tally of pinned values checked; every mismatch is a failed op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)


def fresh_cli():
    """Import the package anew, so no cache survives from a previous pass."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(f"{PACKAGE}.cli")


def _call(cli, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"carmichael {' '.join(argv)} exited {rc}: {err.getvalue()}")
    return out.getvalue()


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    outputs: dict  # what identity checks compare: catalog digest, values


def _cpu_now() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_pass(wl: Workload, rng: random.Random, workdir: Path, checks: Checks,
             tracer: Tracer | None = None) -> Pass:
    """One repetition: timed CLI calls, then checks of every result."""
    cli = fresh_cli()
    if tracer is not None:
        tracer.install()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    gc.collect()
    if wl.limit:
        catalog, tables = workdir / "catalog.txt", workdir / "tables"
        cpu0, t0 = _cpu_now(), time.perf_counter()
        _call(cli, ["enumerate", "--limit", str(wl.limit), "--jobs", str(wl.jobs),
                    "--out", str(catalog)])
        _call(cli, ["stats", "--input", str(catalog), "--out-dir", str(tables)])
        wall, cpu = time.perf_counter() - t0, _cpu_now() - cpu0
        outputs = _check_paper(wl, catalog, tables, rng, checks)
    else:
        order = sorted(wl.smallest)
        rng.shuffle(order)
        printed = {}
        cpu0, t0 = _cpu_now(), time.perf_counter()
        for d in order:
            printed[d] = _call(cli, ["smallest", "--factors", str(d), "--jobs", "1"])
        wall, cpu = time.perf_counter() - t0, _cpu_now() - cpu0
        outputs = _check_smallest(wl, printed, checks)
    return Pass(wall, cpu, outputs)


def _check_paper(wl, catalog: Path, tables: Path, rng, checks: Checks) -> dict:
    with open(tables / "counts.csv", newline="") as fh:
        counts = {int(r["checkpoint"]): int(r["count"]) for r in csv.DictReader(fh)}
    for x, c in wl.counts.items():
        checks.check(counts.get(x) == c, f"C({x}) = {counts.get(x)}, expected {c}")
    with open(tables / "counts_by_d.csv", newline="") as fh:
        by_d = {int(r["checkpoint"]): r for r in csv.DictReader(fh)}
    for x, expected in wl.counts_by_d.items():
        for d, c in expected.items():
            got = by_d.get(x, {}).get(f"d{d}")
            checks.check(got == str(c), f"C({d}, {x}) = {got}, expected {c}")
    data = catalog.read_bytes()
    records = [line.split() for line in data.decode().splitlines()
               if line and not line.startswith("#")]
    sample = rng.sample(records, min(64, len(records)))
    checks.check(
        all(_korselt_ok(int(r[0]), [int(p) for p in r[1:]])
            and all(_is_prime_small(int(p)) for p in r[1:]) for r in sample),
        "sampled catalog records are Carmichael numbers with prime factors",
    )
    return {"catalog_sha256": hashlib.sha256(data).hexdigest()}


def _check_smallest(wl, printed: dict, checks: Checks) -> dict:
    values = {}
    for d, text in sorted(printed.items()):
        fields = [int(tok) for tok in text.split()]
        value, factors = (fields[0], fields[1:]) if fields else (None, [])
        values[d] = value
        checks.check(
            value == wl.smallest[d] and len(factors) == d
            and _korselt_ok(value, factors),
            f"smallest with {d} factors = {value}, expected {wl.smallest[d]}",
        )
    return {"values": values}


# ---------------------------------------------------------------------------
# Cross-run records: identity checks between workloads of one program.


def _program_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_recorded(key: str, value, checks: Checks) -> None:
    """Compare with what an earlier run of the same program recorded.

    The first run to reach `key` records it; every later run, of any
    workload, must agree.  Records are keyed by a digest of the sources,
    so two versions of the program never compare with each other.
    """
    path = WORK / f"records-{_program_digest()}.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    if key in records:
        checks.check(records[key] == value,
                     f"{key}: {value} here, {records[key]} in an earlier run")
        return
    records[key] = value
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Set-up time and memory.


_SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
import carmichael.cli, carmichael.enumerator as e
tables = getattr(e, "_Tables", None)
if tables is not None:
    tables.for_limit(int(sys.argv[1]), int(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def measure_setup(wl: Workload) -> list[float]:
    """Import plus first table build, each in a fresh interpreter."""
    limit, d_min = wl.setup_args()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_SCRIPT, str(limit), str(d_min)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def peak_rss_mib() -> float:
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024


# ---------------------------------------------------------------------------
# The two kinds of run.


def run_untraced(wl: Workload, seed: int, seconds: float, workdir: Path,
                 checks: Checks) -> dict:
    setup = measure_setup(wl)
    rng = random.Random(seed)
    passes: list[Pass] = []
    durations: list[float] = []
    start = time.perf_counter()
    # Start another repetition only while it is expected to end in time.
    while not passes or (time.perf_counter() - start
                         + statistics.median(durations)) <= seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(wl, rng, workdir, checks))
        durations.append(time.perf_counter() - t0)
    for i, p in enumerate(passes):
        for key, value in p.outputs.items():
            if key == "catalog_sha256":
                check_recorded(f"{key}:{wl.limit}", value, checks)
            elif i:
                checks.check(value == passes[0].outputs[key], f"{key} repeats")
    print(f"perfbench: {wl.name}: {len(passes)} passes, wall "
          f"{[round(p.wall_s, 3) for p in passes]}, setup "
          f"{[round(s, 3) for s in setup]}", file=sys.stderr)
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def run_traced(wl: Workload, seed: int, workdir: Path, checks: Checks) -> dict:
    plain = run_pass(wl, random.Random(seed), workdir, checks)
    tracer = Tracer(workdir.parent / (workdir.name + "-spool"))
    traced = run_pass(wl, random.Random(seed), workdir, checks, tracer)
    shutil.rmtree(tracer.spool, ignore_errors=True)
    if tracer.absent:
        print(f"perfbench: seams absent, their metrics omitted: "
              f"{', '.join(tracer.absent)}", file=sys.stderr)
    metrics = tracer.metrics()
    checks.check(traced.outputs == plain.outputs,
                 "traced outputs are identical to untraced outputs")
    if "enumerator.emitted" in metrics:
        emitted = metrics["enumerator.emitted"][0]
        entries = tracer.counts.get("enumerator.catalog_entries")
        checks.check(emitted == entries,
                     f"emitted {emitted} equals catalog entries {entries}")
    if wl.limit:
        for key in ("enumerator.leaves", "enumerator.emitted"):
            if key in metrics:
                check_recorded(f"{key}:{wl.limit}", metrics[key][0], checks)
    metrics["trace_overhead"] = (traced.wall_s / plain.wall_s, "ratio")
    print(f"perfbench: {wl.name}: untraced {plain.wall_s:.3f} s, "
          f"traced {traced.wall_s:.3f} s", file=sys.stderr)
    return metrics


def main(argv: list[str] | None = None, workloads: dict = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"perfbench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    wl = workloads[args.workload]
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    checks = Checks()
    metrics: dict = {}
    try:
        if args.trace:
            metrics = run_traced(wl, args.seed, workdir, checks)
        else:
            metrics = run_untraced(wl, args.seed, args.seconds, workdir, checks)
    except Exception:
        traceback.print_exc()
        # A crash fails every op of the pass it interrupted, and the run.
        checks.attempted += wl.checks_per_pass()
        checks.failed += wl.checks_per_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
