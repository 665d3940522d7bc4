"""Per-layer tracing of the carmichael package, from outside it.

`Tracer.install` replaces module-level functions (and two class
attributes) of a freshly imported `carmichael` package with timing
wrappers.  Every module that imported a name by `from ... import` gets
the wrapper too, so `enumerator.is_prime` is traced as well as
`primes.is_prime`.  A seam that a later refactor removed is recorded in
`Tracer.absent` and skipped; the metrics that need it are then omitted.

Each wrapper counts calls and accumulates inclusive and child time, so a
span's self time is its inclusive time minus that of the traced spans it
called.  Fork-pool workers inherit the wrappers; each batch a worker runs
(`_worker_run`) writes its counter deltas and its start and end times to
a small JSON file, and the parent merges those files when
`enumerate_carmichael` returns.  `time.perf_counter` reads the
system-wide monotonic clock on Linux, so the times of different
processes compare.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

PACKAGE = "carmichael"

# (defining module, attribute path, span key).  An attribute path with a
# dot names a method or classmethod on a class of that module.
SEAMS = (
    ("primes", "smallest_factor_table", "primes.spf_table"),
    ("primes", "is_prime", "primes.is_prime"),
    ("primes", "factorize", "primes.factorize"),
    ("arith", "invmod", "arith.invmod"),
    ("arith", "iroot", "arith.iroot"),
    ("enumerator", "_Tables.for_limit", "enumerator.tables"),
    ("enumerator", "_seed_tasks", "enumerator.seed"),
    ("enumerator", "_descend", "enumerator.node"),
    ("enumerator", "_complete_final", "enumerator.leaf"),
    ("enumerator", "_bounded_divisors", "enumerator.divisors"),
    ("enumerator", "_run_task_impl", "enumerator.task"),
    ("enumerator", "_worker_run", "enumerator.batch"),
    ("enumerator", "enumerate_carmichael", "enumerator.enumerate"),
    ("korselt", "CarmichaelEntry.validate", "korselt.validate"),
    ("catalog", "write_catalog", "catalog.write"),
    ("catalog", "read_catalog", "catalog.read"),
    ("stats", "build_report", "stats.build"),
    ("stats", "write_report", "stats.write"),
    ("extremal", "smallest_with_factors", "extremal.smallest"),
)

# Spans that call no traced function get a cheaper wrapper that keeps no
# frame; the hottest of them run once per search leaf.
LEAF_SPANS = frozenset(
    ("primes.spf_table", "primes.is_prime", "arith.invmod", "arith.iroot")
)

_NS = 1e-9


class Tracer:
    """Span statistics for one traced run, kept in memory."""

    def __init__(self, spool: Path):
        self.spool = spool  # where fork-pool workers leave batch records
        self.parent_pid = os.getpid()
        # key -> [calls, inclusive ns, ns inside traced child spans]
        self.spans: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.batches: list[dict] = []  # per worker batch: pid, start, end
        self.merge_ns = 0
        self.tail_ns = 0
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [key, child ns]
        self._last_task_end = 0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every seam of the currently imported package."""
        self.spool.mkdir(parents=True, exist_ok=True)
        hooks = {
            "enumerator.seed": self._after_seed,
            "enumerator.divisors": self._after_divisors,
            "enumerator.task": self._after_task,
            "enumerator.enumerate": self._after_enumerate,
            "catalog.write": self._after_write,
        }
        for module_name, path, key in SEAMS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            if key == "enumerator.batch":
                self._install_function(raw, self._wrap_batch(raw))
            elif isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(key, raw.__func__)))
            elif owner_name:
                setattr(owner, attr, self._wrap(key, raw))
            else:
                self._install_function(raw, self._wrap(key, raw, hooks.get(key)))

    def _install_function(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, key, fn, after=None):
        stat = self.spans.setdefault(key, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced_leaf(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                if stack:
                    stack[-1][1] += dt

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [key, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(result, args, t0, t0 + dt, parent)
            return result

        wrapper = traced_leaf if key in LEAF_SPANS and after is None else traced
        return functools.wraps(fn)(wrapper)

    def _wrap_batch(self, fn):
        """Worker-side wrapper: record one batch's deltas to the spool.

        Pool workers receive `_worker_run` by its module and qualified
        name, which `functools.wraps` keeps, so they run this wrapper.
        """
        inner = self._wrap("enumerator.batch", fn)

        @functools.wraps(fn)
        def traced_batch(batch):
            if os.getpid() == self.parent_pid:
                return inner(batch)
            spans0 = {k: list(v) for k, v in self.spans.items()}
            counts0 = dict(self.counts)
            start = time.perf_counter_ns()
            result = inner(batch)
            end = time.perf_counter_ns()
            record = {
                "pid": os.getpid(),
                "start": start,
                "end": end,
                "spans": {
                    k: [a - b for a, b in zip(v, spans0.get(k, (0, 0, 0)))]
                    for k, v in self.spans.items()
                },
                "counts": {
                    k: v - counts0.get(k, 0) for k, v in self.counts.items()
                },
            }
            tmp = self.spool / f".{os.getpid()}-{start}.tmp"
            tmp.write_text(json.dumps(record))
            os.replace(tmp, self.spool / f"{os.getpid()}-{start}.json")
            return result

        return traced_batch

    # -- hooks ----------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _after_seed(self, result, args, t0, t1, parent):
        self._count("enumerator.tasks", len(result))

    def _after_divisors(self, result, args, t0, t1, parent):
        if parent == "enumerator.leaf":
            self._count("enumerator.leaf_divisor_route")

    def _after_task(self, result, args, t0, t1, parent):
        self._count("enumerator.emitted", len(result))
        self._last_task_end = max(self._last_task_end, t1)

    def _after_write(self, result, args, t0, t1, parent):
        self._count("catalog.bytes", Path(args[1]).stat().st_size)

    def _after_enumerate(self, result, args, t0, t1, parent):
        self._count("enumerator.catalog_entries", len(result))
        if parent == "extremal.smallest":
            self._count("extremal.enumerations")
        records = self._collect_batches()
        last_end = max([self._last_task_end] + [r["end"] for r in records])
        if last_end >= t0:
            self.merge_ns += t1 - last_end
        if records:
            last_per_worker: dict[int, int] = {}
            for r in records:
                last_per_worker[r["pid"]] = max(
                    last_per_worker.get(r["pid"], 0), r["end"]
                )
            self.tail_ns += last_end - min(last_per_worker.values())
        self._last_task_end = 0

    def _collect_batches(self) -> list[dict]:
        records = []
        for path in sorted(self.spool.glob("*.json")):
            record = json.loads(path.read_text())
            path.unlink()
            for key, delta in record["spans"].items():
                stat = self.spans.setdefault(key, [0, 0, 0])
                for i, v in enumerate(delta):
                    stat[i] += v
            for key, delta in record["counts"].items():
                self._count(key, delta)
            records.append(record)
        self.batches += [
            {"pid": r["pid"], "start": r["start"], "end": r["end"]}
            for r in records
        ]
        return records

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics (value, unit); seams that are absent are omitted."""
        out: dict[str, tuple[float, str]] = {}
        spans, counts = self.spans, self.counts

        def inclusive_s(key, name):
            if key in spans:
                out[name] = (spans[key][1] * _NS, "s")

        for key in ("primes.spf_table", "primes.is_prime", "primes.factorize",
                    "arith.invmod", "arith.iroot", "korselt.validate"):
            if key in spans:
                out[f"{key}_calls"] = (spans[key][0], "count")
                inclusive_s(key, f"{key}_s")
        inclusive_s("enumerator.tables", "enumerator.tables_s")
        inclusive_s("enumerator.seed", "enumerator.seed_s")
        inclusive_s("enumerator.leaf", "enumerator.leaf_s")
        inclusive_s("catalog.write", "catalog.write_s")
        inclusive_s("catalog.read", "catalog.read_s")
        inclusive_s("stats.build", "stats.build_s")
        inclusive_s("stats.write", "stats.write_s")
        if "enumerator.seed" in spans:
            out["enumerator.tasks"] = (counts.get("enumerator.tasks", 0), "count")
        if "enumerator.node" in spans:
            calls, incl, child = spans["enumerator.node"]
            out["enumerator.nodes"] = (calls, "count")
            out["enumerator.interior_self_s"] = ((incl - child) * _NS, "s")
        if "enumerator.leaf" in spans:
            leaves = spans["enumerator.leaf"][0]
            out["enumerator.leaves"] = (leaves, "count")
            if "enumerator.divisors" in spans:
                out["enumerator.leaf_divisor_route"] = (
                    counts.get("enumerator.leaf_divisor_route", 0), "count")
        if "enumerator.task" in spans:
            emitted = counts.get("enumerator.emitted", 0)
            out["enumerator.emitted"] = (emitted, "count")
            if "enumerator.leaf" in spans:
                leaves = spans["enumerator.leaf"][0]
                out["enumerator.leaf_yield"] = (
                    emitted / leaves if leaves else 0.0, "ratio")
        if "enumerator.batch" in spans:
            out["enumerator.batches"] = (len(self.batches), "count")
            busy = sum(b["end"] - b["start"] for b in self.batches)
            out["enumerator.worker_busy_s"] = (busy * _NS, "s")
            out["enumerator.worker_tail_s"] = (self.tail_ns * _NS, "s")
        if "enumerator.enumerate" in spans and "enumerator.task" in spans:
            out["enumerator.merge_s"] = (self.merge_ns * _NS, "s")
        if "catalog.write" in spans:
            out["catalog.bytes"] = (counts.get("catalog.bytes", 0), "B")
        if "extremal.smallest" in spans and "enumerator.enumerate" in spans:
            calls = spans["extremal.smallest"][0]
            tried = counts.get("extremal.enumerations", 0)
            out["extremal.bounds_tried"] = (tried / calls if calls else 0.0, "count")
        return out
