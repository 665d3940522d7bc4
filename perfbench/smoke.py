#!/usr/bin/env python3
"""Fast self-test of the benchmark runner, at small bounds.

Run from the repository root:

    python3 perfbench/smoke.py

It runs small copies of the three workloads (10**7 on one and two
workers, D = 6..8) untraced and traced.  It requires every check to
pass, the metrics and units BENCHMARK.json declares, and equal leaf and
emission counts from the tracer on one and two workers.  Then it plants
one wrong pinned value in each kind of workload, and one bound the CLI
rejects, and requires the runner to report failed ops and exit non-zero.  Takes about 20 s.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import run

COUNTS_1E7 = {10**3: 1, 10**4: 7, 10**5: 16, 10**6: 43, 10**7: 105}
COUNTS_BY_D_1E6 = {10**6: {3: 23, 4: 19, 5: 1}}
SMALLEST_6_8 = {6: 321197185, 7: 5394826801, 8: 232250619601}

SMALL = {
    w.name: w
    for w in (
        run.Workload("paper-1e7", 10**7, 1, COUNTS_1E7, COUNTS_BY_D_1E6),
        run.Workload("paper-1e7-j2", 10**7, 2, COUNTS_1E7, COUNTS_BY_D_1E6),
        run.Workload("smallest-6-8", smallest=SMALLEST_6_8),
    )
}
WRONG = {
    "paper-1e7-wrong": replace(SMALL["paper-1e7"], name="paper-1e7-wrong",
                               counts={**COUNTS_1E7, 10**7: 106}),
    "smallest-wrong": replace(SMALL["smallest-6-8"], name="smallest-wrong",
                              smallest={**SMALLEST_6_8, 7: 5394826802}),
    # The CLI rejects this bound, so the pass crashes.
    "paper-crash": replace(SMALL["paper-1e7"], name="paper-crash", limit=1),
}


def invoke(workloads: dict, name: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                       "--trace", str(trace)], workloads)
    return rc, json.loads(out.getvalue().splitlines()[-1])


def main() -> int:
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    declared = {trace: {m["name"]: m["unit"] for m in spec[group]}
                for trace, group in ((0, "end_to_end"), (1, "per_layer"))}
    problems = []
    traced = {}
    for name in SMALL:
        for trace in (0, 1):
            rc, result = invoke(SMALL, name, trace)
            if rc != 0 or result["failed"] or not result["attempted"]:
                problems.append(f"{name} trace={trace}: rc={rc} {result}")
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            if reported != declared[trace]:
                problems.append(f"{name} trace={trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(reported)}")
            if trace:
                traced[name] = result["metrics"]
    for key in ("enumerator.leaves", "enumerator.emitted"):
        one, two = (traced[n].get(key, {}).get("value")
                    for n in ("paper-1e7", "paper-1e7-j2"))
        if one is None or one != two:
            problems.append(f"{key}: {one} on one worker, {two} on two")
    if not traced["paper-1e7-j2"].get("enumerator.batches", {}).get("value"):
        problems.append("no worker batches traced on two workers")
    for name in WRONG:
        for trace in (0, 1):
            rc, result = invoke(WRONG, name, trace)
            if rc == 0 or result["failed"] < 1 or result["correct"]:
                problems.append(f"{name} trace={trace}: failure not reported")
    for line in problems:
        print(f"smoke: FAIL {line}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
