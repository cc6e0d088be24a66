#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.json B.json``.

*A* is the base (the parent commit), *B* the candidate; both are files that
``run.py --out`` appended one or more runs to.  One row per (metric,
workload): both medians, the ratio B/A with its base, the run-to-run spread
(the wider of the two sides' interquartile distances as a share of its
median) and, for the end-to-end metrics, the bound from ``BENCHMARK.json``
and a verdict:

* ``unresolved`` — the spread exceeds the bound, so the runs cannot tell;
* ``regressed`` / ``improved`` — B's median is worse / better than A's by
  more than the bound;
* ``unchanged`` — otherwise.

Per-layer metrics have no bound and get no verdict.  The bounds in
``BENCHMARK.json`` are the ones the benchmark driver applies across
*different* seeds; a metric that is exact at a fixed seed
(``wal_bytes_per_update``) is held to a bound of 0 when both sides ran one
and the same seed.  Exit code 1 on any regression or when B failed a higher
share of its operations than A.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

#: Counts that repeat exactly at a fixed seed: bound 0 in a same-seed comparison.
EXACT_AT_A_SEED = ("wal_bytes_per_update",)


def load_runs(path):
    """``{(workload, metric): [values]}``, units, failed share, ``{workload: seeds}``."""
    with open(path, "r", encoding="utf-8") as stream:
        results = json.load(stream)["results"]
    values = defaultdict(list)
    units = {}
    seeds = defaultdict(set)
    attempted = failed = 0
    for result in results:
        seeds[result["workload"]].add(result["seed"])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values[(result["workload"], name)].append(metric["value"])
            units[name] = metric["unit"]
    return values, units, failed / attempted if attempted else 0.0, seeds


def spread(values):
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(median)


def verdict(base, candidate, better, bound, noise):
    """improved / unchanged / regressed / unresolved for one row."""
    if noise > bound:
        return "unresolved"
    worse = (candidate - base) / abs(base) if base else 0.0
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    """Print the comparison table; 1 on a regression or more failures."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as stream:
        benchmark = json.load(stream)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    base_values, units, base_failures, base_seeds = load_runs(argv[0])
    candidate_values, _, candidate_failures, candidate_seeds = load_runs(argv[1])
    regressed = False
    print(
        f"{'workload':16s} {'metric':28s} {'A median':>14s} {'B median':>14s} "
        f"{'B/A':>8s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for key in sorted(base_values, key=lambda k: (k[0], k[1] not in bounds, k[1])):
        if key not in candidate_values:
            continue
        workload, name = key
        base = statistics.median(base_values[key])
        candidate = statistics.median(candidate_values[key])
        noise = max(spread(base_values[key]), spread(candidate_values[key]))
        ratio = f"{candidate / base:7.3f}x" if base else "     n/a"
        if name in bounds:
            better, bound = bounds[name]
            same_seed = base_seeds[workload] == candidate_seeds[workload]
            if name in EXACT_AT_A_SEED and same_seed and len(base_seeds[workload]) == 1:
                bound = 0.0
            outcome = verdict(base, candidate, better, bound, noise)
            regressed = regressed or outcome == "regressed"
            bound_text = f"{100 * bound:5.1f}%"
        else:
            outcome, bound_text = "-", "     -"
        print(
            f"{workload:16s} {name:28s} {base:14.4f} {candidate:14.4f} "
            f"{ratio} {100 * noise:6.1f}% {bound_text}  {outcome} "
            f"(base {base:.4g} {units[name]}, n={len(base_values[key])}/{len(candidate_values[key])})"
        )
    print(
        f"failed share of operations: A {100 * base_failures:.4f}%  "
        f"B {100 * candidate_failures:.4f}%"
    )
    if candidate_failures > base_failures:
        print("B fails a higher share of its operations than A")
        return 1
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
