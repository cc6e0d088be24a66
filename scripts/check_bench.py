#!/usr/bin/env python
"""Diff a fresh pytest-benchmark run against the committed baseline.

Usage::

    python -m pytest benchmarks/bench_core_operations.py ... --quick -q \
        --benchmark-json=benchmark-results.json
    python scripts/check_bench.py benchmark-results.json            # gate
    python scripts/check_bench.py benchmark-results.json --update   # refresh

The baseline (``BENCH_baseline.json`` at the repo root) stores the median
seconds of every benchmark in the CI smoke set.  Because absolute timings
differ wildly across machines, the gate is *self-calibrating*: it first
estimates a machine-speed factor as the median of ``current / baseline``
over all shared benchmarks — the smallest ratio when fewer than three are
shared, since the median of two is their mean and would absorb half of one
benchmark's regression — then fails any benchmark whose current median
exceeds its calibrated baseline by more than ``--tolerance`` (default 30%,
per-benchmark).  A uniform slowdown of the whole suite is absorbed by the
calibration — the gate catches *relative* regressions, which is the signal
that survives runner heterogeneity.  Sub-millisecond baselines get twice
the tolerance (their medians jitter more than the calibration can cancel).

On both pass and fail the gate renders a per-benchmark markdown diff table
— to stdout, and appended to ``$GITHUB_STEP_SUMMARY`` when that variable
is set (the GitHub Actions job summary), so a regression is diagnosable
from the run page without downloading artifacts.

Baseline-refresh procedure (run on any machine; calibration makes the
absolute scale irrelevant):

1. run the same pytest command the CI ``benchmark-smoke`` job runs, with
   ``--benchmark-json=benchmark-results.json``;
2. ``python scripts/check_bench.py benchmark-results.json --update``;
3. commit the rewritten ``BENCH_baseline.json`` together with the change
   that legitimately moved the numbers, and say so in the PR.

Exit status: 0 when every benchmark is within tolerance (improvements are
reported but never fail), 1 on any regression or set mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_baseline.json"

#: Baselines faster than this many seconds get doubled tolerance: their
#: medians carry more scheduler jitter than calibration can cancel.
SMALL_BENCH_SECONDS = 1e-3

#: Fewest shared benchmarks whose median calibrates the machine factor;
#: below it the smallest ratio does.
MEDIAN_CALIBRATION_MIN = 3


def load_medians(results_path: pathlib.Path) -> dict:
    """Map benchmark fullname -> median seconds from a pytest-benchmark JSON."""
    data = json.loads(results_path.read_text(encoding="utf-8"))
    medians = {}
    for bench in data.get("benchmarks", []):
        medians[bench["fullname"]] = float(bench["stats"]["median"])
    return medians


def write_baseline(baseline_path: pathlib.Path, medians: dict, source: str) -> None:
    """Rewrite the committed baseline from a fresh results file."""
    payload = {
        "meta": {
            "source": source,
            "note": (
                "median seconds per benchmark; compared self-calibrated "
                "(see scripts/check_bench.py)"
            ),
        },
        "benchmarks": {name: {"median": median} for name, median in sorted(medians.items())},
    }
    baseline_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def compare(medians: dict, baseline: dict, tolerance: float):
    """Diff *medians* against the baseline.

    Returns ``(failures, factor, rows)``: the number of failing
    benchmarks, the machine calibration factor (the median ``current /
    baseline`` ratio, or the smallest one when fewer than
    :data:`MEDIAN_CALIBRATION_MIN` benchmarks are shared; ``None`` when the
    runs share none), and one row dict per benchmark —
    ``{"name", "current_ms", "calibrated_ms", "delta", "verdict"}`` with
    the timing fields ``None`` for missing/extra entries.
    """
    base_medians = {
        name: float(entry["median"]) for name, entry in baseline["benchmarks"].items()
    }
    shared = sorted(set(medians) & set(base_medians))
    missing = sorted(set(base_medians) - set(medians))
    extra = sorted(set(medians) - set(base_medians))
    rows = []
    failures = 0

    if not shared:
        return 1, None, rows
    ratios = [medians[name] / base_medians[name] for name in shared]
    factor = (
        statistics.median(ratios) if len(ratios) >= MEDIAN_CALIBRATION_MIN else min(ratios)
    )

    for name in shared:
        allowed = tolerance * (2.0 if base_medians[name] < SMALL_BENCH_SECONDS else 1.0)
        calibrated = base_medians[name] * factor
        ratio = medians[name] / calibrated
        if ratio > 1.0 + allowed:
            failures += 1
            verdict = f"FAIL (> +{allowed:.0%})"
        elif ratio < 1.0 - allowed:
            verdict = "improved (consider --update)"
        else:
            verdict = "ok"
        rows.append(
            {
                "name": name,
                "current_ms": medians[name] * 1e3,
                "calibrated_ms": calibrated * 1e3,
                "delta": ratio - 1.0,
                "verdict": verdict,
            }
        )

    for name in missing:
        failures += 1
        rows.append(
            {
                "name": name,
                "current_ms": None,
                "calibrated_ms": float(base_medians[name]) * 1e3,
                "delta": None,
                "verdict": "FAIL missing from this run (baseline stale? run --update)",
            }
        )
    for name in extra:
        rows.append(
            {
                "name": name,
                "current_ms": medians[name] * 1e3,
                "calibrated_ms": None,
                "delta": None,
                "verdict": "new benchmark, not in baseline (run --update to adopt)",
            }
        )
    return failures, factor, rows


def _cell(value, fmt: str) -> str:
    """Format an optional numeric table cell."""
    return format(value, fmt) if value is not None else "—"


def render_markdown(factor, rows, failures: int, tolerance: float, baseline_name: str) -> str:
    """The per-benchmark diff as a GitHub-flavored markdown table."""
    status = "PASS" if failures == 0 else f"FAIL ({failures} benchmark(s))"
    lines = [
        f"### Benchmark gate: {status}",
        "",
        f"Self-calibrated against `{baseline_name}` "
        f"(machine factor {_cell(factor, '.3f')}, tolerance ±{tolerance:.0%} "
        f"per benchmark, doubled below {SMALL_BENCH_SECONDS * 1e3:g} ms).",
        "",
        "| benchmark | current (ms) | calibrated baseline (ms) | delta | verdict |",
        "|---|---:|---:|---:|---|",
    ]
    for row in rows:
        delta = f"{row['delta']:+.1%}" if row["delta"] is not None else "—"
        lines.append(
            f"| `{row['name']}` | {_cell(row['current_ms'], '.3f')} "
            f"| {_cell(row['calibrated_ms'], '.3f')} | {delta} | {row['verdict']} |"
        )
    if not rows:
        lines.append("| *(no benchmarks in common with the baseline)* | — | — | — | FAIL |")
    return "\n".join(lines)


def emit_report(markdown: str) -> None:
    """Print the markdown report and mirror it to the CI job summary."""
    print(markdown)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(markdown + "\n")


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=pathlib.Path, help="pytest-benchmark JSON output")
    parser.add_argument("--baseline", type=pathlib.Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed per-benchmark regression over the calibrated baseline",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from this results file instead of checking",
    )
    args = parser.parse_args(argv)

    medians = load_medians(args.results)
    if not medians:
        print(f"FAIL: no benchmarks found in {args.results}")
        return 1
    if args.update:
        write_baseline(args.baseline, medians, source=str(args.results))
        print(f"baseline rewritten: {args.baseline} ({len(medians)} benchmarks)")
        return 0
    if not args.baseline.exists():
        print(f"FAIL: baseline {args.baseline} missing; create it with --update")
        return 1
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    failures, factor, rows = compare(medians, baseline, args.tolerance)
    emit_report(render_markdown(factor, rows, failures, args.tolerance, args.baseline.name))
    if failures:
        print(
            f"{failures} benchmark(s) regressed beyond tolerance; if the change "
            "is intended, refresh the baseline with --update and commit it"
        )
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
