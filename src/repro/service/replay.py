"""CLI entry point: ``python -m repro.service.replay``.

Feeds a captured service data directory (event log + genesis checkpoint)
into the oracle-backed differential harness
(:func:`repro.testing.run_differential_log`): every logged batch is
replayed against an independent oracle and the requested monitor panel,
and any divergence is printed.  Exit code 0 means the whole captured
workload replays clean.

Typical use::

    python -m repro.service.replay /tmp/svc
    python -m repro.service.replay /tmp/svc --algorithms IMA GMA --max-ticks 50
"""

from __future__ import annotations

import argparse

from repro.testing.harness import DEFAULT_ALGORITHMS, run_differential_log


def main(argv=None) -> int:
    """Replay a captured event log differentially; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.replay",
        description="Differentially replay a captured service event log.",
    )
    parser.add_argument("data_dir", help="service data directory to replay")
    parser.add_argument(
        "--algorithms",
        nargs="+",
        default=list(DEFAULT_ALGORITHMS),
        help=f"monitor panel to run (default: {' '.join(DEFAULT_ALGORITHMS)})",
    )
    parser.add_argument(
        "--max-ticks",
        type=int,
        default=None,
        help="replay at most this many logged batches",
    )
    args = parser.parse_args(argv)

    report = run_differential_log(
        args.data_dir,
        algorithms=tuple(args.algorithms),
        max_ticks=args.max_ticks,
    )
    print(
        f"replayed {report.timestamps} logged batches, "
        f"{report.checks} result checks, {len(report.mismatches)} mismatches"
    )
    if not report.ok:
        for line in report.mismatches[:20]:
            print(f"  {line}")
        if len(report.mismatches) > 20:
            print(f"  ... and {len(report.mismatches) - 20} more")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
