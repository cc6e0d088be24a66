#!/usr/bin/env python3
"""The service-path benchmark: one command, four workloads, verified outputs.

    python3 benchmarks/e2e/run.py --seed N [--workload W] [--seconds S]
                                  [--trace [0|1]] [--out F] [--workdir D]

For each workload the driver generates every input from ``--seed``, launches
a **real service subprocess** on them (``launch.py``), drives it over two
sockets through warm-up, a closed-loop phase, an open-loop phase at the
workload's fixed rate and a short tail, verifies the outputs against its
own mirror, then ``kill -9``\\ s the service and times its recovery.  It
prints every metric by name with its unit; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when any operation failed or any check mismatched and 2 when a
run had to be abandoned (the line is still printed, with the ledger so far).

Without ``--trace`` that line carries the end-to-end metrics (tracing off).
With ``--trace`` the same untraced pass is followed by a traced pass (closed
loop only) and the line carries the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: the program under test is missing: no {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from driver import (  # noqa: E402
    CHECKPOINT_CYCLE, Ops, RunAborted, ServiceProcess, Session, host_probe,
)

#: (name, unit, better, bound) — mirrored by BENCHMARK.json ``end_to_end``.
#: Only what repeats within its bound over ten different seeds is here; the
#: timed metrics of the issue do not on this host and lead ``PER_LAYER``.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("wal_bytes_per_update", "B", "lower", 0.01),
)

#: (name, unit, better) — mirrored by BENCHMARK.json ``per_layer``.
PER_LAYER = (
    ("updates_per_s", "1/s", "higher"),
    ("delta_p50_ms", "ms", "lower"),
    ("delta_p95_ms", "ms", "lower"),
    ("cpu_ms_per_tick", "ms", "lower"),
    ("recover_s", "s", "lower"),
    ("client.apply_rtt_ms", "ms", "lower"),
    ("client.verb_rtt_us", "us", "lower"),
    ("client.tick_rtt_ms", "ms", "lower"),
    ("client.delta_wait_ms", "ms", "lower"),
    ("client.results_rtt_ms", "ms", "lower"),
    ("client.codec_ms", "ms", "lower"),
    ("loadgen.send_lag_p95_ms", "ms", "lower"),
    ("loadgen.delta_p99_ms", "ms", "lower"),
    ("protocol.decode_ms", "ms", "lower"),
    ("protocol.encode_ms", "ms", "lower"),
    ("protocol.frames_in", "count", "lower"),
    ("protocol.bytes_in", "B", "lower"),
    ("protocol.bytes_out", "B", "lower"),
    ("protocol.delta_encode_ms", "ms", "lower"),
    ("protocol.delta_bytes", "B", "lower"),
    ("events.decode_ms", "ms", "lower"),
    ("events.encode_ms", "ms", "lower"),
    ("events.normalize_ms", "ms", "lower"),
    ("events.normalize_calls", "count", "lower"),
    ("events.apply_batch_ms", "ms", "lower"),
    ("server.ingest_ms", "ms", "lower"),
    ("server.results_ms", "ms", "lower"),
    ("spatial.snap_ms", "ms", "lower"),
    ("spatial.snaps", "count", "lower"),
    ("eventlog.append_ms", "ms", "lower"),
    ("eventlog.fsync_ms", "ms", "lower"),
    ("eventlog.fsyncs", "count", "lower"),
    ("eventlog.bytes", "B", "lower"),
    ("durable.checkpoint_ms", "ms", "lower"),
    ("durable.checkpoints", "count", "lower"),
    ("durable.checkpoint_bytes", "B", "lower"),
    ("server.snapshot_ms", "ms", "lower"),
    ("durable.recover_ms", "ms", "lower"),
    ("durable.replayed_ticks", "count", "lower"),
    ("monitor.process_ms", "ms", "lower"),
    ("monitor.changed_queries", "count", "lower"),
    ("kernel.expand_ms", "ms", "lower"),
    ("kernel.calls", "count", "lower"),
    ("kernel.searches", "count", "lower"),
    ("kernel.nodes_expanded", "count", "lower"),
    ("kernel.edges_scanned", "count", "lower"),
    ("kernel.heap_pushes", "count", "lower"),
    ("influence.flush_ms", "ms", "lower"),
    ("sharding.tick_ms", "ms", "lower"),
    ("sharding.shard_wall_max_ms", "ms", "lower"),
    ("sharding.shard_cpu_max_ms", "ms", "lower"),
    ("sharding.overhead_ms", "ms", "lower"),
    ("sharding.boundary_queries", "count", "lower"),
    ("sharding.divergent_queries", "count", "lower"),
    ("worker.peak_rss_mb", "MiB", "lower"),
    ("setup.import_ms", "ms", "lower"),
    ("setup.network_ms", "ms", "lower"),
    ("setup.load_ms", "ms", "lower"),
    ("setup.initial_results_ms", "ms", "lower"),
    ("setup.genesis_ckpt_ms", "ms", "lower"),
    ("host.probe_ms", "ms", "lower"),
    ("trace.tick_ms", "ms", "lower"),
    ("trace.coverage_pct", "%", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Ticks driven after the open loop so the kill lands mid checkpoint cycle:
#: recovery always restores a checkpoint and replays exactly this many.
TAIL_TICKS = 8
#: Set-ups and recoveries per run; the medians are what is reported.
SETUPS = 3
RECOVERIES = 3
#: Per-layer metrics that come from the untraced pass (the demoted end-to-end
#: candidates and the load generator's own), whatever ``--trace`` says.
UNTRACED_LAYER = (
    "updates_per_s", "delta_p50_ms", "delta_p95_ms", "cpu_ms_per_tick", "recover_s",
    "loadgen.send_lag_p95_ms", "loadgen.delta_p99_ms", "durable.checkpoint_bytes",
    "host.probe_ms",
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def percentile(values, percent: int):
    """The *percent*-th percentile of a sample, linearly interpolated."""
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def mean_ms(values):
    """Mean of a list of seconds, in ms (0 for an empty list)."""
    return 1e3 * sum(values) / len(values) if values else 0.0


def phase_counts(workload, seconds):
    """(warm, closed, open) tick counts of a ``--seconds`` long run.

    The workload's counts scale with ``seconds / RUN_SECONDS`` and round to
    whole checkpoint cycles, so the run length is the caller's to choose
    while every count stays a pure function of the arguments (the count
    metrics must repeat exactly at a fixed seed).
    """
    scale = seconds / workloads.RUN_SECONDS

    def cycles(ticks):
        return CHECKPOINT_CYCLE * max(1, round(ticks * scale / CHECKPOINT_CYCLE))

    return (
        cycles(workload.warm_ticks), cycles(workload.closed_ticks), cycles(workload.open_ticks)
    )


def recover(service, session_timestamp, fingerprint, ops, spans=None):
    """Relaunch on the same data dir; time relaunch -> first ``timestamp`` reply.

    The recovered clock must equal the pre-kill one and ``results()`` must
    be byte-identical to the pre-kill read (one operation each).
    """
    seconds, client, timestamp = service.start(spans=spans, verb="timestamp")
    ops.attempted += 2
    try:
        if timestamp != session_timestamp:
            ops.fail(f"recovered at timestamp {timestamp}, expected {session_timestamp}")
        if verify.results_fingerprint(client.results()) != fingerprint:
            ops.fail("results() after recovery is not byte-identical to the pre-kill read")
    except BaseException:
        client.close()
        raise
    return seconds, client


def untraced_pass(inputs, counts, run_dir, ops, setups, recoveries):
    """Tracing off: the end-to-end metrics and the ``UNTRACED_LAYER`` ones.

    Every value is as measured.  ``host.probe_ms`` says how fast the host
    was meanwhile (see :func:`driver.host_probe`); nothing is rescaled by it.
    """
    warm, closed, open_ = counts
    launches, relaunches = [], []
    for index in range(setups - 1):
        spare = ServiceProcess(inputs, run_dir / f"setup-{index}")
        try:
            seconds, client, _ = spare.start()
            launches.append(seconds)
            client.close()
        finally:
            spare.kill()
        shutil.rmtree(spare.run_dir, ignore_errors=True)
    service = ServiceProcess(inputs, run_dir / "service")
    try:
        seconds, feeder, _ = service.start()
        launches.append(seconds)
        session = Session(service, feeder, inputs, ops)
        try:
            session.drive(warm)
            probes = [host_probe()]
            cpu_before, wal_before = service.cpu_seconds(), service.wal_bytes()
            closed_stats = session.drive(closed)
            cpu_seconds = service.cpu_seconds() - cpu_before
            wal_bytes = service.wal_bytes() - wal_before
            session.verify_results()
            probes.append(host_probe())
            open_stats = session.drive(open_, period=inputs.workload.open_period_ms / 1e3)
            probes.append(host_probe())
            session.drive(TAIL_TICKS)
            fingerprint = verify.results_fingerprint(session.verify_results())
            peak_rss = service.peak_rss_bytes()
            checkpoint_bytes = service.newest_checkpoint_bytes()
        finally:
            session.close()
        client = None
        for _ in range(recoveries):
            if client is not None:
                client.close()
            service.kill()
            seconds, client = recover(service, session.expected_timestamp, fingerprint, ops)
            relaunches.append(seconds)
        ops.attempted += 1
        client.stop()
        client.close()
        service.wait_stopped()
    finally:
        service.kill()
    return {
        "setup_s": statistics.median(launches),
        "peak_rss_mb": peak_rss / 2**20,
        "wal_bytes_per_update": wal_bytes / closed_stats.updates,
        "updates_per_s": closed_stats.updates / closed_stats.wall,
        "delta_p50_ms": 1e3 * percentile(open_stats.latency, 50),
        "delta_p95_ms": 1e3 * percentile(open_stats.latency, 95),
        "cpu_ms_per_tick": 1e3 * cpu_seconds / closed,
        "recover_s": statistics.median(relaunches),
        "loadgen.send_lag_p95_ms": 1e3 * percentile(open_stats.send_lag, 95),
        "loadgen.delta_p99_ms": 1e3 * percentile(open_stats.latency, 99),
        "durable.checkpoint_bytes": checkpoint_bytes,
        "host.probe_ms": 1e3 * statistics.median(probes),
    }


class ClientCodecTimer:
    """Times the driver's own frame codec during the traced pass.

    The client half of every round trip (pickling requests, unpickling
    replies and deltas) runs in this process; without it the trace would
    leave that interval unexplained.
    """

    def __init__(self) -> None:
        from repro.service import protocol

        self.seconds = 0.0
        self._protocol = protocol
        self._originals = (protocol.encode_frame, protocol.decode_payload)
        protocol.encode_frame, protocol.decode_payload = map(self._timed, self._originals)

    def _timed(self, function):
        def timed(argument):
            began = time.perf_counter()
            try:
                return function(argument)
            finally:
                self.seconds += time.perf_counter() - began

        return timed

    def restore(self) -> None:
        """Unwrap the codec functions."""
        self._protocol.encode_frame, self._protocol.decode_payload = self._originals


def traced_pass(inputs, counts, run_dir, ops):
    """Tracing on: warm-up, closed loop, verify, SIGTERM (dump), recover."""
    warm, closed, _ = counts
    spans_path = str(run_dir / "spans.jsonl")
    recover_path = str(run_dir / "spans-recover.jsonl")
    service = ServiceProcess(inputs, run_dir / "traced", spans=spans_path)
    codec = ClientCodecTimer()
    try:
        _, feeder, _ = service.start()
        session = Session(service, feeder, inputs, ops)
        try:
            session.drive(warm)
            codec.seconds = 0.0
            closed_stats = session.drive(closed)
            codec_seconds = codec.seconds
            session.drive(TAIL_TICKS)
            fingerprint = verify.results_fingerprint(session.verify_results())
        finally:
            session.close()
        # SIGTERM is the traced stand-in for kill -9: the launcher dumps its
        # spans and dies on the spot, without a checkpoint or a close.
        service.kill(signal.SIGTERM)
        _, client = recover(
            service, session.expected_timestamp, fingerprint, ops, spans=recover_path
        )
        ops.attempted += 1
        client.stop()
        client.close()
        service.wait_stopped()
    finally:
        codec.restore()
        service.kill()
    spans, meta = tracing.load_spans(spans_path)
    recover_spans, _ = tracing.load_spans(recover_path)
    return closed_stats, codec_seconds, spans, meta, recover_spans


def layer_metrics(untraced, closed_stats, codec_seconds, spans, meta, recover_spans):
    """The per-layer table from the traced pass (values per tick unless noted)."""
    ticks = closed_stats.ticks
    first = closed_stats.first_timestamp
    stats = tracing.summarize(spans, first, first + ticks)
    setup = tracing.summarize(spans, -1, 0)
    recovery = tracing.summarize(recover_spans, -1, 0)

    def self_ms(*names):
        return 1e3 * stats.self_sum(names) / ticks

    def total_ms(name):
        return 1e3 * stats.total[name] / ticks

    def per_call_ms(name):
        return 1e3 * stats.total[name] / stats.calls[name] if stats.calls[name] else 0.0

    shard_ticks = [
        record[tracing.VALUE]
        for record in spans
        if record[tracing.NAME] == "sharding.tick"
        and first <= record[tracing.TICK] < first + ticks
    ]
    shard_wall = mean_ms([wall for wall, _ in shard_ticks])
    shard_cpu = mean_ms([cpu for _, cpu in shard_ticks])
    tick_ms = 1e3 * closed_stats.wall / ticks
    counters = closed_stats.counters
    worker_rss = meta.get("worker_peak_rss") or [0]
    return {
        **{name: untraced[name] for name in UNTRACED_LAYER},
        "client.apply_rtt_ms": mean_ms(closed_stats.apply_rtt),
        "client.verb_rtt_us": 1e3 * mean_ms(closed_stats.verb_rtt),
        "client.tick_rtt_ms": mean_ms(closed_stats.tick_rtt),
        "client.delta_wait_ms": mean_ms(closed_stats.delta_wait),
        "client.results_rtt_ms": mean_ms(closed_stats.results_rtt),
        "client.codec_ms": 1e3 * codec_seconds / ticks,
        "protocol.decode_ms": self_ms("protocol.decode"),
        "protocol.encode_ms": self_ms("protocol.encode"),
        "protocol.frames_in": stats.calls["protocol.decode"] / ticks,
        "protocol.bytes_in": stats.value["protocol.decode"] / ticks,
        "protocol.bytes_out": (
            stats.value["protocol.encode"] + stats.value["protocol.delta_encode"]
        ) / ticks,
        "protocol.delta_encode_ms": self_ms("protocol.delta_encode"),
        "protocol.delta_bytes": stats.value["protocol.delta_encode"] / ticks,
        "events.decode_ms": self_ms("events.decode"),
        "events.encode_ms": self_ms("events.encode"),
        "events.normalize_ms": self_ms("events.normalize"),
        "events.normalize_calls": stats.calls["events.normalize"] / ticks,
        "events.apply_batch_ms": self_ms("events.apply_batch"),
        "server.ingest_ms": self_ms("server.ingest"),
        "server.results_ms": self_ms("server.results"),
        "spatial.snap_ms": self_ms("spatial.snap"),
        "spatial.snaps": stats.calls["spatial.snap"] / ticks,
        "eventlog.append_ms": self_ms("eventlog.append"),
        "eventlog.fsync_ms": self_ms("eventlog.fsync"),
        "eventlog.fsyncs": stats.calls["eventlog.fsync"] / ticks,
        "eventlog.bytes": stats.value["eventlog.append"] / ticks,
        "durable.checkpoint_ms": per_call_ms("durable.checkpoint"),
        "durable.checkpoints": stats.calls["durable.checkpoint"],
        "server.snapshot_ms": per_call_ms("server.snapshot"),
        "durable.recover_ms": 1e3 * recovery.total["durable.recover"],
        "durable.replayed_ticks": recovery.value["durable.recover"],
        "monitor.process_ms": self_ms("monitor.process"),
        "monitor.changed_queries": closed_stats.changed_queries / ticks,
        "kernel.expand_ms": total_ms("kernel.expand"),
        "kernel.calls": stats.calls["kernel.expand"] / ticks,
        "kernel.searches": counters.get("searches", 0) / ticks,
        "kernel.nodes_expanded": counters.get("nodes_expanded", 0) / ticks,
        "kernel.edges_scanned": counters.get("edges_scanned", 0) / ticks,
        "kernel.heap_pushes": counters.get("heap_pushes", 0) / ticks,
        "influence.flush_ms": total_ms("influence.flush"),
        "sharding.tick_ms": total_ms("sharding.tick"),
        "sharding.shard_wall_max_ms": shard_wall,
        "sharding.shard_cpu_max_ms": shard_cpu,
        "sharding.overhead_ms": total_ms("sharding.tick") - shard_wall if shard_ticks else 0.0,
        "sharding.boundary_queries": meta.get("boundary_queries", 0),
        "sharding.divergent_queries": meta.get("divergent_queries", 0),
        "worker.peak_rss_mb": max(worker_rss) / 2**20,
        "setup.import_ms": 1e3 * setup.total["setup.import"],
        "setup.network_ms": 1e3 * setup.total["setup.network"],
        "setup.load_ms": 1e3 * setup.total["setup.load"],
        "setup.initial_results_ms": 1e3 * setup.total["setup.initial_results"],
        "setup.genesis_ckpt_ms": 1e3 * setup.total["setup.genesis_ckpt"],
        "trace.tick_ms": tick_ms,
        "trace.coverage_pct": 100.0
        * (stats.self_sum() + codec_seconds) / closed_stats.wall,
        "trace.overhead_pct": 100.0
        * (1.0 - closed_stats.updates / closed_stats.wall / untraced["updates_per_s"]),
    }


def run_workload(workload, seed, seconds, trace, workdir, ops, setups=SETUPS, recoveries=RECOVERIES):
    """Run one workload end to end; returns what it measured (see :func:`record`)."""
    counts = phase_counts(workload, seconds)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir))
    try:
        inputs = workloads.generate(workload, seed, str(run_dir), sum(counts) + TAIL_TICKS)
        if trace:
            untraced = untraced_pass(inputs, counts, run_dir, ops, setups=1, recoveries=1)
            values = layer_metrics(untraced, *traced_pass(inputs, counts, run_dir, ops))
        else:
            values = untraced_pass(inputs, counts, run_dir, ops, setups, recoveries)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in UNITS.items() if name in values
        },
        "ticks": dict(zip(("warm", "closed", "open"), counts), tail=TAIL_TICKS),
        "open_period_ms": workload.open_period_ms,
        "open_rate_per_s": 1e3 / workload.open_period_ms,
        "edges": inputs.edges,
    }


def record(workload, seed, seconds, trace, ops, measured) -> dict:
    """One run's result record: the operations ledger plus what was measured.

    ``metrics`` holds everything the run measured; the last line of stdout
    picks the names the mode calls for (:func:`summary_line`).  An aborted
    run has the ledger only.
    """
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "metrics": {},
        **measured,
    }


def environment(workdir) -> dict:
    """Where and on what the numbers were taken (for ``--out``)."""
    os.environ.setdefault("REPRO_NATIVE_CACHE", str(HERE / "_cache" / "native"))
    from repro.core.server import MonitoringServer
    from repro.network.builders import city_network
    from repro.network.kernels import DEFAULT_KERNEL
    from repro.network.native import native_available

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    filesystem = "unknown"
    best = -1
    target = str(pathlib.Path(workdir).resolve())
    with open("/proc/mounts", "r", encoding="utf-8") as stream:
        for line in stream:
            _, mount, kind = line.split()[:3]
            if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) > best:
                best, filesystem = len(mount), kind
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "native_available": native_available(),
        "default_kernel": DEFAULT_KERNEL,
        "default_algorithm": MonitoringServer(city_network(16, seed=0)).algorithm_name,
        "workdir_filesystem": filesystem,
        "latency_note": "latencies are this sandbox's (loopback sockets, page-cache "
        "backed fsync), not a device's",
    }


def print_table(result) -> None:
    """Every metric by name with its unit, plus the operations ledger."""
    sizing = (
        f"ticks={result['ticks']} period={result['open_period_ms']}ms"
        if result["metrics"] else "aborted"
    )
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} {sizing}")
    tick_ms = result["metrics"].get("trace.tick_ms", {}).get("value")
    bounded = {name for name, *_ in END_TO_END}
    for name, metric in result["metrics"].items():
        note = ""
        if tick_ms and metric["unit"] == "ms" and name.split(".")[0] not in (
            "setup", "trace", "loadgen", "durable", "sharding", "host"
        ) and "." in name and name != "server.snapshot_ms":
            note = f"  {100.0 * metric['value'] / tick_ms:5.1f}% of tick"
        elif not result["trace"] and name not in bounded:
            note = "  (per-layer: no bound)"
        print(f"{name:32s} {metric['value']:14.4f} {metric['unit']}{note}")
    print(
        f"operations attempted={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}"
    )
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def summary_line(results) -> dict:
    """The last line of stdout: correct / attempted / failed / metrics.

    The metrics are the end-to-end ones of an untraced run and the
    per-layer ones of a traced run.  One workload: by name.  Several:
    ``<workload>.<metric>``.
    """
    single = len(results) == 1
    metrics = {}
    for result in results:
        names = PER_LAYER if result["trace"] else END_TO_END
        for name, *_ in names:
            if name in result["metrics"]:
                key = name if single else f"{result['workload']}.{name}"
                metrics[key] = result["metrics"][name]
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def exit_code(results) -> int:
    """0 only when every operation of every workload succeeded."""
    return 0 if all(result["correct"] for result in results) else 1


def main(argv=None) -> int:
    """Parse arguments, run the workload(s), print, optionally record."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--workload", choices=sorted(workloads.WORKLOADS_BY_NAME), default=None,
        help="one workload (default: all four, one after another)",
    )
    parser.add_argument(
        "--seconds", type=float, default=workloads.RUN_SECONDS,
        help="run length the tick counts are scaled to (default: %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run the traced pass and report the per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizing (a tenth of each city, one cycle per phase, one set-up, "
        "one recovery): all four workloads in under 30 s; numbers mean nothing",
    )
    parser.add_argument("--out", default=None, help="append the full records to this JSON file")
    parser.add_argument(
        "--workdir", default=str(HERE / "_work"),
        help="scratch directory for inputs and service data (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(args.workdir, exist_ok=True)
    # A terminated driver must still run its finally blocks (kill the
    # service group, unlink shared memory, remove the run directory).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    selected = (
        [workloads.WORKLOADS_BY_NAME[args.workload]] if args.workload else list(workloads.WORKLOADS)
    )
    repeats = {"setups": 1, "recoveries": 1} if args.smoke else {}
    results = []
    aborted = False
    for workload in selected:
        if args.smoke:
            workload = workloads.smoke(workload)
        ops = Ops()
        try:
            measured = run_workload(
                workload, args.seed, args.seconds, args.trace, args.workdir, ops, **repeats
            )
        except RunAborted as exc:
            print(f"run.py: {workload.name} aborted: {exc}", file=sys.stderr)
            if not ops.failed:  # abandoned outside a counted operation (a launch)
                ops.attempted += 1
                ops.fail(f"aborted: {exc}")
            measured, aborted = {}, True
        results.append(record(workload, args.seed, args.seconds, args.trace, ops, measured))
        print_table(results[-1])
        if aborted:
            break
    if args.out:
        output = {"env": environment(args.workdir), "results": []}
        if os.path.exists(args.out):
            with open(args.out, "r", encoding="utf-8") as stream:
                output["results"] = json.load(stream)["results"]
        output["results"].extend(results)
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(output, stream, indent=1)
    print(json.dumps(summary_line(results)))
    return 2 if aborted else exit_code(results)


if __name__ == "__main__":
    raise SystemExit(main())
