"""City-scale tick latency and memory: 100K+ edges, 100K+ objects.

The scale leg of the ROADMAP "city-scale realism" item: a synthetic city
from :func:`repro.realism.synthetic_city_network` (so the full importer
pipeline is on the measured path), 100K+ moving objects, and a rush-hour
traffic stream (:class:`repro.realism.RushHourModel` — congestion waves,
incidents, a trickle of closures) driving both the ``csr`` and ``native``
kernels through the batched ``apply_updates`` + ``tick`` pipeline (the
``csr`` leg is the headline BENCH record; running several
independently-shaped benchmarks also gives ``check_bench.py``'s
median-ratio machine calibration enough points to catch a single-path
regression).

Per-tick wall-clock goes through pytest-benchmark as usual; on top of
that the summary test prints a ``BENCH`` JSON line recording

* ``p50_ms`` / ``p95_ms`` / ``p99_ms`` — tick-latency percentiles over the
  measured rounds (linear interpolation; with ~10 rounds the p99 is the
  max — recorded anyway so the methodology survives larger ``--rounds``
  reruns unchanged);
* ``peak_rss_mb`` — the process peak resident set
  (``getrusage(RUSAGE_SELF).ru_maxrss``), i.e. the true high-water mark
  including network construction and object load, not just steady state.

``--quick`` runs the ~20K-edge smoke sizing used by the CI ``scale-smoke``
job, which gates the medians against ``BENCH_city_baseline.json`` via
``check_bench.py --baseline`` and asserts ``peak_rss_mb`` under a ceiling
(override with ``CITY_BENCH_RSS_MB``; ``CITY_BENCH_STRICT=0`` records
without asserting).

Multi-core methodology (honest on a 1-core container): the sharded leg
only runs when ``CITY_BENCH_WORKERS=<n>`` is set.  It records
``wall_speedup`` plus the host's core count in the BENCH line, and only
*asserts* speedup when ``CITY_BENCH_WALL=1`` **and** the host actually has
>= n cores — on the 1-core CI runner the figure is recorded as the
methodology artifact it is, never enforced.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from dataclasses import dataclass

import pytest

from repro.core.events import UpdateBatch
from repro.core.server import MonitoringServer
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation
from repro.realism import RushHourModel, RushHourSpec, synthetic_city_network

#: Traffic for the benchmark: waves + incidents + a trickle of closures.
#: The refresh fraction is kept low so a tick carries ~2K weight updates at
#: the 100K sizing — a heavy but realistic sensor feed, not a full sweep.
TRAFFIC = RushHourSpec(
    ticks_per_day=48,
    incident_rate=2.0,
    closure_rate=0.2,
    closure_duration=(2, 5),
    congestion_update_fraction=0.02,
)


@dataclass(frozen=True)
class CityBenchConfig:
    """Sizing of one city-scale run."""

    target_edges: int
    num_objects: int
    num_queries: int
    k: int
    ticks: int
    move_fraction: float
    seed: int


#: The acceptance sizing: the ISSUE-8 100K+ edges / 100K+ objects run.
FULL_CONFIG = CityBenchConfig(
    target_edges=100_000,
    num_objects=100_000,
    num_queries=64,
    k=8,
    ticks=8,
    move_fraction=0.01,
    seed=20060912,
)

#: CI scale-smoke sizing (~20K edges, bounded job budget).
QUICK_CONFIG = CityBenchConfig(
    target_edges=20_000,
    num_objects=20_000,
    num_queries=32,
    k=8,
    ticks=5,
    move_fraction=0.01,
    seed=20060912,
)

#: Query ids start here (clear of object ids, as everywhere else).
QUERY_ID_BASE = 1_000_000

#: Tick wall times and run metadata, for the summary test.
_RESULTS: dict = {}


def _peak_rss_mb() -> float:
    """Process peak resident set in MiB (ru_maxrss is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _percentile(sorted_values, fraction):
    """Linear-interpolation percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    position = (len(sorted_values) - 1) * fraction
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = position - lower
    return sorted_values[lower] * (1.0 - weight) + sorted_values[upper] * weight


@pytest.fixture(scope="module")
def bench_config(request):
    return QUICK_CONFIG if request.config.getoption("--quick") else FULL_CONFIG


def test_city_import_throughput(benchmark, bench_config):
    """Generate + parse + import the synthetic city (the full ways pipeline)."""
    def build():
        return synthetic_city_network(bench_config.target_edges, seed=7)

    result = benchmark.pedantic(build, rounds=2, iterations=1)
    assert result.network.is_connected()
    benchmark.extra_info["edges"] = result.network.edge_count
    benchmark.extra_info["nodes"] = result.network.node_count


def _build_workload(config, kernel="csr", workers=None):
    """Server primed with objects/queries, plus pre-materialised batches."""
    imported = synthetic_city_network(config.target_edges, seed=config.seed)
    network = imported.network
    server = MonitoringServer(
        network,
        "ima",
        edge_table=EdgeTable(network, build_spatial_index=False),
        kernel=kernel,
        workers=workers,
    )
    rng = random.Random(f"city-bench/{config.seed}")
    edges = sorted(network.edge_ids())

    def draw_location():
        return NetworkLocation(rng.choice(edges), rng.random())

    objects = {object_id: draw_location() for object_id in range(config.num_objects)}
    for object_id, location in objects.items():
        server.add_object(object_id, location)
    for index in range(config.num_queries):
        server.add_query(QUERY_ID_BASE + index, draw_location(), k=config.k)

    # Pre-materialise every tick's batch so generation cost stays out of the
    # measured path: rush-hour traffic plus a 1% object-move stream.
    traffic = RushHourModel(
        network,
        spec=TRAFFIC,
        seed=config.seed,
        speed_classes=imported.speed_classes,
    )
    movers = max(1, int(config.num_objects * config.move_fraction))
    batches = []
    for timestamp in range(config.ticks):
        batch = UpdateBatch(timestamp=timestamp)
        batch.edge_updates.extend(traffic.tick(timestamp))
        for object_id in rng.sample(range(config.num_objects), movers):
            new_location = draw_location()
            batch.add_object_move(object_id, objects[object_id], new_location)
            objects[object_id] = new_location
        batches.append(batch)
    return server, batches


@pytest.mark.parametrize("kernel", ["csr", "native"])
def test_city_scale_tick_latency(benchmark, bench_config, kernel):
    """One rush-hour tick on the full-size city, percentiles recorded.

    Both kernels run so the CI baseline holds several independently-
    shaped benchmarks — ``check_bench.py`` self-calibrates on the median
    ratio across the module, which needs more than one data point to have
    teeth.  The ``native`` leg exercises the compiled settle loop at city
    scale (it transparently falls back to ``csr`` where the compiler is
    absent, so the leg always runs).
    """
    server, batches = _build_workload(bench_config, kernel=kernel)
    server.tick()  # initial result computation excluded, as in the paper
    cursor = {"index": 0}
    tick_seconds = []

    def process():
        batch = batches[cursor["index"]]
        cursor["index"] += 1
        started = time.perf_counter()
        server.apply_updates(batch)
        report = server.tick()
        tick_seconds.append(time.perf_counter() - started)
        return report

    try:
        report = benchmark.pedantic(process, rounds=len(batches), iterations=1)
        assert report.timestamp == bench_config.ticks
    finally:
        server.close()

    ordered = sorted(tick_seconds)
    _RESULTS[kernel] = {
        "config": bench_config,
        "edges": server.network.edge_count,
        "tick_seconds": tick_seconds,
        "p50_ms": _percentile(ordered, 0.50) * 1000.0,
        "p95_ms": _percentile(ordered, 0.95) * 1000.0,
        "p99_ms": _percentile(ordered, 0.99) * 1000.0,
    }
    benchmark.extra_info["edges"] = _RESULTS[kernel]["edges"]
    benchmark.extra_info["objects"] = bench_config.num_objects
    benchmark.extra_info["p95_ms"] = round(_RESULTS[kernel]["p95_ms"], 2)


def test_city_scale_sharded_wall_clock(benchmark, bench_config):
    """Opt-in multi-core leg: the same workload on a sharded server.

    Runs only with ``CITY_BENCH_WORKERS=<n>``; on a 1-core container the
    recorded wall figure will honestly show sharding overhead rather than
    speedup, which is exactly the methodology point.
    """
    workers_env = os.environ.get("CITY_BENCH_WORKERS")
    if not workers_env:
        pytest.skip("sharded leg is opt-in: set CITY_BENCH_WORKERS=<n>")
    workers = int(workers_env)
    server, batches = _build_workload(bench_config, workers=workers)
    server.tick()
    cursor = {"index": 0}
    tick_seconds = []

    def process():
        batch = batches[cursor["index"]]
        cursor["index"] += 1
        started = time.perf_counter()
        server.apply_updates(batch)
        report = server.tick()
        tick_seconds.append(time.perf_counter() - started)
        return report

    try:
        benchmark.pedantic(process, rounds=len(batches), iterations=1)
    finally:
        server.close()
    _RESULTS["sharded"] = {
        "workers": workers,
        "mean_tick_seconds": sum(tick_seconds) / len(tick_seconds),
    }


def test_city_scale_summary(bench_config):
    """Emit the BENCH record; enforce the RSS ceiling on the smoke sizing."""
    single = _RESULTS.get("csr")
    if single is None:
        pytest.skip("latency run missing (ran with -k?)")
    mean_tick = sum(single["tick_seconds"]) / len(single["tick_seconds"])
    peak_rss_mb = _peak_rss_mb()
    record = {
        "benchmark": "city_scale_tick",
        "edges": single["edges"],
        "objects": bench_config.num_objects,
        "queries": bench_config.num_queries,
        "k": bench_config.k,
        "kernel": "csr",
        "ticks": bench_config.ticks,
        "cores": os.cpu_count() or 1,
        "mean_tick_ms": round(mean_tick * 1000.0, 2),
        "p50_ms": round(single["p50_ms"], 2),
        "p95_ms": round(single["p95_ms"], 2),
        "p99_ms": round(single["p99_ms"], 2),
        "peak_rss_mb": round(peak_rss_mb, 1),
    }
    native = _RESULTS.get("native")
    if native is not None:
        native_mean = sum(native["tick_seconds"]) / len(native["tick_seconds"])
        record["native_mean_tick_ms"] = round(native_mean * 1000.0, 2)
    sharded = _RESULTS.get("sharded")
    if sharded is not None:
        wall_speedup = mean_tick / sharded["mean_tick_seconds"]
        record["workers"] = sharded["workers"]
        record["wall_speedup"] = round(wall_speedup, 2)
    print(f"\nBENCH {json.dumps(record)}")

    # Scale acceptance: the full sizing really is a 100K/100K run.
    if bench_config is FULL_CONFIG:
        assert record["edges"] >= 100_000, record
        assert record["objects"] >= 100_000, record

    if os.environ.get("CITY_BENCH_STRICT", "1") == "0":
        return
    # Memory-bounded: the smoke sizing must stay under a hard ceiling so a
    # memory regression (e.g. an accidental per-object copy of the network,
    # or a dict back on every node and edge) fails CI loudly.  Measured
    # 78.2-78.5 MiB on CPython 3.11 (2 vCPU, Linux); the ceiling is that
    # plus 15 %.
    if bench_config is QUICK_CONFIG:
        ceiling_mb = float(os.environ.get("CITY_BENCH_RSS_MB", "90"))
        assert peak_rss_mb < ceiling_mb, record
    # The sharded wall ratio is asserted only on real multi-core hosts and
    # only on request — see the module docstring.
    if (
        sharded is not None
        and os.environ.get("CITY_BENCH_WALL") == "1"
        and (os.cpu_count() or 1) >= sharded["workers"]
    ):
        assert record["wall_speedup"] >= 1.2, record
