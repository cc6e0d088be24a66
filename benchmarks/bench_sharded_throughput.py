"""Sharded-server tick throughput: 1 shard vs 4 on a 256-query workload.

Drives the same seeded workload — 256 continuous k-NN queries, a deep
network, heavy query movement and edge storms — through a single-process
:class:`~repro.core.server.MonitoringServer` and a sharded one with four
shards — three worker processes plus the one the coordinator hosts — via
the batched ``apply_updates`` + ``tick`` pipeline.
Per-tick wall-clock goes through pytest-benchmark (the standard BENCH JSON
uploaded by CI via ``--benchmark-json``); the summary test prints a
``BENCH`` JSON line with both speedup figures:

* ``wall_speedup`` — end-to-end tick throughput ratio.  Only meaningful on
  a machine with at least as many idle cores as shards.
* ``cpu_speedup`` — single-process tick *CPU* time over the slowest
  shard's CPU time (:attr:`ShardedMonitoringServer.last_max_shard_cpu_seconds`),
  a like-for-like processor-time ratio immune to core contention.  It is
  the shard-compute critical path — an upper bound on the achievable wall
  speedup, since parent-side normalization and fan-out/merge are not part
  of the shard measurement.

The sharded runs come in two partitioning flavors: ``replica`` (every
shard holds the full network) and ``graph`` (each shard holds one
network region block plus its one-hop halo — see ``docs/sharding.md``).
Both sharded legs also record the peak RSS of each worker process
(:meth:`ShardedMonitoringServer.worker_peak_rss`; the coordinator's own
shard is not among them), and a dedicated
memory-footprint test sizes the comparison up to a 100K-edge city in full
mode, where per-worker RSS under graph partitioning must land below the
full-replica figure by the documented floor (``rss_ratio <=
SHARDED_BENCH_RSS_FLOOR``, default 0.85).  At the ``--quick`` sizing the
ratio is recorded but not asserted: the Python interpreter's ~20 MB
baseline dominates a 2K-edge network, so the block/halo saving disappears
into noise there — the honest reading of small-network RSS figures is
"no signal", not "no saving".

In full (non ``--quick``) mode the summary asserts the scaling floors:
``cpu_speedup >= 2.0`` for the replica leg and ``>= 1.5`` for the graph
leg (boundary-escalated queries move to the coordinator, so the shard
critical path shrinks but the like-for-like floor is kept slightly
looser), both hardware-independent so CI locks the properties in even on
small or co-tenanted runners.  Set ``SHARDED_BENCH_WALL=1`` on a machine
with dedicated cores to also assert ``wall_speedup >= 1.5``, or
``SHARDED_BENCH_STRICT=0`` to record without asserting at all.

Run with ``--quick`` for the CI smoke sizing.
"""

from __future__ import annotations

import json
import time
import os

import pytest

from repro.core.sharding import ShardedMonitoringServer
from repro.sim.simulator import Simulator
from repro.sim.workload import WorkloadConfig

#: The acceptance workload: 256 queries, expansion-heavy ticks.
FULL_CONFIG = WorkloadConfig(
    num_objects=1_500,
    num_queries=256,
    k=24,
    network_edges=6_000,
    edge_agility=0.15,
    object_agility=0.10,
    query_agility=0.50,
    timestamps=1,
    seed=20060912,
)

#: Sized for the CI benchmark-smoke job (< a few seconds per run).
QUICK_CONFIG = FULL_CONFIG.with_overrides(
    num_objects=600, num_queries=64, k=8, network_edges=1_200
)

#: The benchmarked legs: (workers, partitioning).  workers=1 is the plain
#: in-process server (the speedup numerator); the two 4-shard legs
#: compare full-replica sharding against graph-partitioned sharding.
LEGS = ((1, "replica"), (4, "replica"), (4, "graph"))

#: Benchmarked ticks per configuration.
TICKS = 4

#: Mean tick seconds (and shard CPU / worker RSS) per leg, for the summary.
_RESULTS: dict = {}


@pytest.fixture(scope="module")
def bench_config(request):
    return QUICK_CONFIG if request.config.getoption("--quick") else FULL_CONFIG


def _prepared_server(config, workers, partitioning):
    """A primed server (initial results computed) plus its update batches."""
    simulator = Simulator(config)
    server = simulator.make_server(
        "ima", workers=workers, partitioning=partitioning
    )
    server.tick()  # initial result computation is excluded, as in the paper
    batches = [simulator.generate_batch(timestamp) for timestamp in range(TICKS)]
    return server, batches


@pytest.mark.parametrize(
    "workers,partitioning", LEGS, ids=[f"{w}w-{p}" for w, p in LEGS]
)
def test_sharded_tick_throughput(benchmark, workers, partitioning, bench_config):
    """One tick (apply_updates + tick) per round, single vs sharded."""
    server, batches = _prepared_server(bench_config, workers, partitioning)
    cursor = {"index": 0}
    shard_cpu = []
    tick_cpu = []
    worker_rss = []

    def process():
        batch = batches[cursor["index"]]
        cursor["index"] += 1
        cpu_start = time.process_time()
        server.apply_updates(batch)
        report = server.tick()
        tick_cpu.append(time.process_time() - cpu_start)
        if isinstance(server, ShardedMonitoringServer):
            shard_cpu.append(server.last_max_shard_cpu_seconds)
        return report

    try:
        report = benchmark.pedantic(process, rounds=len(batches), iterations=1)
        assert report.timestamp == TICKS  # initial tick consumed timestamp 0
        if isinstance(server, ShardedMonitoringServer):
            worker_rss = server.worker_peak_rss()
    finally:
        server.close()

    mean_tick_seconds = benchmark.stats.stats.mean
    _RESULTS[(workers, partitioning)] = {
        "mean_tick_seconds": mean_tick_seconds,
        # Parent-process CPU per tick; for workers=1 this is the whole tick's
        # processor time, the like-for-like numerator of cpu_speedup.
        "mean_tick_cpu_seconds": sum(tick_cpu) / len(tick_cpu),
        "mean_max_shard_cpu_seconds": (
            sum(shard_cpu) / len(shard_cpu) if shard_cpu else None
        ),
        "max_worker_rss_mb": (
            round(max(worker_rss) / 2**20, 2) if worker_rss else None
        ),
    }
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["partitioning"] = partitioning
    benchmark.extra_info["queries"] = bench_config.num_queries
    benchmark.extra_info["ticks_per_second"] = (
        round(1.0 / mean_tick_seconds, 2) if mean_tick_seconds > 0 else None
    )
    if shard_cpu:
        benchmark.extra_info["max_shard_cpu_seconds"] = round(
            _RESULTS[(workers, partitioning)]["mean_max_shard_cpu_seconds"], 6
        )
    if worker_rss:
        benchmark.extra_info["max_worker_rss_mb"] = _RESULTS[
            (workers, partitioning)
        ]["max_worker_rss_mb"]


def test_sharded_speedup_summary(bench_config):
    """Aggregate the runs into speedup figures and enforce the floors."""
    missing = [leg for leg in LEGS if leg not in _RESULTS]
    if missing:
        pytest.skip(f"throughput runs missing for legs={missing} (ran with -k?)")
    single = _RESULTS[(1, "replica")]["mean_tick_seconds"]
    single_cpu = _RESULTS[(1, "replica")]["mean_tick_cpu_seconds"]
    replica = _RESULTS[(4, "replica")]
    graph = _RESULTS[(4, "graph")]
    wall_speedup = single / replica["mean_tick_seconds"]
    cpu_speedup = single_cpu / replica["mean_max_shard_cpu_seconds"]
    graph_wall_speedup = single / graph["mean_tick_seconds"]
    graph_cpu_speedup = single_cpu / graph["mean_max_shard_cpu_seconds"]
    cores = os.cpu_count() or 1
    record = {
        "benchmark": "sharded_tick_throughput",
        "queries": bench_config.num_queries,
        "workers": 4,
        "cores": cores,
        "single_tick_ms": round(single * 1000.0, 2),
        "single_tick_cpu_ms": round(single_cpu * 1000.0, 2),
        "sharded_tick_ms": round(replica["mean_tick_seconds"] * 1000.0, 2),
        "max_shard_cpu_ms": round(replica["mean_max_shard_cpu_seconds"] * 1000.0, 2),
        "wall_speedup": round(wall_speedup, 2),
        "cpu_speedup": round(cpu_speedup, 2),
        "graph_tick_ms": round(graph["mean_tick_seconds"] * 1000.0, 2),
        "graph_max_shard_cpu_ms": round(
            graph["mean_max_shard_cpu_seconds"] * 1000.0, 2
        ),
        "graph_wall_speedup": round(graph_wall_speedup, 2),
        "graph_cpu_speedup": round(graph_cpu_speedup, 2),
        # At this sizing the figures are informational (see the module
        # docstring); the asserted RSS comparison lives in
        # test_partitioned_memory_footprint at the 100K-edge sizing.
        "replica_max_worker_rss_mb": replica["max_worker_rss_mb"],
        "graph_max_worker_rss_mb": graph["max_worker_rss_mb"],
    }
    print(f"\nBENCH {json.dumps(record)}")
    if os.environ.get("SHARDED_BENCH_STRICT", "1") == "0":
        return
    if bench_config is QUICK_CONFIG:
        # The smoke sizing is IPC-bound by design; just prove sharding isn't
        # pathological there.
        assert cpu_speedup > 0.5, record
        assert graph_cpu_speedup > 0.3, record
    else:
        # The acceptance floors, hardware-independent so CI locks them in.
        assert cpu_speedup >= 2.0, record
        assert graph_cpu_speedup >= 1.5, record
        if cores >= 4 and os.environ.get("SHARDED_BENCH_WALL") == "1":
            # End-to-end check; opt-in because co-tenanted CI runners can
            # report 4 vCPUs while delivering far less, failing the wall
            # ratio for reasons unrelated to the commit under test.
            assert wall_speedup >= 1.5, record


# ----------------------------------------------------------------------
# memory footprint: block+halo workers vs full-replica workers
# ----------------------------------------------------------------------

#: Full-mode sizing of the memory comparison: the acceptance workload is a
#: 100K-edge city (network build alone takes ~2 minutes; it only runs in
#: the full benchmark job, never in the tier-1 suite).
FULL_RSS_EDGES = 100_000
#: Quick sizing — records the ratio without asserting (interpreter
#: baseline dominates; see the module docstring).
QUICK_RSS_EDGES = 2_000

#: The documented memory floor: a graph-partitioned worker's peak RSS must
#: be at most this fraction of a full-replica worker's on the 100K-edge
#: city.  Each of the 4 shards holds ~1/4 of the nodes plus a one-hop
#: halo instead of the whole network; the measured ratio is ≈0.41
#: (replica ≈327 MB vs graph ≈132 MB per worker), so 0.6 leaves ~50 %
#: headroom for interpreter-baseline drift while still failing long
#: before block extraction could regress to shipping full replicas.
RSS_FLOOR = float(os.environ.get("SHARDED_BENCH_RSS_FLOOR", "0.6"))


def _rss_leg(network, partitioning):
    """Max per-worker peak RSS after priming a 4-shard server.

    Three shards run in worker processes and are measured; the fourth
    lives in the coordinator, whose footprint also holds the full network.

    Spawned (not forked) workers: under ``fork`` every child inherits the
    parent's full memory image copy-on-write — including the parent's own
    copy of the 100K-edge network — so its resident size reads
    near-identical for both partitioning modes and says nothing about
    worker-owned state.  A spawned worker materializes exactly what was
    shipped to it, which is the quantity the block+halo layout exists to
    shrink.  (The worker reports ``VmHWM``, not ``ru_maxrss`` — the
    latter is per-task accounting that survives ``exec`` on Linux and
    would smuggle the parent's footprint into even a spawned worker's
    figure; see ``repro.core.worker._peak_rss_bytes``.)
    """
    from repro.core.server import MonitoringServer
    from repro.network.graph import NetworkLocation

    server = MonitoringServer(
        network,
        algorithm="ima",
        workers=4,
        partitioning=partitioning,
        start_method="spawn",
    )
    try:
        edge_ids = sorted(network.edge_ids())
        for object_id in range(256):
            server.add_object(
                object_id,
                NetworkLocation(
                    edge_ids[(object_id * 389) % len(edge_ids)], 0.5
                ),
            )
        for index in range(64):
            server.add_query(
                1_000_000 + index,
                NetworkLocation(edge_ids[(index * 1543) % len(edge_ids)], 0.25),
                k=8,
            )
        server.tick()
        return max(server.worker_peak_rss())
    finally:
        server.close()


def test_partitioned_memory_footprint(request):
    """Graph-partitioned workers must peak below full-replica workers.

    The memory-model acceptance check: identical 64-query workloads over
    the same city, once with full-replica workers and once with block+halo
    workers.  Peak RSS (``VmHWM`` of each spawned worker) includes the
    state-shipping spike, which is exactly the cost graph partitioning
    exists to shrink.
    """
    from repro.network.builders import city_network

    quick = request.config.getoption("--quick")
    edges = QUICK_RSS_EDGES if quick else FULL_RSS_EDGES
    network = city_network(edges, seed=20060912)
    replica_rss = _rss_leg(network.copy(), "replica")
    graph_rss = _rss_leg(network.copy(), "graph")
    record = {
        "benchmark": "partitioned_memory_footprint",
        "network_edges": edges,
        "workers": 4,
        "replica_max_worker_rss_mb": round(replica_rss / 2**20, 2),
        "graph_max_worker_rss_mb": round(graph_rss / 2**20, 2),
        "rss_ratio": round(graph_rss / replica_rss, 3) if replica_rss else None,
        "rss_floor": RSS_FLOOR,
    }
    print(f"\nBENCH {json.dumps(record)}")
    if quick or os.environ.get("SHARDED_BENCH_STRICT", "1") == "0":
        return  # recorded only: no signal at small sizings
    assert replica_rss > 0 and graph_rss > 0, record
    assert graph_rss <= replica_rss * RSS_FLOOR, record
