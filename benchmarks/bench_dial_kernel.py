"""Dial (bucket-queue) settle engine vs the CSR heap settle engine.

Both kernels run the one collect-then-flush monitor path and differ only
inside ``expand_knn_batch``, so the ratio recorded here compares the two
*engines*.  It is ~1.0x on the full resume-heavy stream (csr 841 ms, dial
860 ms on the recording host) and is recorded, not asserted.

Two workloads, both driving :class:`~repro.core.ima.ImaMonitor` through
identical update streams on each kernel:

* **resume-heavy** — the acceptance workload: a deep 6K-edge network,
  sparse data objects and k=32 (expansion trees hundreds of nodes deep),
  with half of the non-query edges changing weight every tick.  Every tick
  is dominated by incremental maintenance: per-query tree pruning, resumed
  expansions and influence refreshes.
* **dense default** — the scaled Table-2 defaults with the simulator's
  mixed update stream; the speedup is recorded for trend tracking, not
  asserted (fresh searches dominate there, where both kernels do the same
  expansion work).

Each comparison applies a batch to the shared state, then times
``process_batch`` only (apply time excluded), takes the per-kernel median
of several full stream runs, and prints a ``BENCH`` JSON line; the tracked
pytest-benchmark entry is one dial-kernel tick, so ``check_bench.py``
guards the absolute number.  Set ``DIAL_BENCH_STRICT=0`` to record without
the sanity assertion.  Run with ``--quick`` for the CI smoke sizing.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

import pytest

from repro.core.events import EdgeWeightUpdate, apply_batch, UpdateBatch
from repro.core.ima import ImaMonitor
from repro.experiments.config import SCALED_DEFAULTS, SMOKE_DEFAULTS
from repro.sim.simulator import Simulator
from repro.sim.workload import WorkloadConfig

#: The acceptance workload: deep trees (sparse objects, high k — the paper
#: sweeps k up to 200) under a storm that touches half the network per tick.
FULL_CONFIG = WorkloadConfig(
    num_objects=1_000,
    num_queries=200,
    k=48,
    network_edges=6_000,
    edge_agility=0.15,
    object_agility=0.10,
    query_agility=0.0,
    timestamps=1,
    seed=20060912,
)

#: Sized for the CI benchmark-smoke job.
QUICK_CONFIG = FULL_CONFIG.with_overrides(
    num_objects=250, num_queries=60, k=12, network_edges=1_500
)

#: Ticks per stream run and stream runs per kernel (medians over runs).
TICKS = 4
RUNS_FULL = 5
RUNS_QUICK = 3

#: Fraction of the non-query edges whose weight changes per tick.
STORM_FRACTION = 0.5


@pytest.fixture(scope="module")
def bench_config(request):
    return QUICK_CONFIG if request.config.getoption("--quick") else FULL_CONFIG


def _storm_setup(config, kernel, seed=1, ticks=TICKS):
    """An IMA monitor plus a deterministic per-tick edge-storm stream.

    Edges carrying a query are never updated, so affected queries take the
    incremental path (collect/prune/resume/influence-refresh) rather than a
    full recompute; batches are applied right before the tick that
    processes them so every timed tick resumes against a changed network.
    """
    simulator = Simulator(config)
    monitor = ImaMonitor(simulator.network, simulator.edge_table, kernel=kernel)
    for query_id, location in simulator.query_locations().items():
        monitor.register_query(query_id, location, config.k)
    rng = random.Random(seed)
    query_edges = {loc.edge_id for loc in simulator.query_locations().values()}
    free_edges = [e for e in simulator.network.edge_ids() if e not in query_edges]
    weights = {e: simulator.network.edge(e).weight for e in free_edges}
    batches = []
    for timestamp in range(ticks):
        batch = UpdateBatch(timestamp=timestamp)
        for edge_id in rng.sample(free_edges, int(len(free_edges) * STORM_FRACTION)):
            weight = weights[edge_id]
            factor = 1.15 if rng.random() < 0.5 else 0.87
            weights[edge_id] = weight * factor
            batch.edge_updates.append(
                EdgeWeightUpdate(edge_id, weight, weight * factor)
            )
        batches.append(batch)
    return simulator, monitor, batches


def _run_storm_stream(config, kernel):
    """Total process_batch seconds over one storm stream (apply excluded)."""
    simulator, monitor, batches = _storm_setup(config, kernel)
    processing = 0.0
    for batch in batches:
        apply_batch(simulator.network, simulator.edge_table, batch.normalized())
        start = time.perf_counter()
        monitor.process_batch(batch)
        processing += time.perf_counter() - start
    return processing


def test_dial_resume_heavy_speedup(benchmark, bench_config):
    """Resume-heavy storm ticks: dial engine vs csr engine, same monitor path.

    The dial run is tracked by pytest-benchmark (and therefore by the
    committed baseline through scripts/check_bench.py); the ratio to the
    csr kernel on the identical stream lands in ``extra_info`` and the
    printed BENCH line.
    """
    runs = RUNS_QUICK if bench_config is QUICK_CONFIG else RUNS_FULL
    _run_storm_stream(bench_config, "csr")  # warm caches for both kernels
    _run_storm_stream(bench_config, "dial")
    csr_seconds = statistics.median(
        _run_storm_stream(bench_config, "csr") for _ in range(runs)
    )
    dial_seconds = statistics.median(
        _run_storm_stream(bench_config, "dial") for _ in range(runs)
    )
    speedup = csr_seconds / dial_seconds

    simulator, monitor, batches = _storm_setup(bench_config, "dial")
    cursor = {"index": 0}

    def one_tick():
        batch = batches[cursor["index"]]
        cursor["index"] += 1
        apply_batch(simulator.network, simulator.edge_table, batch.normalized())
        return monitor.process_batch(batch)

    benchmark.pedantic(one_tick, rounds=len(batches), iterations=1)
    benchmark.extra_info["csr_seconds"] = round(csr_seconds, 4)
    benchmark.extra_info["dial_seconds"] = round(dial_seconds, 4)
    benchmark.extra_info["dial_speedup"] = round(speedup, 3)
    record = {
        "benchmark": "dial_kernel_resume_heavy",
        "queries": bench_config.num_queries,
        "k": bench_config.k,
        "network_edges": bench_config.network_edges,
        "storm_fraction": STORM_FRACTION,
        "ticks": TICKS,
        "runs": runs,
        "csr_ms": round(csr_seconds * 1000.0, 2),
        "dial_ms": round(dial_seconds * 1000.0, 2),
        "speedup": round(speedup, 3),
    }
    print(f"\nBENCH {json.dumps(record)}")
    if os.environ.get("DIAL_BENCH_STRICT", "1") == "0":
        return
    # Both kernels share the monitor path; just prove the bucket engine is
    # not pathological next to the heap engine.
    assert speedup > 0.6, record


def test_dial_dense_default_speedup(bench_config):
    """Dense-default mixed stream: recorded for the BENCH trajectory only."""
    config = (
        SMOKE_DEFAULTS if bench_config is QUICK_CONFIG else SCALED_DEFAULTS
    ).with_overrides(timestamps=1)

    def run(kernel):
        simulator = Simulator(config)
        monitor = ImaMonitor(simulator.network, simulator.edge_table, kernel=kernel)
        for query_id, location in simulator.query_locations().items():
            monitor.register_query(query_id, location, config.k)
        batches = [simulator.generate_batch(timestamp) for timestamp in range(8)]
        processing = 0.0
        for batch in batches:
            apply_batch(simulator.network, simulator.edge_table, batch.normalized())
            start = time.perf_counter()
            monitor.process_batch(batch)
            processing += time.perf_counter() - start
        return processing

    run("csr")
    run("dial")
    csr_seconds = statistics.median(run("csr") for _ in range(3))
    dial_seconds = statistics.median(run("dial") for _ in range(3))
    record = {
        "benchmark": "dial_kernel_dense_default",
        "csr_ms": round(csr_seconds * 1000.0, 2),
        "dial_ms": round(dial_seconds * 1000.0, 2),
        "speedup": round(csr_seconds / dial_seconds, 3),
    }
    print(f"\nBENCH {json.dumps(record)}")
    # Loose sanity floor only: fresh expansions dominate this stream and the
    # two kernels do identical algorithmic work there.
    assert csr_seconds / dial_seconds > 0.5, record
