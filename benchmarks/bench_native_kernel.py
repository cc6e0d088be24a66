"""Compiled ``kernel="native"`` settle loop vs the ``csr`` heap engine.

The workload is a resume-heavy storm stream pushed to the deep end of the
paper's parameter space (k=192 of the k<=200 sweep on a 16K-edge network):
expansion trees thousands of nodes deep, where the per-settle interpreter
cost is what separates the engines.  An IMA monitor runs over sparse data
objects while half of the non-query edges change weight every tick, so
every tick is dominated by incremental maintenance: per-query tree
pruning, resumed expansions and influence refreshes.  The harness

1. **captures** the exact ``expand_knn_batch`` request batches the monitor
   issues while processing the storm stream (resume-heavy: hundreds of
   concurrent queries re-expanding against a changed network each tick),
   then
2. **replays** the identical batches through ``kernel="csr"`` and
   ``native_expand_batch``, interleaved A/B within one process, taking
   per-engine medians over several rounds.

Interleaving matters: on a noisy 1-core runner, consecutive same-engine
runs drift apart by more than the effect under test; alternating engines
round-by-round cancels the drift out of the ratio.  The native replay is
the pytest-benchmark-tracked entry (guarded by ``check_bench.py``); the
speedup lands in ``extra_info`` and the printed ``BENCH`` line.  Full
mode asserts the acceptance floor (median speedup over ``kernel="csr"``,
see :data:`FULL_FLOOR`); ``NATIVE_BENCH_STRICT=0`` records without
asserting.  Run with ``--quick`` for the CI smoke sizing (recorded, floor
relaxed to a sanity check — shallow trees leave little interpreter time
to delete).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

import pytest

from repro.core.events import EdgeWeightUpdate, UpdateBatch, apply_batch
from repro.core.ima import ImaMonitor
from repro.network.kernels import KERNEL_CSR
from repro.network.native import load_outcome_helper, native_available, native_expand_batch
from repro.sim.simulator import Simulator
from repro.sim.workload import WorkloadConfig
import repro.core.ima as ima_module
import repro.core.search as search_module

#: The acceptance workload: deep trees (sparse objects, the deep end of the
#: paper's k sweep) under a storm that touches half the network per tick.
NATIVE_FULL_CONFIG = WorkloadConfig(
    num_objects=1_000,
    num_queries=200,
    k=192,
    network_edges=16_000,
    edge_agility=0.15,
    object_agility=0.10,
    query_agility=0.0,
    timestamps=1,
    seed=20060912,
)

#: CI smoke sizing: same shape, shallow enough to finish in seconds.
NATIVE_QUICK_CONFIG = NATIVE_FULL_CONFIG.with_overrides(
    num_objects=400, num_queries=80, k=32, network_edges=2_000
)

#: Storm ticks per captured stream.
TICKS = 4

#: Fraction of the non-query edges whose weight changes per tick.
STORM_FRACTION = 0.5

#: Interleaved A/B rounds per engine (medians over rounds).
ROUNDS_FULL = 7
ROUNDS_QUICK = 3

#: Full-mode floor on the median csr/native replay ratio: measured 8.7x
#: (csr 7.62 s vs native 0.87 s, C-API helper loaded) on a 2-vCPU x86-64
#: VM under CPython 3.11; the floor keeps ~30% headroom for runner noise.
FULL_FLOOR = 6.0

#: Replay only the substantial tick batches; the per-query trickle calls
#: (initial registrations) measure dispatch overhead, not the settle loop.
MIN_BATCH_REQUESTS = 10


@pytest.fixture(scope="module")
def bench_config(request):
    return (
        NATIVE_QUICK_CONFIG
        if request.config.getoption("--quick")
        else NATIVE_FULL_CONFIG
    )


def _storm_setup(config, seed=1, ticks=TICKS):
    """An IMA monitor plus a deterministic per-tick edge-storm stream.

    Edges carrying a query are never updated, so affected queries take the
    incremental path (collect/prune/resume/influence-refresh) rather than a
    full recompute; batches are applied right before the tick that
    processes them so every tick resumes against a changed network.
    """
    simulator = Simulator(config)
    monitor = ImaMonitor(simulator.network, simulator.edge_table, kernel=KERNEL_CSR)
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


def _capture_tick_batches(config):
    """The (network, edge_table, requests) of every storm-tick batch call.

    Runs the storm stream once on the csr kernel with ``expand_knn_batch``
    instrumented, so the replay below times the engines on byte-identical,
    genuinely resume-heavy request streams — not on synthetic fresh
    searches.
    """
    captured = []
    original = search_module.expand_knn_batch

    def recording(network, edge_table, requests, *args, **kwargs):
        requests = list(requests)
        captured.append((network, edge_table, requests))
        return original(network, edge_table, requests, *args, **kwargs)

    simulator, monitor, batches = _storm_setup(config)
    search_module.expand_knn_batch = recording
    ima_module.expand_knn_batch = recording
    try:
        for batch in batches:
            apply_batch(simulator.network, simulator.edge_table, batch.normalized())
            monitor.process_batch(batch)
    finally:
        search_module.expand_knn_batch = original
        ima_module.expand_knn_batch = original
    ticks = [entry for entry in captured if len(entry[2]) >= MIN_BATCH_REQUESTS]
    assert ticks, "storm stream issued no batch expansions"
    return ticks


def _csr_expand_batch(network, edge_table, requests):
    return search_module.expand_knn_batch(
        network, edge_table, requests, kernel=KERNEL_CSR
    )


def _replay_seconds(engine, tick_batches):
    start = time.perf_counter()
    for network, edge_table, requests in tick_batches:
        engine(network, edge_table, list(requests))
    return time.perf_counter() - start


def test_native_resume_heavy_speedup(benchmark, bench_config):
    """Resume-heavy storm batches: compiled settle loop vs csr replay."""
    if not native_available():
        pytest.skip("compiled native backend unavailable on this machine")
    quick = bench_config is NATIVE_QUICK_CONFIG
    rounds = ROUNDS_QUICK if quick else ROUNDS_FULL
    tick_batches = _capture_tick_batches(bench_config)

    # Warm both engines (library load, column builds, allocator steady state).
    _replay_seconds(_csr_expand_batch, tick_batches)
    _replay_seconds(native_expand_batch, tick_batches)

    csr_runs, native_runs = [], []
    for _ in range(rounds):
        native_runs.append(_replay_seconds(native_expand_batch, tick_batches))
        csr_runs.append(_replay_seconds(_csr_expand_batch, tick_batches))
    csr_seconds = statistics.median(csr_runs)
    native_seconds = statistics.median(native_runs)
    speedup = csr_seconds / native_seconds

    benchmark.pedantic(
        _replay_seconds, args=(native_expand_batch, tick_batches),
        rounds=3, iterations=1,
    )
    benchmark.extra_info["csr_seconds"] = round(csr_seconds, 4)
    benchmark.extra_info["native_seconds"] = round(native_seconds, 4)
    benchmark.extra_info["native_speedup"] = round(speedup, 3)
    record = {
        "benchmark": "native_kernel_resume_heavy",
        "queries": bench_config.num_queries,
        "k": bench_config.k,
        "network_edges": bench_config.network_edges,
        "storm_fraction": STORM_FRACTION,
        "ticks": TICKS,
        "tick_batches": len(tick_batches),
        "requests": sum(len(requests) for _, _, requests in tick_batches),
        "rounds": rounds,
        "outcome_helper": load_outcome_helper() is not None,
        "csr_ms": round(csr_seconds * 1000.0, 2),
        "native_ms": round(native_seconds * 1000.0, 2),
        "speedup": round(speedup, 3),
    }
    print(f"\nBENCH {json.dumps(record)}")
    if os.environ.get("NATIVE_BENCH_STRICT", "1") == "0":
        return
    if quick:
        # Smoke sizing: shallow trees, little settle work to compile away;
        # just prove the native path is not pathological.
        assert speedup > 1.0, record
    else:
        # The acceptance floor on the deep resume-heavy workload.
        assert speedup >= FULL_FLOOR, record
