"""Micro-benchmarks of the core operations (not tied to one paper figure).

These track the per-call cost of the operations every experiment is built
from: the one-shot k-NN expansion (Figure 2) on the flat-array CSR kernel, one
timestamp of each monitoring algorithm at the scaled default workload, the
batched server-ingestion path, the PMR-quadtree location step (single and
bulk), and the sequence decomposition.

Run with ``--quick`` (registered in the root conftest) to use the smoke
workload; the whole module then completes in well under a minute, which is
what the CI benchmark-smoke job relies on.
"""

from __future__ import annotations

import random

import pytest

from repro.core.events import apply_batch
from repro.core.search import expand_knn
from repro.experiments.config import SCALED_DEFAULTS, SMOKE_DEFAULTS
from repro.network.graph import NetworkLocation
from repro.network.sequences import SequenceTable
from repro.sim.simulator import Simulator
from repro.spatial.geometry import Point


@pytest.fixture(scope="module")
def bench_config(request):
    """The scaled defaults, or the smoke workload under ``--quick``."""
    base = SMOKE_DEFAULTS if request.config.getoption("--quick") else SCALED_DEFAULTS
    return base.with_overrides(timestamps=1)


@pytest.fixture(scope="module")
def prepared_simulation(bench_config):
    """One shared scenario for the micro-benchmarks."""
    return Simulator(bench_config), bench_config


def test_initial_knn_search(benchmark, prepared_simulation):
    """One Figure-2 expansion at the default k (CSR kernel)."""
    simulator, config = prepared_simulation
    rng = random.Random(0)
    edges = list(simulator.network.edge_ids())

    def search():
        location = NetworkLocation(rng.choice(edges), rng.random())
        return expand_knn(
            simulator.network, simulator.edge_table, config.k, query_location=location
        )

    outcome = benchmark(search)
    assert len(outcome.neighbors) == config.k


def test_batched_server_ingestion(benchmark, bench_config):
    """One timestamp ingested through apply_updates() + tick()."""
    simulator = Simulator(bench_config)
    server = simulator.make_server("ima")
    server.tick()  # install the queries / initial results
    batches = [simulator.generate_batch(timestamp) for timestamp in range(8)]
    cursor = {"index": 0}

    def ingest():
        batch = batches[cursor["index"] % len(batches)]
        cursor["index"] += 1
        server.apply_updates(batch)
        return server.tick()

    report = benchmark.pedantic(ingest, rounds=len(batches), iterations=1)
    assert report.timestamp >= 0


def test_quadtree_snap(benchmark, prepared_simulation):
    """Snapping raw coordinates to the containing edge via the PMR quadtree."""
    simulator, _ = prepared_simulation
    box = simulator.network.bounding_box()
    rng = random.Random(1)

    def snap():
        point = Point(rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y))
        return simulator.edge_table.snap_point(point)

    location = benchmark(snap)
    simulator.network.validate_location(location)


def test_quadtree_snap_bulk(benchmark, prepared_simulation):
    """Vectorized snapping of a whole update batch of coordinates."""
    simulator, _ = prepared_simulation
    box = simulator.network.bounding_box()
    rng = random.Random(2)
    points = [
        Point(rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y))
        for _ in range(512)
    ]

    locations = benchmark(simulator.edge_table.snap_points, points)
    assert len(locations) == len(points)
    for location in locations[:16]:
        simulator.network.validate_location(location)


def test_sequence_decomposition(benchmark, prepared_simulation):
    """Building the sequence table of the benchmark network."""
    simulator, _ = prepared_simulation
    table = benchmark(lambda: SequenceTable(simulator.network))
    assert table.is_partition()


@pytest.mark.parametrize("algorithm", ["OVH", "IMA", "GMA"])
def test_one_timestamp_processing(benchmark, algorithm, bench_config):
    """One update batch processed by each algorithm."""
    simulator = Simulator(bench_config)
    monitor = simulator.build_monitors([algorithm])[algorithm]
    for query_id, location in simulator.query_locations().items():
        monitor.register_query(query_id, location, bench_config.k)

    batches = []
    for timestamp in range(8):
        batch = simulator.generate_batch(timestamp)
        apply_batch(simulator.network, simulator.edge_table, batch.normalized())
        batches.append(batch)
    cursor = {"index": 0}

    def process():
        batch = batches[cursor["index"] % len(batches)]
        cursor["index"] += 1
        return monitor.process_batch(batch)

    report = benchmark.pedantic(process, rounds=len(batches), iterations=1)
    assert report.timestamp >= 0
