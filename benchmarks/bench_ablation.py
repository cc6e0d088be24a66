"""Ablation benchmarks for the design choices called out in DESIGN.md.

Three ablations, each isolating one mechanism of the paper's algorithms:

* **resume versus recompute** — the value of re-using the valid part of an
  expansion tree (IMA's core idea) measured directly on the search engine:
  a resumed search with pre-verified nodes and complete candidates versus a
  fresh Figure-2 search;
* **barrier truncation** — the value of stopping GMA's per-query expansion
  at the monitored active nodes instead of expanding the whole region;
* **influence filtering** — the value of the influence lists: how many of a
  timestamp's object updates actually intersect some query's influence
  region (the rest are ignored by IMA/GMA but still paid for by OVH).
"""

from __future__ import annotations

import random

import pytest

from repro.core.search import expand_knn
from repro.experiments.config import SCALED_DEFAULTS
from repro.network.graph import NetworkLocation
from repro.sim.simulator import Simulator


@pytest.fixture(scope="module")
def scenario():
    config = SCALED_DEFAULTS.with_overrides(timestamps=1)
    simulator = Simulator(config)
    rng = random.Random(7)
    edges = list(simulator.network.edge_ids())
    queries = [NetworkLocation(rng.choice(edges), rng.random()) for _ in range(50)]
    return simulator, config, queries


def test_ablation_fresh_search(benchmark, scenario):
    """Baseline: recompute a query from scratch (what OVH does every timestamp)."""
    simulator, config, queries = scenario
    cursor = {"i": 0}

    def run():
        location = queries[cursor["i"] % len(queries)]
        cursor["i"] += 1
        return expand_knn(
            simulator.network, simulator.edge_table, config.k, query_location=location
        )

    outcome = benchmark(run)
    assert outcome.neighbors


def test_ablation_resumed_search(benchmark, scenario):
    """IMA's resume: pre-verified tree + complete candidates + coverage radius."""
    simulator, config, queries = scenario
    prepared = []
    for location in queries:
        fresh = expand_knn(
            simulator.network, simulator.edge_table, config.k, query_location=location
        )
        prepared.append((location, fresh))
    cursor = {"i": 0}

    def run():
        location, fresh = prepared[cursor["i"] % len(prepared)]
        cursor["i"] += 1
        return expand_knn(
            simulator.network,
            simulator.edge_table,
            config.k,
            query_location=location,
            preverified=fresh.state.node_dist,
            preverified_parent=fresh.state.parent,
            candidates=fresh.neighbors,
            coverage_radius=fresh.radius,
        )

    outcome = benchmark(run)
    assert outcome.neighbors


def test_ablation_barrier_truncated_search(benchmark, scenario):
    """GMA's barrier-bounded evaluation using monitored intersection nodes."""
    simulator, config, queries = scenario
    network = simulator.network
    intersections = [n for n in network.node_ids() if network.degree(n) >= 3]
    rng = random.Random(13)
    barrier_nodes = rng.sample(intersections, min(40, len(intersections)))
    barriers = {
        node_id: expand_knn(
            network, simulator.edge_table, config.k, source_node=node_id
        ).neighbors
        for node_id in barrier_nodes
    }
    cursor = {"i": 0}

    def run():
        location = queries[cursor["i"] % len(queries)]
        cursor["i"] += 1
        return expand_knn(
            network,
            simulator.edge_table,
            config.k,
            query_location=location,
            barrier_candidates=barriers,
        )

    outcome = benchmark(run)
    assert outcome.neighbors


def test_ablation_influence_filtering_effect(benchmark, scenario):
    """How much algorithmic work the influence lists avoid in one timestamp.

    Runs one timestamp with IMA and reports (printed with ``-s``) the number
    of objects considered compared to OVH's recompute-everything approach.
    """
    simulator, config, _ = scenario
    monitors = simulator.build_monitors(["OVH", "IMA"])
    for name, monitor in monitors.items():
        for query_id, location in simulator.query_locations().items():
            monitor.register_query(query_id, location, config.k)
    from repro.core.events import apply_batch

    batch = simulator.generate_batch(0)
    apply_batch(simulator.network, simulator.edge_table, batch.normalized())

    def run():
        return monitors["IMA"].process_batch(batch)

    ima_report = benchmark.pedantic(run, rounds=1, iterations=1)
    ovh_work = monitors["OVH"].process_batch(batch).counters["objects_considered"]
    ima_work = ima_report.counters["objects_considered"]
    print(
        f"\nablation/influence-filtering: objects considered per timestamp "
        f"OVH={ovh_work} IMA={ima_work} "
        f"(saving {100.0 * (1 - ima_work / max(1, ovh_work)):.0f}%)"
    )
    assert ima_work <= ovh_work
