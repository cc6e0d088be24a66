"""The one monitor path: collect-then-flush.

One property of the tick that no other suite asserts directly: **tree
exactness** — after every tick, every node an IMA expansion tree retains
carries its true network distance from the query.  This is what the
docstring of ``ImaMonitor._flush_edge_prunes`` proves for the one-pass
prune (and what the resumed search relies on); result equality with the
oracle alone would not notice a stale-but-harmless tree node.  Each case
runs on every monitor path of ``tests/serving_paths.py``: processing in
place, on a checkpointed copy of the monitor, and from the batch record.
"""

from __future__ import annotations

import random

import pytest

from repro.core.events import EdgeWeightUpdate, UpdateBatch
from repro.core.ima import ImaMonitor
from repro.core.results import results_equal
from repro.network.builders import city_network
from repro.network.distance import (
    brute_force_knn,
    location_sources,
    multi_source_node_distances,
)
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation
from repro.testing import SCENARIO_PRESETS
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

from serving_paths import process_on_path


def _assert_trees_exact(monitor: ImaMonitor, network, tick: int) -> int:
    """Every retained ``(node, d)`` equals the true distance; returns the count."""
    checked = 0
    for query_id in sorted(monitor.query_ids()):
        try:
            state = monitor.expansion_state_of(query_id)
        except KeyError:
            continue  # aggregate queries keep no expansion tree
        exact = multi_source_node_distances(
            network, location_sources(network, monitor.query_location(query_id))
        )
        for node_id, distance in state.node_dist.items():
            assert distance == pytest.approx(exact[node_id], rel=1e-6, abs=1e-6), (
                f"t={tick} q={query_id} node={node_id}"
            )
            checked += 1
    return checked


@pytest.mark.parametrize("scenario", sorted(SCENARIO_PRESETS))
def test_expansion_trees_stay_exact_after_every_tick(scenario, monitor_path):
    seed = 1414
    network = city_network(120, seed=seed + 1)
    edge_table = EdgeTable(network, build_spatial_index=False)
    engine = ScenarioEngine(network, resolve_scenario(scenario), seed=seed)
    for object_id, location in engine.initial_objects().items():
        edge_table.insert_object(object_id, location)
    monitor = ImaMonitor(network, edge_table)
    for query_id, (location, k) in engine.initial_queries().items():
        monitor.register_query(query_id, location, k)
    checked = _assert_trees_exact(monitor, network, tick=-1)
    for batch in engine.batches(engine.spec.timestamps):
        monitor = process_on_path(monitor_path, network, edge_table, monitor, batch)
        checked += _assert_trees_exact(monitor, network, batch.timestamp)
    assert checked > 0


def test_expansion_trees_stay_exact_under_deep_weight_swings(monitor_path):
    """Large decreases (then the matching increases) on sparse, deep trees.

    The presets' weight storms are mild; here edges drop to 15-50 % of their
    weight, so nodes outside the shifted subtree really do get shorter paths
    and only the one-pass prune's threshold keeps the tree exact.
    """
    rng = random.Random(1416)
    network = city_network(200, seed=1416)
    edge_table = EdgeTable(network, build_spatial_index=False)
    edge_ids = sorted(network.edge_ids())
    for object_id in range(25):
        edge_table.insert_object(
            object_id, NetworkLocation(rng.choice(edge_ids), rng.random())
        )
    monitor = ImaMonitor(network, edge_table)
    for query_id in range(100, 108):
        monitor.register_query(
            query_id, NetworkLocation(rng.choice(edge_ids), rng.random()), 8
        )
    checked = 0
    for tick in range(12):
        batch = UpdateBatch(timestamp=tick)
        for edge_id in rng.sample(edge_ids, 12):
            weight = network.edge(edge_id).weight
            factor = rng.uniform(0.15, 0.5) if tick % 2 == 0 else rng.uniform(2.0, 6.0)
            batch.edge_updates.append(
                EdgeWeightUpdate(edge_id, weight, weight * factor)
            )
        monitor = process_on_path(monitor_path, network, edge_table, monitor, batch)
        checked += _assert_trees_exact(monitor, network, tick)
        for query_id in sorted(monitor.query_ids()):
            truth = brute_force_knn(
                network, edge_table, monitor.query_location(query_id), 8
            )
            assert results_equal(truth, list(monitor.result_of(query_id).neighbors))
    assert checked > 0
