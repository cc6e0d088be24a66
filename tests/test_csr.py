"""Tests of the flat-array CSR kernel (:mod:`repro.network.csr`).

Three layers of coverage:

* **snapshot equivalence** — the CSR adjacency columns describe exactly the
  same traversable graph as :meth:`RoadNetwork.neighbors`;
* **one store** — the snapshot is the network's own column store:
  ``set_edge_weight`` writes it in place, and taking a snapshot freezes
  the network's topology;
* **differential testing** — the CSR-based :func:`expand_knn` agrees with
  the oracle's plain-Dijkstra brute force on seeded random networks, across
  fresh searches, source-node searches, exclusions, candidate seeding and
  resumed (pre-verified) searches.
"""

from __future__ import annotations

import random

import pytest

from repro.core.results import results_equal
from repro.core.search import expand_knn
from repro.exceptions import TopologyFrozenError
from repro.network.builders import city_network, grid_network
from repro.network.csr import CSRGraph, csr_snapshot
from repro.network.distance import (
    brute_force_object_distances,
    location_sources,
    multi_source_node_distances,
)
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork


def _adjacency_from_csr(csr: CSRGraph, node_id: int):
    """``{(edge_id, neighbor_id, weight)}`` reachable from *node_id*."""
    idx = csr.index_of_node(node_id)
    return {
        (edge_id, csr.node_ids[neighbor_idx], weight)
        for edge_id, neighbor_idx, weight in csr.neighbors_of_index(idx)
    }


class TestSnapshotEquivalence:
    def test_matches_network_adjacency(self, small_city):
        csr = csr_snapshot(small_city)
        assert csr.node_count == small_city.node_count
        assert csr.edge_count == small_city.edge_count
        for node_id in small_city.node_ids():
            expected = set(small_city.neighbors(node_id))
            assert _adjacency_from_csr(csr, node_id) == expected

    def test_oneway_edges_traversable_one_direction(self):
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        network.add_node(1, 100.0, 0.0)
        network.add_node(2, 200.0, 0.0)
        network.add_edge(0, 0, 1, oneway=True)
        network.add_edge(1, 1, 2)
        csr = csr_snapshot(network)
        assert _adjacency_from_csr(csr, 0) == {(0, 1, 100.0)}
        # Node 1 cannot go back through the one-way edge.
        assert _adjacency_from_csr(csr, 1) == {(1, 2, 100.0)}

    def test_snapshot_is_cached_per_network(self, small_grid):
        assert csr_snapshot(small_grid) is csr_snapshot(small_grid)

    def test_distinct_networks_get_distinct_snapshots(self, small_grid, line_network):
        assert csr_snapshot(small_grid) is not csr_snapshot(line_network)

    def test_snapshot_cache_does_not_leak_networks(self):
        """Regression: the cached snapshot must not keep its network alive."""
        import gc
        import weakref

        network = grid_network(3, 3, spacing=10.0)
        csr_snapshot(network)
        probe = weakref.ref(network)
        del network
        gc.collect()
        assert probe() is None

    def test_snapshot_is_the_networks_own_store(self, small_grid):
        """One copy: the snapshot is the network's store, written in place."""
        csr = csr_snapshot(small_grid)
        assert small_grid.freeze() is csr
        edge_id = next(small_grid.edge_ids())
        small_grid.set_edge_weight(edge_id, 321.0)
        assert csr.edge_weight[csr.index_of_edge(edge_id)] == 321.0
        assert small_grid.weight_of(edge_id) == 321.0


class TestWeightRefresh:
    def test_set_edge_weight_patches_in_place(self, small_city):
        csr = csr_snapshot(small_city)
        edge_id = next(small_city.edge_ids())
        small_city.set_edge_weight(edge_id, 123.5)
        refreshed = csr_snapshot(small_city)
        assert refreshed is csr  # incremental patch, not a rebuild
        position = refreshed.index_of_edge(edge_id)
        assert refreshed.edge_weight[position] == 123.5
        edge = small_city.edge(edge_id)
        for endpoint in (edge.start, edge.end):
            weights = {
                weight
                for eid, _, weight in refreshed.neighbors_of_index(
                    refreshed.index_of_node(endpoint)
                )
                if eid == edge_id
            }
            if weights:  # one-way edges appear only at the start node
                assert weights == {123.5}

    def test_scale_edge_weight_propagates(self, small_grid):
        csr = csr_snapshot(small_grid)
        edge_id = next(small_grid.edge_ids())
        before = small_grid.edge(edge_id).weight
        small_grid.scale_edge_weight(edge_id, 2.0)
        position = csr.index_of_edge(edge_id)
        assert csr_snapshot(small_grid).edge_weight[position] == pytest.approx(
            2.0 * before
        )

    def test_reset_weights_refreshes_all(self, small_grid):
        csr = csr_snapshot(small_grid)
        edge_ids = list(small_grid.edge_ids())
        for edge_id in edge_ids[:5]:
            small_grid.set_edge_weight(edge_id, 999.0)
        small_grid.reset_weights()
        refreshed = csr_snapshot(small_grid)
        assert refreshed is csr
        for edge_id in edge_ids[:5]:
            position = refreshed.index_of_edge(edge_id)
            assert refreshed.edge_weight[position] == small_grid.edge(edge_id).weight


class TestFrozenTopology:
    def test_snapshot_freezes_the_network(self, small_grid):
        csr = csr_snapshot(small_grid)
        nodes = list(small_grid.node_ids())
        edge_id = next(small_grid.edge_ids())
        columns = (list(csr.node_ids), list(csr.edge_ids), list(csr.indptr), list(csr.adj_eid))
        version = small_grid.topology_version
        with pytest.raises(TopologyFrozenError, match="add edge 99999"):
            small_grid.add_edge(99_999, nodes[0], nodes[-1], weight=42.0)
        with pytest.raises(TopologyFrozenError, match=f"remove edge {edge_id}"):
            small_grid.remove_edge(edge_id)
        with pytest.raises(TopologyFrozenError, match="add node"):
            small_grid.add_node(max(nodes) + 1, 0.0, 0.0)
        assert small_grid.has_edge(edge_id) and not small_grid.has_edge(99_999)
        assert small_grid.topology_version == version
        assert csr_snapshot(small_grid) is csr
        assert (list(csr.node_ids), list(csr.edge_ids), list(csr.indptr), list(csr.adj_eid)) == columns
        # Weights stay live: the patch is still incremental.
        small_grid.set_edge_weight(edge_id, 20.0)
        assert csr_snapshot(small_grid).edge_weight[csr.index_of_edge(edge_id)] == 20.0


def _assert_matches_brute_force(network, edge_table, outcome, k, query, excluded=()):
    """*outcome* agrees with the plain-Dijkstra ground truth of the oracle.

    The neighbor distance profile and radius equal the brute-force k-NN
    (ties may order differently), and every verified tree node carries its
    true network distance from *query* and a consistent parent pointer.
    """
    truth = [
        pair
        for pair in brute_force_object_distances(network, edge_table, query)
        if pair[0] not in excluded
    ][:k]
    assert results_equal(truth, outcome.neighbors)
    expected_radius = truth[k - 1][1] if len(truth) >= k else float("inf")
    assert outcome.radius == pytest.approx(expected_radius, rel=1e-6, abs=1e-6)
    exact = multi_source_node_distances(network, location_sources(network, query))
    for node_id, distance in outcome.state.node_dist.items():
        assert distance == pytest.approx(exact[node_id], rel=1e-6, abs=1e-6)
        parent_id = outcome.state.parent[node_id]
        if parent_id is not None:
            # The parent pointer names a real last hop of a shortest path.
            assert any(
                neighbor_id == node_id
                and outcome.state.node_dist[parent_id] + weight
                == pytest.approx(distance, rel=1e-9, abs=1e-9)
                for _, neighbor_id, weight in network.neighbors(parent_id)
            )


class TestDifferentialAgainstBruteForce:
    """The kernel must agree with the oracle's brute-force ground truth."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_fresh_searches_exact(self, seed, k):
        rng = random.Random(seed)
        network = city_network(150, seed=seed)
        edge_table = EdgeTable(network, build_spatial_index=False)
        edge_ids = list(network.edge_ids())
        for object_id in range(60):
            edge_table.insert_object(
                object_id, NetworkLocation(rng.choice(edge_ids), rng.random())
            )
        for _ in range(25):
            query = NetworkLocation(rng.choice(edge_ids), rng.random())
            fast = expand_knn(network, edge_table, k, query_location=query)
            _assert_matches_brute_force(network, edge_table, fast, k, query)

    def test_fresh_searches_exact_after_weight_updates(self):
        rng = random.Random(42)
        network = grid_network(8, 8, spacing=50.0)
        edge_table = EdgeTable(network, build_spatial_index=False)
        edge_ids = list(network.edge_ids())
        for object_id in range(40):
            edge_table.insert_object(
                object_id, NetworkLocation(rng.choice(edge_ids), rng.random())
            )
        for round_number in range(10):
            for edge_id in rng.sample(edge_ids, 12):
                network.scale_edge_weight(edge_id, rng.uniform(0.7, 1.4))
            query = NetworkLocation(rng.choice(edge_ids), rng.random())
            fast = expand_knn(network, edge_table, 5, query_location=query)
            _assert_matches_brute_force(network, edge_table, fast, 5, query)

    def test_source_node_searches_exact(self, populated_city):
        network, edge_table, _ = populated_city
        rng = random.Random(5)
        nodes = list(network.node_ids())
        for _ in range(15):
            source = rng.choice(nodes)
            fast = expand_knn(network, edge_table, 3, source_node=source)
            _assert_matches_brute_force(
                network, edge_table, fast, 3, network.location_at_node(source)
            )

    def test_excluded_objects_exact(self, populated_city):
        network, edge_table, locations = populated_city
        rng = random.Random(6)
        excluded = set(rng.sample(sorted(locations), 20))
        edge_ids = list(network.edge_ids())
        for _ in range(10):
            query = NetworkLocation(rng.choice(edge_ids), rng.random())
            fast = expand_knn(
                network, edge_table, 4, query_location=query, excluded_objects=excluded
            )
            assert excluded.isdisjoint(fast.object_ids)
            _assert_matches_brute_force(
                network, edge_table, fast, 4, query, excluded=excluded
            )

    def test_resumed_searches_exact(self, populated_city):
        """Pre-verified trees + candidates + coverage radius (IMA's resume)."""
        network, edge_table, _ = populated_city
        rng = random.Random(8)
        edge_ids = list(network.edge_ids())
        for _ in range(10):
            query = NetworkLocation(rng.choice(edge_ids), rng.random())
            initial = expand_knn(network, edge_table, 6, query_location=query)
            coverage = initial.radius * 0.8 if initial.radius != float("inf") else None
            # Resume from the part of the tree inside the coverage radius,
            # as IMA does after a pruning.
            preverified = {
                node_id: distance
                for node_id, distance in initial.state.node_dist.items()
                if coverage is None or distance <= coverage
            }
            parents = {node_id: initial.state.parent[node_id] for node_id in preverified}
            fast = expand_knn(
                network,
                edge_table,
                6,
                query_location=query,
                preverified=preverified,
                preverified_parent=parents,
                candidates=list(initial.neighbors),
                coverage_radius=coverage,
            )
            assert fast.neighbors == initial.neighbors
            assert fast.state.node_dist == pytest.approx(initial.state.node_dist)
            _assert_matches_brute_force(network, edge_table, fast, 6, query)


def test_near_edges_list_the_start_node_then_the_end_node_once_each():
    """The order the write-ahead log's edge codes index: repeats and the edge itself skipped."""
    network = RoadNetwork()
    for node in range(5):
        network.add_node(node, x=float(node), y=0.0)
    network.add_edge(10, 0, 1)
    network.add_edge(11, 1, 2)
    network.add_edge(12, 0, 2)
    network.add_edge(13, 2, 1)  # parallel to edge 11, the other way round
    network.add_edge(14, 2, 3, oneway=True)
    network.add_edge(15, 3, 4)
    store = csr_snapshot(network)

    def near(edge_id, limit=14):
        return [store.edge_ids[p] for p in store.near_edges(store.index_of_edge(edge_id), limit)]

    # edge 11: node 1 lists 10, 11, 13; node 2 lists 11, 12, 13, 14
    assert near(11) == [10, 13, 12, 14]
    assert near(11, 2) == [10, 13]
    assert near(14) == [11, 12, 13, 15]  # a one-way edge has both ends too
    assert near(15) == [14]
    assert near(10, 1) == [12]
