"""Tests for the influence index and the expansion-tree state."""

from __future__ import annotations

import random

import pytest

from repro.core.expansion import (
    VECTOR_MIN_NODES,
    ExpansionState,
    compute_influence_map,
    compute_influence_maps,
    object_distance_csr,
)
from repro.core.influence import InfluenceIndex
from repro.core.search import expand_knn
from repro.network.builders import city_network
from repro.network.csr import csr_snapshot
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation
from repro.utils import optional_numpy
from repro.utils.intervals import point_in_spans

needs_numpy = pytest.mark.skipif(
    optional_numpy() is None, reason="numpy unavailable; no NativeSupport mirrors"
)


def _populated(edges=400, objects=350, seed=9, network_seed=5):
    network = city_network(edges, seed=network_seed)
    table = EdgeTable(network, build_spatial_index=False)
    rng = random.Random(seed)
    edge_ids = list(network.edge_ids())
    for object_id in range(objects):
        table.insert_object(
            object_id, NetworkLocation(rng.choice(edge_ids), rng.random())
        )
    return network, table, edge_ids, rng


class TestInfluenceIndex:
    def test_set_and_query(self):
        index = InfluenceIndex()
        index.set_influence(1, 10, ((0.0, 5.0),))
        assert index.subscribers_on_edge(10) == {1}
        assert index.subscribers_at_point(10, 3.0) == {1}
        assert index.subscribers_at_point(10, 7.0) == set()
        assert index.edges_of_subscriber(1) == {10}

    def test_empty_intervals_remove_entry(self):
        index = InfluenceIndex()
        index.set_influence(1, 10, ((0.0, 5.0),))
        index.set_influence(1, 10, ())
        assert index.subscribers_on_edge(10) == set()
        assert not index.has_subscriber(1)

    def test_replace_subscriber_clears_old_entries(self):
        index = InfluenceIndex()
        index.set_influence(1, 10, ((0.0, 5.0),))
        index.replace_subscriber(1, {11: ((0.0, 2.0),)})
        assert index.subscribers_on_edge(10) == set()
        assert index.subscribers_on_edge(11) == {1}

    def test_clear_subscriber(self):
        index = InfluenceIndex()
        index.set_influence(1, 10, ((0.0, 5.0),))
        index.set_influence(1, 11, ((0.0, 5.0),))
        index.clear_subscriber(1)
        assert len(index) == 0

    def test_remove_influence_single_entry(self):
        index = InfluenceIndex()
        index.set_influence(1, 10, ((0.0, 5.0),))
        index.set_influence(2, 10, ((0.0, 5.0),))
        index.remove_influence(1, 10)
        assert index.subscribers_on_edge(10) == {2}

    def test_contains_point_and_interval_of(self):
        index = InfluenceIndex()
        index.set_influence(3, 20, ((1.0, 2.0), (5.0, 6.0)))
        assert index.contains_point(3, 20, 1.5)
        assert not index.contains_point(3, 20, 3.0)
        assert index.interval_of(3, 20) == ((1.0, 2.0), (5.0, 6.0))
        assert index.interval_of(3, 99) is None

    def test_accounting(self):
        index = InfluenceIndex()
        index.set_influence(1, 10, ((0.0, 1.0), (2.0, 3.0)))
        index.set_influence(2, 10, ((0.0, 1.0),))
        index.set_influence(1, 11, ((0.0, 1.0),))
        assert len(index) == 3
        assert index.edge_count() == 2
        assert index.subscriber_count() == 2
        assert index.interval_count() == 4
        assert len(list(index.iter_entries())) == 3

    def test_point_query_uses_generous_tolerance(self):
        index = InfluenceIndex()
        index.set_influence(1, 10, ((0.0, 5.0),))
        assert index.subscribers_at_point(10, 5.0000001) == {1}


def test_replace_subscribers_matches_sequential_replace():
    rng = random.Random(7)
    bulk, sequential = InfluenceIndex(), InfluenceIndex()
    for _ in range(6):  # several generations so stale-edge removal is hit
        updates = {}
        for subscriber in range(12):
            influences = {}
            for edge_id in rng.sample(range(40), rng.randint(0, 8)):
                influences[edge_id] = ((0.0, rng.uniform(0.5, 5.0)),)
            if rng.random() < 0.2:
                influences[rng.randrange(40)] = ()  # empty spans are dropped
            updates[subscriber] = influences
        bulk.replace_subscribers(updates)
        for subscriber, influences in updates.items():
            sequential.replace_subscriber(subscriber, influences)
        assert sorted(bulk.iter_entries()) == sorted(sequential.iter_entries())
        assert len(bulk) == len(sequential)
    for edge_id in range(40):
        assert bulk.subscribers_on_edge(edge_id) == sequential.subscribers_on_edge(edge_id)
        assert set(bulk.subscribers_on_edge_view(edge_id)) == bulk.subscribers_on_edge(edge_id)


class TestExpansionState:
    def _simple_state(self) -> ExpansionState:
        # Tree: 1 and 2 reached from the query (parent None); 3 below 1;
        # 4 below 3.
        return ExpansionState(
            node_dist={1: 10.0, 2: 15.0, 3: 25.0, 4: 40.0},
            parent={1: None, 2: None, 3: 1, 4: 3},
        )

    def test_distance_lookup(self):
        state = self._simple_state()
        assert state.distance(3) == 25.0
        assert state.distance(99) == float("inf")

    def test_children_map_and_root_children(self):
        state = self._simple_state()
        children = state.children_map()
        assert set(children[None]) == {1, 2}
        assert children[1] == [3]
        assert set(state.root_children()) == {1, 2}

    def test_subtree_nodes(self):
        state = self._simple_state()
        assert state.subtree_nodes(1) == {1, 3, 4}
        assert state.subtree_nodes(2) == {2}
        assert state.subtree_nodes(99) == set()

    def test_keep_only_reparents_orphans(self):
        state = self._simple_state()
        state.keep_only({1, 4})
        assert set(state.node_dist) == {1, 4}
        assert state.parent[4] is None

    def test_shrink_to_radius(self):
        state = self._simple_state()
        removed = state.shrink_to_radius(20.0)
        assert removed == 2
        assert set(state.node_dist) == {1, 2}

    def test_reroot_subtree(self):
        state = self._simple_state()
        state.reroot_subtree(3, 2.0)
        # Only 3 and 4 survive, with distances re-offset so that d(3) = 2.
        assert set(state.node_dist) == {3, 4}
        assert state.node_dist[3] == pytest.approx(2.0)
        assert state.node_dist[4] == pytest.approx(17.0)
        assert state.parent[3] is None

    def test_reroot_at_missing_node_clears(self):
        state = self._simple_state()
        state.reroot_subtree(77, 0.0)
        assert len(state) == 0

    def test_footprint_scales_with_nodes(self):
        assert self._simple_state().footprint_bytes() == 4 * 24


class TestInfluenceMapAndObjectDistance:
    def test_influence_map_on_line(self, line_network):
        # Query in the middle of edge 1 (x = 150), radius 120.
        state = ExpansionState(node_dist={1: 50.0, 2: 50.0}, parent={1: None, 2: None})
        location = NetworkLocation(1, 0.5)
        influences = compute_influence_map(line_network, state, 120.0, location)
        # Edge 1 fully covered; edges 0 and 2 partially (70 units deep).
        assert set(influences) == {0, 1, 2}
        assert point_in_spans(influences[0], 50.0)
        assert not point_in_spans(influences[0], 20.0)
        assert point_in_spans(influences[2], 60.0)
        assert not point_in_spans(influences[2], 90.0)

    def test_influence_map_with_infinite_radius(self, line_network):
        state = ExpansionState(node_dist={0: 0.0}, parent={0: None})
        influences = compute_influence_map(
            line_network, state, float("inf"), NetworkLocation(0, 0.0)
        )
        assert point_in_spans(influences[0], 99.0)

    def test_object_distance_min_formula(self, line_network):
        state = ExpansionState(node_dist={1: 50.0, 2: 50.0}, parent={1: None, 2: None})
        query = NetworkLocation(1, 0.5)
        # Object on edge 2 at fraction 0.25 -> 25 beyond node 2.
        distance = object_distance_csr(
            csr_snapshot(line_network), state, NetworkLocation(2, 0.25), query
        )
        assert distance == pytest.approx(75.0)

    def test_object_distance_same_edge_direct(self, line_network):
        state = ExpansionState()
        query = NetworkLocation(1, 0.5)
        distance = object_distance_csr(
            csr_snapshot(line_network), state, NetworkLocation(1, 0.9), query
        )
        assert distance == pytest.approx(40.0)

    def test_object_distance_unreachable_without_state(self, line_network):
        state = ExpansionState()
        distance = object_distance_csr(
            csr_snapshot(line_network), state, NetworkLocation(3, 0.5), NetworkLocation(0, 0.5)
        )
        assert distance == float("inf")


# ---------------------------------------------------------------------------
# vectorized influence spans over the NativeSupport mirrors
# ---------------------------------------------------------------------------
@needs_numpy
def test_vectorized_influence_maps_match_scalar_exactly():
    from repro.network.native import native_support

    # Very sparse objects and high k force trees past VECTOR_MIN_NODES.
    network, table, edge_ids, rng = _populated(edges=900, objects=40, seed=3)
    csr = csr_snapshot(network)
    support = native_support(csr)
    vectored = 0
    for trial in range(40):
        location = NetworkLocation(rng.choice(edge_ids), rng.random())
        outcome = expand_knn(network, table, rng.randint(12, 30), query_location=location)
        scalar = compute_influence_map(
            network, outcome.state, outcome.radius, location, csr=csr
        )
        fast = compute_influence_map(
            network, outcome.state, outcome.radius, location, csr=csr, support=support
        )
        if len(outcome.state.node_dist) >= VECTOR_MIN_NODES:
            vectored += 1
        assert scalar == fast, trial
    assert vectored > 5  # the numpy path was actually exercised
    assert (support.dist_scratch == float("inf")).all()  # scratch restored


def test_compute_influence_maps_batch_helper():
    network, table, edge_ids, rng = _populated(objects=80)
    location = NetworkLocation(rng.choice(edge_ids), rng.random())
    outcome = expand_knn(network, table, 4, query_location=location)
    maps = compute_influence_maps(
        network, [("q", outcome.state, outcome.radius, location)]
    )
    assert maps == {
        "q": compute_influence_map(network, outcome.state, outcome.radius, location)
    }


@needs_numpy
def test_weight_storm_rotates_support_epoch():
    from repro.network.native import native_support

    network, table, edge_ids, rng = _populated(objects=40)
    csr = csr_snapshot(network)
    assert csr.current_native_support() is None  # only a native batch builds one
    before = native_support(csr)
    assert native_support(csr) is before  # cached while weights are stable
    assert csr.current_native_support() is before
    edge_id = edge_ids[0]
    network.set_edge_weight(edge_id, network.edge(edge_id).weight * 3.0)
    assert csr.current_native_support() is None  # cache-only: stale, never rebuilt
    after = native_support(csr)
    assert after is not before
    assert after.epoch == csr.weights_epoch
    # The rebuilt support sees the patched weight in its numpy mirrors.
    position = csr.index_of_edge(edge_id)
    assert float(after.np_edge_weight[position]) == csr.edge_weight[position]
    assert after.np_adj_weight.tolist() == csr.adj_weight
