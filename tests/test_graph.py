"""Tests for the road-network graph model."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    InvalidLocationError,
    InvalidWeightError,
    NodeNotFoundError,
)
from repro.network.graph import NetworkLocation, RoadNetwork


@pytest.fixture
def triangle() -> RoadNetwork:
    """Three nodes connected in a triangle with explicit weights."""
    network = RoadNetwork()
    network.add_node(0, 0.0, 0.0)
    network.add_node(1, 100.0, 0.0)
    network.add_node(2, 0.0, 100.0)
    network.add_edge(0, 0, 1, 100.0)
    network.add_edge(1, 1, 2, 150.0)
    network.add_edge(2, 2, 0, 100.0)
    return network


class TestNodesAndEdges:
    def test_add_node_and_lookup(self):
        network = RoadNetwork()
        node = network.add_node(5, 1.0, 2.0)
        assert network.node(5) == node
        assert node.x == 1.0 and node.y == 2.0

    def test_duplicate_node_raises(self):
        network = RoadNetwork()
        network.add_node(1, 0, 0)
        with pytest.raises(DuplicateNodeError):
            network.add_node(1, 1, 1)

    def test_missing_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            RoadNetwork().node(9)

    def test_add_edge_requires_existing_nodes(self):
        network = RoadNetwork()
        network.add_node(0, 0, 0)
        with pytest.raises(NodeNotFoundError):
            network.add_edge(0, 0, 1)

    def test_duplicate_edge_raises(self, triangle):
        with pytest.raises(DuplicateEdgeError):
            triangle.add_edge(0, 0, 1)

    def test_missing_edge_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.edge(99)

    def test_self_loop_rejected(self):
        network = RoadNetwork()
        network.add_node(0, 0, 0)
        with pytest.raises(InvalidLocationError):
            network.add_edge(0, 0, 0)

    def test_default_weight_is_euclidean_length(self, triangle):
        assert triangle.edge(0).weight == pytest.approx(100.0)

    def test_explicit_weight_overrides_length(self, triangle):
        assert triangle.edge(1).weight == pytest.approx(150.0)

    def test_invalid_weight_rejected(self):
        network = RoadNetwork()
        network.add_node(0, 0, 0)
        network.add_node(1, 1, 0)
        with pytest.raises(InvalidWeightError):
            network.add_edge(0, 0, 1, -5.0)
        with pytest.raises(InvalidWeightError):
            network.add_edge(0, 0, 1, float("inf"))

    def test_other_endpoint(self, triangle):
        edge = triangle.edge(0)
        assert edge.other_endpoint(0) == 1
        assert edge.other_endpoint(1) == 0
        with pytest.raises(InvalidLocationError):
            edge.other_endpoint(2)

    def test_counts(self, triangle):
        assert triangle.node_count == 3
        assert triangle.edge_count == 3

    def test_edge_between(self, triangle):
        assert triangle.edge_between(0, 1) == 0
        assert triangle.edge_between(1, 0) == 0
        assert triangle.edge_between(0, 99) is None

    def test_remove_edge(self, triangle):
        triangle.remove_edge(0)
        assert not triangle.has_edge(0)
        assert triangle.edge_between(0, 1) is None
        assert triangle.degree(0) == 1

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.remove_edge(55)


class TestAdjacency:
    def test_incident_edges(self, triangle):
        assert set(triangle.incident_edges(0)) == {0, 2}

    def test_degree(self, triangle):
        assert triangle.degree(1) == 2

    def test_neighbors_triples(self, triangle):
        neighbors = triangle.neighbors(0)
        assert ({(edge_id, node) for edge_id, node, _ in neighbors}) == {(0, 1), (2, 2)}

    def test_oneway_edge_only_traversable_forwards(self):
        network = RoadNetwork()
        network.add_node(0, 0, 0)
        network.add_node(1, 10, 0)
        network.add_edge(0, 0, 1, 10.0, oneway=True)
        assert [n for _, n, _ in network.neighbors(0)] == [1]
        assert network.neighbors(1) == []

    def test_intersection_nodes_excludes_degree_two(self):
        network = RoadNetwork()
        for node_id in range(4):
            network.add_node(node_id, node_id * 10.0, 0.0)
        network.add_edge(0, 0, 1)
        network.add_edge(1, 1, 2)
        network.add_edge(2, 2, 3)
        # Nodes 1 and 2 have degree 2; 0 and 3 are terminals.
        assert set(network.intersection_nodes()) == {0, 3}


class TestWeights:
    def test_set_edge_weight_returns_previous(self, triangle):
        previous = triangle.set_edge_weight(0, 80.0)
        assert previous == pytest.approx(100.0)
        assert triangle.edge(0).weight == pytest.approx(80.0)

    def test_set_edge_weight_bumps_version(self, triangle):
        version = triangle.weight_version
        triangle.set_edge_weight(0, 80.0)
        assert triangle.weight_version == version + 1

    def test_set_invalid_weight_raises(self, triangle):
        with pytest.raises(InvalidWeightError):
            triangle.set_edge_weight(0, 0.0)

    def test_scale_edge_weight(self, triangle):
        triangle.scale_edge_weight(0, 1.1)
        assert triangle.edge(0).weight == pytest.approx(110.0)

    def test_reset_weights_restores_base(self, triangle):
        triangle.set_edge_weight(0, 42.0)
        triangle.reset_weights()
        assert triangle.edge(0).weight == pytest.approx(100.0)

    def test_total_and_average_weight(self, triangle):
        assert triangle.total_weight() == pytest.approx(350.0)
        assert triangle.average_edge_weight() == pytest.approx(350.0 / 3)


class TestLocations:
    def test_location_validation(self, triangle):
        triangle.validate_location(NetworkLocation(0, 0.5))
        with pytest.raises(EdgeNotFoundError):
            triangle.validate_location(NetworkLocation(9, 0.5))

    def test_invalid_fraction_raises(self):
        with pytest.raises(InvalidLocationError):
            NetworkLocation(0, 1.5)

    def test_offsets(self):
        location = NetworkLocation(0, 0.25)
        assert location.offset(100.0) == pytest.approx(25.0)
        assert location.reversed_offset(100.0) == pytest.approx(75.0)

    def test_location_point_interpolates(self, triangle):
        point = triangle.location_point(NetworkLocation(0, 0.5))
        assert point.x == pytest.approx(50.0)
        assert point.y == pytest.approx(0.0)

    def test_location_at_node(self, triangle):
        location = triangle.location_at_node(1)
        edge = triangle.edge(location.edge_id)
        assert 1 in edge.endpoints()
        assert location.fraction in (0.0, 1.0)

    def test_edge_segment(self, triangle):
        segment = triangle.edge_segment(0)
        assert segment.length == pytest.approx(100.0)

    def test_bounding_box(self, triangle):
        box = triangle.bounding_box()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0.0, 0.0, 100.0, 100.0)


class TestConnectivityAndCopy:
    def test_triangle_is_connected(self, triangle):
        assert triangle.is_connected()
        assert len(triangle.connected_components()) == 1

    def test_disconnected_components_detected(self):
        network = RoadNetwork()
        for node_id in range(4):
            network.add_node(node_id, node_id * 1.0, 0.0)
        network.add_edge(0, 0, 1)
        network.add_edge(1, 2, 3)
        assert not network.is_connected()
        assert len(network.connected_components()) == 2

    def test_copy_is_deep_for_weights(self, triangle):
        clone = triangle.copy()
        triangle.set_edge_weight(0, 55.0)
        assert clone.edge(0).weight == pytest.approx(100.0)
        assert clone.node_count == triangle.node_count
        assert clone.edge_count == triangle.edge_count
