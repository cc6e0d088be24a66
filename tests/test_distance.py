"""Tests for the exact network-distance oracle (cross-checked with networkx)."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.exceptions import DisconnectedNetworkError, NodeNotFoundError
from repro.network.builders import city_network
from repro.network.distance import (
    brute_force_knn,
    eccentricity,
    location_sources,
    multi_source_node_distances,
    network_distance,
    node_distances,
    shortest_path_nodes,
)
from repro.network.graph import NetworkLocation, RoadNetwork


def _to_networkx(network: RoadNetwork) -> nx.Graph:
    graph = nx.Graph()
    for node in network.nodes():
        graph.add_node(node.node_id)
    for edge in network.edges():
        graph.add_edge(edge.start, edge.end, weight=edge.weight)
    return graph


class TestNodeDistances:
    def test_line_network_distances(self, line_network):
        distances = node_distances(line_network, 0)
        assert distances == {0: 0.0, 1: 100.0, 2: 200.0, 3: 300.0, 4: 400.0}

    def test_unknown_source_raises(self, line_network):
        with pytest.raises(NodeNotFoundError):
            node_distances(line_network, 55)

    def test_max_distance_truncates(self, line_network):
        distances = node_distances(line_network, 0, max_distance=150.0)
        assert set(distances) == {0, 1}

    def test_matches_networkx_on_random_city(self):
        network = city_network(120, seed=4)
        graph = _to_networkx(network)
        source = next(network.node_ids())
        expected = nx.single_source_dijkstra_path_length(graph, source)
        actual = node_distances(network, source)
        assert set(actual) == set(expected)
        for node_id, distance in expected.items():
            assert actual[node_id] == pytest.approx(distance)

    def test_multi_source_takes_minimum(self, line_network):
        distances = multi_source_node_distances(line_network, {0: 0.0, 4: 0.0})
        assert distances[2] == pytest.approx(200.0)
        assert distances[3] == pytest.approx(100.0)


class TestShortestPath:
    def test_path_on_line(self, line_network):
        distance, path = shortest_path_nodes(line_network, 0, 3)
        assert distance == pytest.approx(300.0)
        assert path == [0, 1, 2, 3]

    def test_disconnected_raises(self):
        network = RoadNetwork()
        network.add_node(0, 0, 0)
        network.add_node(1, 10, 0)
        network.add_node(2, 50, 0)
        network.add_node(3, 60, 0)
        network.add_edge(0, 0, 1)
        network.add_edge(1, 2, 3)
        with pytest.raises(DisconnectedNetworkError):
            shortest_path_nodes(network, 0, 3)

    def test_matches_networkx(self):
        network = city_network(100, seed=9)
        graph = _to_networkx(network)
        rng = random.Random(1)
        nodes = list(network.node_ids())
        for _ in range(10):
            source, target = rng.sample(nodes, 2)
            expected = nx.dijkstra_path_length(graph, source, target)
            actual, path = shortest_path_nodes(network, source, target)
            assert actual == pytest.approx(expected)
            assert path[0] == source and path[-1] == target


class TestLocationDistances:
    def test_same_edge_direct_distance(self, line_network):
        a = NetworkLocation(1, 0.2)
        b = NetworkLocation(1, 0.7)
        assert network_distance(line_network, a, b) == pytest.approx(50.0)

    def test_cross_edge_distance(self, line_network):
        a = NetworkLocation(0, 0.5)  # x = 50
        b = NetworkLocation(3, 0.25)  # x = 325
        assert network_distance(line_network, a, b) == pytest.approx(275.0)

    def test_distance_is_symmetric(self, line_network):
        a = NetworkLocation(0, 0.1)
        b = NetworkLocation(2, 0.9)
        assert network_distance(line_network, a, b) == pytest.approx(
            network_distance(line_network, b, a)
        )

    def test_same_edge_detour_when_shorter(self):
        # Two parallel edges between the same nodes: a long one (the location
        # edge) and a short one; the shortest path between two points on the
        # long edge may use the short edge.
        network = RoadNetwork()
        network.add_node(0, 0, 0)
        network.add_node(1, 100, 0)
        network.add_edge(0, 0, 1, 1000.0)
        network.add_edge(1, 0, 1, 10.0)
        a = NetworkLocation(0, 0.01)  # 10 from node 0 along the long edge
        b = NetworkLocation(0, 0.99)  # 10 from node 1 along the long edge
        # Direct along the long edge: 980; through node 0, edge 1, node 1: 30.
        assert network_distance(network, a, b) == pytest.approx(30.0)

    def test_location_sources_oneway(self):
        network = RoadNetwork()
        network.add_node(0, 0, 0)
        network.add_node(1, 10, 0)
        network.add_edge(0, 0, 1, 10.0, oneway=True)
        sources = location_sources(network, NetworkLocation(0, 0.3))
        assert sources == {1: pytest.approx(7.0)}


class TestBruteForceKnn:
    def test_returns_sorted_neighbors(self, populated_line):
        network, table = populated_line
        result = brute_force_knn(network, table, NetworkLocation(0, 0.0), 3)
        distances = [distance for _, distance in result]
        assert distances == sorted(distances)
        assert [object_id for object_id, _ in result] == [0, 1, 2]

    def test_k_larger_than_population(self, populated_line):
        network, table = populated_line
        result = brute_force_knn(network, table, NetworkLocation(0, 0.0), 10)
        assert len(result) == 3

    def test_exact_distances(self, populated_line):
        network, table = populated_line
        result = dict(brute_force_knn(network, table, NetworkLocation(0, 0.0), 3))
        assert result[0] == pytest.approx(50.0)
        assert result[1] == pytest.approx(225.0)
        assert result[2] == pytest.approx(390.0)


class TestMisc:
    def test_eccentricity_of_line_end(self, line_network):
        assert eccentricity(line_network, 0) == pytest.approx(400.0)

