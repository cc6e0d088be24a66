"""Tests for network generators and the save/load round-trips."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import NetworkError
from repro.network.builders import (
    build_network,
    city_network,
    grid_network,
    linear_network,
    remove_random_edges,
    star_network,
    subdivide_edges,
)
from repro.network.io import (
    load_network,
    load_node_edge_files,
    save_network,
    save_node_edge_files,
)
from repro.network.record import encode_network
from repro.sim.datasets import oldenburg_like, san_francisco_like, small_test_network


class TestBuilders:
    def test_build_network_explicit(self):
        network = build_network(
            {0: (0.0, 0.0), 1: (10.0, 0.0)}, [(0, 0, 1)], weights={0: 5.0}
        )
        assert network.edge(0).weight == pytest.approx(5.0)

    def test_grid_dimensions(self):
        network = grid_network(3, 4)
        assert network.node_count == 12
        # Horizontal edges: 3 rows x 3, vertical: 2 x 4.
        assert network.edge_count == 17

    def test_grid_requires_two_rows_and_columns(self):
        with pytest.raises(NetworkError):
            grid_network(1, 5)

    def test_grid_jitter_is_deterministic(self):
        first = grid_network(3, 3, jitter=0.2, seed=5)
        second = grid_network(3, 3, jitter=0.2, seed=5)
        for node in first.nodes():
            assert node.point == second.node(node.node_id).point

    def test_linear_network(self):
        network = linear_network(4)
        assert network.edge_count == 3
        assert network.degree(0) == 1
        assert network.degree(1) == 2

    def test_star_network(self):
        network = star_network(5, branch_length=2)
        assert network.degree(0) == 5
        assert network.edge_count == 10

    def test_remove_random_edges_keeps_connectivity(self):
        network = grid_network(5, 5)
        removed = remove_random_edges(network, 0.2, seed=3)
        assert removed > 0
        assert network.is_connected()

    @pytest.mark.parametrize("fraction, seed", [(0.12, 1), (0.3, 4), (0.9, 4)])
    def test_remove_random_edges_matches_a_whole_network_connectivity_check(
        self, fraction, seed
    ):
        """The endpoint search keeps exactly the edges ``is_connected()`` would.

        0.9 runs into the connectivity limit, so removals are also undone.
        """
        network = grid_network(8, 9, jitter=0.1, seed=3)
        reference = network.copy()
        rng = random.Random(seed)
        target = int(round(fraction * reference.edge_count))
        edge_ids = list(reference.edge_ids())
        rng.shuffle(edge_ids)
        expected = 0
        for edge_id in edge_ids:
            if expected >= target:
                break
            edge = reference.edge(edge_id)
            if reference.degree(edge.start) <= 1 or reference.degree(edge.end) <= 1:
                continue
            reference.remove_edge(edge_id)
            if reference.is_connected():
                expected += 1
            else:
                reference.add_edge(edge_id, edge.start, edge.end, edge.weight)
        assert remove_random_edges(network, fraction, seed=seed) == expected
        assert encode_network(network) == encode_network(reference)

    def test_remove_random_edges_leaves_a_disconnected_network_untouched(self):
        network = grid_network(3, 3)
        network.add_node(100, 500.0, 500.0)
        network.add_node(101, 600.0, 500.0)
        network.add_edge(100, 100, 101)
        before = encode_network(network)
        assert remove_random_edges(network, 0.5, seed=1) == 0
        assert encode_network(network) == before

    @pytest.mark.parametrize("seed", range(6))
    def test_a_restored_bridge_keeps_its_values(self, seed):
        # Two triangles joined by a one-way bridge, reweighted off its base.
        network = build_network(
            {node: (float(node), float(node % 3)) for node in range(6)},
            [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 3, 4), (4, 4, 5), (5, 5, 3)],
        )
        network.add_edge(9, 2, 3, 5.0, oneway=True)
        network.set_edge_weight(9, 9.0)
        bridge = network.edge(9)
        assert remove_random_edges(network, 1.0, seed=seed) == 2
        assert network.edge(9) == bridge
        assert (bridge.oneway, bridge.base_weight, bridge.weight) == (True, 5.0, 9.0)

    @pytest.mark.parametrize("fraction, seed", [(0.6, 2), (0.9, 5)])
    def test_marked_removal_is_the_remove_and_re_add_sequence(self, fraction, seed):
        """Same edges, values, edge order, incident-edge order and topology version."""
        network = grid_network(7, 8, jitter=0.1, seed=seed)
        rng = random.Random(seed)
        for edge_id in rng.sample(sorted(network.edge_ids()), 20):
            network.set_edge_weight(edge_id, network.weight_of(edge_id) * 1.5)
        reference = network.copy()
        network = reference.copy()
        target = int(round(fraction * reference.edge_count))
        edge_ids = list(reference.edge_ids())
        random.Random(seed).shuffle(edge_ids)
        expected = restored = 0
        for edge_id in edge_ids:
            if expected >= target:
                break
            edge = reference.edge(edge_id)
            if reference.degree(edge.start) <= 1 or reference.degree(edge.end) <= 1:
                continue
            reference.remove_edge(edge_id)
            if reference.is_connected():
                expected += 1
            else:
                reference.add_edge(edge_id, edge.start, edge.end, edge.base_weight, edge.oneway)
                reference.set_edge_weight(edge_id, edge.weight)
                restored += 1
        assert restored
        assert remove_random_edges(network, fraction, seed=seed) == expected
        assert list(network.edges()) == list(reference.edges())
        for node_id in reference.node_ids():
            assert network.incident_edges(node_id) == reference.incident_edges(node_id)
        assert network.topology_version == reference.topology_version

    def test_remove_zero_fraction_is_noop(self):
        network = grid_network(3, 3)
        assert remove_random_edges(network, 0.0) == 0
        assert network.edge_count == 12

    def test_subdivide_edges_creates_degree_two_nodes(self):
        network = grid_network(3, 3)
        subdivided = subdivide_edges(network, segments_per_edge=3)
        assert subdivided.edge_count == network.edge_count * 3
        degree_two = [n for n in subdivided.node_ids() if subdivided.degree(n) == 2]
        # Every original edge contributes 2 interior shape points.
        assert len(degree_two) >= network.edge_count * 2

    def test_subdivide_preserves_total_weight(self):
        network = grid_network(3, 3)
        subdivided = subdivide_edges(network, segments_per_edge=4)
        assert subdivided.total_weight() == pytest.approx(network.total_weight())

    def test_city_network_is_connected_and_sized(self):
        network = city_network(200, seed=1)
        assert network.is_connected()
        assert 120 <= network.edge_count <= 320

    def test_city_network_deterministic(self):
        assert city_network(100, seed=9).edge_count == city_network(100, seed=9).edge_count


class TestDatasets:
    def test_san_francisco_like_scales_with_target(self):
        small = san_francisco_like(150, seed=2)
        large = san_francisco_like(600, seed=2)
        assert large.edge_count > small.edge_count
        assert small.is_connected() and large.is_connected()

    def test_oldenburg_like_rough_size(self):
        network = oldenburg_like(seed=3)
        assert network.is_connected()
        # Within 40 % of the published edge count is close enough for the
        # statistics that matter (density, degree distribution).
        assert 0.6 * 7035 <= network.edge_count <= 1.4 * 7035

    def test_small_test_network(self):
        network = small_test_network(seed=1)
        assert network.edge_count > 50


class TestIo:
    def test_rnet_round_trip(self, tmp_path, small_city):
        small_city.set_edge_weight(next(small_city.edge_ids()), 123.0)
        path = tmp_path / "net.rnet"
        save_network(small_city, path)
        loaded = load_network(path)
        assert loaded.node_count == small_city.node_count
        assert loaded.edge_count == small_city.edge_count
        for edge in small_city.edges():
            other = loaded.edge(edge.edge_id)
            assert other.weight == pytest.approx(edge.weight)
            assert other.base_weight == pytest.approx(edge.base_weight)
            assert (other.start, other.end) == (edge.start, edge.end)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.rnet"
        path.write_text("not a network\n")
        with pytest.raises(NetworkError):
            load_network(path)

    def test_node_edge_round_trip(self, tmp_path, line_network):
        node_path = tmp_path / "net.cnode"
        edge_path = tmp_path / "net.cedge"
        save_node_edge_files(line_network, node_path, edge_path)
        loaded = load_node_edge_files(node_path, edge_path)
        assert loaded.node_count == line_network.node_count
        assert loaded.edge_count == line_network.edge_count
        assert loaded.edge(0).weight == pytest.approx(line_network.edge(0).weight)

    def test_node_edge_loader_rejects_malformed(self, tmp_path):
        node_path = tmp_path / "net.cnode"
        edge_path = tmp_path / "net.cedge"
        node_path.write_text("0 0.0\n")  # missing y coordinate
        edge_path.write_text("")
        with pytest.raises(NetworkError):
            load_node_edge_files(node_path, edge_path)

    def test_node_edge_loader_ignores_comments(self, tmp_path):
        node_path = tmp_path / "net.cnode"
        edge_path = tmp_path / "net.cedge"
        node_path.write_text("# comment\n0 0.0 0.0\n1 10.0 0.0\n")
        edge_path.write_text("# comment\n0 0 1 10.0\n")
        loaded = load_node_edge_files(node_path, edge_path)
        assert loaded.edge_count == 1
