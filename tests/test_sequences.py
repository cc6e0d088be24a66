"""Tests for the sequence decomposition (GMA's sequence table)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.builders import city_network, grid_network, linear_network, star_network
from repro.network.graph import RoadNetwork
from repro.network.sequences import SequenceTable


class TestSimpleTopologies:
    def test_path_graph_is_single_sequence(self):
        network = linear_network(5)
        table = SequenceTable(network)
        assert len(table) == 1
        info = next(iter(table))
        assert info.edge_count == 4
        assert set(info.endpoints()) == {0, 4}
        assert info.interior_nodes() == (1, 2, 3)

    def test_star_has_one_sequence_per_branch(self):
        network = star_network(4, branch_length=3)
        table = SequenceTable(network)
        assert len(table) == 4
        for info in table:
            assert info.edge_count == 3
            assert 0 in info.endpoints()

    def test_grid_without_shape_points_has_one_sequence_per_edge(self):
        network = grid_network(3, 3)
        table = SequenceTable(network)
        # Interior grid nodes have degree 4 and corners degree 2... corners of
        # a 3x3 grid have degree 2, so the two edges at each corner join into
        # one sequence: 12 edges total, 4 corner pairs -> 8 sequences.
        assert table.is_partition()
        assert sum(info.edge_count for info in table) == network.edge_count

    def test_pure_cycle_is_one_sequence(self):
        network = RoadNetwork()
        for node_id in range(4):
            network.add_node(node_id, float(node_id), 0.0)
        network.add_edge(0, 0, 1)
        network.add_edge(1, 1, 2)
        network.add_edge(2, 2, 3)
        network.add_edge(3, 3, 0)
        table = SequenceTable(network)
        assert table.is_partition()
        assert len(table) == 1
        info = next(iter(table))
        assert info.start_node == info.end_node

    def test_sequences_at_node(self):
        network = star_network(3, branch_length=2)
        table = SequenceTable(network)
        assert len(table.sequences_at_node(0)) == 3

    def test_sequence_of_edge_lookup(self):
        network = linear_network(4)
        table = SequenceTable(network)
        assert table.sequence_of_edge(1).sequence_id == table.sequence_id_of_edge(2)

    def test_statistics(self):
        network = star_network(3, branch_length=2)
        stats = SequenceTable(network).statistics()
        assert stats["sequences"] == 3
        assert stats["avg_edges"] == pytest.approx(2.0)


class TestDistancesAlongSequence:
    def test_total_weight(self):
        network = linear_network(3, spacing=100.0)
        table = SequenceTable(network)
        sequence_id = table.sequence_id_of_edge(0)
        assert table.total_weight(sequence_id) == pytest.approx(200.0)


class TestPartitionProperty:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_city_network_decomposition_is_a_partition(self, seed):
        network = city_network(150, seed=seed)
        table = SequenceTable(network)
        assert table.is_partition()
        for info in table:
            # Interior nodes must have degree exactly 2.
            for node_id in info.interior_nodes():
                assert network.degree(node_id) == 2
            # Consecutive node pairs must be connected by the listed edges.
            assert len(info.node_ids) == info.edge_count + 1
            for edge_id, (u, v) in zip(
                info.edge_ids, zip(info.node_ids, info.node_ids[1:])
            ):
                edge = network.edge(edge_id)
                assert {edge.start, edge.end} == {u, v}

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_every_edge_in_exactly_one_sequence(self, seed):
        network = city_network(80, seed=seed)
        table = SequenceTable(network)
        seen = [edge_id for info in table for edge_id in info.edge_ids]
        assert sorted(seen) == sorted(network.edge_ids())
