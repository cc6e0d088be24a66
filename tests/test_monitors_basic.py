"""Behavioural tests of the three monitors on small, hand-checkable scenarios.

The line-network scenarios have distances that can be verified by hand,
which pins down the semantics of each update type (the larger randomized
differential tests live in ``test_differential.py``).
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.events import ObjectUpdate, QueryUpdate, UpdateBatch, apply_batch
from repro.core.gma import GmaMonitor
from repro.core.ima import ImaMonitor
from repro.core.ovh import OvhMonitor
from repro.exceptions import DuplicateQueryError, InvalidQueryError, UnknownQueryError
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation

ALL_MONITORS = [OvhMonitor, ImaMonitor, GmaMonitor]


def _build(monitor_class, network, table):
    return monitor_class(network, table)


@pytest.fixture
def line_setup(line_network):
    """Line network with three objects; returns (network, table)."""
    table = EdgeTable(line_network)
    table.insert_object(0, NetworkLocation(0, 0.5))   # x = 50
    table.insert_object(1, NetworkLocation(2, 0.25))  # x = 225
    table.insert_object(2, NetworkLocation(3, 0.9))   # x = 390
    return line_network, table


@pytest.mark.parametrize("monitor_class", ALL_MONITORS)
class TestRegistration:
    def test_initial_result(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        result = monitor.register_query(100, NetworkLocation(1, 0.0), 2)  # x = 100
        assert result.object_ids == (0, 1)
        assert result.neighbors[0][1] == pytest.approx(50.0)
        assert result.neighbors[1][1] == pytest.approx(125.0)

    def test_duplicate_registration_raises(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        monitor.register_query(100, NetworkLocation(1, 0.0), 2)
        with pytest.raises(DuplicateQueryError):
            monitor.register_query(100, NetworkLocation(1, 0.0), 2)

    def test_invalid_k_raises(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        with pytest.raises(InvalidQueryError):
            monitor.register_query(100, NetworkLocation(1, 0.0), 0)

    def test_unregister_removes_query(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        monitor.register_query(100, NetworkLocation(1, 0.0), 2)
        monitor.unregister_query(100)
        assert monitor.query_count == 0
        with pytest.raises(UnknownQueryError):
            monitor.result_of(100)

    def test_unregister_unknown_raises(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        with pytest.raises(UnknownQueryError):
            monitor.unregister_query(42)

    def test_results_snapshot(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        monitor.register_query(100, NetworkLocation(1, 0.0), 1)
        monitor.register_query(101, NetworkLocation(3, 0.5), 1)
        snapshot = monitor.results()
        assert set(snapshot) == {100, 101}


@pytest.mark.parametrize("monitor_class", ALL_MONITORS)
class TestObjectUpdates:
    def test_incoming_object_replaces_neighbor(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        monitor.register_query(100, NetworkLocation(1, 0.0), 1)
        # Object 2 jumps right next to the query (x = 110).
        batch = UpdateBatch(timestamp=1)
        batch.add_object_move(2, NetworkLocation(3, 0.9), NetworkLocation(1, 0.1))
        apply_batch(network, table, batch)
        report = monitor.process_batch(batch)
        result = monitor.result_of(100)
        assert result.object_ids == (2,)
        assert result.radius == pytest.approx(10.0)
        assert 100 in report.changed_queries

    def test_outgoing_neighbor_triggers_replacement(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        monitor.register_query(100, NetworkLocation(1, 0.0), 1)
        # The nearest object 0 moves far away; object 1 becomes the answer.
        batch = UpdateBatch(timestamp=1)
        batch.add_object_move(0, NetworkLocation(0, 0.5), NetworkLocation(3, 0.99))
        apply_batch(network, table, batch)
        monitor.process_batch(batch)
        result = monitor.result_of(100)
        assert result.object_ids == (1,)
        assert result.radius == pytest.approx(125.0)

    def test_irrelevant_update_keeps_result(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        monitor.register_query(100, NetworkLocation(1, 0.0), 1)
        before = monitor.result_of(100)
        # Object 2 wiggles at the far end of the network.
        batch = UpdateBatch(timestamp=1)
        batch.add_object_move(2, NetworkLocation(3, 0.9), NetworkLocation(3, 0.95))
        apply_batch(network, table, batch)
        report = monitor.process_batch(batch)
        after = monitor.result_of(100)
        assert after.neighbors == before.neighbors
        assert 100 not in report.changed_queries

    def test_object_insertion_becomes_neighbor(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        monitor.register_query(100, NetworkLocation(1, 0.0), 1)
        batch = UpdateBatch(timestamp=1)
        batch.object_updates.append(ObjectUpdate(9, None, NetworkLocation(1, 0.05)))
        apply_batch(network, table, batch)
        monitor.process_batch(batch)
        assert monitor.result_of(100).object_ids == (9,)

    def test_object_deletion_of_neighbor(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        monitor.register_query(100, NetworkLocation(1, 0.0), 1)
        batch = UpdateBatch(timestamp=1)
        batch.object_updates.append(ObjectUpdate(0, NetworkLocation(0, 0.5), None))
        apply_batch(network, table, batch)
        monitor.process_batch(batch)
        assert monitor.result_of(100).object_ids == (1,)


@pytest.mark.parametrize("monitor_class", ALL_MONITORS)
class TestQueryAndEdgeUpdates:
    def test_query_movement_changes_result(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        monitor.register_query(100, NetworkLocation(1, 0.0), 1)
        # The query moves to x = 360, close to object 2 at x = 390.
        batch = UpdateBatch(timestamp=1)
        batch.add_query_move(100, NetworkLocation(1, 0.0), NetworkLocation(3, 0.6))
        apply_batch(network, table, batch)
        monitor.process_batch(batch)
        result = monitor.result_of(100)
        assert result.object_ids == (2,)
        assert result.radius == pytest.approx(30.0)

    def test_edge_weight_increase_changes_nearest(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        # Query at x = 200 (node 2 end of edge 1): object 0 at 150, object 1 at 25.
        monitor.register_query(100, NetworkLocation(1, 1.0), 2)
        before = monitor.result_of(100)
        assert before.object_ids == (1, 0)
        # Edge 1 becomes 4x heavier: object 0 (beyond that edge) moves from
        # distance 150 to 450 and drops out in favour of object 2 at 190;
        # object 1 (on edge 2, untouched) stays at distance 25.
        batch = UpdateBatch(timestamp=1)
        batch.add_edge_change(1, network.edge(1).weight, 400.0)
        apply_batch(network, table, batch)
        monitor.process_batch(batch)
        after = monitor.result_of(100)
        assert after.object_ids == (1, 2)
        assert after.neighbors[0][1] == pytest.approx(25.0)
        assert after.neighbors[1][1] == pytest.approx(190.0)  # 100 to node 3 + 90

    def test_edge_weight_decrease_brings_object_closer(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        # Query at node-2 end of edge 1 (x=200). 1-NN is object 1 at 25.
        monitor.register_query(100, NetworkLocation(1, 1.0), 1)
        # Shrinking edge 3 pulls object 2 (at fraction 0.9 of edge 3) closer:
        # distance becomes 100 (edge 2) + 0.9 * 10 = 109, still > 25, so no
        # change; shrink edge 2 instead: object 1 distance becomes 2.5.
        batch = UpdateBatch(timestamp=1)
        batch.add_edge_change(2, network.edge(2).weight, 10.0)
        apply_batch(network, table, batch)
        monitor.process_batch(batch)
        result = monitor.result_of(100)
        assert result.object_ids == (1,)
        assert result.radius == pytest.approx(2.5)

    def test_query_termination_in_batch(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        monitor.register_query(100, NetworkLocation(1, 0.0), 1)
        batch = UpdateBatch(timestamp=1)
        batch.query_updates.append(QueryUpdate(100, NetworkLocation(1, 0.0), None))
        apply_batch(network, table, batch)
        monitor.process_batch(batch)
        assert monitor.query_count == 0

    def test_query_installation_in_batch(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        batch = UpdateBatch(timestamp=1)
        batch.query_updates.append(QueryUpdate(200, None, NetworkLocation(0, 0.0), k=2))
        apply_batch(network, table, batch)
        report = monitor.process_batch(batch)
        assert 200 in report.changed_queries
        assert monitor.result_of(200).object_ids == (0, 1)

    def test_memory_footprint_positive(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        monitor.register_query(100, NetworkLocation(1, 0.0), 2)
        assert monitor.memory_footprint_bytes() > 0

    def test_reports_are_returned_not_kept(self, line_setup, monitor_class):
        network, table = line_setup
        monitor = _build(monitor_class, network, table)
        monitor.register_query(100, NetworkLocation(1, 0.0), 1)
        reports = [monitor.process_batch(UpdateBatch(timestamp=t)) for t in range(3)]
        assert [report.timestamp for report in reports] == [0, 1, 2]
        assert b"TimestepReport" not in pickle.dumps(monitor)
