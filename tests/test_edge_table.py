"""Tests for the edge table (object bookkeeping + coordinate snapping)."""

from __future__ import annotations

import io

import pytest

from repro.core.server import MonitoringServer, load_snapshot
from repro.exceptions import (
    DuplicateObjectError,
    EdgeNotFoundError,
    InvalidLocationError,
    RecoveryError,
    TopologyFrozenError,
    UnknownObjectError,
)
from repro.network import edge_table as edge_table_module
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.network.record import ColumnReader
from repro.spatial.geometry import Point
from quadtree_oracle import leaves_of
from snapshot_columns import rewrite_object_columns


class TestObjectBookkeeping:
    def test_insert_and_lookup(self, line_network):
        table = EdgeTable(line_network)
        table.insert_object(1, NetworkLocation(0, 0.5))
        assert table.has_object(1)
        assert table.location_of(1) == NetworkLocation(0, 0.5)
        assert table.objects_on(0) == {1}
        assert table.object_count == 1

    def test_duplicate_insert_raises(self, line_network):
        table = EdgeTable(line_network)
        table.insert_object(1, NetworkLocation(0, 0.5))
        with pytest.raises(DuplicateObjectError):
            table.insert_object(1, NetworkLocation(1, 0.5))

    def test_insert_on_unknown_edge_raises(self, line_network):
        table = EdgeTable(line_network)
        with pytest.raises(EdgeNotFoundError):
            table.insert_object(1, NetworkLocation(99, 0.5))

    def test_remove_returns_last_location(self, line_network):
        table = EdgeTable(line_network)
        table.insert_object(1, NetworkLocation(0, 0.25))
        assert table.remove_object(1) == NetworkLocation(0, 0.25)
        assert not table.has_object(1)
        assert table.objects_on(0) == set()

    def test_remove_unknown_raises(self, line_network):
        with pytest.raises(UnknownObjectError):
            EdgeTable(line_network).remove_object(1)

    def test_move_updates_both_edges(self, line_network):
        table = EdgeTable(line_network)
        table.insert_object(1, NetworkLocation(0, 0.5))
        old = table.move_object(1, NetworkLocation(2, 0.75))
        assert old == NetworkLocation(0, 0.5)
        assert table.objects_on(0) == set()
        assert table.objects_on(2) == {1}

    def test_move_unknown_raises(self, line_network):
        with pytest.raises(UnknownObjectError):
            EdgeTable(line_network).move_object(1, NetworkLocation(0, 0.1))

    def test_location_of_unknown_raises(self, line_network):
        with pytest.raises(UnknownObjectError):
            EdgeTable(line_network).location_of(77)

    def test_objects_with_fractions_on(self, line_network):
        table = EdgeTable(line_network)
        table.insert_object(1, NetworkLocation(1, 0.25))
        table.insert_object(2, NetworkLocation(1, 0.75))
        found = dict(table.objects_with_fractions_on(1))
        assert found == {1: 0.25, 2: 0.75}

    def test_all_objects_and_populated_edges(self, line_network):
        table = EdgeTable(line_network)
        table.insert_object(1, NetworkLocation(0, 0.2))
        table.insert_object(2, NetworkLocation(3, 0.8))
        assert dict(table.all_objects()) == {
            1: NetworkLocation(0, 0.2),
            2: NetworkLocation(3, 0.8),
        }
        assert set(table.populated_edges()) == {0, 3}

    def test_consistency_check(self, populated_city):
        _, table, _ = populated_city
        assert table.consistency_check()

    def test_move_keeps_the_registration_slot(self, line_network):
        table = EdgeTable(line_network)
        for object_id, edge_id in ((1, 0), (2, 1), (3, 0)):
            table.insert_object(object_id, NetworkLocation(edge_id, 0.5))
        assert table.edge_object_fractions(0) == ((1, 0.5), (3, 0.5))
        table.move_object(1, NetworkLocation(1, 0.25))  # to another edge
        table.move_object(3, NetworkLocation(0, 0.75))  # along the same edge
        assert list(table.object_ids()) == [1, 2, 3]
        assert table.edge_object_fractions(0) == ((3, 0.75),)
        assert table.edge_object_fractions(1) == ((2, 0.5), (1, 0.25))
        assert table.consistency_check()

    def test_a_pile_longer_than_a_list_keeps_its_order(self, line_network):
        """Past ``_PILE`` ids an edge holds a dict: same order, same answers."""
        table = EdgeTable(line_network)
        pile = edge_table_module._PILE
        ids = list(range(100, 100 + 2 * pile))
        for object_id in ids:
            table.insert_object(object_id, NetworkLocation(0, 0.5))
        table.remove_object(ids[3])
        table.move_object(ids[5], NetworkLocation(1, 0.5))
        table.move_object(ids[6], NetworkLocation(0, 0.25))  # along the edge
        table.insert_object(7, NetworkLocation(0, 0.5))
        expected = [i for i in ids if i not in (ids[3], ids[5])] + [7]
        assert [object_id for object_id, _ in table.edge_object_fractions(0)] == expected
        assert table.objects_on(0) == set(expected) and table.consistency_check()
        for object_id in expected:
            table.remove_object(object_id)
        assert table.objects_on(0) == set() and list(table.populated_edges()) == [1]

    def test_failed_move_changes_nothing(self, line_network):
        table = EdgeTable(line_network)
        table.insert_object(1, NetworkLocation(0, 0.5))
        version = table.version
        with pytest.raises(EdgeNotFoundError):
            table.move_object(1, NetworkLocation(99, 0.5))
        assert table.location_of(1) == NetworkLocation(0, 0.5)
        assert table.objects_on(0) == {1} and table.version == version


class TestFromColumns:
    def test_round_trip(self, line_network):
        table = EdgeTable(line_network)
        for object_id, edge_id in ((5, 0), (2, 3), (9, 0)):
            table.insert_object(object_id, NetworkLocation(edge_id, 0.1 * object_id))
        stream = io.BytesIO()
        table.write_object_columns(stream)
        reader = ColumnReader(stream.getvalue())
        columns = reader.ints("ids", 3), reader.ints("edges", 3), reader.floats("f", 3)
        assert reader.offset == len(stream.getvalue())
        clone = EdgeTable.from_columns(line_network, *columns, table.version)
        assert list(clone.all_objects()) == list(table.all_objects())
        assert clone.edge_object_fractions(0) == table.edge_object_fractions(0)
        assert clone.version == table.version and clone.consistency_check()

    @pytest.mark.parametrize(
        "ids, edges, fractions",
        [([1, 2, 3], [0, 1], [0.5, 0.5]), ([1, 2], [0, 1, 2], [0.5, 0.5]),
         ([1, 2], [0, 1], [0.5])],
    )
    def test_columns_of_unequal_length_are_refused(self, line_network, ids, edges, fractions):
        with pytest.raises(InvalidLocationError, match="differ in length"):
            EdgeTable.from_columns(line_network, ids, edges, fractions, 0)

    def test_a_duplicate_id_is_refused(self, line_network):
        with pytest.raises(DuplicateObjectError):
            EdgeTable.from_columns(line_network, [4, 7, 4], [0, 1, 2], [0.5, 0.5, 0.5], 0)

    def test_through_load_snapshot_a_duplicate_is_a_recovery_error(self, line_network):
        server = MonitoringServer(line_network, algorithm="ima")
        for object_id in (1, 2):
            server.add_object(object_id, NetworkLocation(object_id, 0.5))
        server.tick()
        blob = server.snapshot_state()
        assert load_snapshot(rewrite_object_columns(blob, lambda rows: rows))
        damaged = rewrite_object_columns(blob, lambda rows: [rows[0], (1, *rows[1][1:])])
        with pytest.raises(RecoveryError, match="already registered"):
            load_snapshot(damaged)


class TestSnapping:
    def test_snap_point_to_nearest_edge(self, line_network):
        table = EdgeTable(line_network)
        # The line network runs along y=0 from x=0 to x=400.
        location = table.snap_point(Point(150.0, 12.0))
        assert location.edge_id == 1
        assert location.fraction == pytest.approx(0.5)

    def test_snap_point_clamps_to_edge_ends(self, line_network):
        table = EdgeTable(line_network)
        location = table.snap_point(Point(-50.0, 0.0))
        assert location.edge_id == 0
        assert location.fraction == pytest.approx(0.0)

    def test_snap_without_index_raises(self, line_network):
        table = EdgeTable(line_network, build_spatial_index=False)
        with pytest.raises(EdgeNotFoundError):
            table.snap_point(Point(1.0, 1.0))

    def test_rebuild_spatial_index(self, line_network):
        table = EdgeTable(line_network, build_spatial_index=False)
        index = table.rebuild_spatial_index()
        indexed = {edge_id for _, edge_ids in leaves_of(index) for edge_id in edge_ids}
        assert indexed == set(line_network.edge_ids())
        assert table.spatial_index is index

    def test_a_single_snap_is_one_batch_snap(self, line_network, monkeypatch):
        table = EdgeTable(line_network)
        calls = []
        snap_points = EdgeTable.snap_points

        def counted(self, points):
            calls.append(list(points))
            return snap_points(self, points)

        monkeypatch.setattr(EdgeTable, "snap_points", counted)
        assert table.snap_point(Point(150.0, 12.0)) == NetworkLocation(1, 0.5)
        assert calls == [[Point(150.0, 12.0)]]


class TestLazySpatialIndex:
    """The PMR quadtree is derived state: built once, on first use."""

    def test_construction_builds_no_tree(self, line_network, index_builds):
        table = EdgeTable(line_network)
        assert table.indexes_coordinates and index_builds == []
        table.snap_point(Point(150.0, 12.0))
        table.snap_points([Point(50.0, 1.0)] * 5)
        assert table.spatial_index is table.spatial_index
        assert index_builds == [table]

    def test_empty_network_has_no_tree(self):
        table = EdgeTable(RoadNetwork())
        assert table.spatial_index is None
        with pytest.raises(EdgeNotFoundError):
            table.snap_point(Point(0.0, 0.0))
        with pytest.raises(EdgeNotFoundError):
            table.snap_points([Point(0.0, 0.0)])

    def test_disabled_table_stays_without_tree(self, line_network):
        table = EdgeTable(line_network, build_spatial_index=False)
        assert table.spatial_index is None and not table.indexes_coordinates
        with pytest.raises(EdgeNotFoundError):
            table.snap_points([Point(1.0, 1.0)])

    def test_the_table_freezes_its_network_and_keeps_one_tree(self, small_grid, index_builds):
        network = small_grid
        table = EdgeTable(network)
        removed = next(iter(network.edge_ids()))
        midpoint = network.location_point(NetworkLocation(removed, 0.5))
        assert table.snap_point(midpoint).edge_id == removed
        with pytest.raises(TopologyFrozenError):
            network.remove_edge(removed)
        node = max(network.node_ids()) + 1
        with pytest.raises(TopologyFrozenError):
            network.add_node(node, x=-100.0, y=-100.0)
        assert network.has_edge(removed) and not network.has_node(node)
        assert table.snap_point(midpoint).edge_id == removed
        assert index_builds == [table]
