"""Tests of the monitoring server's batched ingestion path.

Covers :meth:`MonitoringServer.apply_updates`, the bulk coordinate methods
(:meth:`add_objects_at` / :meth:`move_objects_at` with vectorized quadtree
snapping), the id-misuse regressions (``UnknownObjectError`` on the batch
path), and the equivalence of a server driven through the batch API with
one driven through the per-entity methods.
"""

from __future__ import annotations

import random

import pytest

from repro.core.events import EdgeWeightUpdate, ObjectUpdate, QueryUpdate, UpdateBatch
from repro.core.server import MonitoringServer
from repro.exceptions import (
    DuplicateObjectError,
    DuplicateQueryError,
    UnknownObjectError,
    UnknownQueryError,
)
from repro.experiments.config import SMOKE_DEFAULTS
from repro.network.builders import city_network
from repro.network.graph import NetworkLocation
from repro.sim.simulator import Simulator
from repro.spatial.geometry import Point


@pytest.fixture
def city_server():
    network = city_network(150, seed=11)
    return MonitoringServer(network, algorithm="ima")


class TestBulkCoordinateIngestion:
    def test_add_objects_at_matches_single_path(self, city_server):
        box = city_server.network.bounding_box()
        rng = random.Random(3)
        items = [
            (i, rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y))
            for i in range(50)
        ]
        snapped = city_server.add_objects_at(items)
        assert set(snapped) == {i for i, _, _ in items}
        network = city_server.network
        for object_id, x, y in items:
            bulk_loc = snapped[object_id]
            single_loc = city_server.snap(x, y)
            point = Point(x, y)
            bulk_dist = network.edge_segment(bulk_loc.edge_id).distance_to_point(point)
            single_dist = network.edge_segment(single_loc.edge_id).distance_to_point(point)
            # Equidistant ties may pick a different edge; never a worse one.
            assert bulk_dist == pytest.approx(single_dist, abs=1e-9)

    def test_add_objects_at_duplicate_rejected_atomically(self, city_server):
        city_server.add_objects_at([(1, 10.0, 10.0)])
        with pytest.raises(DuplicateObjectError):
            city_server.add_objects_at([(2, 0.0, 0.0), (1, 5.0, 5.0)])
        # The whole batch was rejected: id 2 was never buffered.
        assert city_server.object_ids() == {1}

    def test_add_objects_at_duplicate_within_batch(self, city_server):
        with pytest.raises(DuplicateObjectError):
            city_server.add_objects_at([(7, 0.0, 0.0), (7, 5.0, 5.0)])
        assert city_server.object_ids() == set()

    def test_move_objects_at_updates_positions(self, city_server):
        city_server.add_objects_at([(1, 10.0, 10.0), (2, 90.0, 40.0)])
        city_server.tick()
        snapped = city_server.move_objects_at([(1, 55.0, 60.0), (2, 12.0, 88.0)])
        city_server.tick()
        for object_id, location in snapped.items():
            assert city_server.edge_table.location_of(object_id) == location

    def test_move_objects_at_unknown_id_raises(self, city_server):
        """Regression: never-added ids must raise on the batch path too."""
        city_server.add_objects_at([(1, 10.0, 10.0)])
        with pytest.raises(UnknownObjectError):
            city_server.move_objects_at([(1, 20.0, 20.0), (424242, 30.0, 30.0)])
        # Atomic: the valid movement was not buffered either.
        city_server.tick()
        assert city_server.edge_table.has_object(1)

    def test_move_objects_at_empty_server_raises(self, city_server):
        with pytest.raises(UnknownObjectError):
            city_server.move_objects_at([(5, 1.0, 1.0)])


class TestApplyUpdates:
    def _location(self, server, rng):
        edge_ids = list(server.network.edge_ids())
        return NetworkLocation(rng.choice(edge_ids), rng.random())

    def test_batch_equivalent_to_per_entity_calls(self):
        rng = random.Random(17)
        network = city_network(150, seed=11)
        batch_server = MonitoringServer(network, algorithm="ima")
        single_server = MonitoringServer(network.copy(), algorithm="ima")

        object_locations = {
            object_id: self._location(batch_server, rng) for object_id in range(30)
        }
        query_location = self._location(batch_server, rng)

        batch = UpdateBatch()
        for object_id, location in object_locations.items():
            batch.object_updates.append(ObjectUpdate(object_id, None, location))
        batch.query_updates.append(QueryUpdate(100, None, query_location, k=3))
        batch_server.apply_updates(batch)
        batch_server.tick()

        for object_id, location in object_locations.items():
            single_server.add_object(object_id, location)
        single_server.add_query(100, query_location, k=3)
        single_server.tick()

        assert (
            batch_server.result_of(100).neighbors
            == single_server.result_of(100).neighbors
        )

    def test_apply_updates_rederives_old_state(self, city_server):
        rng = random.Random(23)
        location = self._location(city_server, rng)
        city_server.add_object(1, location)
        city_server.tick()
        new_location = self._location(city_server, rng)
        # The caller's old_location is deliberately wrong; the server must
        # use its own view instead of trusting it.
        bogus_old = self._location(city_server, rng)
        batch = UpdateBatch()
        batch.object_updates.append(ObjectUpdate(1, bogus_old, new_location))
        city_server.apply_updates(batch)
        city_server.tick()
        assert city_server.edge_table.location_of(1) == new_location

    def test_apply_updates_validates_before_buffering(self, city_server):
        rng = random.Random(29)
        good = ObjectUpdate(1, None, self._location(city_server, rng))
        unknown_move = ObjectUpdate(
            999, self._location(city_server, rng), self._location(city_server, rng)
        )
        batch = UpdateBatch(object_updates=[good, unknown_move])
        with pytest.raises(UnknownObjectError):
            city_server.apply_updates(batch)
        city_server.tick()
        assert not city_server.edge_table.has_object(1)

    def test_apply_updates_insert_then_delete_same_batch(self, city_server):
        """Regression: a net no-op (appear + disappear in one timestamp) must
        normalize away instead of crashing the tick."""
        rng = random.Random(43)
        location = self._location(city_server, rng)
        survivor = self._location(city_server, rng)
        batch = UpdateBatch(
            object_updates=[
                ObjectUpdate(1, None, location),
                ObjectUpdate(1, location, None),
                ObjectUpdate(2, None, survivor),
            ]
        )
        city_server.apply_updates(batch)
        city_server.tick()
        assert not city_server.edge_table.has_object(1)
        assert city_server.edge_table.location_of(2) == survivor

    def test_add_then_remove_object_same_tick(self, city_server):
        """The per-entity path hits the same normalize rule (seed crashed)."""
        city_server.add_object_at(1, 10.0, 10.0)
        city_server.remove_object(1)
        report = city_server.tick()
        assert report.timestamp == 0
        assert not city_server.edge_table.has_object(1)

    def test_query_install_then_terminate_same_tick(self, city_server):
        rng = random.Random(47)
        location = self._location(city_server, rng)
        city_server.add_query(100, location, k=2)
        city_server.remove_query(100)
        city_server.tick()
        assert city_server.query_ids() == set()

    def test_apply_updates_insert_then_move_same_batch(self, city_server):
        rng = random.Random(31)
        first = self._location(city_server, rng)
        second = self._location(city_server, rng)
        batch = UpdateBatch(
            object_updates=[
                ObjectUpdate(1, None, first),
                ObjectUpdate(1, first, second),
            ]
        )
        city_server.apply_updates(batch)
        city_server.tick()
        assert city_server.edge_table.location_of(1) == second

    def test_apply_updates_duplicate_query_rejected(self, city_server):
        rng = random.Random(37)
        location = self._location(city_server, rng)
        city_server.add_query(100, location, k=2)
        batch = UpdateBatch(
            query_updates=[QueryUpdate(100, None, location, k=2)]
        )
        with pytest.raises(DuplicateQueryError):
            city_server.apply_updates(batch)

    def test_apply_updates_unknown_query_rejected(self, city_server):
        rng = random.Random(41)
        batch = UpdateBatch(
            query_updates=[
                QueryUpdate(100, self._location(city_server, rng), None)
            ]
        )
        with pytest.raises(UnknownQueryError):
            city_server.apply_updates(batch)

    def test_apply_updates_edge_weights(self, city_server):
        edge_id = next(city_server.network.edge_ids())
        batch = UpdateBatch(
            edge_updates=[EdgeWeightUpdate(edge_id, 1.0, 77.0)]
        )
        city_server.apply_updates(batch)
        city_server.tick()
        assert city_server.network.edge(edge_id).weight == 77.0


class TestSimulatorServerWiring:
    def test_drive_server_matches_manual_monitor(self):
        config = SMOKE_DEFAULTS.with_overrides(timestamps=3)
        sim = Simulator(config)
        server = sim.make_server("ima")
        reports = sim.drive_server(server)
        assert len(reports) == 3

        from repro.core.events import apply_batch

        reference = Simulator(config)
        monitor = reference.build_monitors(["IMA"])["IMA"]
        for query_id, location in reference.query_locations().items():
            monitor.register_query(query_id, location, config.k)
        for timestamp in range(3):
            batch = reference.generate_batch(timestamp)
            apply_batch(reference.network, reference.edge_table, batch.normalized())
            monitor.process_batch(batch)

        for query_id in reference.query_locations():
            assert (
                server.result_of(query_id).neighbors
                == monitor.result_of(query_id).neighbors
            )


class TestPendingOverlay:
    """Objects the pending buffer touched live in an overlay over the edge table."""

    @staticmethod
    def _server(count=4):
        network = city_network(60, seed=5)
        server = MonitoringServer(network, algorithm="ima")
        edges = sorted(network.edge_ids())
        for object_id in range(count):
            server.add_object(object_id, NetworkLocation(edges[object_id], 0.5))
        server.tick()
        return server, edges

    def test_insert_move_delete_reinsert_in_one_tick(self):
        """``apply_updates`` re-derives every old location along the chain."""
        server, edges = self._server()
        a, b, c = (NetworkLocation(edges[i], 0.25) for i in (10, 11, 12))
        with pytest.raises(DuplicateObjectError):
            server.apply_updates(
                UpdateBatch(object_updates=[ObjectUpdate(50, None, a)] * 2)
            )
        assert server.object_ids() == {0, 1, 2, 3}  # the failed batch left nothing
        batch = UpdateBatch()
        batch.object_updates += [
            ObjectUpdate(50, None, a),  # insert
            ObjectUpdate(50, c, b),     # move: the stated old location is ignored
            ObjectUpdate(50, c, None),  # delete
            ObjectUpdate(50, None, c),  # re-insert
            ObjectUpdate(1, c, a),      # a ticked object: move, delete, re-insert
            ObjectUpdate(1, c, None),
            ObjectUpdate(1, None, b),
        ]
        server.apply_updates(batch)
        assert server.object_ids() == {0, 1, 2, 3, 50}
        taken = server.take_pending_batch()
        assert [u.old_location for u in taken.object_updates] == [
            None, a, b, None, NetworkLocation(edges[1], 0.5), a, None
        ]
        net = {u.object_id: u for u in taken.normalized().object_updates}
        assert net[50] == ObjectUpdate(50, None, c)
        assert net[1] == ObjectUpdate(1, NetworkLocation(edges[1], 0.5), b)

    def test_the_chain_ticks_to_its_net_effect(self):
        server, edges = self._server()
        a, b, c = (NetworkLocation(edges[i], 0.25) for i in (10, 11, 12))
        server.add_object(50, a)
        server.move_object(50, b)
        server.remove_object(50)
        server.add_object(50, c)
        server.remove_object(2)
        server.add_object(2, a)
        server.move_object(3, b)
        server.remove_object(3)
        assert server.object_ids() == {0, 1, 2, 50}
        server.tick()
        table = server.edge_table
        assert dict(table.all_objects()) == {
            0: NetworkLocation(edges[0], 0.5),
            1: NetworkLocation(edges[1], 0.5),
            2: a,
            50: c,
        }
        assert server.object_ids() == {0, 1, 2, 50}
        with pytest.raises(UnknownObjectError):
            server.move_object(3, a)
        with pytest.raises(DuplicateObjectError):
            server.add_object(50, a)

    def test_discard_pending_rolls_every_object_back_to_the_table(self):
        server, edges = self._server()
        before = dict(server.edge_table.all_objects())
        server.add_object(50, NetworkLocation(edges[10], 0.1))
        server.move_object(0, NetworkLocation(edges[11], 0.1))
        server.remove_object(1)
        server.remove_object(2)
        server.add_object(2, NetworkLocation(edges[12], 0.1))
        dropped = server.discard_pending()
        assert len(dropped.object_updates) == 5
        assert server.object_ids() == set(before) == {0, 1, 2, 3}
        assert dict(server.edge_table.all_objects()) == before
        # every id is usable again as the ticked state says
        server.move_object(1, NetworkLocation(edges[13], 0.2))
        with pytest.raises(UnknownObjectError):
            server.move_object(50, NetworkLocation(edges[13], 0.2))
        with pytest.raises(DuplicateObjectError):
            server.add_object(0, NetworkLocation(edges[13], 0.2))
        (update,) = server.take_pending_batch().object_updates
        assert update == ObjectUpdate(1, before[1], NetworkLocation(edges[13], 0.2))

    def test_object_ids_reads_pending_adds_and_removes_through_the_overlay(self):
        server, edges = self._server()
        assert server.object_ids() == {0, 1, 2, 3}
        server.add_objects_at([(60, 1.0, 1.0), (61, 2.0, 2.0)])
        server.remove_object(0)
        server.remove_object(60)
        assert server.object_ids() == {1, 2, 3, 61}
        moved = server.move_objects_at([(61, 3.0, 3.0), (1, 4.0, 4.0)])
        (first, second) = server.take_pending_batch().object_updates[-2:]
        assert first.new_location == moved[61] and second.new_location == moved[1]
        assert second.old_location == NetworkLocation(edges[1], 0.5)
        # detached: the table has not seen the batch, and the overlay is empty
        assert server.object_ids() == {0, 1, 2, 3}
