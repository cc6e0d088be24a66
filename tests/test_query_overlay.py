"""Buffered query updates live in an overlay until the tick that applies them.

The server keeps its query maps as the last tick left them (the applied
state, :attr:`MonitoringServer.applied_query_locations`) and the pending
buffer's installations, moves and terminations beside them, so
``discard_pending`` is a clear of that overlay.  Pinned here, on the
in-process server and on replica and graph fleets of two workers:

* a discarded removal leaves the query installed *with its spec*;
* a discarded move that changed the spec (k-NN -> range), ingested as a
  normalized spec-carrying move or as a remove + re-add, leaves the old
  spec, the one the monitors still run;
* both hold after ``DurableMonitoringServer.recover`` from a checkpoint
  that captured the pending updates;
* the applied map is the pre-batch state until the tick, and then keeps
  the order ingesting into it would (a re-installed query goes last).
"""

from __future__ import annotations

import pytest

from repro import DurableMonitoringServer, MonitoringServer, QuerySpec, city_network
from repro.core.events import QueryUpdate, UpdateBatch
from repro.network.graph import NetworkLocation

SHAPES = [(1, "replica"), (2, "replica"), (2, "graph")]
SHAPE_IDS = ["in-process", "replica-2w", "graph-2w"]
KNN, RANGE = QuerySpec.knn(2), QuerySpec.range(40.0)
Q, OTHER = 500, 501


def _server(workers: int, partitioning: str) -> MonitoringServer:
    """A ticked server over a 120-edge city: 12 objects, queries Q and OTHER (k = 2)."""
    network = city_network(120, seed=17)
    server = MonitoringServer(network, algorithm="ima", workers=workers, partitioning=partitioning)
    edges = sorted(network.edge_ids())
    for object_id in range(12):
        server.add_object(object_id, NetworkLocation(edges[(object_id * 7) % len(edges)], 0.5))
    server.add_query(Q, NetworkLocation(edges[3], 0.25), 2)
    server.add_query(OTHER, NetworkLocation(edges[40], 0.75), 2)
    server.tick()
    return server


def _respecify(server: MonitoringServer, how: str) -> None:
    """Buffer a spec change of Q to RANGE, at a new location."""
    location = NetworkLocation(sorted(server.network.edge_ids())[9], 0.5)
    if how == "spec-carrying move":
        server.apply_updates(
            UpdateBatch(
                # apply_updates fills the old location in from the server
                query_updates=[QueryUpdate(Q, location, location, RANGE)]
            )
        )
    else:
        server.remove_query(Q)
        server.add_query(Q, location, RANGE)


def _assert_as_ticked(server: MonitoringServer, reference: MonitoringServer) -> None:
    """Q is installed with its k-NN spec, and a tick answers as the reference does."""
    assert server.query_ids() == {Q, OTHER}
    assert server.query_spec_of(Q) == KNN
    assert dict(server.applied_query_locations) == dict(reference.applied_query_locations)
    server.tick()
    reference.tick()
    assert server.results() == reference.results()
    assert server.result_of(Q).k == 2


@pytest.mark.parametrize("workers, partitioning", SHAPES, ids=SHAPE_IDS)
def test_a_discarded_removal_leaves_the_query_and_its_spec(workers, partitioning):
    server, reference = _server(workers, partitioning), _server(1, "replica")
    try:
        server.remove_query(Q)
        assert Q not in server.query_ids()
        server.discard_pending()
        _assert_as_ticked(server, reference)
    finally:
        server.close()


@pytest.mark.parametrize("how", ["spec-carrying move", "remove + add"])
@pytest.mark.parametrize("workers, partitioning", SHAPES, ids=SHAPE_IDS)
def test_a_discarded_spec_change_leaves_the_spec_the_monitor_runs(workers, partitioning, how):
    server, reference = _server(workers, partitioning), _server(1, "replica")
    try:
        _respecify(server, how)
        assert server.query_spec_of(Q) == RANGE
        server.discard_pending()
        _assert_as_ticked(server, reference)
    finally:
        server.close()


@pytest.mark.parametrize("workers, partitioning", SHAPES, ids=SHAPE_IDS)
def test_recovery_from_a_checkpoint_of_pending_query_updates(tmp_path, workers, partitioning):
    """The checkpoint holds a pending removal of OTHER and a spec change of Q.

    They are discarded before the next tick, so the log has no trace of
    them; recovery restores the checkpoint, drops its buffer and replays
    that tick, which must leave both queries as they were ticked.
    """
    server, reference = _server(workers, partitioning), _server(1, "replica")
    durable = DurableMonitoringServer(server, tmp_path / "data", checkpoint_every=None)
    try:
        server.remove_query(OTHER)
        _respecify(server, "remove + add")
        durable.checkpoint()
        server.discard_pending()
        server.move_object(3, NetworkLocation(sorted(server.network.edge_ids())[5], 0.5))
        reference.move_object(3, NetworkLocation(sorted(server.network.edge_ids())[5], 0.5))
        durable.tick()
        reference.tick()
        expected = durable.results()
        assert expected == reference.results()
        recovered = DurableMonitoringServer.recover(tmp_path / "data", checkpoint_every=None)
        try:
            assert recovered.recovered_ticks == 1 and recovered.results() == expected
            _assert_as_ticked(recovered.server, reference)
        finally:
            recovered.close()
    finally:
        durable.close()


def test_the_applied_map_is_the_pre_batch_state_and_keeps_ingest_order():
    server = _server(1, "replica")
    edges = sorted(server.network.edge_ids())
    before = dict(server.applied_query_locations)
    server.move_query(OTHER, NetworkLocation(edges[41], 0.5))
    server.remove_query(Q)
    server.add_query(Q, NetworkLocation(edges[2], 0.5), RANGE)
    server.add_query(502, NetworkLocation(edges[50], 0.5), 3)
    assert dict(server.applied_query_locations) == before
    assert server.query_ids() == {Q, OTHER, 502}
    server.tick()
    # OTHER moved in place; the installations go last, Q's re-installation
    # first, as it was ingested first.
    assert list(server.applied_query_locations) == [OTHER, Q, 502]
    assert server.query_spec_of(Q) == RANGE
    assert server.applied_query_locations[OTHER] == NetworkLocation(edges[41], 0.5)
