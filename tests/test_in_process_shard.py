"""The coordinator's own shard: an N-shard fleet runs N−1 worker processes.

:class:`ShardedMonitoringServer` hosts the layout's last shard as a
:class:`~repro.core.worker.ShardEngine` in its own process.  Pinned here:
the process count, that a failure inside that shard fails the server
closed like a dead worker, that a snapshot restores it from its own blob,
that ``worker_peak_rss()`` counts worker processes only, and that a
worker keeps no reference to its :class:`~repro.core.worker.ShardInit`
once it is ready.
"""

from __future__ import annotations

import gc
import multiprocessing
import threading
import weakref

import pytest

from repro import ShardedMonitoringServer, city_network
from repro.core import sharding, worker
from repro.core.server import restore_server
from repro.exceptions import MonitoringError, ServerFailedError
from repro.network.record import encode_network

LAYOUTS = [("graph", 1), ("replica", 2), ("graph", 2), ("replica", 4), ("graph", 4)]


def _populated(partitioning: str, workers: int, seed: int = 31) -> ShardedMonitoringServer:
    """A primed fleet over a 120-edge city: 20 objects, 8 queries, one tick."""
    network = city_network(120, seed=seed)
    server = ShardedMonitoringServer(
        network, algorithm="ima", workers=workers, partitioning=partitioning
    )
    box = network.bounding_box()
    width, height = box.max_x - box.min_x, box.max_y - box.min_y
    for object_id in range(20):
        server.add_object_at(
            object_id,
            x=box.min_x + width * ((object_id * 37) % 100) / 100.0,
            y=box.min_y + height * ((object_id * 61) % 100) / 100.0,
        )
    for index in range(8):
        server.add_query_at(
            1_000_000 + index,
            x=box.min_x + width * ((index * 29) % 100) / 100.0,
            y=box.min_y + height * ((index * 53) % 100) / 100.0,
            k=3,
        )
    server.tick()
    return server


def _step(server: ShardedMonitoringServer, step: int) -> None:
    """One tick of object, query and edge-weight updates."""
    box = server.network.bounding_box()
    server.move_object_at(step % 20, x=box.center.x + 7.0 * step, y=box.center.y)
    server.move_query_at(1_000_000 + step % 8, x=box.center.x, y=box.center.y - 5.0 * step)
    edge_id = sorted(server.network.edge_ids())[step]
    server.update_edge_weight(edge_id, server.network.edge(edge_id).weight * 1.25)
    server.tick()


def _child_pids() -> set:
    return {process.pid for process in multiprocessing.active_children()}


@pytest.mark.parametrize("partitioning,workers", LAYOUTS)
def test_an_n_shard_fleet_runs_n_minus_one_worker_processes(partitioning, workers):
    before = _child_pids()
    server = _populated(partitioning, workers)
    try:
        assert server.shards == workers
        children = _child_pids() - before
        assert len(children) == workers - 1
        assert [shard.process is None for shard in server._shards] == (
            [False] * (workers - 1) + [True]
        )
        assert {shard.process.pid for shard in server._shards[:-1]} == children
        assert server.results()  # every shard answered the first tick
    finally:
        server.close()
    assert not _child_pids() - before


@pytest.mark.parametrize("partitioning", ["replica", "graph"])
def test_a_failing_in_process_shard_fails_the_server_closed(partitioning, monkeypatch):
    server = _populated(partitioning, 3)
    try:
        children = [shard.process for shard in server._shards if shard.process]
        assert len(children) == 2

        def broken(*args):
            raise RuntimeError("in-process shard broke")

        # Only the coordinator's module is patched: the forked workers keep
        # the working filter, so the failure is the in-process shard's alone.
        monkeypatch.setattr(worker, "local_batch", broken)
        server.move_object_at(1, x=70.0, y=60.0)
        with pytest.raises(MonitoringError) as first:
            server.tick()
        assert not isinstance(first.value, ServerFailedError)
        assert "shard 2 (in-process) failed" in str(first.value)
        assert "in-process shard broke" in str(first.value)
        assert all(not process.is_alive() for process in children)
        with pytest.raises(ServerFailedError) as again:
            server.tick()
        assert "in-process shard broke" in again.value.cause
        with pytest.raises(ServerFailedError):
            server.worker_peak_rss()
    finally:
        server.close()


@pytest.mark.parametrize("partitioning", ["replica", "graph"])
def test_snapshot_restore_continue_is_byte_identical(partitioning, monkeypatch):
    built = []

    class RecordingEngine(worker.ShardEngine):
        def __init__(self, init):
            built.append(init)
            super().__init__(init)

    monkeypatch.setattr(sharding, "ShardEngine", RecordingEngine)
    original = _populated(partitioning, 3)
    try:
        _step(original, 1)
        blob = original.snapshot_state()
        restored = restore_server(blob)
        try:
            # one in-process engine per fleet: the restored one from its blob
            assert len(built) == 2
            assert built[0].monitor_blob is None and built[0].network_blob
            assert built[1].monitor_blob and built[1].network_blob is None
            assert restored.results() == original.results()
            for step in range(2, 6):
                _step(original, step)
                _step(restored, step)
                assert repr(sorted(restored.results().items())) == repr(
                    sorted(original.results().items())
                )
        finally:
            restored.close()
    finally:
        original.close()


@pytest.mark.parametrize("partitioning,workers", LAYOUTS)
def test_worker_peak_rss_has_one_entry_per_worker_process(partitioning, workers):
    server = _populated(partitioning, workers)
    try:
        sizes = server.worker_peak_rss()
        assert len(sizes) == workers - 1
        assert all(isinstance(size, int) and size > 0 for size in sizes)
    finally:
        server.close()


def test_a_worker_holds_no_reference_to_its_init_once_ready():
    """``run_shard_worker`` empties its one-slot list: after ``ready`` the init is garbage.

    The loop runs in a thread over a ``multiprocessing.Pipe()``, so the
    reachability is checked in this process.
    """
    network = city_network(60, seed=3)
    network.freeze()
    init = worker.ShardInit(
        shard_id=0,
        algorithm="ima",
        network_blob=encode_network(network),
        weights=network.weight_column(),
        objects={},
    )
    collected = weakref.ref(init)
    slot = [init]
    del init
    parent_conn, child_conn = multiprocessing.Pipe()
    thread = threading.Thread(target=worker.run_shard_worker, args=(child_conn, slot))
    thread.start()
    try:
        kind, payload = parent_conn.recv()
        assert kind == "ready" and payload == ({}, [])
        gc.collect()
        assert slot == [] and collected() is None
        parent_conn.send(("rss",))
        assert parent_conn.recv()[0] == "rss"  # still serving without it
    finally:
        parent_conn.send(("stop",))
        thread.join(timeout=10)
    assert not thread.is_alive()
