"""Fault-handling tests for the sharded server (the bugfix satellites).

Pins the three repaired behaviours:

* a shard dying mid-tick fails the server *closed* — connections drained,
  workers stopped, and every later call raises the typed
  :class:`ServerFailedError` instead of wedging on a dead pipe;
* ``_recv`` is bounded by ``recv_timeout`` so a stuck (not dead) worker
  can no longer freeze the parent forever;
* shared-memory teardown closes the mapping *before* unlinking the name;
* workers do not outlive a coordinator killed with ``kill -9``.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import ShardedMonitoringServer, city_network
from repro.exceptions import MonitoringError, ServerFailedError


@pytest.fixture
def sharded():
    network = city_network(100, seed=21)
    server = ShardedMonitoringServer(network, algorithm="ima", workers=2)
    for object_id, (x, y) in enumerate([(50.0, 50.0), (150.0, 80.0), (90.0, 140.0)]):
        server.add_object_at(object_id, x=x, y=y)
    for query_id in (100, 101, 102, 103):
        server.add_query_at(query_id, x=60.0 + 10 * query_id % 70, y=70.0, k=2)
    server.tick()
    yield server
    server.close()


def test_killed_worker_mid_tick_fails_server_closed(sharded):
    """SIGKILL a worker, tick: MonitoringError now, ServerFailedError after."""
    victim = sharded._shards[0].process
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=5.0)
    sharded.move_object_at(1, x=70.0, y=60.0)
    with pytest.raises(MonitoringError) as excinfo:
        sharded.tick()
    assert not isinstance(excinfo.value, ServerFailedError)  # the first report
    # fail-closed: the whole fleet is torn down, not just the dead shard
    assert all(not shard.process.is_alive() for shard in sharded._shards)
    assert sharded._shared is None
    # every further use raises the typed error carrying the original cause
    for attempt in (
        sharded.tick,
        lambda: sharded.add_object_at(9, x=10.0, y=10.0),
        sharded.snapshot_state,
    ):
        with pytest.raises(ServerFailedError) as reuse:
            attempt()
        assert "shard 0" in reuse.value.cause  # carries the original failure
    # close() after failure stays idempotent
    sharded.close()


def test_deliberate_close_is_not_a_failure(sharded):
    sharded.close()
    with pytest.raises(MonitoringError, match="closed") as excinfo:
        sharded.tick()
    assert not isinstance(excinfo.value, ServerFailedError)


def test_stuck_worker_trips_recv_timeout():
    """A SIGSTOPped worker neither replies nor dies: the deadline fires."""
    network = city_network(80, seed=22)
    server = ShardedMonitoringServer(
        network, algorithm="ima", workers=2, recv_timeout=1.0
    )
    try:
        server.add_object_at(1, x=50.0, y=50.0)
        server.add_query_at(100, x=60.0, y=60.0, k=1)
        server.tick()
        victim = server._shards[0].process
        os.kill(victim.pid, signal.SIGSTOP)
        # resume the worker shortly after the deadline so close()'s bounded
        # join(5s) succeeds without having to terminate it
        resume = threading.Timer(1.5, os.kill, args=(victim.pid, signal.SIGCONT))
        resume.start()
        try:
            server.move_object_at(1, x=55.0, y=55.0)
            started = time.monotonic()
            with pytest.raises(MonitoringError, match="did not reply"):
                server.tick()
            assert time.monotonic() - started < 10.0  # bounded, not forever
        finally:
            resume.join()
        with pytest.raises(ServerFailedError):
            server.tick()
    finally:
        server.close()


def test_recv_timeout_validation():
    network = city_network(60, seed=23)
    with pytest.raises(MonitoringError, match="recv_timeout"):
        ShardedMonitoringServer(network, workers=2, recv_timeout=0.0)
    with pytest.raises(MonitoringError, match="recv_timeout"):
        ShardedMonitoringServer(network, workers=2, recv_timeout=-1.0)


def test_shared_memory_closed_before_unlink():
    """Teardown order: close() the mapping first, then unlink() the name."""
    network = city_network(80, seed=24)
    server = ShardedMonitoringServer(network, algorithm="ima", workers=2)
    shared = server._shared
    assert shared is not None
    order = []
    real_close, real_unlink = shared.close, shared.unlink
    shared.close = lambda: (order.append("close"), real_close())[1]
    shared.unlink = lambda: (order.append("unlink"), real_unlink())[1]
    server.close()
    assert order == ["close", "unlink"]


# ----------------------------------------------------------------------
# kill -9 of the coordinator must not orphan its workers
# ----------------------------------------------------------------------
_COORDINATOR = """
import sys, time
from repro import MonitoringServer, city_network

server = MonitoringServer(city_network(100, seed=21), workers=2, partitioning=sys.argv[1])
server.add_object_at(1, x=50.0, y=50.0)
server.add_query_at(100, x=60.0, y=60.0, k=1)
server.tick()
print(*(shard.process.pid for shard in server._shards), flush=True)
time.sleep(120)
"""


def _running(pid: int) -> bool:
    """True while *pid* is a live process (an unreaped zombie is not)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("partitioning", ["replica", "graph"])
def test_workers_do_not_outlive_a_sigkilled_coordinator(partitioning):
    """``kill -9`` runs no cleanup, so the workers must notice on their own.

    Under ``fork`` each worker's pipe end is inherited by the siblings
    started after it, so EOF on the pipe never comes; the fleet used to
    stay behind, two processes per kill.
    """
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR, partitioning],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    workers = []
    try:
        workers = [int(pid) for pid in coordinator.stdout.readline().split()]
        assert len(workers) == 2 and all(_running(pid) for pid in workers)
        coordinator.kill()
        coordinator.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in workers if _running(pid)]
        assert not survivors, f"orphan shard workers {survivors} after kill -9"
    finally:
        coordinator.kill()
        coordinator.wait(timeout=10)
        coordinator.stdout.close()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
