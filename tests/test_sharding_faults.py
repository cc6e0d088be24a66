"""Fault-handling tests for the sharded server (the bugfix satellites).

Pins the three repaired behaviours:

* a shard dying mid-tick fails the server *closed* — connections drained,
  workers stopped, and every later call raises the typed
  :class:`ServerFailedError` instead of wedging on a dead pipe;
* every reply wait is bounded by ``recv_timeout`` so a stuck (not dead) worker
  can no longer freeze the parent forever;
* workers do not outlive a coordinator killed with ``kill -9``, and the
  killed process group leaves nothing behind in ``/dev/shm``.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from typing import List

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


# ----------------------------------------------------------------------
# kill -9 of the coordinator must not orphan its workers
# ----------------------------------------------------------------------
# Three shards: the coordinator hosts one and two worker processes serve
# the others, so the first worker's pipe end is inherited by its sibling.
_COORDINATOR = """
import sys, time
from repro import MonitoringServer, city_network

server = MonitoringServer(city_network(100, seed=21), workers=3, partitioning=sys.argv[1])
server.add_object_at(1, x=50.0, y=50.0)
server.add_query_at(100, x=60.0, y=60.0, k=1)
server.tick()
assert server.shards == 3
print(*(shard.process.pid for shard in server._shards if shard.process), flush=True)
time.sleep(120)
"""


def _stat_fields(pid: int) -> List[str]:
    """The ``/proc/<pid>/stat`` fields after the command name ([] if gone)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return []
    return stat.rsplit(")", 1)[1].split()


def _running(pid: int) -> bool:
    """True while *pid* is a live process (an unreaped zombie is not)."""
    fields = _stat_fields(pid)
    return bool(fields) and fields[0] != "Z"


def _group_members(pgid: int) -> List[int]:
    """Live processes in process group *pgid* (``pgrp``, the fifth field)."""
    members = []
    for entry in pathlib.Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name))  # state, ppid, pgrp, ...
            if fields[:1] != ["Z"] and fields[2:3] == [str(pgid)]:
                members.append(int(entry.name))
    return members


def _start_coordinator(partitioning: str, **popen_kwargs) -> subprocess.Popen:
    """Run ``_COORDINATOR`` in a subprocess that imports this tree's ``src``."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR, partitioning],
        env=env, stdout=subprocess.PIPE, text=True, **popen_kwargs,
    )


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("partitioning", ["replica", "graph"])
def test_workers_do_not_outlive_a_sigkilled_coordinator(partitioning):
    """``kill -9`` runs no cleanup, so the workers must notice on their own.

    Under ``fork`` each worker's pipe end is inherited by the siblings
    started after it, so EOF on the pipe never comes; the fleet used to
    stay behind, every worker process per kill.
    """
    coordinator = _start_coordinator(partitioning)
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


@pytest.mark.skipif(
    not (os.path.isdir("/proc/self") and os.path.isdir("/dev/shm")),
    reason="needs /proc and /dev/shm",
)
@pytest.mark.parametrize("partitioning", ["replica", "graph"])
def test_a_sigkilled_service_group_leaves_nothing_behind(partitioning):
    """``killpg(SIGKILL)`` of the whole group: no process, no shm segment.

    Killing the group is what a supervisor does to a service; no member
    gets to clean up, so anything the fleet created in ``/dev/shm`` would
    stay there until the next reboot.
    """
    shm_before = set(os.listdir("/dev/shm"))
    coordinator = _start_coordinator(partitioning, start_new_session=True)
    group = coordinator.pid  # a new session leader leads its own group
    try:
        workers = [int(pid) for pid in coordinator.stdout.readline().split()]
        assert len(workers) == 2 and set(workers) <= set(_group_members(group))
        os.killpg(group, signal.SIGKILL)
        coordinator.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while _group_members(group) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = _group_members(group)
        assert not survivors, f"group members {survivors} survived kill -9"
        leaked = sorted(set(os.listdir("/dev/shm")) - shm_before)
        assert not leaked, f"/dev/shm entries {leaked} outlived the group"
    finally:
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        coordinator.wait(timeout=10)
        coordinator.stdout.close()
