"""End-to-end tests of the streaming socket service.

Runs a real :class:`StreamingService` (asyncio, in a background thread)
over a durable server, drives it with :class:`ServiceClient` over TCP,
and checks the watch-mode delta pushes, the error surface, on-demand
checkpoints, and that the captured event log replays clean through the
differential harness and the ``repro.service.replay`` CLI.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import (
    DurableMonitoringServer,
    MonitoringServer,
    ServiceClient,
    StreamingService,
    city_network,
    run_differential_log,
)
from repro.exceptions import ServiceError
from repro.service import replay
from repro.service.faults import build_scenario_server


@pytest.fixture
def service(tmp_path):
    """A live service on a fresh durable scenario server; yields (client, dir)."""
    data_dir = tmp_path / "svc"
    server = build_scenario_server("uniform-drift", 3, 100, "IMA", "csr", None)
    durable = DurableMonitoringServer(server, data_dir, checkpoint_every=4)
    svc = StreamingService(durable, port=0)
    address_file = tmp_path / "address"
    thread = threading.Thread(
        target=lambda: asyncio.run(svc.run(address_file=address_file)),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 30.0
    while not address_file.exists():
        assert time.monotonic() < deadline, "service never published its address"
        time.sleep(0.02)
    host, port = address_file.read_text().split()
    client = ServiceClient(host, int(port))
    try:
        yield client, data_dir
    finally:
        try:
            client.stop()
        except (ServiceError, OSError, EOFError):
            pass  # a test may have stopped the service already
        client.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive()


def test_streaming_session_end_to_end(service):
    client, data_dir = service
    assert client.ping() == "pong"
    assert client.timestamp() == 0

    # coordinate ingestion goes through the server's snap index
    client.add_object(9001, 50.0, 50.0)
    client.add_query(9100, 55.0, 55.0, 2)
    assert client.subscribe() is True

    report = client.tick()
    assert report.timestamp == 0
    assert client.timestamp() == 1

    # the tick's changes were pushed watch-mode style to the subscriber
    delta = client.poll_delta(timeout=10.0)
    assert delta is not None
    timestamp, changes = delta
    assert timestamp == 0
    assert changes  # the fresh queries all changed
    assert changes.keys() <= set(client.results().keys()) | {
        qid for qid, result in changes.items() if result is None
    }

    # results/result agree between bulk and single fetch
    results = client.results()
    assert 9100 in results
    assert client.result(9100) == results[9100]

    # errors come back typed without killing the connection
    with pytest.raises(ServiceError, match="UnknownObjectError"):
        client.move_object(424242, 10.0, 10.0)
    assert client.ping() == "pong"  # connection survived the error

    # a removed query is announced as terminated (None) in the next delta
    client.remove_query(9100)
    client.tick()
    delta = client.poll_delta(timeout=10.0)
    assert delta is not None
    _, changes = delta
    assert changes.get(9100, "absent") is None

    assert client.unsubscribe() is True
    assert isinstance(client.checkpoint(), int)


def test_captured_log_replays_clean(service):
    client, data_dir = service
    client.add_object(9001, 40.0, 60.0)
    for _ in range(4):
        client.tick()
    client.checkpoint()
    client.stop()

    report = run_differential_log(data_dir)
    assert report.ok, report.mismatches[:5]
    assert report.timestamps == 4

    assert replay.main([str(data_dir), "--max-ticks", "2"]) == 0
    assert replay.main([str(data_dir)]) == 0


def test_wall_clock_ticks_push_deltas(tmp_path):
    """tick_interval drives the clock: deltas arrive with no tick requests."""
    network = city_network(80, seed=7)
    server = MonitoringServer(network, algorithm="IMA")
    durable = DurableMonitoringServer(server, tmp_path / "svc", checkpoint_every=None)
    svc = StreamingService(durable, port=0, tick_interval=0.05)
    address_file = tmp_path / "address"
    thread = threading.Thread(
        target=lambda: asyncio.run(svc.run(address_file=address_file)), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 30.0
    while not address_file.exists():
        assert time.monotonic() < deadline
        time.sleep(0.02)
    host, port = address_file.read_text().split()
    with ServiceClient(host, int(port)) as client:
        client.add_object(1, 30.0, 30.0)
        client.add_query(100, 35.0, 35.0, 1)
        client.subscribe()
        delta = client.poll_delta(timeout=10.0)
        assert delta is not None  # pushed by the wall-clock loop, unprompted
        _, changes = delta
        assert 100 in changes
        client.stop()
    thread.join(timeout=30.0)
    assert not thread.is_alive()


def test_service_rejects_bad_tick_interval(tmp_path):
    network = city_network(60, seed=8)
    durable = DurableMonitoringServer(
        MonitoringServer(network, algorithm="IMA"), tmp_path / "svc"
    )
    try:
        with pytest.raises(ServiceError, match="tick_interval"):
            StreamingService(durable, tick_interval=0.0)
    finally:
        durable.close()


def test_stop_with_an_idle_second_client_exits_cleanly(tmp_path):
    """``stop`` closes *every* connection, so no handler is left to cancel.

    A second client that is merely connected used to keep its handler task
    parked in ``read_frame``; ``asyncio.run`` then cancelled it on the way
    out and the process ended with a ``CancelledError`` traceback on stderr.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(repro.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    address_file = tmp_path / "address"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--data-dir", str(tmp_path / "data"),
            "--network-edges", "60",
            "--address-file", str(address_file),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not address_file.exists():
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "service never published its address"
            time.sleep(0.02)
        host, port = address_file.read_text().split()
        idle = ServiceClient(host, int(port))
        assert idle.request("ping") == "pong"  # its handler is serving
        stopper = ServiceClient(host, int(port))
        stopper.stop()
        _, stderr = proc.communicate(timeout=30.0)
        idle.close()
        stopper.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
    assert stderr == ""
