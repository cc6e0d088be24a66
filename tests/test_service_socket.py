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
import pickle
import re
import struct
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
from repro import NetworkLocation, QuerySpec, UpdateBatch
from repro.core.base import TimestepReport
from repro.core.results import KnnResult
from repro.exceptions import FrameError, ServiceError
from repro.service import protocol, replay
from repro.service import server as service_server
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


@pytest.mark.parametrize(
    "x, y",
    [(float("nan"), 1.0), (float("inf"), 5.0), (1e308, 1e308), ("12.5", 0.0)],
    ids=["nan", "inf", "huge", "text"],
)
def test_unsnappable_coordinates_get_a_typed_reply_and_buffer_nothing(service, x, y):
    client, _ = service
    for verb, args in (
        ("add_object", (9001, x, y)),
        ("move_object", (9001, x, y)),
        ("add_query", (9100, x, y, 2)),
        ("move_query", (9100, x, y)),
    ):
        with pytest.raises(ServiceError, match="InvalidLocationError"):
            client.request(verb, *args)
    assert client.ping() == "pong"
    # neither id was taken by the refused verbs
    assert client.add_object(9001, 50.0, 50.0) is not None
    assert client.add_query(9100, 55.0, 55.0, 2) is not None
    client.tick()
    assert 9100 in client.results()


class _Exploit:
    """Pickles to a call of ``os.system`` — the textbook hostile frame."""

    def __init__(self, marker):
        self._marker = marker

    def __reduce__(self):
        return (os.system, (f"touch {self._marker}",))


def test_hostile_and_garbage_frames_are_refused_and_the_connection_serves_on(
    service, tmp_path
):
    """A frame may name four classes and nothing else; nothing else runs.

    The frames are written to the client's own socket, raw, so the bytes
    reach the service's ``decode_payload`` exactly as an attacker's would.
    """
    client, _ = service
    marker = tmp_path / "executed"
    hostile = pickle.dumps(("ping", _Exploit(marker)), protocol=pickle.HIGHEST_PROTOCOL)
    assert pickle.loads(hostile) and marker.exists()  # the payload does work...
    marker.unlink()
    for payload, complaint in (
        (hostile, "may not name"),
        (pickle.dumps(("add_query", 1, 0.0, 0.0, threading.Event)), "threading.Event"),
        (b"not a pickle at all", "cannot decode"),
        (b"", "cannot decode"),
    ):
        client._sock.sendall(struct.pack("<I", len(payload)) + payload)
        reply = protocol.recv_frame(client._sock)
        assert reply[:2] == ("error", "FrameError") and complaint in reply[2], reply
        assert client.ping() == "pong"  # same connection, still in step
    assert not marker.exists()  # ... but not on the service
    with pytest.raises(FrameError, match="posix.system|nt.system"):
        protocol.decode_payload(hostile)


def test_every_verb_of_the_protocol_table_passes_the_allow_list(service):
    """Requests, replies and deltas of all 17 verbs travel under the allow-list."""
    client, _ = service
    # a table row: the request in backticks, two or more spaces, the reply
    documented = set(
        re.findall(r'^``\("(\w+)"[^`]*``  +\S', service_server.__doc__, re.MULTILINE)
    )
    sent = []
    original = client.request

    def request(*parts):
        sent.append(parts[0])
        return original(*parts)

    client.request = request
    assert client.ping() == "pong"
    start = client.timestamp()
    assert client.subscribe() is True
    home = client.add_object(9001, 50.0, 50.0)
    assert isinstance(home, NetworkLocation)
    assert isinstance(client.move_object(9001, 52.0, 50.0), NetworkLocation)
    spec = QuerySpec.aggregate_knn(2, points=(home,), agg="max")
    assert isinstance(client.add_query(9100, 55.0, 55.0, 2), NetworkLocation)
    assert isinstance(client.add_query(9101, 55.0, 55.0, spec), NetworkLocation)
    assert isinstance(client.move_query(9100, 56.0, 55.0), NetworkLocation)
    assert client.update_edge(home.edge_id, 123.5) is True
    batch = UpdateBatch()
    batch.object_updates.append(repro.ObjectUpdate(9002, None, home))
    assert client.apply(batch) == start
    assert isinstance(client.tick(), TimestepReport)
    timestamp, changes = client.poll_delta(timeout=10.0)
    assert timestamp == start and isinstance(changes[9101], KnnResult)
    results = client.results()
    assert results[9100] == client.result(9100) and 9002 in results[9100].object_ids
    assert client.remove_query(9101) is True
    assert client.remove_object(9002) is True
    client.tick()
    assert client.poll_delta(timeout=10.0)[1][9101] is None
    assert client.unsubscribe() is True
    assert isinstance(client.checkpoint(), int)
    assert client.stop() is True
    assert set(sent) == documented and len(documented) == 17


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
