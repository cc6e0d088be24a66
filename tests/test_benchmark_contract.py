"""What ``benchmarks/e2e`` relies on in ``src/repro``, pinned in tier-1.

Under ``--trace 1`` ``benchmarks/e2e/launch.py`` wraps a list of module
globals, methods and callables with tracer spans *before* the service
starts, and ``run.py`` rebinds the frame codec with one-argument wrappers,
so renaming any of them — or changing how they are called — aborts the
benchmark run instead of failing a test.  The first test runs exactly that
wrapping (in a subprocess, because it rebinds ``os.fsync`` and class
attributes); the others pin the call shapes the wrappers and their value
hooks assume, and the launcher's build sequence.
"""

from __future__ import annotations

import ast
import asyncio
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import socket
import subprocess
import sys

from repro import DurableMonitoringServer, MonitoringServer, UpdateBatch, city_network
from repro.core import events
from repro.core.events import ObjectUpdate
from repro.network.graph import NetworkLocation
from repro.service import durable as durable_module
from repro.service import protocol
from repro.service import server as service_server
from repro.service.eventlog import EventLog
from repro.service.server import StreamingService

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


_SCRIPT = """
import sys
sys.path.insert(0, "benchmarks/e2e")
import launch
from tracer import Tracer
launch.install_tracing(Tracer())
"""


def test_install_tracing_resolves_every_wrapped_name():
    result = _run(_SCRIPT)
    assert result.returncode == 0, result.stderr


def test_frame_codec_takes_one_argument_and_is_resolved_as_a_module_global(monkeypatch):
    """``run.py``'s ``ClientCodecTimer`` rebinds both with ``timed(argument)``."""
    for function in (protocol.encode_frame, protocol.decode_payload):
        (parameter,) = inspect.signature(function).parameters.values()
        assert parameter.kind in (parameter.POSITIONAL_ONLY, parameter.POSITIONAL_OR_KEYWORD)
    calls = []

    def one_argument(function, measured):
        def timed(argument):
            result = function(argument)
            # launch.py's value hooks: len() of decode_payload's argument, of
            # encode_frame's result
            calls.append((function.__name__, len(argument if measured == "argument" else result)))
            return result

        return timed

    monkeypatch.setattr(protocol, "encode_frame", one_argument(protocol.encode_frame, "result"))
    monkeypatch.setattr(
        protocol, "decode_payload", one_argument(protocol.decode_payload, "argument")
    )
    message = ("apply", events.encode_batch(UpdateBatch(timestamp=3)))
    near, far = socket.socketpair()
    with near, far:
        protocol.send_frame(near, message)
        assert protocol.recv_frame(far) == message

    async def asyncio_pair():
        near, far = socket.socketpair()
        reader, closing = await asyncio.open_connection(sock=far)
        _, writer = await asyncio.open_connection(sock=near)
        try:
            await protocol.write_frame(writer, message)
            return await protocol.read_frame(reader)
        finally:
            writer.close()
            closing.close()

    assert asyncio.run(asyncio_pair()) == message
    names = [name for name, _ in calls]
    assert names == ["encode_frame", "decode_payload"] * 2  # all four frame functions
    frame, payload = calls[0][1], calls[1][1]
    assert frame == payload + 4 > 4


def test_batch_codec_globals_and_len_of_what_the_value_hooks_measure(tmp_path, monkeypatch):
    """``launch.py`` wraps these names *in the namespaces that imported them*."""
    assert service_server.decode_batch is events.decode_batch
    assert durable_module.decode_batch is events.decode_batch
    assert durable_module.encode_batch is events.encode_batch
    calls = []

    def spy(owner, name, measure):
        function = getattr(owner, name)

        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            calls.append((name, measure(args, result)))
            return result

        monkeypatch.setattr(owner, name, wrapper)

    spy(service_server, "decode_batch", lambda args, result: len(result))
    spy(durable_module, "decode_batch", lambda args, result: len(result))
    spy(durable_module, "encode_batch", lambda args, result: len(result))
    spy(EventLog, "append", lambda args, result: len(args[1]) + 8)
    spy(MonitoringServer, "snapshot_state", lambda args, result: len(result))

    network = city_network(60, seed=3)
    edge_id = sorted(network.edge_ids())[0]
    durable = DurableMonitoringServer(MonitoringServer(network), tmp_path / "data")
    batch = UpdateBatch()
    batch.object_updates.append(ObjectUpdate(1, None, NetworkLocation(edge_id, 0.5)))
    service = StreamingService(durable)

    async def apply_and_tick():
        assert (await service._dispatch(("apply", events.encode_batch(batch)), None))[0] == "ok"
        assert (await service._dispatch(("tick",), None))[0] == "ok"

    asyncio.run(apply_and_tick())
    DurableMonitoringServer.recover(tmp_path / "data").close()  # the "crash": no close()
    durable.close()
    measured = dict(calls)
    assert [name for name, _ in calls] == [
        "snapshot_state",                        # genesis checkpoint
        "decode_batch",                          # service.server, the apply frame
        "encode_batch", "append",                # service.durable.tick
        "decode_batch",                          # service.durable.recover, the replay
    ]
    assert measured["append"] == measured["encode_batch"] + 8
    assert measured["snapshot_state"] > 0 and measured["decode_batch"] == 1


_LAUNCH_SEQUENCE = """
import dataclasses, pathlib, sys
sys.path.insert(0, "benchmarks/e2e")
import workloads
from repro.core.events import decode_batch
from repro.core.server import MonitoringServer
from repro.realism import import_road_network
from repro.service.durable import DurableMonitoringServer

workdir = pathlib.Path(sys.argv[1])
tiny = dataclasses.replace(
    workloads.WORKLOADS_BY_NAME[sys.argv[2]], target_edges=300, objects=60, queries=6
)
inputs = workloads.generate(tiny, 7, str(workdir), 4)
# launch.main(), step for step
network = import_road_network(inputs.ways_path).network
deployment = {
    key: getattr(tiny, key)
    for key in ("algorithm", "workers", "partitioning")
    if getattr(tiny, key) is not None
}
server = MonitoringServer(network, **deployment)
server.apply_updates(decode_batch(pathlib.Path(inputs.initial_path).read_bytes()))
server.tick()
durable = DurableMonitoringServer(server, workdir / "data")
# the service's `apply` + `tick`, then kill -9 (no close) and the relaunch
for tick in inputs.ticks:
    server.apply_updates(decode_batch(tick.payload))
    durable.tick()
before = durable.results()
recovered = DurableMonitoringServer.recover(workdir / "data")
assert recovered.recovered_ticks == 4 and recovered.current_timestamp == 5
assert recovered.results() == before and len(before) == 6
recovered.close()
durable.close()
"""


def test_launch_build_sequence_runs_on_a_tiny_city(tmp_path):
    """``decode_batch(initial.bin)`` -> ``apply_updates`` -> ``tick`` -> durable -> ``recover``."""
    for workload in ("city-rush", "query-storm-2w"):
        workdir = tmp_path / workload
        workdir.mkdir()
        result = _run(_LAUNCH_SEQUENCE, str(workdir), workload)
        assert result.returncode == 0, result.stderr


_ENVIRONMENT_AND_SHARDED_META = """
import json, os, sys
sys.path.insert(0, "benchmarks/e2e")
os.environ["REPRO_NATIVE_CACHE"] = os.path.join(sys.argv[1], "native")
import launch
import run
from repro import MonitoringServer, city_network

env = run.environment(sys.argv[1])
network = city_network(60, seed=3)
with MonitoringServer(network, workers=2, partitioning="graph") as server:
    box = network.bounding_box()
    for index in range(12):
        server.add_object_at(index, x=box.min_x + 9.0 * index, y=box.min_y + 7.0 * index)
    server.add_query_at(1_000, x=box.min_x + 30.0, y=box.min_y + 30.0, k=3)
    server.tick()
    meta = launch.sharded_meta(server)
    shards = server.shards
print(json.dumps({"env": env, "meta": meta, "shards": shards}))
"""


def test_environment_and_sharded_meta_run_on_a_graph_fleet(tmp_path):
    """``run.environment()`` (reached with ``--out``) and ``launch.sharded_meta()``.

    Between them they import ``native_available`` and ``DEFAULT_KERNEL`` and
    call three sharded-server methods; deleting any of those aborts the
    benchmark run, not a test of its own.
    """
    result = _run(_ENVIRONMENT_AND_SHARDED_META, str(tmp_path))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    env, meta = report["env"], report["meta"]
    assert {
        "git_commit", "python", "nproc", "native_available", "default_kernel",
        "default_algorithm", "workdir_filesystem", "latency_note",
    } <= set(env)
    assert isinstance(env["native_available"], bool)
    assert isinstance(env["default_kernel"], str) and env["default_kernel"]
    assert isinstance(env["default_algorithm"], str) and env["default_algorithm"]
    assert set(meta) == {"boundary_queries", "divergent_queries", "worker_peak_rss"}
    assert isinstance(meta["boundary_queries"], int)
    assert isinstance(meta["divergent_queries"], int)
    # one figure per worker process: the coordinator hosts the last shard
    assert len(meta["worker_peak_rss"]) == report["shards"] - 1 == 1
    assert all(isinstance(size, int) and size > 0 for size in meta["worker_peak_rss"])


def test_every_repro_import_in_the_e2e_benchmark_resolves():
    """An AST sweep: each ``from repro... import name`` in ``benchmarks/e2e``."""
    checked = 0
    for path in sorted((ROOT / "benchmarks" / "e2e").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    resolves = hasattr(module, alias.name) or (
                        importlib.util.find_spec(f"{node.module}.{alias.name}") is not None
                    )
                    assert resolves, f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
                    checked += 1
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        assert importlib.util.find_spec(alias.name), f"{path.name}: {alias.name}"
                        checked += 1
    assert checked >= 20
