"""A server's state is a function of its inputs, on every server shape.

Three properties of ``snapshot_state(static=False)`` (the dynamic section a
checkpoint stores) and of the write-ahead log, each on an in-process
server and on two-worker ``replica`` and ``graph`` fleets:

* two runs of the same inputs write the same bytes: the same log records,
  the same checkpoints and the same final dynamic section, the second run
  in another process with another string-hash seed, and no clock pinned;
* the dynamic section does not grow with the number of ticks: after many
  empty ticks it is the one after 10, apart from the widths of the
  integers in it (the timestamp and the cumulative work counters);
* crash, recover and continue writes the same next checkpoint as the run
  that never crashed, byte for byte, although the recovered side holds
  query specs it unpickled and the other side specs it built.

Both sides of every comparison run the same maintained-tree code, so no
float may differ, not even in the last place.
"""

from __future__ import annotations

import io
import os
import pathlib
import pickle
import pickletools
import shutil
import subprocess
import sys

import pytest

import repro
from repro import DurableMonitoringServer, city_network
from repro.core.server import _DYNAMIC_HEADER
from repro.core.sharding import ShardedMonitoringServer
from repro.service.eventlog import read_event_log
from repro.service.faults import build_scenario_server
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

#: The first moves, churns and reweights k-NN queries only; the second mixes
#: k-NN, range and aggregate queries, and is the default.
SCENARIOS = ("mixed-stress", "mixed-fleet")
SEED, EDGES, TICKS, CHECKPOINT_EVERY = 8, 120, 10, 4
#: Between the checkpoints at 4 and 8: recovery replays ticks 4 and 5.
CRASH_AT = 6

SHAPES = pytest.mark.parametrize(
    "workers, partitioning", [(None, None), (2, "replica"), (2, "graph")],
    ids=["in-process", "replica-2w", "graph-2w"],
)
ALGORITHMS = pytest.mark.parametrize("algorithm", ["IMA", "GMA"])


def _engine(scenario=SCENARIOS[-1]) -> ScenarioEngine:
    """The scenario's update stream (``build_scenario_server``'s seed and city)."""
    return ScenarioEngine(
        city_network(EDGES, seed=SEED + 1), resolve_scenario(scenario), seed=SEED
    )


def _batches(scenario: str) -> list:
    """The scenario's update batches for ``TICKS`` ticks."""
    engine = _engine(scenario)
    return [engine.batch(timestamp) for timestamp in range(TICKS)]


def _server(algorithm, workers=None, partitioning=None, scenario=SCENARIOS[-1]):
    """The scenario's server, in process or on a two-worker fleet."""
    template = build_scenario_server(scenario, SEED, EDGES, algorithm, None)
    if workers is None:
        return template
    server = ShardedMonitoringServer(
        template.network, algorithm=algorithm, edge_table=template.edge_table,
        workers=workers, partitioning=partitioning,
    )
    for query_id, (location, spec) in _engine(scenario).initial_queries().items():
        server.add_query(query_id, location, spec)
    return server


def drive(data_dir, algorithm, workers=None, partitioning=None, ticks=TICKS) -> bytes:
    """Run the scenario durably for *ticks* ticks; returns the final dynamic section."""
    engine = _engine()
    with DurableMonitoringServer(
        _server(algorithm, workers, partitioning), data_dir, checkpoint_every=CHECKPOINT_EVERY
    ) as durable:
        for timestamp in range(ticks):
            durable.server.apply_updates(engine.batch(timestamp))
            durable.tick()
        return durable.server.snapshot_state(static=False)


def _files(data_dir: pathlib.Path) -> dict:
    """Every file of a data directory, by relative path."""
    return {
        str(path.relative_to(data_dir)): path.read_bytes()
        for path in sorted(data_dir.rglob("*")) if path.is_file()
    }


@SHAPES
@ALGORITHMS
def test_two_runs_of_the_same_inputs_write_the_same_bytes(
    tmp_path, algorithm, workers, partitioning
):
    first = drive(tmp_path / "first", algorithm, workers, partitioning)
    tests = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(repro.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import pathlib, sys; sys.path.insert(0, sys.argv[1]); import test_state_bytes as t;"
        " workers = None if sys.argv[4] == '-' else int(sys.argv[4]);"
        " partitioning = None if sys.argv[5] == '-' else sys.argv[5];"
        " state = t.drive(pathlib.Path(sys.argv[2]), sys.argv[3], workers, partitioning);"
        " (pathlib.Path(sys.argv[2]) / 'state.bin').write_bytes(state)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(tests), str(tmp_path / "second"), algorithm,
         str(workers or "-"), partitioning or "-"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    second = _files(tmp_path / "second")
    assert second.pop("state.bin") == first
    written = _files(tmp_path / "first")
    assert sorted(written) == sorted(second)
    assert any(name.startswith("checkpoints/ckpt-") for name in written)
    for name, data in written.items():
        assert data == second[name], name
    assert len(read_event_log(tmp_path / "first" / "events.log")) == TICKS


_INTEGERS = {"BININT", "BININT1", "BININT2", "LONG1", "LONG4", "INT", "LONG"}
_BYTES = {"SHORT_BINBYTES", "BINBYTES", "BINBYTES8", "BYTEARRAY8"}


def _layout(pickle_bytes: bytes) -> list:
    """The pickle's opcodes and arguments, every integer's width and value erased.

    Nested pickles (a fleet's per-shard monitors) are expanded in place;
    frame boundaries are left out, since a frame holds a byte count.
    """
    layout = []
    for opcode, argument, _ in pickletools.genops(pickle_bytes):
        if opcode.name == "FRAME":
            continue
        if opcode.name in _INTEGERS:
            layout.append("int")
        elif opcode.name in _BYTES and bytes(argument[:1]) == b"\x80":
            layout.append(_layout(bytes(argument)))
        else:
            layout.append((opcode.name, argument))
    return layout


def _split(server, dynamic: bytes):
    """The dynamic section's header and columns, and its pickle."""
    columns = io.BytesIO()
    server.edge_table.write_object_columns(columns)
    start = _DYNAMIC_HEADER.size + 8 * server.network.edge_count + len(columns.getvalue())
    return dynamic[:start], dynamic[start:]


@SHAPES
@pytest.mark.parametrize("algorithm", ["OVH", "IMA", "GMA"])
def test_the_dynamic_section_does_not_grow_with_empty_ticks(algorithm, workers, partitioning):
    engine = _engine()
    with _server(algorithm, workers, partitioning) as server:
        for timestamp in range(TICKS):
            server.apply_updates(engine.batch(timestamp))
            server.tick()
        before = server.snapshot_state(static=False)
        # Past 255 the timestamp takes two bytes where it took one.
        for _ in range(300):
            server.tick()
        after = server.snapshot_state(static=False)
        assert server.current_timestamp == TICKS + 300
        columns_before, pickle_before = _split(server, before)
        columns_after, pickle_after = _split(server, after)
    assert columns_after == columns_before
    assert _layout(pickle_after) == _layout(pickle_before)
    assert 0 < len(after) - len(before) <= 16 * (1 + (workers or 0))


@SHAPES
@ALGORITHMS
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_recover_and_continue_writes_the_uninterrupted_checkpoint(
    tmp_path, scenario, algorithm, workers, partitioning
):
    uninterrupted, crashed = tmp_path / "uninterrupted", tmp_path / "crashed"
    with DurableMonitoringServer(
        _server(algorithm, workers, partitioning, scenario), uninterrupted,
        checkpoint_every=CHECKPOINT_EVERY,
    ) as durable:
        for timestamp, batch in enumerate(_batches(scenario)):
            if timestamp == CRASH_AT:
                # What a crash leaves: the directory as it is, mid-run.
                shutil.copytree(uninterrupted, crashed)
            durable.server.apply_updates(batch)
            durable.tick()
        expected = durable.server.snapshot_state(static=False)

    with DurableMonitoringServer.recover(crashed, checkpoint_every=CHECKPOINT_EVERY) as durable:
        assert durable.recovered_ticks == CRASH_AT - CHECKPOINT_EVERY
        for batch in _batches(scenario)[CRASH_AT:]:
            durable.server.apply_updates(batch)
            durable.tick()
        assert durable.server.snapshot_state(static=False) == expected
    checkpoint = f"checkpoints/ckpt-{2 * CHECKPOINT_EVERY:010d}.bin"
    assert _files(crashed)[checkpoint] == _files(uninterrupted)[checkpoint]
    assert _files(crashed) == _files(uninterrupted)


@ALGORITHMS
def test_a_monitor_pickled_with_the_old_report_list_loads_without_it(algorithm):
    # How earlier releases pickled a monitor, in a checkpoint (loaded by
    # restore_server) and in a shard blob (loaded by pickle.loads in the
    # worker): with every tick's report in it.
    engine = _engine()
    with _server(algorithm) as server:
        server.apply_updates(engine.batch(0))
        report = server.tick()
        monitor = server.monitor
        current = pickle.dumps(monitor, protocol=pickle.HIGHEST_PROTOCOL)
        vars(monitor)["_timestep_reports"] = [report]
        earlier = pickle.dumps(monitor, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"_timestep_reports" in earlier
    loaded = pickle.loads(earlier)
    assert not hasattr(loaded, "_timestep_reports")
    assert pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL) == current
