"""Replaying write-ahead logs whose records leave their old values out.

Properties of the log the durable server writes against its edge table
(header flag bit 1):

* a captured run — moves, deletions, a same-tick delete + re-insert and a
  weight storm — replays clean through ``python -m repro.service.replay``,
  which decodes each record against its own edge table;
* every server shape (in process, whole-network and region-block fleets)
  recovers it, from the newest checkpoint and from genesis;
* a data directory an earlier release wrote (``RPCKPT05`` checkpoints and
  self-contained version-2 records after the newest one,
  ``tests/data/rpckpt05``) still recovers, and then continues byte for byte as that release did,
  apart from the tick reports that release also kept in its state;
* so does one whose records keep their query old locations (flags
  ``0x03``) and whose newest checkpoint stored the query maps with a
  pending termination and a pending spec-changing move already in them
  (``tests/data/wal-flag02``): same results, and the same state apart from
  the dynamic section's version byte, which tells the two query-map forms
  apart.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import repro
from repro import DurableMonitoringServer, city_network, decode_batch
from repro.core.events import apply_batch
from repro.core.server import load_snapshot, restore_server
from repro.core.sharding import ShardedMonitoringServer
from repro.network.graph import NetworkLocation
from repro.service.durable import _read_base, _read_checkpoint, load_initial_state
from repro.service.eventlog import read_event_log
from repro.service.faults import build_scenario_server
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

FLAG_OLD_FROM_TABLE = 0x02
FIXTURE = pathlib.Path(__file__).parent / "data" / "rpckpt05"
FLAG02_FIXTURE = pathlib.Path(__file__).parent / "data" / "wal-flag02"
SCENARIO, SEED, EDGES = "mixed-stress", 8, 120


def _server(workers=None, partitioning=None):
    """The scenario's server, in process or on a two-worker fleet."""
    template = build_scenario_server(SCENARIO, SEED, EDGES, "IMA", None)
    if workers is None:
        return template
    server = ShardedMonitoringServer(
        template.network, algorithm="IMA", edge_table=template.edge_table,
        workers=workers, partitioning=partitioning or "replica",
    )
    for query_id, (location, k) in _engine().initial_queries().items():
        server.add_query(query_id, location, k)
    return server


def _engine():
    """The scenario's update stream (``build_scenario_server``'s seed and city)."""
    return ScenarioEngine(
        city_network(EDGES, seed=SEED + 1), resolve_scenario(SCENARIO), seed=SEED
    )


def _capture(data_dir, server, ticks=6, reinsert_at=3):
    """Drive *server* durably on ``mixed-stress`` plus one same-tick delete + re-insert.

    Returns the durable server (left open, as a crash leaves it), its
    results after the last tick, and the tick of the re-insert, the
    object's id and where it went.
    """
    engine = _engine()
    durable = DurableMonitoringServer(server, data_dir, checkpoint_every=4)
    reinserted = None
    for timestamp in range(ticks):
        server.apply_updates(engine.batch(timestamp))
        if timestamp == reinsert_at:
            object_id = min(server.object_ids())
            edge_id = server.edge_table.location_of(object_id).edge_id
            server.remove_object(object_id)
            reinserted = (timestamp, object_id, NetworkLocation(edge_id, 0.125))
            server.add_object(object_id, reinserted[2])
        durable.tick()
    return durable, durable.results(), reinserted


def test_a_captured_run_replays_clean_through_the_cli(tmp_path):
    data_dir = tmp_path / "capture"
    durable, _, (timestamp, object_id, location) = _capture(data_dir, _server())
    durable.close()
    payloads = read_event_log(data_dir / "events.log")
    assert payloads and all(payload[5] & FLAG_OLD_FROM_TABLE for payload in payloads)

    # What the log holds, decoded the way the replay does: each record
    # against the table and the query map before that record is applied.
    initial = load_initial_state(data_dir)
    queries = {query_id: location for query_id, (location, _) in initial.queries.items()}
    moves = deletions = edge_updates = 0
    for payload in payloads:
        batch = decode_batch(payload, initial.edge_table, queries)
        for update in batch.query_updates:
            if update.is_termination:
                del queries[update.query_id]
            else:
                queries[update.query_id] = update.new_location
        for update in batch.object_updates:
            moves += update.old_location is not None and update.new_location is not None
            deletions += update.new_location is None
        edge_updates += len(batch.edge_updates)
        if batch.timestamp == timestamp:
            (row,) = [u for u in batch.object_updates if u.object_id == object_id]
            assert row.old_location is not None and row.new_location == location
        apply_batch(initial.network, initial.edge_table, batch)
    assert moves and deletions and edge_updates >= 5 * len(payloads)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(repro.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro.service.replay", str(data_dir)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"replayed {len(payloads)} logged batches" in result.stdout
    assert " 0 mismatches" in result.stdout


def _results_as_json(results) -> dict:
    """The fixture's form of ``results()``: distances as ``float.hex``."""
    return {
        str(query_id): [[object_id, distance.hex()] for object_id, distance in result.neighbors]
        for query_id, result in sorted(results.items())
    }


def test_a_data_directory_with_self_contained_records_recovers_and_continues(tmp_path):
    data_dir = tmp_path / "data"
    shutil.copytree(FIXTURE / "data", data_dir)
    logged = read_event_log(data_dir / "events.log")
    assert len(logged) == 5 and not any(p[5] & FLAG_OLD_FROM_TABLE for p in logged)
    assert all(p[4] == 2 for p in logged)  # record version 2: int32 / int64 columns
    expected = json.loads((FIXTURE / "expected.json").read_text())

    recovered = DurableMonitoringServer.recover(data_dir, checkpoint_every=None)
    try:
        assert recovered.recovered_ticks == 2 and recovered.current_timestamp == 5
        for payload in read_event_log(FIXTURE / "continuation.log"):
            recovered.server.apply_updates(decode_batch(payload))
            recovered.tick()
            assert _results_as_json(recovered.results()) == expected[
                str(recovered.current_timestamp)
            ]
        assert recovered.current_timestamp == 8
        # The earlier release's monitor also kept a report per tick, which
        # this release drops on load: compare the two states as this
        # release restores and re-snapshots them.
        static = io.BytesIO()
        recovered.server.write_static_state(static)

        def resnapshot(dynamic: bytes) -> bytes:
            return restore_server(dynamic, static.getvalue()).snapshot_state(static=False)

        state = recovered.server.snapshot_state(static=False)
        expected_state = (FIXTURE / "expected-state.bin").read_bytes()
        assert b"_timestep_reports" in expected_state
        assert resnapshot(state) == state == resnapshot(expected_state)
    finally:
        recovered.close()
    # The old records stay as they were; the new ones are version 3 and
    # leave their old values out.
    after = read_event_log(data_dir / "events.log")
    assert after[:5] == logged
    assert len(after) == 8 and all(p[5] & FLAG_OLD_FROM_TABLE for p in after[5:])
    assert all(p[4] == 3 for p in after[5:])
    # ... and the mixed version 2 / version 3 log recovers from its genesis
    # checkpoint, too.
    for path in sorted((data_dir / "checkpoints").glob("ckpt-*.bin"))[1:]:
        path.unlink()
    again = DurableMonitoringServer.recover(data_dir, checkpoint_every=None)
    try:
        assert again.recovered_ticks == 8 and again.current_timestamp == 8
        assert _results_as_json(again.results()) == expected["8"]
    finally:
        again.close()


@pytest.mark.parametrize(
    "workers, partitioning", [(None, None), (2, None), (2, "graph")],
    ids=["in-process", "replica-2w", "graph-2w"],
)
def test_every_server_shape_recovers_its_log_byte_identically(tmp_path, workers, partitioning):
    """Crash, recover from the newest checkpoint and from genesis: same results."""
    data_dir = tmp_path / "run"
    crashed, expected, _ = _capture(data_dir, _server(workers, partitioning))
    try:
        assert all(p[5] & FLAG_OLD_FROM_TABLE for p in read_event_log(data_dir / "events.log"))
        recovered = DurableMonitoringServer.recover(data_dir, checkpoint_every=None)
        try:
            assert recovered.recovered_ticks == 2 and recovered.results() == expected
        finally:
            recovered.close()
        for path in sorted((data_dir / "checkpoints").glob("ckpt-*.bin"))[1:]:
            path.unlink()
        replayed = DurableMonitoringServer.recover(data_dir, checkpoint_every=None)
        try:
            assert replayed.recovered_ticks == 6 and replayed.results() == expected
        finally:
            replayed.close()
    finally:
        crashed.close()


def test_a_log_of_flag_0x02_records_and_a_pending_query_checkpoint_recovers(tmp_path):
    data_dir = tmp_path / "data"
    shutil.copytree(FLAG02_FIXTURE / "data", data_dir)
    logged = read_event_log(data_dir / "events.log")
    assert len(logged) == 6 and all(p[5] == 0x03 for p in logged)
    newest = sorted((data_dir / "checkpoints").glob("ckpt-*.bin"))[-1]
    assert newest.name == "ckpt-0000000004.bin"
    record = _read_checkpoint(newest)
    pending = {
        update.query_id: update
        for update in load_snapshot(
            record["state"], _read_base(data_dir / "checkpoints", record)
        )["pending"].query_updates
    }
    assert pending[900_001].is_termination
    assert pending[900_002].new_location is not None and pending[900_002].spec.k == 5
    expected = json.loads((FLAG02_FIXTURE / "expected.json").read_text())

    recovered = DurableMonitoringServer.recover(data_dir, checkpoint_every=None)
    try:
        assert recovered.recovered_ticks == 2 and recovered.current_timestamp == 6
        for payload in read_event_log(FLAG02_FIXTURE / "continuation.log"):
            recovered.server.apply_updates(decode_batch(payload))
            recovered.tick()
            assert _results_as_json(recovered.results()) == expected[
                str(recovered.current_timestamp)
            ]
        state = recovered.server.snapshot_state(static=False)
    finally:
        recovered.close()
    # The earlier release wrote dynamic-section version 1 (query maps as
    # the pending buffer leaves them); this one writes version 2 (the
    # applied maps).  With the buffer empty the two hold the same bytes.
    expected_state = (FLAG02_FIXTURE / "expected-state.bin").read_bytes()
    assert expected_state[:5] == b"RPDY\x01" and state[:5] == b"RPDY\x02"
    assert state[5:] == expected_state[5:]
    after = read_event_log(data_dir / "events.log")
    assert after[:6] == logged
    assert len(after) == 9 and all(p[5] == 0x07 for p in after[6:])
    # ... and the mixed log recovers from its genesis checkpoint, too.
    for path in sorted((data_dir / "checkpoints").glob("ckpt-*.bin"))[1:]:
        path.unlink()
    again = DurableMonitoringServer.recover(data_dir, checkpoint_every=None)
    try:
        assert again.recovered_ticks == 9 and again.current_timestamp == 9
        assert _results_as_json(again.results()) == expected["9"]
    finally:
        again.close()
