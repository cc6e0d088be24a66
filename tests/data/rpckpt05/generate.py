"""Write the ``rpckpt05`` fixture: a data directory whose log records carry old values.

Run it from the repository root with a release that writes ``RPCKPT05``
checkpoints and self-contained batch records (header flag bit 1 clear)::

    PYTHONPATH=src python tests/data/rpckpt05/generate.py tests/data/rpckpt05

It writes, under the target directory:

* ``data/`` — the base, the checkpoints and ``events.log`` of an IMA server
  on a 60-edge city driven by the ``mixed-stress`` scenario for five ticks,
  with a checkpoint every three: the two records after the newest
  checkpoint are what a recovery replays, and the last of them removes and
  re-inserts one object in the same tick;
* ``continuation.log`` — three more scenario batches, as an event log of
  self-contained records, to ingest after the recovery;
* ``expected.json`` — the results after each continuation tick, distances
  as ``float.hex``;
* ``expected-state.bin`` — ``snapshot_state(static=False)`` after the last
  continuation tick.  The monitor's tick reports are part of that state, so
  the recovery and the continuation run on a constant clock: every
  ``elapsed_seconds`` they add is 0.0, and the bytes repeat.

``tests/test_wal_replay.py`` recovers ``data/`` with the release under
test, replays the continuation and compares against the last two files.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import types

from repro import DurableMonitoringServer, city_network, encode_batch
from repro.core import base
from repro.network.graph import NetworkLocation
from repro.service.eventlog import EventLog
from repro.service.faults import build_scenario_server
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

SCENARIO, SEED, EDGES, ALGORITHM = "mixed-stress", 3, 60, "IMA"
LOGGED_TICKS, CHECKPOINT_EVERY, CONTINUATION_TICKS = 5, 3, 3


def engine() -> ScenarioEngine:
    """The scenario stream ``build_scenario_server`` primes the server from."""
    return ScenarioEngine(
        city_network(EDGES, seed=SEED + 1), resolve_scenario(SCENARIO), seed=SEED
    )


def results_as_json(results) -> dict:
    """``results()`` with exact floats: query id -> [[object id, distance hex]]."""
    return {
        str(query_id): [[object_id, distance.hex()] for object_id, distance in result.neighbors]
        for query_id, result in sorted(results.items())
    }


def main(target: pathlib.Path) -> None:
    data_dir = target / "data"
    shutil.rmtree(data_dir, ignore_errors=True)
    stream = engine()
    server = build_scenario_server(SCENARIO, SEED, EDGES, ALGORITHM, "csr", None)
    durable = DurableMonitoringServer(server, data_dir, checkpoint_every=CHECKPOINT_EVERY)
    for timestamp in range(LOGGED_TICKS):
        server.apply_updates(stream.batch(timestamp))
        if timestamp == LOGGED_TICKS - 1:
            object_id = min(server.object_ids())
            edge_id = server.edge_table.location_of(object_id).edge_id
            server.remove_object(object_id)
            server.add_object(object_id, NetworkLocation(edge_id, 0.5))
        durable.tick()
    durable.close()

    continuation = [stream.batch(LOGGED_TICKS + tick) for tick in range(CONTINUATION_TICKS)]
    log_path = target / "continuation.log"
    log_path.unlink(missing_ok=True)
    with EventLog(log_path, sync=False) as log:
        for batch in continuation:
            log.append(encode_batch(batch))

    replay_dir = target / "replay_dir"
    shutil.rmtree(replay_dir, ignore_errors=True)
    shutil.copytree(data_dir, replay_dir)
    base.time = types.SimpleNamespace(perf_counter=lambda: 0.0)
    recovered = DurableMonitoringServer.recover(replay_dir, checkpoint_every=None)
    expected = {}
    for batch in continuation:
        recovered.server.apply_updates(batch)
        recovered.tick()
        expected[str(recovered.current_timestamp)] = results_as_json(recovered.results())
    (target / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    (target / "expected-state.bin").write_bytes(
        recovered.server.snapshot_state(static=False)
    )
    recovered.close()
    shutil.rmtree(replay_dir)


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]))
