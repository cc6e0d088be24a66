"""Write the ``wal-flag02`` fixture: a log whose records keep their query old locations.

Run it from the repository root with a release whose event log writes
batch records under header flag bit 1 alone (``0x02``: object old
locations and old weights left out, query old locations and kind bytes
kept) and whose checkpoints store the query maps with the pending buffer
applied (dynamic-section version 1)::

    PYTHONPATH=src python tests/data/wal-flag02/generate.py tests/data/wal-flag02

It writes, under the target directory:

* ``data/`` — the base, the checkpoints and ``events.log`` of an IMA server
  on an 80-edge city driven by the ``mixed-fleet`` scenario (k-NN, range
  and aggregate queries, object arrivals and departures, edge storms) for
  six ticks, with a checkpoint every three, plus queries of its own: three
  installed at tick 0, two moved at tick 1, one terminated and re-installed
  with a new spec at tick 2.  The newest checkpoint was taken with a
  pending termination of query ``900001`` and a pending spec-changing move
  of query ``900002`` in the buffer; the two records after it (flags
  ``0x03``) are what a recovery replays;
* ``continuation.log`` — three more batches, as an event log of
  self-contained records, to ingest after the recovery: the scenario's
  next ticks plus a query install, moves, a same-tick terminate +
  re-install with a new spec and a termination of the fixture's own;
* ``expected.json`` — the results after each continuation tick, distances
  as ``float.hex``;
* ``expected-state.bin`` — ``snapshot_state(static=False)`` after the last
  continuation tick.

``tests/test_wal_replay.py`` recovers ``data/`` with the release under
test, replays the continuation and compares against the last two files.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

from repro import DurableMonitoringServer, QuerySpec, city_network, encode_batch
from repro.core.events import QueryUpdate, UpdateBatch
from repro.network.graph import NetworkLocation
from repro.service.eventlog import EventLog
from repro.service.faults import build_scenario_server
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

SCENARIO, SEED, EDGES, ALGORITHM = "mixed-fleet", 5, 80, "IMA"
LOGGED_TICKS, CHECKPOINT_EVERY, PENDING_CHECKPOINT_AT = 6, 3, 4
A, B, C, D = 900_001, 900_002, 900_003, 900_004


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


def locator(edges):
    """``at(index, fraction)``: a location on the index-th of *edges*."""

    def at(index: int, fraction: float) -> NetworkLocation:
        return NetworkLocation(edges[index % len(edges)], fraction)

    return at


def continuation_batches(stream: ScenarioEngine, edges) -> list:
    """The scenario's next ticks, each with some query updates of the fixture's own."""
    at = locator(edges)
    extra = [
        [
            QueryUpdate(C, at(30, 0.5), at(31, 0.125)),
            QueryUpdate(D, None, at(32, 0.25), QuerySpec.aggregate_knn(2, (at(33, 0.5),))),
        ],
        [
            QueryUpdate(C, at(31, 0.125), None),
            QueryUpdate(C, None, at(34, 0.875), QuerySpec.knn(4)),
            QueryUpdate(B, at(21, 0.5), at(35, 0.0)),
        ],
        [QueryUpdate(B, at(35, 0.0), None), QueryUpdate(D, at(32, 0.25), at(36, 1.0))],
    ]
    batches = []
    for tick, updates in enumerate(extra):
        batch = stream.batch(LOGGED_TICKS + tick)
        batches.append(
            UpdateBatch(
                batch.timestamp,
                batch.object_updates,
                batch.query_updates + updates,
                batch.edge_updates,
            )
        )
    return batches


def main(target: pathlib.Path) -> None:
    data_dir = target / "data"
    shutil.rmtree(data_dir, ignore_errors=True)
    stream = engine()
    server = build_scenario_server(SCENARIO, SEED, EDGES, ALGORITHM, None)
    edges = sorted(server.network.edge_ids())
    at = locator(edges)
    durable = DurableMonitoringServer(server, data_dir, checkpoint_every=CHECKPOINT_EVERY)
    for timestamp in range(LOGGED_TICKS):
        server.apply_updates(stream.batch(timestamp))
        if timestamp == 0:
            server.add_query(A, at(10, 0.25), 2)
            server.add_query(B, at(11, 0.5), QuerySpec.range(30.0))
            server.add_query(C, at(12, 0.75), 3)
        elif timestamp == 1:
            server.move_query(A, at(13, 0.5))
            server.move_query(B, at(14, 0.0))
        elif timestamp == 2:
            server.remove_query(C)
            server.add_query(C, at(30, 0.5), QuerySpec.range(25.0))
        elif timestamp == PENDING_CHECKPOINT_AT:
            server.remove_query(A)
            server.apply_updates(
                UpdateBatch(query_updates=[QueryUpdate(B, at(14, 0.0), at(21, 0.5), 5)])
            )
            durable.checkpoint()
        durable.tick()
    durable.close()

    continuation = continuation_batches(stream, edges)
    log_path = target / "continuation.log"
    log_path.unlink(missing_ok=True)
    with EventLog(log_path, sync=False) as log:
        for batch in continuation:
            log.append(encode_batch(batch))

    replay_dir = target / "replay_dir"
    shutil.rmtree(replay_dir, ignore_errors=True)
    shutil.copytree(data_dir, replay_dir)
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
