"""Write the ``rpckpt05-gma`` fixture: GMA data directories of an earlier release.

A GMA monitor holds a sequence table.  An earlier release pickled that
table whole (its ``_sequences`` / ``_edge_to_sequence`` dicts) into every
``RPCKPT05`` checkpoint and, through the monitor, into every shard blob.
This fixture pins that a release which rebuilds the table from the network
instead still loads those pickles, and continues to that release's results.
Run it from the repository root with the release whose pickles are to be
pinned::

    PYTHONPATH=src python tests/data/rpckpt05-gma/generate.py tests/data/rpckpt05-gma

It is the ``rpckpt05`` and ``rpckpt05-2w`` generators set to GMA.  For each
layout (``in-process``, and ``graph`` on two workers) it writes, under
``<target>/<layout>/``:

* ``data/`` — the base, the checkpoints and ``events.log`` of a GMA server
  on a 120-edge city driven by the ``mixed-stress`` scenario for five
  ticks, with a checkpoint every three, so a recovery loads the monitor
  pickles of ``ckpt-3`` and replays two records; on the in-process server
  the last tick also removes and re-inserts one object;
* ``continuation.log`` — three more scenario batches to ingest after the
  recovery;
* ``expected.json`` — the results after each continuation tick, distances
  as ``float.hex``;
* ``expected-state.bin`` (in-process only) — ``snapshot_state(static=False)``
  after the last continuation tick.

``tests/test_sequence_columns.py`` recovers each ``data/`` with the release
under test, replays the continuation and compares against these files.
Never regenerate it with the release under test: the point is the earlier
release's bytes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

from repro import DurableMonitoringServer, city_network, encode_batch
from repro.core.sharding import ShardedMonitoringServer
from repro.network.graph import NetworkLocation
from repro.service.eventlog import EventLog
from repro.service.faults import build_scenario_server
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

SCENARIO, SEED, EDGES, ALGORITHM = "mixed-stress", 8, 120, "GMA"
LOGGED_TICKS, CHECKPOINT_EVERY, CONTINUATION_TICKS = 5, 3, 3
LAYOUTS = ("in-process", "graph")


def engine() -> ScenarioEngine:
    """The scenario stream ``build_scenario_server`` primes the server from."""
    return ScenarioEngine(
        city_network(EDGES, seed=SEED + 1), resolve_scenario(SCENARIO), seed=SEED
    )


def server_for(layout: str):
    """The scenario's server, in process or on two workers with the graph layout."""
    template = build_scenario_server(SCENARIO, SEED, EDGES, ALGORITHM, "csr", None)
    if layout == "in-process":
        return template
    server = ShardedMonitoringServer(
        template.network, algorithm=ALGORITHM, edge_table=template.edge_table,
        workers=2, partitioning=layout,
    )
    for query_id, (location, k) in engine().initial_queries().items():
        server.add_query(query_id, location, k)
    return server


def results_as_json(results) -> dict:
    """``results()`` with exact floats: query id -> [[object id, distance hex]]."""
    return {
        str(query_id): [[object_id, distance.hex()] for object_id, distance in result.neighbors]
        for query_id, result in sorted(results.items())
    }


def write_layout(target: pathlib.Path, layout: str) -> None:
    data_dir = target / "data"
    shutil.rmtree(data_dir, ignore_errors=True)
    stream = engine()
    server = server_for(layout)
    durable = DurableMonitoringServer(server, data_dir, checkpoint_every=CHECKPOINT_EVERY)
    for timestamp in range(LOGGED_TICKS):
        server.apply_updates(stream.batch(timestamp))
        if layout == "in-process" and timestamp == LOGGED_TICKS - 1:
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
    recovered = DurableMonitoringServer.recover(replay_dir, checkpoint_every=None)
    try:
        expected = {}
        for batch in continuation:
            recovered.server.apply_updates(batch)
            recovered.tick()
            expected[str(recovered.current_timestamp)] = results_as_json(recovered.results())
        if layout == "in-process":
            (target / "expected-state.bin").write_bytes(
                recovered.server.snapshot_state(static=False)
            )
    finally:
        recovered.close()
    (target / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(replay_dir)


def main(target: pathlib.Path) -> None:
    for layout in LAYOUTS:
        (target / layout).mkdir(parents=True, exist_ok=True)
        write_layout(target / layout, layout)


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]))
