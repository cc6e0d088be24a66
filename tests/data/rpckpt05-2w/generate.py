"""Write the ``rpckpt05-2w`` fixture: sharded data directories of an earlier release.

A sharded checkpoint stores one pickled monitor per shard, and each of
those pickles carries the shard's road network by value.  This fixture
pins that a release which lays the network out differently in memory still
loads the networks an earlier release pickled.  Run it from the repository
root with the release whose pickles are to be pinned::

    PYTHONPATH=src python tests/data/rpckpt05-2w/generate.py tests/data/rpckpt05-2w

For each layout (``replica`` and ``graph``, two workers each) it writes,
under ``<target>/<layout>/``:

* ``data/`` — the base, the checkpoints and ``events.log`` of an IMA fleet
  on a 120-edge city driven by the ``mixed-stress`` scenario for five
  ticks, with a checkpoint every three, so a recovery loads the shard
  pickles of ``ckpt-3`` and replays two records;
* ``continuation.log`` — three more scenario batches to ingest after the
  recovery;
* ``expected.json`` — the results after each continuation tick, distances
  as ``float.hex``.

``tests/test_network_columns.py`` recovers each ``data/`` with the release
under test, replays the continuation and compares against
``expected.json``.  Never regenerate it with the release under test: the
point is the earlier release's bytes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

from repro import DurableMonitoringServer, city_network, encode_batch
from repro.core.sharding import ShardedMonitoringServer
from repro.service.eventlog import EventLog
from repro.service.faults import build_scenario_server
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

SCENARIO, SEED, EDGES, ALGORITHM = "mixed-stress", 8, 120, "IMA"
LOGGED_TICKS, CHECKPOINT_EVERY, CONTINUATION_TICKS = 5, 3, 3
LAYOUTS = ("replica", "graph")


def engine() -> ScenarioEngine:
    """The scenario stream ``build_scenario_server`` primes the server from."""
    return ScenarioEngine(
        city_network(EDGES, seed=SEED + 1), resolve_scenario(SCENARIO), seed=SEED
    )


def fleet(partitioning: str) -> ShardedMonitoringServer:
    """The scenario's server on two workers with the given layout."""
    template = build_scenario_server(SCENARIO, SEED, EDGES, ALGORITHM, "csr", None)
    server = ShardedMonitoringServer(
        template.network, algorithm=ALGORITHM, edge_table=template.edge_table,
        workers=2, partitioning=partitioning,
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


def write_layout(target: pathlib.Path, partitioning: str) -> None:
    data_dir = target / "data"
    shutil.rmtree(data_dir, ignore_errors=True)
    stream = engine()
    server = fleet(partitioning)
    durable = DurableMonitoringServer(server, data_dir, checkpoint_every=CHECKPOINT_EVERY)
    for timestamp in range(LOGGED_TICKS):
        server.apply_updates(stream.batch(timestamp))
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
    finally:
        recovered.close()
    (target / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(replay_dir)


def main(target: pathlib.Path) -> None:
    for partitioning in LAYOUTS:
        (target / partitioning).mkdir(parents=True, exist_ok=True)
        write_layout(target / partitioning, partitioning)


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]))
