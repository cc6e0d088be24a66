"""Write the ``rpckpt05-native`` fixture: data directories that name a kernel.

An earlier release let every monitor pick its settle engine by name, and
chose the compiled ``"native"`` engine with ``kernel="native"``.  Every
``RPCKPT05`` checkpoint of that release pickles the name: a monitor
carries it as ``_kernel`` and a sharded snapshot as its ``"kernel"`` field.
This fixture pins that a release with one settle engine still loads those
pickles, drops the name, and continues to that release's results.  Run it
from the repository root with the release whose pickles are to be pinned::

    PYTHONPATH=src python tests/data/rpckpt05-native/generate.py tests/data/rpckpt05-native

It is the ``rpckpt05-gma`` generator on ``kernel="native"``, with IMA in
process and GMA on two graph-partitioned workers.  For each layout it
writes, under ``<target>/<layout>/``:

* ``data/`` — the base, the checkpoints and ``events.log`` of the server
  on a 120-edge city driven by the ``mixed-stress`` scenario for five
  ticks, with a checkpoint every three, so a recovery loads the monitor
  pickles of ``ckpt-3`` and replays two records;
* ``continuation.log`` — three more scenario batches to ingest after the
  recovery;
* ``expected.json`` — the results after each continuation tick, distances
  as ``float.hex``;
* ``expected-state.bin`` (in-process only) — ``snapshot_state(static=False)``
  after the last continuation tick.

``tests/test_settle_engine.py`` recovers each ``data/`` with the release
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
from repro.network.native import native_available
from repro.service.eventlog import EventLog
from repro.service.faults import build_scenario_server
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

SCENARIO, SEED, EDGES, KERNEL = "mixed-stress", 8, 120, "native"
LOGGED_TICKS, CHECKPOINT_EVERY, CONTINUATION_TICKS = 5, 3, 3
LAYOUTS = {"in-process": "IMA", "graph": "GMA"}


def engine() -> ScenarioEngine:
    """The scenario stream ``build_scenario_server`` primes the server from."""
    return ScenarioEngine(
        city_network(EDGES, seed=SEED + 1), resolve_scenario(SCENARIO), seed=SEED
    )


def server_for(layout: str):
    """The scenario's server, in process or on two graph-partitioned workers."""
    algorithm = LAYOUTS[layout]
    template = build_scenario_server(SCENARIO, SEED, EDGES, algorithm, KERNEL, None)
    if layout == "in-process":
        return template
    server = ShardedMonitoringServer(
        template.network, algorithm=algorithm, edge_table=template.edge_table,
        kernel=KERNEL, workers=2, partitioning=layout,
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
            assert recovered.server.monitor.kernel == KERNEL
            (target / "expected-state.bin").write_bytes(
                recovered.server.snapshot_state(static=False)
            )
    finally:
        recovered.close()
    (target / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(replay_dir)


def main(target: pathlib.Path) -> None:
    # The point is the compiled engine's name in the pickles; it must
    # also have served the ticks, not its fallback.
    assert native_available(), "the compiled native engine does not build here"
    for layout in LAYOUTS:
        (target / layout).mkdir(parents=True, exist_ok=True)
        write_layout(target / layout, layout)


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]))
