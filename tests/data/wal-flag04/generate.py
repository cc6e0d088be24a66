"""Write the ``wal-flag04`` fixture: a log whose records write every new edge in full.

Run it from the repository root with a release whose event log writes
batch records under header flag bits 1 and 2 alone (``0x07``: old values
and kinds read from the pre-batch server, new fractions and weights XORed
with the old ones, every new edge an absolute id)::

    PYTHONPATH=src python tests/data/wal-flag04/generate.py tests/data/wal-flag04

It writes, under the target directory:

* ``data/`` — the base, the checkpoints and ``events.log`` of an IMA server
  on an 80-edge city driven by the ``mixed-fleet`` scenario for six ticks,
  with a checkpoint every four, plus updates of its own at every tick:
  object moves along the same edge, to an edge that shares an endpoint
  and to a far edge, object appearances (ticks 0 and 5), a query
  installation (tick 1), a same-tick terminate + reinstall with a new
  spec (tick 2), a move with a new spec (tick 3) and a plain move (tick
  4).  The two records after the newest checkpoint (flags ``0x07``) are
  what a recovery replays.  They carry no spec: an earlier release
  replayed a spec-carrying move without moving the query to the end of
  the query maps, so the recovery that computes the expected files must
  not meet one (a genesis recovery replays the others);
* ``continuation.log`` — three more batches, as an event log of
  self-contained records, to ingest after the recovery: the scenario's
  next ticks plus moves of every kind of the fixture's own;
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
from repro.core.events import ObjectUpdate, QueryUpdate, UpdateBatch
from repro.network.graph import NetworkLocation
from repro.service.eventlog import EventLog
from repro.service.faults import build_scenario_server
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

SCENARIO, SEED, EDGES, ALGORITHM = "mixed-fleet", 11, 80, "IMA"
LOGGED_TICKS, CHECKPOINT_EVERY, CONTINUED_TICKS = 6, 4, 3
#: The fixture's own objects (clear of the scenario's ids) and queries.
MOVERS = (800_001, 800_002, 800_003)
NEWCOMER = 800_100
A, B = 900_001, 900_002


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


def neighbourhoods(network) -> dict:
    """Edge id -> the sorted ids of the edges that share an endpoint with it."""
    ends = {edge_id: {network.edge(edge_id).start, network.edge(edge_id).end}
            for edge_id in network.edge_ids()}
    return {
        edge_id: sorted(other for other in ends if other != edge_id and ends[other] & mine)
        for edge_id, mine in ends.items()
    }


def own_updates(network, locations, tick):
    """The fixture's object rows for *tick*: a same-edge, a near and a far move.

    *locations* (object id -> location) is advanced in place; the far edge
    shares no endpoint with the old one.
    """
    near = neighbourhoods(network)
    edges = sorted(network.edge_ids())
    rows = []
    same, adjacent, far = MOVERS
    old = locations[same]
    rows.append((same, old, NetworkLocation(old.edge_id, (old.fraction + 0.375) % 1.0)))
    old = locations[adjacent]
    choices = near[old.edge_id]
    rows.append((adjacent, old, NetworkLocation(choices[tick % len(choices)], 0.25)))
    old = locations[far]
    distant = [edge_id for edge_id in edges if edge_id != old.edge_id
               and edge_id not in near[old.edge_id]]
    rows.append((far, old, NetworkLocation(distant[(7 * tick) % len(distant)], 0.625)))
    for object_id, _, new in rows:
        locations[object_id] = new
    return [ObjectUpdate(object_id, old, new) for object_id, old, new in rows]


def continuation_batches(stream, network, locations) -> list:
    """The scenario's next ticks, each with rows of the fixture's own."""
    edges = sorted(network.edge_ids())
    batches = []
    for tick in range(CONTINUED_TICKS):
        batch = stream.batch(LOGGED_TICKS + tick)
        queries = list(batch.query_updates)
        if tick == 0:
            queries.append(QueryUpdate(B, None, NetworkLocation(edges[40], 0.5), 4))
        elif tick == 1:
            queries.append(
                QueryUpdate(B, NetworkLocation(edges[40], 0.5), NetworkLocation(edges[41], 0.0))
            )
        batches.append(
            UpdateBatch(
                batch.timestamp,
                batch.object_updates + own_updates(network, locations, LOGGED_TICKS + tick),
                queries,
                batch.edge_updates,
            )
        )
    return batches


def main(target: pathlib.Path) -> None:
    data_dir = target / "data"
    shutil.rmtree(data_dir, ignore_errors=True)
    stream = engine()
    server = build_scenario_server(SCENARIO, SEED, EDGES, ALGORITHM, None)
    network = server.network
    edges = sorted(network.edge_ids())
    locations = {}
    for index, object_id in enumerate(MOVERS):
        locations[object_id] = NetworkLocation(edges[10 + 20 * index], 0.5)
        server.add_object(object_id, locations[object_id])
    durable = DurableMonitoringServer(server, data_dir, checkpoint_every=CHECKPOINT_EVERY)
    for timestamp in range(LOGGED_TICKS):
        server.apply_updates(stream.batch(timestamp))
        server.apply_updates(
            UpdateBatch(object_updates=own_updates(network, locations, timestamp))
        )
        if timestamp == 0:
            server.add_object(NEWCOMER, NetworkLocation(edges[5], 0.75))
        elif timestamp == 1:
            server.add_query(A, NetworkLocation(edges[12], 0.25), 3)
        elif timestamp == 2:
            server.remove_query(A)
            server.add_query(A, NetworkLocation(edges[14], 0.125), 2)
        elif timestamp == 3:
            server.apply_updates(
                UpdateBatch(
                    query_updates=[
                        QueryUpdate(
                            A, NetworkLocation(edges[14], 0.125),
                            NetworkLocation(edges[13], 0.5), QuerySpec.range(35.0),
                        )
                    ]
                )
            )
        elif timestamp == 4:
            server.move_query(A, NetworkLocation(edges[15], 0.875))
        elif timestamp == 5:
            server.add_object(NEWCOMER + 1, NetworkLocation(edges[6], 0.0))
        durable.tick()
    durable.close()

    continuation = continuation_batches(stream, network, locations)
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
