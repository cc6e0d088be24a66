"""Every serving path answers like the oracle and like a server ticking in place.

The paths are those of ``tests/serving_paths.py``: ticking in place,
restored from a snapshot before every tick, applying the write-ahead batch
record, and recovered from a durable data directory after every tick.  The
scenario sweep drives an IMA and a GMA server through every preset on each
path; at every tick each live query must match the brute-force oracle and
be byte-identical to a reference server of the same algorithm that ticks in
place, since a restored or recovered server continues with the float
history of the one it replaces.  The remaining tests check that each path
really takes its detour.
"""

from __future__ import annotations

import pytest

from repro.core.events import apply_batch
from repro.core.results import results_equal
from repro.core.server import MonitoringServer
from repro.network.builders import city_network
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation
from repro.testing import SCENARIO_PRESETS, OracleMonitor
from repro.testing.harness import _make_scenario_server
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

import serving_paths
from serving_paths import PathServer, process_on_path

ALGORITHMS = ("ima", "gma")


@pytest.mark.parametrize("scenario", sorted(SCENARIO_PRESETS))
def test_servers_match_oracle_on_every_preset(scenario, serve):
    seed = 1404
    network = city_network(120, seed=seed + 1)
    edge_table = EdgeTable(network, build_spatial_index=False)
    engine = ScenarioEngine(network, resolve_scenario(scenario), seed=seed)
    for object_id, location in engine.initial_objects().items():
        edge_table.insert_object(object_id, location)
    oracle = OracleMonitor(network, edge_table)
    for query_id, (location, spec) in engine.initial_queries().items():
        oracle.register_query(query_id, location, spec)
    pairs = {}
    for algorithm in ALGORITHMS:
        reference = _make_scenario_server(network, engine, algorithm, workers=None)
        server = serve(_make_scenario_server(network, engine, algorithm, workers=None))
        pairs[algorithm] = (reference, server)
    checks = 0
    for batch in engine.batches(engine.spec.timestamps):
        apply_batch(network, edge_table, batch.net())
        oracle.process_batch(batch)
        for reference, server in pairs.values():
            for target in (reference, server):
                target.apply_updates(batch)
                assert target.tick().timestamp == batch.timestamp
        for query_id in sorted(engine.live_queries()):
            truth = list(oracle.result_of(query_id).neighbors)
            for algorithm, (reference, server) in pairs.items():
                answer = list(server.result_of(query_id).neighbors)
                where = f"t={batch.timestamp} {algorithm} q={query_id}"
                assert results_equal(truth, answer), (where, truth, answer)
                assert answer == list(reference.result_of(query_id).neighbors), where
                checks += 1
    assert checks > 0


def _small_server(serve):
    network = city_network(60, seed=3)
    server = MonitoringServer(
        network, "ima", edge_table=EdgeTable(network, build_spatial_index=False)
    )
    edges = sorted(network.edge_ids())
    wrapped = serve(server)
    for object_id in range(5):
        wrapped.add_object(object_id, NetworkLocation(edges[2 * object_id], 0.5))
    wrapped.add_query(100, NetworkLocation(edges[1], 0.5), k=2)
    return wrapped, edges


def test_restored_path_ticks_a_new_server_every_time():
    wrapped, edges = _small_server(lambda s: PathServer(s, "restored"))
    seen = set()
    for step in range(3):
        wrapped.move_object(0, NetworkLocation(edges[step], 0.25))
        wrapped.tick()
        seen.add(id(wrapped._server))
        assert wrapped.current_timestamp == step + 1
    assert len(seen) == 3


def test_replayed_path_applies_the_decoded_record(monkeypatch):
    decoded = []
    decode = serving_paths.decode_batch

    def counted(payload, edge_table=None):
        decoded.append(payload)
        return decode(payload, edge_table)

    monkeypatch.setattr(serving_paths, "decode_batch", counted)
    wrapped, edges = _small_server(lambda s: PathServer(s, "replayed"))
    wrapped.tick()
    wrapped.move_object(1, NetworkLocation(edges[7], 0.75))
    wrapped.tick()
    assert len(decoded) == 2
    assert wrapped.result_of(100).object_ids


def test_recovered_path_replays_checkpoint_and_log_tail(tmp_path):
    wrapped, edges = _small_server(lambda s: PathServer(s, "recovered", tmp_path))
    replayed = []
    for step in range(4):
        wrapped.move_object(2, NetworkLocation(edges[step + 3], 0.5))
        wrapped.tick()
        replayed.append(wrapped._durable.recovered_ticks)
    wrapped.close()
    # Genesis at t=0, an automatic checkpoint after the third tick.
    assert replayed == [1, 2, 0, 1]
    assert (tmp_path / "events.log").exists()


def test_restored_monitor_path_processes_on_a_checkpointed_copy():
    network = city_network(60, seed=3)
    edge_table = EdgeTable(network, build_spatial_index=False)
    edges = sorted(network.edge_ids())
    for object_id in range(5):
        edge_table.insert_object(object_id, NetworkLocation(edges[2 * object_id], 0.5))
    server = MonitoringServer(network, "ima", edge_table=edge_table)
    server.add_query(100, NetworkLocation(edges[1], 0.5), k=2)
    server.tick()
    monitor = server.monitor
    batch = server.take_pending_batch()
    copy = process_on_path("restored", network, edge_table, monitor, batch)
    assert copy is not monitor
    assert copy.result_of(100) == monitor.result_of(100)


def test_unknown_paths_are_refused():
    network = city_network(60, seed=3)
    server = MonitoringServer(network, "ima")
    with pytest.raises(ValueError):
        PathServer(server, "sharded")
    with pytest.raises(ValueError):
        process_on_path("recovered", network, server.edge_table, server.monitor, None)
