"""Section 4.5 runs once per tick, and skipping the re-runs changes nothing.

``UpdateBatch.normalized()`` marks what it returns, ``encode_batch`` writes
the mark into the record and ``decode_batch`` restores it; every layer on
the tick path asks for ``batch.net()``, which collapses only an unmarked
batch.  The first half counts ``normalized()`` calls per
``DurableMonitoringServer.tick()`` on each deployment shape; the second half
runs the same non-net update streams with the mark honoured and with the
mark switched off (every layer collapsing again, as before the mark
existed) and requires identical results, float for float.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    DedupFrontend,
    DurableMonitoringServer,
    MonitoringServer,
    QuerySpec,
    UpdateBatch,
    city_network,
    decode_batch,
    encode_batch,
    run_differential_log,
)
from repro.core.events import ObjectUpdate, QueryUpdate
from repro.network.graph import NetworkLocation

SHAPES = {
    "ima": dict(algorithm="ima"),
    "gma": dict(algorithm="gma"),
    "replica-2w": dict(algorithm="ima", workers=2),
    "graph-2w": dict(algorithm="ima", workers=2, partitioning="graph"),
}


def _server(shape: str, seed: int = 31):
    network = city_network(120, seed=seed)
    server = MonitoringServer(network, **SHAPES[shape])
    edges = sorted(network.edge_ids())
    rng = random.Random(seed)
    for object_id in range(30):
        server.add_object(object_id, NetworkLocation(rng.choice(edges), rng.random()))
    for query_id in range(100, 106):
        server.add_query(query_id, NetworkLocation(rng.choice(edges), rng.random()), k=3)
    server.add_query(106, NetworkLocation(edges[0], 0.5), QuerySpec.range(40.0))
    server.tick()
    return server, edges, rng


def _messy_tick(server, edges, rng, tick: int) -> None:
    """One timestamp of deliberately non-net ingestion, through the public API."""

    def somewhere():
        return NetworkLocation(rng.choice(edges), rng.random())

    for object_id in rng.sample(range(30), 6):
        server.move_object(object_id, somewhere())
        server.move_object(object_id, somewhere())  # the same object twice
    server.add_object(1000 + tick, somewhere())
    server.remove_object(1000 + tick)  # appears and disappears in one tick
    server.add_query(2000 + tick, somewhere(), k=2)
    server.remove_query(2000 + tick)  # installed and terminated in one tick
    moved = 100 + tick % 6
    server.move_query(moved, somewhere())
    server.move_query(moved, somewhere())
    replaced = 100 + (tick + 1) % 6
    server.remove_query(replaced)  # terminate + reinstall with another k:
    server.add_query(replaced, somewhere(), k=2 + tick % 3)  # a movement carrying a spec
    quiet, busy = rng.sample(edges, 2)
    server.update_edge_weight(quiet, server.network.edge(quiet).weight)  # a no-op
    server.update_edge_weight(busy, server.network.edge(busy).weight * 1.5)
    server.update_edge_weight(busy, server.network.edge(busy).weight * 0.8)


@pytest.fixture
def normalize_calls(monkeypatch):
    """Every ``UpdateBatch.normalized`` call made in this process, in order."""
    calls = []
    real = UpdateBatch.normalized

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(UpdateBatch, "normalized", counting)
    return calls


# ----------------------------------------------------------------------
# the mark itself
# ----------------------------------------------------------------------
def test_the_mark_follows_the_batch_and_any_append_clears_it():
    raw = UpdateBatch(timestamp=3)
    raw.add_object_move(1, NetworkLocation(0, 0.1), NetworkLocation(0, 0.2))
    raw.add_object_move(1, NetworkLocation(0, 0.2), NetworkLocation(0, 0.3))
    net = raw.net()
    assert net is not raw and len(net) == 1 and net == raw.normalized()
    assert net.net() is net and net != raw
    assert encode_batch(raw)[5] == 0 and encode_batch(net)[5] == 1  # the header's flags
    assert decode_batch(encode_batch(net)).net() == net
    for mutate in (
        lambda b: b.add_object_move(1, NetworkLocation(0, 0.3), NetworkLocation(0, 0.4)),
        lambda b: b.add_query_move(9, NetworkLocation(0, 0.3), NetworkLocation(0, 0.4)),
        lambda b: b.add_edge_change(5, 1.0, 2.0),
        lambda b: b.object_updates.append(ObjectUpdate(2, None, NetworkLocation(0, 0.5))),
    ):
        marked = decode_batch(encode_batch(net))
        assert marked.net() is marked
        mutate(marked)
        assert marked.net() is not marked and encode_batch(marked)[5] == 0
    # an empty batch is unmarked until something vouches for it
    assert encode_batch(UpdateBatch())[5] == 0 and encode_batch(UpdateBatch().normalized())[5] == 1


# ----------------------------------------------------------------------
# one call per tick
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_one_normalization_per_durable_tick(shape, tmp_path, normalize_calls):
    server, edges, rng = _server(shape)
    with DurableMonitoringServer(server, tmp_path / "data", checkpoint_every=None) as durable:
        for tick in range(3):
            _messy_tick(server, edges, rng, tick)
            normalize_calls.clear()
            durable.tick()
            assert len(normalize_calls) == 1, shape
        normalize_calls.clear()
        durable.tick()  # an empty tick is a tick
        assert len(normalize_calls) == 1


def test_one_normalization_per_tick_behind_a_dedup_frontend(tmp_path, normalize_calls):
    server, edges, _ = _server("ima")
    frontend = DedupFrontend(server)
    here, there = NetworkLocation(edges[5], 0.5), NetworkLocation(edges[6], 0.5)
    with DurableMonitoringServer(server, tmp_path / "data", checkpoint_every=None) as durable:
        raw = UpdateBatch()
        raw.query_updates.append(QueryUpdate(300, None, here, 2))
        raw.query_updates.append(QueryUpdate(301, None, here, 2))
        raw.add_query_move(300, here, there)  # 300 twice
        normalize_calls.clear()
        frontend.apply_updates(raw)  # the frontend collapses a raw batch, once ...
        assert len(normalize_calls) == 1
        sent = UpdateBatch()
        sent.add_query_move(301, here, there)
        received = decode_batch(encode_batch(sent.normalized()))
        normalize_calls.clear()
        frontend.apply_updates(received)  # ... and one that arrives marked not at all
        assert normalize_calls == []
        frontend.move_object(1, here)
        frontend.move_object(1, there)
        durable.tick()
        assert len(normalize_calls) == 1
        assert frontend.query_location_of(300) == frontend.query_location_of(301) == there
        assert len(server.query_ids() - set(range(100, 107))) == 1  # one physical query for both


def test_recovery_normalizes_once_per_replayed_tick_and_log_replay_never(
    tmp_path, normalize_calls
):
    server, edges, rng = _server("gma")
    durable = DurableMonitoringServer(server, tmp_path / "data", checkpoint_every=None)
    for tick in range(4):
        _messy_tick(server, edges, rng, tick)
        durable.tick()
    expected = durable.results()
    normalize_calls.clear()
    recovered = DurableMonitoringServer.recover(tmp_path / "data")  # the "crash": no close()
    try:
        assert recovered.recovered_ticks == 4 and len(normalize_calls) == 4
        assert recovered.results() == expected
    finally:
        recovered.close()
        durable.close()
    normalize_calls.clear()
    report = run_differential_log(tmp_path / "data")
    assert report.ok, report.failure_message()
    assert report.timestamps == 4 and normalize_calls == []  # the records vouch for themselves


# ----------------------------------------------------------------------
# honouring the mark changes no result
# ----------------------------------------------------------------------
def _run(shape: str, data_dir, ticks: int = 8):
    server, edges, rng = _server(shape)
    history = []
    with DurableMonitoringServer(server, data_dir, checkpoint_every=3) as durable:
        for tick in range(ticks):
            _messy_tick(server, edges, rng, tick)
            report = durable.tick()
            history.append((sorted(report.changed_queries), durable.results()))
    return history, (data_dir / "events.log").read_bytes()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_marked_and_unmarked_paths_agree_float_for_float(shape, tmp_path, monkeypatch):
    marked, marked_log = _run(shape, tmp_path / "marked")
    # The world before the mark: nothing is ever known to be net, so the durable
    # tick, apply_taken_batch, process_batch, GMA's node monitor and the shard
    # workers (forked after this patch) each collapse the batch again.
    monkeypatch.setattr(UpdateBatch, "_is_net", lambda self: False)
    calls = []
    real = UpdateBatch.normalized
    monkeypatch.setattr(
        UpdateBatch, "normalized", lambda self: (calls.append(1), real(self))[1]
    )
    unmarked, unmarked_log = _run(shape, tmp_path / "unmarked")
    assert len(calls) >= 2 * 8  # the comparison is against a path that really re-collapses
    assert marked == unmarked
    # same net batches logged; only the header's normalized flag differs
    assert len(marked_log) == len(unmarked_log) and marked_log != unmarked_log
