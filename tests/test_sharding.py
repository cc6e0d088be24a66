"""Unit tests for the sharded execution layer.

Covers network pickling (state shipping), the CSR snapshots workers build
from the network they unpickle, the shard router, the
:class:`ShardedMonitoringServer` lifecycle, and the equivalence of sharded
and single-process results on identical update streams.  The oracle-backed
end-to-end runs live in ``test_sharded_differential.py``.
"""

from __future__ import annotations

import pickle

import pytest

from repro import (
    MonitoringServer,
    ShardedMonitoringServer,
    city_network,
    csr_snapshot,
    shard_of,
)
from repro.core.events import (
    EdgeWeightUpdate,
    ObjectUpdate,
    QueryUpdate,
    UpdateBatch,
    decode_batch,
    encode_batch,
)
from repro.core.sharding import _extract_subnetwork, default_start_method
from repro.core.worker import local_batch
from repro.exceptions import (
    DuplicateObjectError,
    MonitoringError,
    ServerFailedError,
    UnknownQueryError,
)
from repro.network.csr import grow_partitions, partition_block
from repro.network.graph import NetworkLocation

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


# ----------------------------------------------------------------------
# shard router
# ----------------------------------------------------------------------
def test_shard_of_is_deterministic_and_in_range():
    for query_id in (0, 1, 7, 1_000_000, 1_000_001, 2**40):
        for shards in (1, 2, 3, 8):
            shard = shard_of(query_id, shards)
            assert 0 <= shard < shards
            assert shard == shard_of(query_id, shards)


def test_shard_of_balances_sequential_and_strided_ids():
    for stride in (1, 2, 4, 8):
        counts = [0, 0, 0, 0]
        for index in range(400):
            counts[shard_of(1_000_000 + index * stride, 4)] += 1
        # No shard should be starved or hog the assignment.
        assert min(counts) > 40, (stride, counts)


# ----------------------------------------------------------------------
# worker-side filter of the shared tick record
# ----------------------------------------------------------------------
def _block_layout():
    """A city network, the subnetwork of block 0 of 2, and edges in and out."""
    network = city_network(80, seed=2)
    csr = csr_snapshot(network)
    block, halo, local_edges = partition_block(csr, grow_partitions(csr, 2), 0)
    local = _extract_subnetwork(network, set(block) | set(halo), set(local_edges))
    inside = sorted(local_edges)
    outside = sorted(set(network.edge_ids()) - set(local_edges))
    assert len(inside) >= 3 and len(outside) >= 3
    return network, local, inside, outside


def _record_round_trip(batch: UpdateBatch) -> UpdateBatch:
    return decode_batch(encode_batch(batch._mark_net()))


def test_local_batch_turns_crossings_into_inserts_and_deletes():
    _, local, inside, outside = _block_layout()
    at = NetworkLocation
    shared = _record_round_trip(
        UpdateBatch(
            timestamp=5,
            object_updates=[
                ObjectUpdate(1, at(inside[0], 0.1), at(inside[1], 0.2)),  # within
                ObjectUpdate(2, at(inside[0], 0.3), at(outside[0], 0.4)),  # leaves
                ObjectUpdate(3, at(outside[1], 0.5), at(inside[2], 0.6)),  # enters
                ObjectUpdate(4, at(outside[0], 0.7), at(outside[1], 0.8)),  # never
                ObjectUpdate(5, None, at(inside[1], 0.9)),  # appears inside
                ObjectUpdate(6, None, at(outside[2], 0.9)),  # appears outside
                ObjectUpdate(7, at(inside[2], 0.0), None),  # disappears inside
            ],
            edge_updates=[
                EdgeWeightUpdate(inside[0], 1.0, 2.0),
                EdgeWeightUpdate(outside[0], 1.0, 3.0),
                EdgeWeightUpdate(inside[1], 4.0, 2.5),
            ],
        )
    )
    queries = [QueryUpdate(9, None, at(inside[0], 0.5), 3)]
    batch = local_batch(local, shared, queries)
    assert batch.timestamp == 5
    assert batch.object_updates == [
        ObjectUpdate(1, at(inside[0], 0.1), at(inside[1], 0.2)),
        ObjectUpdate(2, at(inside[0], 0.3), None),
        ObjectUpdate(3, None, at(inside[2], 0.6)),
        ObjectUpdate(5, None, at(inside[1], 0.9)),
        ObjectUpdate(7, at(inside[2], 0.0), None),
    ]
    assert batch.edge_updates == [
        EdgeWeightUpdate(inside[0], 1.0, 2.0),
        EdgeWeightUpdate(inside[1], 4.0, 2.5),
    ]
    assert batch.query_updates == queries
    assert batch.net() is batch


def test_local_batch_of_a_whole_network_worker_is_the_batch_unchanged():
    network, _, inside, outside = _block_layout()
    at = NetworkLocation
    shared = _record_round_trip(
        UpdateBatch(
            timestamp=8,
            object_updates=[
                ObjectUpdate(1, at(inside[0], 0.1), at(outside[0], 0.2)),
                ObjectUpdate(2, None, at(outside[1], 0.3)),
                ObjectUpdate(3, at(inside[1], 0.4), None),
            ],
            edge_updates=[EdgeWeightUpdate(outside[2], 1.0, 2.0)],
        )
    )
    batch = local_batch(network, shared, [])
    assert batch == shared
    assert all(
        kept is sent for kept, sent in zip(batch.object_updates, shared.object_updates)
    )
    assert batch.net() is batch


def test_local_batch_of_an_untouched_block_is_empty_and_net():
    _, local, _, outside = _block_layout()
    shared = UpdateBatch(
        timestamp=3,
        object_updates=[
            ObjectUpdate(1, NetworkLocation(outside[0], 0.1), NetworkLocation(outside[1], 0.2))
        ],
        edge_updates=[EdgeWeightUpdate(outside[2], 1.0, 2.0)],
    )._mark_net()
    batch = local_batch(local, shared, [])
    assert batch.is_empty()
    assert batch.timestamp == 3
    assert batch.net() is batch


# ----------------------------------------------------------------------
# network pickling (state shipping)
# ----------------------------------------------------------------------
def test_frozen_network_pickles_as_an_independent_editable_replica():
    network = city_network(80, seed=1)
    csr = csr_snapshot(network)  # freezes: the network is its column store
    replica = pickle.loads(pickle.dumps(network))
    assert not replica.frozen and csr_snapshot(replica) is not csr
    assert replica.topology_version == network.topology_version
    assert replica.weight_version == network.weight_version
    assert sorted(replica.edge_ids()) == sorted(network.edge_ids())
    edge_id = next(iter(network.edge_ids()))
    assert replica.edge(edge_id).weight == network.edge(edge_id).weight
    # The replica is independent: mutating it leaves the original alone.
    replica.set_edge_weight(edge_id, 123.0)
    assert network.edge(edge_id).weight != 123.0


# ----------------------------------------------------------------------
# worker-side CSR snapshots (built from the shipped network)
# ----------------------------------------------------------------------
def _shipped_network(network, partitioning):
    """The network a shard worker unpickles: the whole network in replica
    mode, the block+halo subnetwork of shard 0 of 2 in graph mode."""
    shipped = network
    if partitioning == "graph":
        full = csr_snapshot(network)
        block, halo, edge_ids = partition_block(full, grow_partitions(full, 2), 0)
        shipped = _extract_subnetwork(network, set(block) | set(halo), set(edge_ids))
    return pickle.loads(pickle.dumps(shipped))


@pytest.mark.parametrize("partitioning", ["replica", "graph"])
def test_worker_snapshot_matches_parent_and_tracks_its_own_updates(partitioning):
    """A worker's self-built snapshot is the parent's, filtered to its edges.

    Keeping the parent's relative dense order makes heap tie-breaks settle
    exactly as in a single process; the edge updates broadcast to a worker
    patch its columns through its own listener and never the parent's.
    """
    network = city_network(60, seed=2)
    parent = csr_snapshot(network)
    replica = _shipped_network(network, partitioning)
    snapshot = csr_snapshot(replica)
    kept_nodes, kept_edges = set(snapshot.node_ids), set(snapshot.edge_ids)
    assert snapshot.node_ids == [n for n in parent.node_ids if n in kept_nodes]
    assert snapshot.edge_ids == [e for e in parent.edge_ids if e in kept_edges]
    if partitioning == "replica":
        assert snapshot.edge_count == parent.edge_count
    else:
        assert 0 < snapshot.edge_count < parent.edge_count
    for position, edge_id in enumerate(snapshot.edge_ids):
        assert (
            snapshot.edge_weight[position]
            == parent.edge_weight[parent.index_of_edge(edge_id)]
        )

    edge_id = snapshot.edge_ids[0]
    original = network.edge(edge_id).weight
    replica.set_edge_weight(edge_id, 77.0)
    assert csr_snapshot(replica) is snapshot  # patched in place, not rebuilt
    position = snapshot.index_of_edge(edge_id)
    assert snapshot.edge_weight[position] == 77.0
    slots = [slot for slot, eid in enumerate(snapshot.adj_eid) if eid == edge_id]
    assert slots
    assert all(snapshot.adj_weight[slot] == 77.0 for slot in slots)
    assert parent.edge_weight[parent.index_of_edge(edge_id)] == original != 77.0


def test_replica_snapshot_follows_its_own_topology():
    """A pickled replica of a frozen network is editable and snapshots alone."""
    network = city_network(40, seed=4)
    parent = csr_snapshot(network)
    replica = pickle.loads(pickle.dumps(network))
    node_id = max(replica.node_ids()) + 1
    replica.add_node(node_id, 0.0, 0.0)
    snapshot = csr_snapshot(replica)
    assert snapshot is not parent
    assert snapshot.node_ids == parent.node_ids + [node_id]
    assert snapshot.index_of_node(node_id) == parent.node_count
    assert csr_snapshot(network) is parent
    assert node_id not in parent.node_index


def test_expand_knn_over_replica_snapshot_matches_original():
    """The kernel returns identical results over a pickled replica's snapshot."""
    from repro.core.search import expand_knn
    from repro.network.edge_table import EdgeTable
    from repro.network.graph import NetworkLocation

    network = city_network(100, seed=5)
    edge_table = EdgeTable(network, build_spatial_index=False)
    edge_ids = sorted(network.edge_ids())
    for object_id in range(12):
        edge_table.insert_object(
            object_id, NetworkLocation(edge_ids[(object_id * 7) % len(edge_ids)], 0.25)
        )
    query = NetworkLocation(edge_ids[3], 0.5)
    expected = expand_knn(network, edge_table, k=4, query_location=query)

    replica = pickle.loads(pickle.dumps(network))
    replica_table = EdgeTable(replica, build_spatial_index=False)
    for object_id, location in edge_table.all_objects():
        replica_table.insert_object(object_id, location)
    outcome = expand_knn(replica, replica_table, k=4, query_location=query)
    assert outcome.neighbors == expected.neighbors
    assert outcome.radius == expected.radius


@pytest.mark.parametrize("partitioning", ["replica", "graph"])
def test_sharded_server_leaves_parent_snapshot_private(partitioning):
    """The coordinator's cached snapshot stays plain, private and live.

    Nothing is shared with the workers, so the parent's snapshot keeps its
    list columns, tracks weight changes while the fleet runs and after it
    closes, and is never swapped for another object.
    """
    network = city_network(80, seed=26)
    snapshot = csr_snapshot(network)
    edge_id = snapshot.edge_ids[0]
    position = snapshot.index_of_edge(edge_id)
    with MonitoringServer(
        network, algorithm="ima", workers=2, partitioning=partitioning
    ) as server:
        server.add_object_at(1, x=30.0, y=30.0)
        server.add_query_at(1_000_000, x=35.0, y=40.0, k=1)
        server.tick()
        server.update_edge_weight(edge_id, 99.0)
        server.tick()
        assert csr_snapshot(network) is snapshot
        assert isinstance(snapshot.adj_weight, list)
        assert isinstance(snapshot.edge_weight, list)
        assert snapshot.edge_weight[position] == 99.0
    assert csr_snapshot(network) is snapshot
    network.set_edge_weight(edge_id, 98.0)
    assert snapshot.edge_weight[position] == 98.0
    slots = [slot for slot, eid in enumerate(snapshot.adj_eid) if eid == edge_id]
    assert slots
    assert all(snapshot.adj_weight[slot] == 98.0 for slot in slots)


# ----------------------------------------------------------------------
# sharded server lifecycle and equivalence
# ----------------------------------------------------------------------
def _populate(server, network):
    box = network.bounding_box()
    for object_id in range(24):
        server.add_object_at(
            object_id,
            x=box.min_x + (box.max_x - box.min_x) * ((object_id * 37) % 100) / 100.0,
            y=box.min_y + (box.max_y - box.min_y) * ((object_id * 61) % 100) / 100.0,
        )
    for index in range(9):
        server.add_query_at(
            1_000_000 + index,
            x=box.min_x + (box.max_x - box.min_x) * ((index * 29) % 100) / 100.0,
            y=box.min_y + (box.max_y - box.min_y) * ((index * 53) % 100) / 100.0,
            k=3,
        )


def _drive(server, network):
    reports = [server.tick()]
    edge_ids = sorted(network.edge_ids())
    box = network.bounding_box()
    for step in range(1, 4):
        server.move_object_at(step, x=box.center.x + 11.0 * step, y=box.center.y)
        server.move_query_at(1_000_000 + step, x=box.center.x, y=box.center.y - 9.0 * step)
        server.update_edge_weight(
            edge_ids[step], network.edge(edge_ids[step]).weight * (1.0 + 0.1 * step)
        )
        if step == 2:
            server.remove_object(7)
            server.remove_query(1_000_008)
            server.add_object_at(100 + step, x=box.center.x, y=box.center.y)
        reports.append(server.tick())
    return reports


@pytest.mark.parametrize("algorithm", ["ima", "gma", "ovh"])
def test_sharded_results_match_single_process(algorithm):
    single_net = city_network(250, seed=11)
    sharded_net = city_network(250, seed=11)
    single = MonitoringServer(single_net, algorithm=algorithm)
    with MonitoringServer(sharded_net, algorithm=algorithm, workers=3) as sharded:
        assert isinstance(sharded, ShardedMonitoringServer)
        assert sharded.workers == 3
        assert sharded.algorithm_name == single.algorithm_name
        _populate(single, single_net)
        _populate(sharded, sharded_net)
        single_reports = _drive(single, single_net)
        sharded_reports = _drive(sharded, sharded_net)
        for expected, actual in zip(single_reports, sharded_reports):
            assert expected.timestamp == actual.timestamp
            assert expected.changed_queries == actual.changed_queries
            assert expected.counters.keys() == actual.counters.keys()
            if algorithm != "gma":
                # OVH/IMA process queries independently, so summed work
                # counters are partition-invariant.  GMA's shared execution
                # legitimately does different (usually more) total work when
                # its query groups are split across shards.
                assert expected.counters == actual.counters
        assert single.results().keys() == sharded.results().keys()
        for query_id, expected in single.results().items():
            actual = sharded.result_of(query_id)
            assert actual.neighbors == expected.neighbors
            assert actual.radius == expected.radius


def test_workers_one_builds_plain_server():
    network = city_network(60, seed=12)
    server = MonitoringServer(network, workers=1)
    assert type(server) is MonitoringServer
    server.close()  # base close() is a no-op, but uniform


def test_sharded_server_validation_and_errors():
    network = city_network(60, seed=13)
    with pytest.raises(MonitoringError):
        ShardedMonitoringServer(network, workers=0)
    with pytest.raises(MonitoringError):
        ShardedMonitoringServer(network, algorithm="nope", workers=2)
    with MonitoringServer(network, workers=2) as server:
        server.add_object_at(1, x=10.0, y=10.0)
        with pytest.raises(DuplicateObjectError):
            server.add_object_at(1, x=20.0, y=20.0)
        with pytest.raises(UnknownQueryError):
            server.result_of(42)
        # AttributeError (not MonitoringError) so hasattr/getattr behave.
        with pytest.raises(AttributeError):
            _ = server.monitor
        assert getattr(server, "monitor", None) is None
    # After close, processing raises and closing again is a no-op.
    with pytest.raises(MonitoringError):
        server.tick()
    server.close()


def test_same_tick_reinstall_with_new_k():
    """remove_query + add_query of one id in one tick must adopt the new k.

    Section 4.5 normalization collapses the pair into a movement carrying
    the new k; monitors must split it back into terminate + install (the k
    cannot be applied as a movement), and the sharded server must stay
    identical to the single-process one.
    """
    single_net = city_network(150, seed=23)
    sharded_net = city_network(150, seed=23)
    single = MonitoringServer(single_net, algorithm="ima")
    with MonitoringServer(sharded_net, algorithm="ima", workers=2) as sharded:
        _populate(single, single_net)
        _populate(sharded, sharded_net)
        single.tick()
        sharded.tick()
        for server in (single, sharded):
            location = server.snap(100.0, 100.0)
            server.remove_query(1_000_002)
            server.add_query(1_000_002, location, k=7)
            server.tick()
        assert len(single.result_of(1_000_002).neighbors) == 7
        assert sharded.result_of(1_000_002).neighbors == single.result_of(
            1_000_002
        ).neighbors


def test_apply_updates_preserves_reinstall_k():
    """A pre-normalized terminate+reinstall batch keeps its new k end to end."""
    from repro.core.events import QueryUpdate, UpdateBatch

    single_net = city_network(120, seed=27)
    sharded_net = city_network(120, seed=27)
    single = MonitoringServer(single_net, algorithm="ima")
    with MonitoringServer(sharded_net, algorithm="ima", workers=2) as sharded:
        for server in (single, sharded):
            server.add_object_at(1, x=20.0, y=20.0)
            server.add_object_at(2, x=60.0, y=50.0)
            server.add_object_at(3, x=90.0, y=90.0)
            location = server.add_query_at(100, x=40.0, y=40.0, k=1)
            server.tick()
            batch = UpdateBatch()
            batch.query_updates.append(QueryUpdate(100, location, None))
            batch.query_updates.append(QueryUpdate(100, None, location, k=3))
            server.apply_updates(batch.normalized())
            server.tick()
            assert server.result_of(100).k == 3
            assert len(server.result_of(100).neighbors) == 3
        assert sharded.result_of(100).neighbors == single.result_of(100).neighbors


def test_every_public_method_raises_typed_error_after_close():
    """Use-after-close raises MonitoringError everywhere — never a hang or
    AttributeError.  Results are no exception: a closed fleet can never
    refresh the cache, so serving it would silently return stale answers;
    callers keep the dict returned by results() *before* closing instead."""
    network = city_network(80, seed=24)
    with MonitoringServer(network, algorithm="ima", workers=2) as server:
        server.add_object_at(1, x=30.0, y=30.0)
        server.add_query_at(1_000_000, x=35.0, y=40.0, k=1)
        server.tick()
        final = server.results()
    assert set(final) == {1_000_000}
    with pytest.raises(MonitoringError, match="closed"):
        server.tick()
    with pytest.raises(MonitoringError, match="closed"):
        server.take_pending_batch()
    with pytest.raises(MonitoringError, match="closed"):
        server.apply_taken_batch(UpdateBatch(timestamp=99))
    with pytest.raises(MonitoringError, match="closed"):
        server.snapshot_state()
    with pytest.raises(MonitoringError, match="closed"):
        server.result_of(1_000_000)
    with pytest.raises(MonitoringError, match="closed"):
        server.results()
    with pytest.raises(MonitoringError, match="closed"):
        server.discard_pending()
    with pytest.raises(MonitoringError, match="closed"):
        server.worker_peak_rss()
    # Ingestion fails fast too — buffered updates could never be processed.
    with pytest.raises(MonitoringError, match="closed"):
        server.add_object_at(2, x=50.0, y=50.0)
    with pytest.raises(MonitoringError, match="closed"):
        server.remove_query(1_000_000)
    # close() stays idempotent, and the errors stay typed (MonitoringError,
    # not ServerFailedError — the server was closed deliberately).
    server.close()
    try:
        server.results()
    except MonitoringError as exc:
        assert not isinstance(exc, ServerFailedError)


def test_plain_subclass_rejects_workers():
    """A direct subclass cannot silently swallow workers > 1."""

    class LoggingServer(MonitoringServer):
        pass

    network = city_network(60, seed=28)
    assert type(LoggingServer(network)) is LoggingServer
    with pytest.raises(MonitoringError, match="in-process"):
        LoggingServer(network, workers=4)


def test_workers_zero_rejected_everywhere():
    network = city_network(60, seed=25)
    with pytest.raises(MonitoringError):
        MonitoringServer(network, workers=0)
    with pytest.raises(MonitoringError):
        MonitoringServer(network, workers=-2)


def test_dead_worker_fails_closed():
    """A killed worker turns the next tick into MonitoringError + closed server."""
    network = city_network(80, seed=22)
    server = ShardedMonitoringServer(network, algorithm="ima", workers=2)
    try:
        server.add_object_at(1, x=30.0, y=30.0)
        server.add_query_at(1_000_000, x=35.0, y=40.0, k=1)
        server.tick()
        server._shards[0].process.terminate()
        server._shards[0].process.join(timeout=5.0)
        server.add_object_at(2, x=60.0, y=60.0)
        with pytest.raises(MonitoringError):
            server.tick()
        # Fail-closed: the server refuses further work instead of silently
        # serving results from an out-of-sync fleet.
        with pytest.raises(MonitoringError, match="closed"):
            server.tick()
    finally:
        server.close()  # idempotent


def test_harness_single_worker_leg_still_compares_two_servers():
    """workers=1 must drive a sharded server against the in-process baseline."""
    from repro.testing import run_differential_scenario

    reference = run_differential_scenario(
        "uniform-drift", seed=77, algorithms=(), workers=4, timestamps=3
    )
    single_leg = run_differential_scenario(
        "uniform-drift", seed=77, algorithms=(), workers=1, timestamps=3
    )
    assert single_leg.ok, single_leg.failure_message()
    # Same number of per-query checks in both legs: two servers each.
    assert single_leg.checks == reference.checks > 0


def test_sharded_server_spawn_start_method():
    """One run under 'spawn' proves the state shipping is fork-independent."""
    if "spawn" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("spawn start method unavailable")
    network = city_network(80, seed=15)
    with ShardedMonitoringServer(
        network, algorithm="ima", workers=2, start_method="spawn"
    ) as server:
        server.add_object_at(1, x=40.0, y=40.0)
        server.add_query_at(1_000_000, x=45.0, y=50.0, k=1)
        report = server.tick()
        assert report.timestamp == 0
        assert server.result_of(1_000_000).neighbors


def test_default_start_method_is_supported():
    import multiprocessing

    assert default_start_method() in multiprocessing.get_all_start_methods()


def test_simulator_make_server_workers_passthrough():
    from repro.experiments.config import SMOKE_DEFAULTS
    from repro.sim.simulator import Simulator

    single_sim = Simulator(SMOKE_DEFAULTS)
    sharded_sim = Simulator(SMOKE_DEFAULTS)
    single = single_sim.make_server("ima")
    with sharded_sim.make_server("ima", workers=2) as sharded:
        assert isinstance(sharded, ShardedMonitoringServer)
        expected = single_sim.drive_server(single, timestamps=2)
        actual = sharded_sim.drive_server(sharded, timestamps=2)
        for expected_report, actual_report in zip(expected, actual):
            assert expected_report.timestamp == actual_report.timestamp
            assert expected_report.changed_queries == actual_report.changed_queries
        for query_id, result in single.results().items():
            assert sharded.result_of(query_id).neighbors == result.neighbors
