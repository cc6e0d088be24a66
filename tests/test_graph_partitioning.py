"""Graph-partitioned sharding: partitioner, halo exchange, and equivalence.

Covers the metis-lite BFS partitioner (:func:`grow_partitions` /
:func:`partition_block`), the seeded-expansion primitive the cross-shard
protocol is built on, and the ``partitioning="graph"`` mode of
:class:`ShardedMonitoringServer` — including boundary-heavy workloads
pinned on cut edges, the escalation lifecycle, the per-worker RSS probe, and the oracle-backed preset matrix through
``run_differential_scenario(partitioning="graph")``.
"""

from __future__ import annotations

import pytest

from repro import (
    EdgeTable,
    MonitoringServer,
    NetworkLocation,
    QuerySpec,
    city_network,
    csr_snapshot,
)
from repro.core.search import expand_knn
from repro.core.sharding import ShardedMonitoringServer
from repro.network.csr import grow_partitions, partition_block
from repro.testing import run_differential_scenario

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


# ----------------------------------------------------------------------
# partitioner
# ----------------------------------------------------------------------
def test_grow_partitions_covers_every_node_without_empty_parts():
    network = city_network(150, seed=3)
    csr = csr_snapshot(network)
    for parts in (1, 2, 3, 5):
        assignment = grow_partitions(csr, parts)
        assert set(assignment) == set(network.node_ids())
        populated = set(assignment.values())
        assert populated == set(range(parts))


def test_grow_partitions_is_deterministic_across_rebuilds():
    assignments = []
    for _ in range(2):
        network = city_network(120, seed=9)
        assignments.append(grow_partitions(csr_snapshot(network), 4))
    assert assignments[0] == assignments[1]


def test_grow_partitions_clamps_parts_to_node_count():
    network = city_network(6, seed=4)
    csr = csr_snapshot(network)
    assignment = grow_partitions(csr, 10_000)
    # Every part that exists is a singleton; ids stay 0-based contiguous.
    parts = set(assignment.values())
    assert parts == set(range(len(parts)))
    assert len(parts) == len(list(network.node_ids()))


def test_partition_block_splits_block_halo_and_local_edges():
    network = city_network(150, seed=5)
    csr = csr_snapshot(network)
    assignment = grow_partitions(csr, 3)
    seen_nodes = set()
    for part in range(3):
        block, halo, local_edges = partition_block(csr, assignment, part)
        block_set, halo_set = set(block), set(halo)
        assert not block_set & halo_set
        assert all(assignment[node] == part for node in block)
        assert all(assignment[node] != part for node in halo)
        seen_nodes |= block_set
        local_set = set(local_edges)
        for edge_id in network.edge_ids():
            edge = network.edge(edge_id)
            touches = (
                assignment[edge.start] == part or assignment[edge.end] == part
            )
            assert (edge_id in local_set) == touches
            if edge_id in local_set:
                # Out-of-block endpoints of local edges are exactly the halo.
                for endpoint in (edge.start, edge.end):
                    if assignment[endpoint] != part:
                        assert endpoint in halo_set
    assert seen_nodes == set(network.node_ids())


def test_cut_edges_are_local_to_both_sides():
    network = city_network(150, seed=5)
    csr = csr_snapshot(network)
    assignment = grow_partitions(csr, 3)
    cut_edges = [
        edge_id
        for edge_id in network.edge_ids()
        if assignment[network.edge(edge_id).start]
        != assignment[network.edge(edge_id).end]
    ]
    assert cut_edges, "a 3-way partition of a city grid must cut some edges"
    blocks = [partition_block(csr, assignment, part) for part in range(3)]
    for edge_id in cut_edges:
        edge = network.edge(edge_id)
        for endpoint in (edge.start, edge.end):
            _, _, local_edges = blocks[assignment[endpoint]]
            assert edge_id in local_edges


# ----------------------------------------------------------------------
# seeded expansion (the cross-shard resume primitive)
# ----------------------------------------------------------------------
def test_seeded_expansion_matches_source_node_expansion():
    network = city_network(100, seed=6)
    edge_table = EdgeTable(network, build_spatial_index=False)
    edge_ids = sorted(network.edge_ids())
    for object_id in range(16):
        edge_id = edge_ids[(object_id * 7) % len(edge_ids)]
        edge_table.insert_object(
            object_id, NetworkLocation(edge_id, (object_id % 5) / 5.0)
        )
    source = min(network.node_ids())
    plain = expand_knn(network, edge_table, 4, source_node=source)
    seeded = expand_knn(
        network, edge_table, 4, seed_nodes=[(source, 0.0)]
    )
    assert seeded.neighbors == plain.neighbors
    assert seeded.radius == plain.radius


# ----------------------------------------------------------------------
# graph-mode server
# ----------------------------------------------------------------------
def _populate(server, network, queries=6, k=3):
    box = network.bounding_box()
    for object_id in range(24):
        server.add_object_at(
            object_id,
            x=box.min_x + (box.max_x - box.min_x) * ((object_id * 37) % 100) / 100.0,
            y=box.min_y + (box.max_y - box.min_y) * ((object_id * 61) % 100) / 100.0,
        )
    for index in range(queries):
        server.add_query_at(
            1_000_000 + index,
            x=box.min_x + (box.max_x - box.min_x) * ((index * 29) % 100) / 100.0,
            y=box.min_y + (box.max_y - box.min_y) * ((index * 53) % 100) / 100.0,
            k=k,
        )


def test_graph_server_exposes_partition_and_mode():
    network = city_network(150, seed=7)
    expected = grow_partitions(csr_snapshot(network), 3)
    with MonitoringServer(
        network, algorithm="ima", workers=3, partitioning="graph"
    ) as server:
        assert isinstance(server, ShardedMonitoringServer)
        assert server.partitioning == "graph"
        assert server.partition_assignment() == expected
        assert server.shards == len(set(expected.values()))
        assert isinstance(server.boundary_query_ids(), frozenset)
        assert isinstance(server.divergent_query_ids(), frozenset)


def test_graph_server_single_worker_degenerates_to_one_block():
    """One block has an empty halo: every local answer is exact.

    So nothing escalates — not a k-NN query that sees fewer than k objects
    (infinite radius), not an aggregate query — and the fleet answers
    byte-identically to the single-process server.
    """
    single_net = city_network(100, seed=8)
    graph_net = city_network(100, seed=8)
    single = MonitoringServer(single_net, algorithm="ima")
    with MonitoringServer(
        graph_net, algorithm="ima", workers=1, partitioning="graph"
    ) as graph:
        for server, network in ((single, single_net), (graph, graph_net)):
            box = network.bounding_box()
            edges = sorted(network.edge_ids())
            for index in range(3):
                server.add_object_at(
                    100 + index, x=box.min_x + 10.0 * index, y=box.min_y + 20.0 * index
                )
            server.add_query_at(2_000_000, x=box.min_x + 50.0, y=box.min_y + 50.0, k=8)
            server.add_query(
                2_000_001,
                NetworkLocation(edges[3], 0.5),
                QuerySpec.aggregate_knn(2, (NetworkLocation(edges[40], 0.25),), "sum"),
            )
        for populate in (False, True):
            if populate:
                _populate(single, single_net)
                _populate(graph, graph_net)
            single.tick()
            graph.tick()
            # Three objects for k=8 leave the radius infinite until populated.
            assert (graph.result_of(2_000_000).radius == float("inf")) is not populate
            assert not graph.boundary_query_ids()
            assert not graph.divergent_query_ids()
            assert graph.results() == single.results()


def _cut_locations(network, count):
    """Query locations pinned on partition-cut edges (boundary-heavy)."""
    assignment = grow_partitions(csr_snapshot(network), 3)
    locations = []
    for edge_id in sorted(network.edge_ids()):
        edge = network.edge(edge_id)
        if assignment[edge.start] != assignment[edge.end]:
            locations.append(NetworkLocation(edge_id, 0.5))
            if len(locations) == count:
                break
    assert len(locations) == count
    return locations


def test_boundary_heavy_workload_matches_single_process():
    """Queries pinned on cut edges escalate yet stay oracle-equal.

    Every query sits astride a partition cut, so the containment probe
    must escalate all of them to coordinator-side boundary evaluation —
    the worst case for the cross-shard protocol.  Non-divergent answers
    must stay byte-identical to the single-process server's.
    """
    single_net = city_network(150, seed=12)
    graph_net = city_network(150, seed=12)
    single = MonitoringServer(single_net, algorithm="ima")
    with MonitoringServer(
        graph_net, algorithm="ima", workers=3, partitioning="graph"
    ) as graph:
        for server, network in ((single, single_net), (graph, graph_net)):
            box = network.bounding_box()
            for object_id in range(24):
                server.add_object_at(
                    object_id,
                    x=box.min_x
                    + (box.max_x - box.min_x) * ((object_id * 37) % 100) / 100.0,
                    y=box.min_y
                    + (box.max_y - box.min_y) * ((object_id * 61) % 100) / 100.0,
                )
            for index, location in enumerate(_cut_locations(network, 6)):
                server.add_query(1_000_000 + index, location, k=4)
            server.tick()
        assert graph.boundary_query_ids(), "cut-pinned queries must escalate"
        # Drive movement + weight churn through both servers identically.
        for round_index in range(3):
            for server, network in ((single, single_net), (graph, graph_net)):
                box = network.bounding_box()
                for object_id in range(0, 24, 3):
                    server.move_object_at(
                        object_id,
                        x=box.min_x
                        + (box.max_x - box.min_x)
                        * ((object_id * 13 + round_index * 41) % 100)
                        / 100.0,
                        y=box.min_y
                        + (box.max_y - box.min_y)
                        * ((object_id * 17 + round_index * 59) % 100)
                        / 100.0,
                    )
                edge_id = sorted(network.edge_ids())[round_index * 7]
                server.update_edge_weight(
                    edge_id, network.edge(edge_id).base_weight * (1.5 + round_index)
                )
                server.tick()
            divergent = graph.divergent_query_ids()
            for query_id, expected in single.results().items():
                actual = graph.result_of(query_id)
                if query_id in divergent:
                    assert [d for _, d in actual.neighbors] == pytest.approx(
                        [d for _, d in expected.neighbors]
                    )
                else:
                    assert actual.neighbors == expected.neighbors, query_id


def test_escalation_lifecycle_boundary_then_terminate():
    network = city_network(150, seed=12)
    with MonitoringServer(
        network, algorithm="gma", workers=3, partitioning="graph"
    ) as server:
        box = network.bounding_box()
        for object_id in range(24):
            server.add_object_at(
                object_id,
                x=box.min_x + (box.max_x - box.min_x) * ((object_id * 37) % 100) / 100.0,
                y=box.min_y + (box.max_y - box.min_y) * ((object_id * 61) % 100) / 100.0,
            )
        location = _cut_locations(network, 1)[0]
        server.add_query(1_000_000, location, k=4)
        server.tick()
        assert 1_000_000 in server.boundary_query_ids()
        # Escalation marks the query divergent conservatively (the strict
        # byte-identity carve-out), and the mark is sticky for the query's
        # lifetime even after termination.
        assert 1_000_000 in server.divergent_query_ids()
        server.remove_query(1_000_000)
        server.tick()
        assert 1_000_000 not in server.boundary_query_ids()
        assert 1_000_000 in server.divergent_query_ids()
        with pytest.raises(Exception):
            server.result_of(1_000_000)


def test_worker_peak_rss_reports_every_worker_process():
    network = city_network(100, seed=15)
    with MonitoringServer(
        network, algorithm="ima", workers=3, partitioning="graph"
    ) as server:
        _populate(server, network)
        server.tick()
        sizes = server.worker_peak_rss()
        # the coordinator hosts the last shard: it is not a worker process
        assert len(sizes) == server.shards - 1
        assert all(isinstance(size, int) and size >= 0 for size in sizes)
        # Linux/macOS both report a real positive peak for a live worker.
        assert max(sizes) > 0


def test_graph_snapshot_restore_preserves_results():
    from repro.core.server import restore_server

    network = city_network(120, seed=16)
    with MonitoringServer(
        network, algorithm="ima", workers=3, partitioning="graph"
    ) as server:
        _populate(server, network)
        server.tick()
        expected = {
            query_id: result.neighbors
            for query_id, result in server.results().items()
        }
        boundary = server.boundary_query_ids()
        blob = server.snapshot_state()
    restored = restore_server(blob)
    try:
        assert restored.partitioning == "graph"
        assert restored.boundary_query_ids() == boundary
        for query_id, neighbors in expected.items():
            assert restored.result_of(query_id).neighbors == neighbors
    finally:
        restored.close()


def test_load_initial_state_sees_boundary_queries():
    """Durable genesis extraction must not lose coordinator-owned queries."""
    from repro.core.server import MonitoringServer as Server
    from repro.service.durable import DurableMonitoringServer, load_initial_state

    import tempfile

    network = city_network(150, seed=12)
    with tempfile.TemporaryDirectory() as data_dir:
        inner = Server(network, algorithm="ima", workers=3, partitioning="graph")
        box = network.bounding_box()
        for object_id in range(12):
            inner.add_object_at(
                object_id,
                x=box.min_x
                + (box.max_x - box.min_x) * ((object_id * 37) % 100) / 100.0,
                y=box.min_y
                + (box.max_y - box.min_y) * ((object_id * 61) % 100) / 100.0,
            )
        location = _cut_locations(network, 1)[0]
        inner.add_query(1_000_000, location, k=3)
        inner.tick()
        assert 1_000_000 in inner.boundary_query_ids()
        # The genesis checkpoint is the wrapped server's state at wrap
        # time: the boundary query lives in no shard blob, only in the
        # coordinator maps load_initial_state must read.
        durable = DurableMonitoringServer(inner, data_dir, checkpoint_every=1)
        try:
            durable.tick()
        finally:
            durable.close()
        initial = load_initial_state(data_dir)
        assert 1_000_000 in initial.queries


# ----------------------------------------------------------------------
# oracle-backed preset matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["ima", "gma"])
def test_graph_partitioned_presets_match_oracle(algorithm):
    """IMA/GMA through the graph-partitioned harness leg."""
    report = run_differential_scenario(
        "mixed-stress",
        seed=20_060_912,
        algorithms=(),
        workers=3,
        server_algorithm=algorithm,
        partitioning="graph",
        timestamps=5,
    )
    assert report.checks > 0
    assert report.ok, report.failure_message()


def test_graph_partitioned_mixed_queries_match_oracle():
    """All three query kinds cross the shard protocol (aggregates too)."""
    report = run_differential_scenario(
        "popular-venue",
        seed=20_060_913,
        algorithms=(),
        workers=3,
        query_types="mixed",
        partitioning="graph",
        timestamps=5,
    )
    assert report.checks > 0
    assert report.ok, report.failure_message()


def test_graph_partitioned_closure_churn_matches_oracle():
    """Closure-grade weight spikes (including on cut edges) stay exact."""
    report = run_differential_scenario(
        "gridlock-closures",
        seed=20_060_914,
        algorithms=(),
        workers=3,
        partitioning="graph",
        timestamps=5,
    )
    assert report.checks > 0
    assert report.ok, report.failure_message()


def test_harness_rejects_graph_without_workers():
    from repro.exceptions import SimulationError

    with pytest.raises(SimulationError, match="requires workers"):
        run_differential_scenario(
            "uniform-drift", seed=1, partitioning="graph", timestamps=1
        )
