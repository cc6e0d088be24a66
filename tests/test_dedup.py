"""Multi-tenant query-dedup tests: frontend units, sharing, differentials.

Three layers of coverage for the dedup subsystem:

* :class:`~repro.core.dedup.DedupFrontend` unit behavior — reference
  counting, canonicalization (exact and snap-tolerance bucketing), group
  split/merge on movement and spec changes, pending-install semantics and
  the stats census;
* the shared-expansion cache — ``expand_knn_batch(..., share=True)`` and
  :func:`~repro.core.queries.evaluate_aggregates` must reproduce the
  unshared outcomes bit-for-bit with independent expansion states;
* oracle-backed differentials — the popular-venue preset (the workload the
  frontend exists for) through every server kernel and algorithm, sharded
  included, via ``run_differential_scenario(dedup=True)``; GMA/OVH venue
  runs additionally go through the harness's strict byte-identity branch.
"""

from __future__ import annotations

import pytest

from repro.core.dedup import DedupFrontend, DedupStats
from repro.core.events import QueryUpdate, UpdateBatch
from repro.core.queries import (
    QuerySpec,
    aggregate_knn,
    evaluate_aggregate,
    evaluate_aggregates,
    knn,
    range_query,
)
from repro.core.search import ExpansionRequest, expand_knn_batch
from repro.core.server import MonitoringServer
from repro.exceptions import (
    DuplicateQueryError,
    MonitoringError,
    UnknownQueryError,
)
from repro.network.builders import city_network
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation
from repro.network.kernels import registered_kernels
from repro.testing import run_differential_scenario

from kernel_legs import kernel_legs


def _frontend(algorithm="ima", seed=21, edges=120, snap_tolerance=0.0, objects=8):
    """A DedupFrontend over a small seeded server, with objects installed."""
    network = city_network(edges, seed=seed)
    edge_ids = sorted(network.edge_ids())
    server = MonitoringServer(
        network,
        algorithm,
        edge_table=EdgeTable(network, build_spatial_index=False),
    )
    frontend = DedupFrontend(server, snap_tolerance=snap_tolerance)
    for object_id in range(objects):
        frontend.add_object(object_id, NetworkLocation(edge_ids[object_id], 0.5))
    return frontend, edge_ids


# ----------------------------------------------------------------------
# reference counting
# ----------------------------------------------------------------------
def test_two_tenants_share_one_physical_query():
    """Co-located same-spec tenants install exactly one physical query."""
    frontend, edges = _frontend()
    venue = NetworkLocation(edges[3], 0.25)
    frontend.add_query(100, venue, k=3)
    frontend.add_query(101, venue, k=3)
    frontend.tick()

    assert len(frontend.server.query_ids()) == 1
    assert frontend.query_ids() == {100, 101}
    first, second = frontend.result_of(100), frontend.result_of(101)
    assert first.query_id == 100 and second.query_id == 101
    assert first.neighbors == second.neighbors

    stats = frontend.dedup_stats()
    assert stats == DedupStats(
        logical_queries=2,
        physical_queries=1,
        largest_group=2,
        deduped_installs=1,
        physical_installs=1,
        physical_moves=0,
    )


def test_departure_never_kills_a_cotenant():
    """Removing one subscriber leaves the group's physical query running."""
    frontend, edges = _frontend()
    venue = NetworkLocation(edges[3], 0.25)
    frontend.add_query(100, venue, k=3)
    frontend.add_query(101, venue, k=3)
    frontend.tick()
    before = frontend.result_of(101).neighbors

    frontend.remove_query(100)
    frontend.tick()
    assert frontend.result_of(101).neighbors == before
    assert len(frontend.server.query_ids()) == 1
    with pytest.raises(UnknownQueryError):
        frontend.result_of(100)

    frontend.remove_query(101)
    frontend.tick()
    assert frontend.server.query_ids() == set()
    assert frontend.dedup_stats().physical_queries == 0


def test_results_fan_out_to_every_subscriber():
    """``results()`` relabels the physical result once per subscriber."""
    frontend, edges = _frontend()
    venue = NetworkLocation(edges[5], 0.75)
    for query_id in (200, 201, 202):
        frontend.add_query(query_id, venue, k=2)
    frontend.add_query(300, NetworkLocation(edges[9], 0.1), k=2)
    frontend.tick()

    fanned = frontend.results()
    assert set(fanned) == {200, 201, 202, 300}
    assert fanned[200].neighbors == fanned[202].neighbors
    for query_id, result in fanned.items():
        assert result.query_id == query_id


# ----------------------------------------------------------------------
# canonicalization
# ----------------------------------------------------------------------
def test_exact_tolerance_separates_distinct_fractions():
    """snap_tolerance=0: only exact location equality shares a group."""
    frontend, edges = _frontend(snap_tolerance=0.0)
    frontend.add_query(100, NetworkLocation(edges[3], 0.25), k=2)
    frontend.add_query(101, NetworkLocation(edges[3], 0.26), k=2)
    frontend.add_query(102, NetworkLocation(edges[3], 0.25), k=3)  # other spec
    assert frontend.dedup_stats().physical_queries == 3


def test_snap_tolerance_buckets_nearby_fractions():
    """A positive tolerance groups same-bucket tenants at the anchor."""
    frontend, edges = _frontend(snap_tolerance=0.1)
    anchor = NetworkLocation(edges[3], 0.21)
    frontend.add_query(100, anchor, k=2)
    frontend.add_query(101, NetworkLocation(edges[3], 0.29), k=2)  # same bucket
    frontend.add_query(102, NetworkLocation(edges[3], 0.31), k=2)  # next bucket
    frontend.tick()

    stats = frontend.dedup_stats()
    assert stats.physical_queries == 2 and stats.largest_group == 2
    # The shared physical query is anchored at the first subscriber, and
    # each tenant still reports its own exact (pre-snap) location.
    assert frontend.result_of(101).neighbors == frontend.result_of(100).neighbors
    assert frontend.query_location_of(101).fraction == 0.29

    spec = QuerySpec.knn(2)
    key = frontend.canonical_key(anchor, spec)
    assert key == frontend.canonical_key(NetworkLocation(edges[3], 0.29), spec)
    assert key != frontend.canonical_key(NetworkLocation(edges[3], 0.31), spec)


def test_snap_tolerance_must_be_finite_and_nonnegative():
    """Bad tolerances are rejected with the library's typed error."""
    frontend, _ = _frontend()
    for bad in (-0.1, float("inf"), float("nan")):
        with pytest.raises(MonitoringError):
            DedupFrontend(frontend.server, snap_tolerance=bad)


# ----------------------------------------------------------------------
# install / move / respec lifecycle
# ----------------------------------------------------------------------
def test_pending_install_raises_until_tick():
    """Plain-server parity: results exist only after the next tick."""
    frontend, edges = _frontend()
    frontend.add_query(100, NetworkLocation(edges[3], 0.25), k=2)
    with pytest.raises(UnknownQueryError):
        frontend.result_of(100)
    assert 100 not in frontend.results()
    report = frontend.tick()
    assert 100 in report.changed_queries
    assert frontend.result_of(100).query_id == 100


def test_joining_tenant_is_pending_even_when_group_is_live():
    """A mid-stream joiner has no result until its first tick."""
    frontend, edges = _frontend()
    venue = NetworkLocation(edges[3], 0.25)
    frontend.add_query(100, venue, k=2)
    frontend.tick()
    frontend.add_query(101, venue, k=2)  # joins a live group
    with pytest.raises(UnknownQueryError):
        frontend.result_of(101)
    report = frontend.tick()
    assert 101 in report.changed_queries
    assert frontend.result_of(101).neighbors == frontend.result_of(100).neighbors


def test_duplicate_and_unknown_ids_raise_typed_errors():
    """Id misuse mirrors the plain server's typed exceptions."""
    frontend, edges = _frontend()
    venue = NetworkLocation(edges[3], 0.25)
    frontend.add_query(100, venue, k=2)
    with pytest.raises(DuplicateQueryError):
        frontend.add_query(100, venue, k=4)
    with pytest.raises(UnknownQueryError):
        frontend.move_query(999, venue)
    with pytest.raises(UnknownQueryError):
        frontend.remove_query(999)
    with pytest.raises(UnknownQueryError):
        frontend.query_spec_of(999)
    with pytest.raises(UnknownQueryError):
        frontend.query_location_of(999)


def test_move_splits_subscriber_out_of_shared_group():
    """A shared group's mover splits into its own physical query."""
    frontend, edges = _frontend()
    venue = NetworkLocation(edges[3], 0.25)
    frontend.add_query(100, venue, k=2)
    frontend.add_query(101, venue, k=2)
    frontend.tick()

    frontend.move_query(101, NetworkLocation(edges[7], 0.5))
    report = frontend.tick()
    assert 101 in report.changed_queries  # regrouped, result may differ
    stats = frontend.dedup_stats()
    assert stats.physical_queries == 2
    assert stats.physical_installs == 2  # the split re-installed physically
    assert frontend.result_of(100).query_id == 100

    # Moving back merges again: refcount 2 on one physical query.
    frontend.move_query(101, venue)
    frontend.tick()
    stats = frontend.dedup_stats()
    assert stats.physical_queries == 1 and stats.largest_group == 2
    assert frontend.result_of(101).neighbors == frontend.result_of(100).neighbors


def test_sole_subscriber_rides_incremental_move_path():
    """A singleton group's move keeps its physical query (no reinstall)."""
    frontend, edges = _frontend()
    frontend.add_query(100, NetworkLocation(edges[3], 0.25), k=2)
    frontend.tick()
    physical_ids = set(frontend.server.query_ids())

    frontend.move_query(100, NetworkLocation(edges[7], 0.5))
    frontend.tick()
    stats = frontend.dedup_stats()
    assert stats.physical_moves == 1
    assert stats.physical_installs == 1  # still the original install
    assert set(frontend.server.query_ids()) == physical_ids


def test_spec_change_through_batch_splits_group():
    """A respec (k change / kind change) leaves the group and rejoins."""
    frontend, edges = _frontend()
    venue = NetworkLocation(edges[3], 0.25)
    frontend.add_query(100, venue, k=2)
    frontend.add_query(101, venue, k=2)
    frontend.tick()

    batch = UpdateBatch()
    batch.query_updates.append(QueryUpdate(101, venue, None))
    batch.query_updates.append(QueryUpdate(101, None, venue, k=range_query(40.0)))
    frontend.apply_updates(batch)
    frontend.tick()

    stats = frontend.dedup_stats()
    assert stats.physical_queries == 2
    assert frontend.query_spec_of(101) == QuerySpec.range(40.0)
    assert frontend.query_spec_of(100) == QuerySpec.knn(2)
    assert frontend.result_of(101).query_id == 101


def test_group_collapse_and_reform_same_tick():
    """A key emptying and refilling in one batch is terminate + install."""
    frontend, edges = _frontend()
    venue = NetworkLocation(edges[3], 0.25)
    frontend.add_query(100, venue, k=2)
    frontend.add_query(101, venue, k=2)
    frontend.tick()

    batch = UpdateBatch()
    batch.query_updates.append(QueryUpdate(100, venue, None))
    batch.query_updates.append(QueryUpdate(101, venue, None))
    batch.query_updates.append(QueryUpdate(102, None, venue, k=knn(2)))
    frontend.apply_updates(batch)
    frontend.tick()

    assert frontend.query_ids() == {102}
    stats = frontend.dedup_stats()
    assert stats.physical_queries == 1
    assert stats.physical_installs == 2  # fresh physical id, never reused
    assert frontend.result_of(102).query_id == 102


def test_passthrough_surface_mirrors_wrapped_server():
    """Object/edge updates and introspection delegate to the wrapped server."""
    frontend, edges = _frontend(objects=4)
    assert frontend.snap_tolerance == 0.0
    assert frontend.network is frontend.server.network
    assert frontend.edge_table is frontend.server.edge_table
    assert frontend.object_ids() == {0, 1, 2, 3}

    frontend.add_query(100, NetworkLocation(edges[3], 0.25), k=2)
    frontend.tick()
    before = frontend.current_timestamp
    frontend.move_object(0, NetworkLocation(edges[3], 0.24))
    frontend.remove_object(1)
    frontend.update_edge_weight(edges[3], 5.0)
    frontend.tick()
    assert frontend.current_timestamp == before + 1
    assert frontend.object_ids() == {0, 2, 3}
    assert 0 in frontend.result_of(100).object_ids


# ----------------------------------------------------------------------
# sharded fanout
# ----------------------------------------------------------------------
def test_dedup_over_sharded_server_fans_out():
    """The frontend composes with the sharded server's merged results."""
    network = city_network(120, seed=21)
    edges = sorted(network.edge_ids())
    edge_table = EdgeTable(network, build_spatial_index=False)
    server = MonitoringServer(
        network, "ima", edge_table=edge_table, workers=2
    )
    with DedupFrontend(server) as frontend:
        for object_id in range(8):
            frontend.add_object(object_id, NetworkLocation(edges[object_id], 0.5))
        venue = NetworkLocation(edges[3], 0.25)
        for query_id in (100, 101, 102):
            frontend.add_query(query_id, venue, k=2)
        frontend.add_query(200, NetworkLocation(edges[9], 0.4), k=3)
        frontend.tick()
        fanned = frontend.results()
        assert set(fanned) == {100, 101, 102, 200}
        assert fanned[100].neighbors == fanned[102].neighbors
        assert frontend.dedup_stats().physical_queries == 2


# ----------------------------------------------------------------------
# shared-expansion cache
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", kernel_legs())
def test_share_reproduces_unshared_outcomes(kernel):
    """share=True returns bit-identical outcomes to independent runs."""
    network = city_network(120, seed=9)
    edges = sorted(network.edge_ids())
    edge_table = EdgeTable(network, build_spatial_index=False)
    for object_id in range(10):
        edge_table.insert_object(object_id, NetworkLocation(edges[object_id], 0.4))
    venue = NetworkLocation(edges[4], 0.3)
    requests = [
        ExpansionRequest(k=2, query_location=venue),
        ExpansionRequest(k=5, query_location=venue),
        ExpansionRequest(k=3, query_location=venue),
        ExpansionRequest(k=1, query_location=venue, fixed_radius=60.0),
        ExpansionRequest(k=2, query_location=NetworkLocation(edges[8], 0.7)),
    ]
    shared = expand_knn_batch(network, edge_table, requests, kernel=kernel, share=True)
    private = expand_knn_batch(network, edge_table, requests, kernel=kernel, share=False)
    for got, want in zip(shared, private):
        assert got.neighbors == want.neighbors
        assert got.radius == want.radius
        # A derived outcome carries the representative's (larger) settled
        # set; it must agree with the private run on every node the private
        # run settled — extra correctly-settled nodes are valid resume state.
        for node, dist in want.state.node_dist.items():
            assert got.state.node_dist[node] == dist


def test_share_derived_states_are_independent_copies():
    """Mutating one derived outcome's state leaves its siblings intact."""
    network = city_network(120, seed=9)
    edges = sorted(network.edge_ids())
    edge_table = EdgeTable(network, build_spatial_index=False)
    for object_id in range(10):
        edge_table.insert_object(object_id, NetworkLocation(edges[object_id], 0.4))
    venue = NetworkLocation(edges[4], 0.3)
    requests = [
        ExpansionRequest(k=2, query_location=venue),
        ExpansionRequest(k=4, query_location=venue),
    ]
    outcomes = expand_knn_batch(network, edge_table, requests, kernel="csr", share=True)
    snapshot = dict(outcomes[1].state.node_dist)
    outcomes[0].state.node_dist.clear()  # IMA mutates states in place
    assert outcomes[1].state.node_dist == snapshot


def test_share_respects_excluded_objects():
    """Different exclusion sets never share one expansion."""
    network = city_network(120, seed=9)
    edges = sorted(network.edge_ids())
    edge_table = EdgeTable(network, build_spatial_index=False)
    for object_id in range(10):
        edge_table.insert_object(object_id, NetworkLocation(edges[object_id], 0.4))
    venue = NetworkLocation(edges[4], 0.3)
    requests = [
        ExpansionRequest(k=3, query_location=venue),
        ExpansionRequest(k=3, query_location=venue, excluded_objects={0, 1}),
    ]
    shared = expand_knn_batch(network, edge_table, requests, kernel="csr", share=True)
    private = expand_knn_batch(network, edge_table, requests, kernel="csr", share=False)
    assert shared[1].neighbors == private[1].neighbors
    assert not {0, 1} & {object_id for object_id, _ in shared[1].neighbors}


@pytest.mark.parametrize("kernel", kernel_legs())
def test_evaluate_aggregates_matches_per_item_path(kernel):
    """The batched aggregate evaluator equals evaluate_aggregate item-wise."""
    network = city_network(120, seed=9)
    edges = sorted(network.edge_ids())
    edge_table = EdgeTable(network, build_spatial_index=False)
    for object_id in range(10):
        edge_table.insert_object(object_id, NetworkLocation(edges[object_id], 0.4))
    depot = NetworkLocation(edges[6], 0.5)
    items = [
        (NetworkLocation(edges[4], 0.3), aggregate_knn(2, (depot,), "sum")),
        (NetworkLocation(edges[4], 0.3), aggregate_knn(3, (depot,), "max")),
        (NetworkLocation(edges[8], 0.7), aggregate_knn(2, (), "sum")),
    ]
    batched = evaluate_aggregates(network, edge_table, items, kernel=kernel)
    for (location, spec), got in zip(items, batched):
        want = evaluate_aggregate(network, edge_table, location, spec, kernel="csr")
        assert got == want


def test_evaluate_aggregates_empty_and_objectless():
    """Degenerate inputs: no items, and no objects in the table."""
    network = city_network(60, seed=9)
    edges = sorted(network.edge_ids())
    edge_table = EdgeTable(network, build_spatial_index=False)
    assert evaluate_aggregates(network, edge_table, []) == []
    results = evaluate_aggregates(
        network,
        edge_table,
        [(NetworkLocation(edges[0], 0.5), aggregate_knn(2))],
    )
    assert results == [([], float("inf"))]


# ----------------------------------------------------------------------
# oracle-backed differentials on the venue workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", kernel_legs())
def test_popular_venue_dedup_matches_oracle(kernel):
    """Every server kernel serves correct per-tenant results under dedup."""
    report = run_differential_scenario(
        "popular-venue",
        seed=1404 + registered_kernels().index(kernel),
        algorithms=(),
        dedup=True,
        server_kernel=kernel,
    )
    assert report.checks > 0
    assert report.ok, report.failure_message()


@pytest.mark.parametrize("algorithm", ["gma", "ovh"])
def test_popular_venue_dedup_byte_identical_for_stateless(algorithm):
    """GMA/OVH venue runs survive the harness's strict byte-identity branch.

    These monitors recompute per tick without per-query float history, so
    dedup-on results must equal dedup-off results *bitwise* even when
    tenants join live groups mid-stream (the IMA carve-out documented in
    ``run_differential_scenario`` does not apply).
    """
    report = run_differential_scenario(
        "popular-venue",
        seed=2006,
        algorithms=(),
        dedup=True,
        server_algorithm=algorithm,
    )
    assert report.checks > 0
    assert report.ok, report.failure_message()


def test_popular_venue_dedup_sharded():
    """Dedup over the sharded server matches the oracle on the venue mix."""
    report = run_differential_scenario(
        "popular-venue",
        seed=4111,
        algorithms=(),
        dedup=True,
        workers=2,
    )
    assert report.checks > 0
    assert report.ok, report.failure_message()
