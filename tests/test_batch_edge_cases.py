"""Regression tests for batch-path edge cases.

Covers the corners of the Section 4.5 batch preprocessing and the server's
bulk ingestion path that the fuzz scenarios hit probabilistically:

* an object added and removed within the same batch (a net no-op),
* ``k`` larger than the number of live objects (incomplete results that
  must fill up exactly as objects arrive),
* a query that both moves and terminates in the same tick,
* a same-tick ``remove_query`` + ``add_query`` of one id — collapsing into
  a movement when the reinstall preserves the query type and parameters,
  splitting back into terminate+install when the spec (or kind) changed.

Each case runs on every algorithm and is checked against the brute-force
oracle.  The cases that take the ``serve`` fixture also run on every
serving path of ``tests/serving_paths.py``: ticking in place, restored
from a snapshot, applied from the batch record, recovered from a data
directory.
"""

from __future__ import annotations

import pytest

from repro.core.events import ObjectUpdate, QueryUpdate, UpdateBatch
from repro.core.queries import aggregate_knn, knn, range_query
from repro.core.server import MonitoringServer
from repro.exceptions import UnknownQueryError
from repro.network.builders import city_network
from repro.network.distance import (
    brute_force_aggregate_knn,
    brute_force_knn,
    brute_force_range,
)
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation
from repro.core.results import results_equal

ALGORITHMS = ["ovh", "ima", "gma"]


def _server(algorithm, serve=None, seed=21, edges=120):
    network = city_network(edges, seed=seed)
    server = MonitoringServer(
        network, algorithm, edge_table=EdgeTable(network, build_spatial_index=False)
    )
    return (server if serve is None else serve(server)), sorted(network.edge_ids())


def _check_against_oracle(server, query_id):
    expected = brute_force_knn(
        server.network,
        server.edge_table,
        server.monitor.query_location(query_id),
        server.monitor.query_k(query_id),
    )
    actual = list(server.result_of(query_id).neighbors)
    assert results_equal(expected, actual), (expected, actual)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_add_and_remove_same_object_in_one_batch(algorithm, serve):
    """An object appearing and disappearing in one tick is a net no-op."""
    server, edges = _server(algorithm, serve)
    for object_id in range(6):
        server.add_object(object_id, NetworkLocation(edges[object_id], 0.5))
    server.add_query(100, NetworkLocation(edges[3], 0.25), k=3)
    server.tick()
    before = server.result_of(100)

    flicker = NetworkLocation(edges[3], 0.26)  # right next to the query
    batch = UpdateBatch()
    batch.object_updates.append(ObjectUpdate(77, None, flicker))
    batch.object_updates.append(ObjectUpdate(77, flicker, None))
    server.apply_updates(batch)
    server.tick()

    after = server.result_of(100)
    assert 77 not in after.object_ids
    assert after.neighbors == before.neighbors
    assert 77 not in server.object_ids()
    _check_against_oracle(server, 100)

    # The flickered id is free again: a later plain insertion must work.
    server.add_object(77, flicker)
    server.tick()
    assert 77 in server.result_of(100).object_ids
    _check_against_oracle(server, 100)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_k_larger_than_live_object_count(algorithm, serve):
    """Results stay incomplete (radius inf) and fill up as objects arrive."""
    server, edges = _server(algorithm, serve)
    server.add_object(0, NetworkLocation(edges[0], 0.5))
    server.add_object(1, NetworkLocation(edges[5], 0.5))
    server.add_query(100, NetworkLocation(edges[2], 0.5), k=5)
    server.tick()

    result = server.result_of(100)
    assert len(result.neighbors) == 2
    assert not result.is_complete
    assert result.radius == float("inf")
    _check_against_oracle(server, 100)

    # Remove below k, then mass-arrive past k in one batch.
    server.remove_object(1)
    server.tick()
    assert len(server.result_of(100).object_ids) == 1
    _check_against_oracle(server, 100)

    batch = UpdateBatch()
    for object_id in range(10, 16):
        batch.object_updates.append(
            ObjectUpdate(object_id, None, NetworkLocation(edges[object_id], 0.3))
        )
    server.apply_updates(batch)
    server.tick()
    result = server.result_of(100)
    assert result.is_complete
    assert result.radius != float("inf")
    _check_against_oracle(server, 100)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_query_moved_and_removed_in_same_tick(algorithm, serve):
    """A move followed by a termination in one batch terminates cleanly."""
    server, edges = _server(algorithm, serve)
    for object_id in range(8):
        server.add_object(object_id, NetworkLocation(edges[2 * object_id], 0.4))
    server.add_query(100, NetworkLocation(edges[1], 0.5), k=2)
    server.add_query(200, NetworkLocation(edges[9], 0.5), k=2)
    server.tick()

    batch = UpdateBatch()
    moved = NetworkLocation(edges[7], 0.6)
    batch.query_updates.append(
        QueryUpdate(100, NetworkLocation(edges[1], 0.5), moved)
    )
    batch.query_updates.append(QueryUpdate(100, moved, None))
    server.apply_updates(batch)
    server.tick()

    assert 100 not in server.query_ids()
    with pytest.raises(UnknownQueryError):
        server.result_of(100)
    # The surviving query is untouched and still exact.
    _check_against_oracle(server, 200)

    # The id can be reused afterwards.
    server.add_query(100, moved, k=2)
    server.tick()
    _check_against_oracle(server, 100)


def _ground_truth(server, query_id):
    """Dispatch to the brute-force helper matching the query's spec."""
    spec = server.monitor.query_spec(query_id)
    location = server.monitor.query_location(query_id)
    if spec.kind == "range":
        return brute_force_range(
            server.network, server.edge_table, location, spec.radius
        )
    if spec.kind == "aggregate_knn":
        return brute_force_aggregate_knn(
            server.network,
            server.edge_table,
            spec.aggregation_points(location),
            spec.k,
            agg=spec.agg,
        )
    return brute_force_knn(server.network, server.edge_table, location, spec.k)


def _specs_for(server, edges):
    """One spec per query kind, scaled to the server's network."""
    mean_weight = sum(
        server.network.edge(edge_id).weight for edge_id in edges
    ) / len(edges)
    return {
        "knn": knn(3),
        "range": range_query(2.5 * mean_weight),
        "aggregate_knn": aggregate_knn(2, (NetworkLocation(edges[25], 0.5),), "sum"),
    }


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("kind", ["knn", "range", "aggregate_knn"])
def test_same_tick_remove_add_preserving_spec_collapses(algorithm, kind, serve):
    """remove_query + add_query of one id with the same spec is a movement.

    The Section 4.5 collapse turns the terminate+install into a single
    movement carrying the (unchanged) spec; monitors keep their incremental
    state instead of recomputing from scratch, and the result at the new
    position must still match the ground truth.
    """
    server, edges = _server(algorithm, serve)
    for object_id in range(10):
        server.add_object(object_id, NetworkLocation(edges[3 * object_id], 0.4))
    spec = _specs_for(server, edges)[kind]
    server.add_query(100, NetworkLocation(edges[1], 0.5), k=spec)
    server.tick()

    new_location = NetworkLocation(edges[6], 0.3)
    server.remove_query(100)
    server.add_query(100, new_location, k=spec)
    server.tick()

    assert 100 in server.query_ids()
    assert server.monitor.query_spec(100) == spec
    assert server.monitor.query_location(100) == new_location
    assert results_equal(
        _ground_truth(server, 100), list(server.result_of(100).neighbors)
    )
    # The query keeps monitoring incrementally at its new position.
    server.move_object(0, NetworkLocation(edges[6], 0.35))
    server.tick()
    assert results_equal(
        _ground_truth(server, 100), list(server.result_of(100).neighbors)
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize(
    "old_kind,new_kind",
    [("knn", "range"), ("range", "aggregate_knn"), ("aggregate_knn", "knn")],
)
def test_same_tick_remove_add_changing_kind_splits(algorithm, old_kind, new_kind, serve):
    """A reinstall that changes the query *kind* re-registers from scratch."""
    server, edges = _server(algorithm, serve)
    for object_id in range(10):
        server.add_object(object_id, NetworkLocation(edges[3 * object_id], 0.4))
    specs = _specs_for(server, edges)
    server.add_query(100, NetworkLocation(edges[1], 0.5), k=specs[old_kind])
    server.tick()

    server.remove_query(100)
    new_location = NetworkLocation(edges[9], 0.7)
    server.add_query(100, new_location, k=specs[new_kind])
    server.tick()

    assert server.monitor.query_spec(100) == specs[new_kind]
    result = server.result_of(100)
    assert result.k == specs[new_kind].result_k
    assert results_equal(_ground_truth(server, 100), list(result.neighbors))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_install_move_and_object_flows_in_single_batch(algorithm, serve):
    """A batch mixing installs, moves of the just-installed entities, and
    edge changes is applied atomically through apply_updates."""
    server, edges = _server(algorithm, serve)
    server.add_object(0, NetworkLocation(edges[0], 0.5))
    server.tick()

    batch = UpdateBatch()
    first = NetworkLocation(edges[4], 0.2)
    second = NetworkLocation(edges[6], 0.8)
    batch.object_updates.append(ObjectUpdate(1, None, first))
    batch.object_updates.append(ObjectUpdate(1, first, second))
    batch.query_updates.append(QueryUpdate(300, None, first, 2))
    server.apply_updates(batch)
    server.tick()

    assert server.edge_table.location_of(1) == second
    _check_against_oracle(server, 300)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_same_tick_tenant_swap_in_shared_dedup_group(algorithm):
    """One tenant leaving while another joins the same canonical key in a
    single batch must neither orphan the joiner nor double-terminate the
    group's physical query (the refcount crosses 2 -> 1 -> 2, never 0)."""
    from repro.core.dedup import DedupFrontend

    server, edges = _server(algorithm)
    frontend = DedupFrontend(server)
    for object_id in range(8):
        frontend.add_object(object_id, NetworkLocation(edges[object_id], 0.5))
    venue = NetworkLocation(edges[3], 0.25)
    frontend.add_query(100, venue, k=2)
    frontend.add_query(101, venue, k=2)
    frontend.tick()
    physical_ids = set(server.query_ids())
    assert len(physical_ids) == 1

    batch = UpdateBatch()
    batch.query_updates.append(QueryUpdate(100, venue, None))
    batch.query_updates.append(QueryUpdate(102, None, venue, 2))
    frontend.apply_updates(batch)
    frontend.tick()

    # The co-tenant kept the original physical query alive through the swap.
    assert set(server.query_ids()) == physical_ids
    assert frontend.query_ids() == {101, 102}
    assert frontend.result_of(102).neighbors == frontend.result_of(101).neighbors
    with pytest.raises(UnknownQueryError):
        frontend.result_of(100)
    stats = frontend.dedup_stats()
    assert stats.physical_queries == 1 and stats.largest_group == 2
    _check_against_oracle(server, next(iter(physical_ids)))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_same_tick_sole_tenant_swap_reinstalls_physical(algorithm):
    """When the leaving tenant was the *only* subscriber, the same-tick swap
    reaches the server as terminate + install with a fresh physical id —
    never a same-id collapse — and the joiner gets correct results."""
    from repro.core.dedup import DedupFrontend

    server, edges = _server(algorithm)
    frontend = DedupFrontend(server)
    for object_id in range(8):
        frontend.add_object(object_id, NetworkLocation(edges[object_id], 0.5))
    venue = NetworkLocation(edges[3], 0.25)
    frontend.add_query(100, venue, k=2)
    frontend.tick()
    old_physical = set(server.query_ids())

    batch = UpdateBatch()
    batch.query_updates.append(QueryUpdate(100, venue, None))
    batch.query_updates.append(QueryUpdate(101, None, venue, 2))
    frontend.apply_updates(batch)
    frontend.tick()

    new_physical = set(server.query_ids())
    assert len(new_physical) == 1
    assert new_physical.isdisjoint(old_physical)  # ids are never reused
    assert frontend.query_ids() == {101}
    assert frontend.result_of(101).query_id == 101
    _check_against_oracle(server, next(iter(new_physical)))


# ----------------------------------------------------------------------
# road-closure semantics (the CLOSED_EDGE_WEIGHT contract)
# ----------------------------------------------------------------------
#
# The pinned contract (docs/queries.md): closures are *huge finite*
# weights, never float('inf').  An object sitting on a closed edge keeps a
# defined (astronomically large) distance — it drops out of any k-NN
# result with enough open competition but still fills result slots when
# fewer than k objects are otherwise available, identically in every
# monitor and the oracle.  True infinities are rejected at every layer.

import math

from repro.core.events import EdgeWeightUpdate
from repro.exceptions import InvalidWeightError, SimulationError
from repro.network.graph import CLOSED_EDGE_WEIGHT


def _close_edge(server, edge_id):
    batch = UpdateBatch()
    batch.add_edge_change(
        edge_id, server.network.edge(edge_id).weight, CLOSED_EDGE_WEIGHT
    )
    server.apply_updates(batch)
    server.tick()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_object_on_closed_edge_keeps_defined_distance(algorithm, serve):
    """Closing the edge under an object leaves its distance finite."""
    server, edges = _server(algorithm, serve)
    for object_id in range(3):
        server.add_object(object_id, NetworkLocation(edges[object_id], 0.5))
    server.add_query(100, NetworkLocation(edges[5], 0.25), k=3)
    server.tick()

    _close_edge(server, edges[0])  # the edge object 0 sits on

    result = server.result_of(100)
    # k exceeds the open-road population, so the stranded object must still
    # fill the third slot — with a huge but *finite* distance.
    assert result.object_ids[-1] == 0
    for _, distance in result.neighbors:
        assert math.isfinite(distance)
    closed_distance = dict(result.neighbors)[0]
    assert closed_distance > CLOSED_EDGE_WEIGHT / 4
    _check_against_oracle(server, 100)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_closed_object_drops_behind_open_competition(algorithm, serve):
    """With enough open objects, the stranded one leaves the result set."""
    server, edges = _server(algorithm, serve)
    for object_id in range(6):
        server.add_object(object_id, NetworkLocation(edges[object_id], 0.5))
    server.add_query(100, NetworkLocation(edges[1], 0.25), k=3)
    server.tick()
    assert 0 in server.result_of(100).object_ids or True  # layout-dependent

    _close_edge(server, edges[0])

    result = server.result_of(100)
    assert 0 not in result.object_ids
    assert all(math.isfinite(d) for _, d in result.neighbors)
    _check_against_oracle(server, 100)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_closed_edge_reopening_restores_results(algorithm, serve):
    """Close then reopen at the original weight: results return exactly."""
    server, edges = _server(algorithm, serve)
    for object_id in range(5):
        server.add_object(object_id, NetworkLocation(edges[object_id], 0.5))
    server.add_query(100, NetworkLocation(edges[2], 0.75), k=2)
    server.tick()
    before = server.result_of(100)
    original_weight = server.network.edge(edges[0]).weight

    _close_edge(server, edges[0])
    assert server.network.edge(edges[0]).weight == CLOSED_EDGE_WEIGHT

    batch = UpdateBatch()
    batch.add_edge_change(edges[0], CLOSED_EDGE_WEIGHT, original_weight)
    server.apply_updates(batch)
    server.tick()

    after = server.result_of(100)
    assert after.neighbors == before.neighbors
    _check_against_oracle(server, 100)


def test_true_infinite_weights_are_rejected_everywhere():
    """float('inf') is not a closure: every layer refuses it."""
    server, edges = _server("ima")
    with pytest.raises(InvalidWeightError):
        server.network.set_edge_weight(edges[0], float("inf"))
    with pytest.raises(InvalidWeightError):
        server.network.set_edge_weight(edges[0], float("nan"))
    with pytest.raises(SimulationError):
        EdgeWeightUpdate(edges[0], 5.0, float("inf") - float("inf"))  # NaN
    with pytest.raises(SimulationError):
        EdgeWeightUpdate(edges[0], 5.0, 0.0)
    # The sentinel itself is a perfectly ordinary weight.
    server.network.set_edge_weight(edges[0], CLOSED_EDGE_WEIGHT)
    assert server.network.edge(edges[0]).weight == CLOSED_EDGE_WEIGHT
