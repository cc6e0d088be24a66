"""Unit tests for the query-type subsystem (QuerySpec, range, aggregate).

Covers the :class:`~repro.core.queries.QuerySpec` abstraction itself, the
fixed-radius search support of every kernel, range and aggregate monitoring
on OVH/IMA/GMA against the brute-force ground truth, spec transport through
the sharded server, and the unified typed ``result_of`` errors on both the
in-process and sharded paths.
"""

from __future__ import annotations

import random

import pytest

from repro.core.events import ObjectUpdate, QueryUpdate, UpdateBatch
from repro.core.queries import (
    QuerySpec,
    aggregate_knn,
    as_query_spec,
    knn,
    range_query,
)
from repro.core.results import results_equal
from repro.core.search import ExpansionRequest, expand_knn, expand_knn_batch
from repro.core.server import MonitoringServer
from repro.exceptions import (
    EdgeNotFoundError,
    InvalidQueryError,
    UnknownQueryError,
)
from repro.network.builders import city_network
from repro.network.csr import csr_snapshot
from repro.network.distance import (
    brute_force_aggregate_knn,
    brute_force_knn,
    brute_force_object_distances,
    brute_force_range,
)
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation
from repro.network.kernels import available_kernels

from kernel_legs import kernel_legs

ALGORITHMS = ["ovh", "ima", "gma"]
# Sweep every kernel that can run here — new registered backends (e.g. the
# compiled native engine) join the matrix automatically — plus native on
# its csr fallback.
KERNELS = kernel_legs()


def _network_and_table(edges=120, seed=23, objects=30):
    network = city_network(edges, seed=seed)
    edge_table = EdgeTable(network, build_spatial_index=False)
    rng = random.Random(seed)
    edge_ids = sorted(network.edge_ids())
    for object_id in range(objects):
        edge_table.insert_object(
            object_id, NetworkLocation(rng.choice(edge_ids), rng.random())
        )
    return network, edge_table, edge_ids


def _mean_weight(network):
    edge_ids = sorted(network.edge_ids())
    return sum(network.edge(e).weight for e in edge_ids) / len(edge_ids)


def _server(algorithm, kernel, edges=120, seed=23, objects=30):
    network, edge_table, edge_ids = _network_and_table(edges, seed, objects)
    server = MonitoringServer(
        network, algorithm, edge_table=edge_table, kernel=kernel
    )
    return server, edge_ids


# ----------------------------------------------------------------------
# QuerySpec itself
# ----------------------------------------------------------------------
class TestQuerySpec:
    def test_factories_and_normalization(self):
        assert knn(4) == QuerySpec.knn(4) == as_query_spec(4)
        assert range_query(2.5) == QuerySpec.range(2.5)
        point = NetworkLocation(0, 0.5)
        spec = aggregate_knn(2, [point], "max")
        assert spec == QuerySpec.aggregate_knn(2, (point,), "max")
        assert spec.points == (point,)  # list coerced to tuple
        assert as_query_spec(spec) is spec
        assert as_query_spec(None) is None

    def test_result_k_and_aggregation_points(self):
        assert knn(4).result_k == 4
        assert range_query(1.0).result_k == 0
        location = NetworkLocation(3, 0.25)
        extra = NetworkLocation(7, 0.75)
        spec = aggregate_knn(2, (extra,))
        assert spec.aggregation_points(location) == (location, extra)
        assert knn(2).is_knn and not range_query(1.0).is_knn

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: QuerySpec(kind="voronoi"),
            lambda: QuerySpec.knn(0),
            lambda: QuerySpec.aggregate_knn(0),
            lambda: QuerySpec.range(0.0),
            lambda: QuerySpec.range(-1.0),
            lambda: QuerySpec.range(float("inf")),
            lambda: QuerySpec.aggregate_knn(2, agg="median"),
            lambda: QuerySpec(kind="knn", k=2, points=(NetworkLocation(0, 0.5),)),
            lambda: as_query_spec(2.5),
            lambda: as_query_spec(True),
            lambda: as_query_spec("4"),
        ],
    )
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(InvalidQueryError):
            bad()

    def test_installation_requires_spec_or_k(self):
        with pytest.raises(InvalidQueryError):
            QueryUpdate(1, None, NetworkLocation(0, 0.5))

    def test_normalization_carries_spec(self):
        """A same-tick remove+add collapses into a movement holding the spec."""
        old = NetworkLocation(0, 0.2)
        new = NetworkLocation(1, 0.8)
        spec = range_query(3.0)
        batch = UpdateBatch()
        batch.query_updates.append(QueryUpdate(9, old, None))
        batch.query_updates.append(QueryUpdate(9, None, new, spec))
        [merged] = batch.normalized().query_updates
        assert merged.old_location == old
        assert merged.new_location == new
        assert merged.spec == spec


# ----------------------------------------------------------------------
# fixed-radius kernel support
# ----------------------------------------------------------------------
class TestFixedRadiusKernels:
    def test_all_kernels_agree_with_brute_force(self):
        network, edge_table, edge_ids = _network_and_table()
        radius = 3.0 * _mean_weight(network)
        for fraction in (0.0, 0.31, 1.0):
            location = NetworkLocation(edge_ids[17], fraction)
            truth = brute_force_range(network, edge_table, location, radius)
            csr = csr_snapshot(network)
            fast = expand_knn(
                network, edge_table, 1, query_location=location,
                csr=csr, fixed_radius=radius,
            )
            for kernel in available_kernels():
                [batched] = expand_knn_batch(
                    network, edge_table,
                    [ExpansionRequest(k=1, query_location=location, fixed_radius=radius)],
                    csr=csr, kernel=kernel,
                )
                assert fast.neighbors == batched.neighbors
                assert fast.radius == batched.radius == radius
            assert results_equal(truth, fast.neighbors)
            # The range outcome is every in-range object, sorted.
            assert [pair[0] for pair in fast.neighbors] == [p[0] for p in truth]

    def test_fixed_radius_returns_full_inventory_not_top_k(self):
        network, edge_table, edge_ids = _network_and_table(objects=40)
        location = NetworkLocation(edge_ids[5], 0.5)
        big = 6.0 * _mean_weight(network)
        outcome = expand_knn(
            network, edge_table, 1, query_location=location, fixed_radius=big
        )
        assert len(outcome.neighbors) > 1  # k was 1; the radius governs
        distances = [distance for _, distance in outcome.neighbors]
        assert distances == sorted(distances)
        assert all(distance <= big for distance in distances)


# ----------------------------------------------------------------------
# range monitoring against ground truth
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("kernel", KERNELS)
class TestRangeMonitoring:
    def test_range_query_tracks_ground_truth(self, algorithm, kernel):
        server, edges = _server(algorithm, kernel)
        radius = 2.5 * _mean_weight(server.network)
        location = NetworkLocation(edges[11], 0.4)
        server.add_query(100, location, k=range_query(radius))
        server.tick()

        def check():
            truth = brute_force_range(
                server.network, server.edge_table, server.monitor.query_location(100),
                radius,
            )
            result = server.result_of(100)
            assert result.radius == radius
            assert result.k == 0 and result.is_complete
            assert results_equal(truth, list(result.neighbors)), (
                truth, list(result.neighbors),
            )

        check()
        # Objects move in / out of range, weights shift, the query moves.
        rng = random.Random(4)
        for step in range(6):
            batch = UpdateBatch()
            for object_id in rng.sample(range(30), 4):
                batch.object_updates.append(
                    ObjectUpdate(
                        object_id,
                        server.edge_table.location_of(object_id),
                        NetworkLocation(rng.choice(edges), rng.random()),
                    )
                )
            edge_id = rng.choice(edges)
            old_weight = server.network.edge(edge_id).weight
            server.apply_updates(batch)
            server.update_edge_weight(edge_id, old_weight * (0.8 + 0.4 * rng.random()))
            if step % 2:
                server.move_query(100, NetworkLocation(rng.choice(edges), rng.random()))
            server.tick()
            check()

    def test_range_query_with_zero_in_range_objects(self, algorithm, kernel):
        """A geofence containing nothing stays empty, then fills on arrival."""
        network = city_network(120, seed=23)
        edge_table = EdgeTable(network, build_spatial_index=False)
        server = MonitoringServer(
            network, algorithm, edge_table=edge_table, kernel=kernel
        )
        edges = sorted(network.edge_ids())
        tiny = 1e-6
        location = NetworkLocation(edges[8], 0.5)
        server.add_query(100, location, k=range_query(tiny))
        server.tick()
        result = server.result_of(100)
        assert result.neighbors == ()
        assert result.radius == tiny
        assert result.is_complete  # a range result is never "incomplete"

        # An object landing essentially on the query enters the result...
        server.add_object(1, NetworkLocation(edges[8], 0.5))
        server.tick()
        assert server.result_of(100).object_ids == (1,)
        # ... and leaves it again when it moves away.
        server.move_object(1, NetworkLocation(edges[40], 0.9))
        server.tick()
        assert server.result_of(100).neighbors == ()


# ----------------------------------------------------------------------
# aggregate monitoring against ground truth
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("kernel", KERNELS)
class TestAggregateMonitoring:
    @pytest.mark.parametrize("agg", ["sum", "max"])
    def test_aggregate_tracks_ground_truth(self, algorithm, kernel, agg):
        server, edges = _server(algorithm, kernel)
        extra = (
            NetworkLocation(edges[33], 0.1),
            NetworkLocation(edges[57], 0.8),
        )
        spec = aggregate_knn(3, extra, agg)
        location = NetworkLocation(edges[2], 0.6)
        server.add_query(100, location, k=spec)
        server.tick()

        def check():
            truth = brute_force_aggregate_knn(
                server.network,
                server.edge_table,
                spec.aggregation_points(server.monitor.query_location(100)),
                spec.k,
                agg=agg,
            )
            assert results_equal(truth, list(server.result_of(100).neighbors))

        check()
        rng = random.Random(9)
        for step in range(5):
            for object_id in rng.sample(range(30), 3):
                server.move_object(
                    object_id, NetworkLocation(rng.choice(edges), rng.random())
                )
            edge_id = rng.choice(edges)
            server.update_edge_weight(
                edge_id, server.network.edge(edge_id).weight * 1.1
            )
            if step == 3:
                server.move_query(100, NetworkLocation(rng.choice(edges), 0.2))
            server.tick()
            check()

    def test_aggregate_k_larger_than_live_objects(self, algorithm, kernel):
        """k > live objects: incomplete result, radius inf, fills on arrival."""
        network = city_network(120, seed=23)
        edge_table = EdgeTable(network, build_spatial_index=False)
        server = MonitoringServer(
            network, algorithm, edge_table=edge_table, kernel=kernel
        )
        edges = sorted(network.edge_ids())
        spec = aggregate_knn(5, (NetworkLocation(edges[20], 0.5),), "sum")
        server.add_query(100, NetworkLocation(edges[4], 0.5), k=spec)
        server.add_object(0, NetworkLocation(edges[9], 0.25))
        server.add_object(1, NetworkLocation(edges[44], 0.75))
        server.tick()
        result = server.result_of(100)
        assert len(result.neighbors) == 2
        assert not result.is_complete
        assert result.radius == float("inf")

        batch = UpdateBatch()
        for object_id in range(10, 16):
            batch.object_updates.append(
                ObjectUpdate(object_id, None, NetworkLocation(edges[object_id], 0.3))
            )
        server.apply_updates(batch)
        server.tick()
        result = server.result_of(100)
        assert result.is_complete and result.radius != float("inf")
        truth = brute_force_aggregate_knn(
            server.network,
            server.edge_table,
            spec.aggregation_points(server.monitor.query_location(100)),
            spec.k,
        )
        assert results_equal(truth, list(result.neighbors))

    def test_aggregate_with_no_objects_is_empty(self, algorithm, kernel):
        network = city_network(80, seed=5)
        server = MonitoringServer(
            network,
            algorithm,
            edge_table=EdgeTable(network, build_spatial_index=False),
            kernel=kernel,
        )
        edges = sorted(network.edge_ids())
        server.add_query(100, NetworkLocation(edges[0], 0.5), k=aggregate_knn(2))
        server.tick()
        result = server.result_of(100)
        assert result.neighbors == () and result.radius == float("inf")


# ----------------------------------------------------------------------
# brute-force helper self-consistency
# ----------------------------------------------------------------------
def test_brute_force_helpers_are_consistent():
    network, edge_table, edge_ids = _network_and_table()
    location = NetworkLocation(edge_ids[3], 0.7)
    pairs = brute_force_object_distances(network, edge_table, location)
    assert brute_force_knn(network, edge_table, location, 4) == pairs[:4]
    radius = pairs[5][1]
    in_range = brute_force_range(network, edge_table, location, radius)
    assert in_range == [pair for pair in pairs if pair[1] <= radius]
    # Single-point aggregate == plain k-NN, for both aggregate functions.
    for agg in ("sum", "max"):
        assert brute_force_aggregate_knn(
            network, edge_table, (location,), 4, agg=agg
        ) == pairs[:4]


# ----------------------------------------------------------------------
# sharded transport
# ----------------------------------------------------------------------
def test_sharded_server_handles_all_query_types():
    """Specs partition across workers; merged results match single-process."""
    network, edge_table, edge_ids = _network_and_table(objects=24)
    single = MonitoringServer(
        network.copy(),
        "ima",
        edge_table=None,
    )
    specs = {
        1_000_000: (NetworkLocation(edge_ids[4], 0.5), knn(3)),
        1_000_001: (
            NetworkLocation(edge_ids[9], 0.2),
            range_query(3.0 * _mean_weight(network)),
        ),
        1_000_002: (
            NetworkLocation(edge_ids[14], 0.8),
            aggregate_knn(2, (NetworkLocation(edge_ids[30], 0.5),), "max"),
        ),
    }
    objects = dict(edge_table.all_objects())
    rng = random.Random(12)
    with MonitoringServer(network.copy(), "ima", workers=2) as sharded:
        servers = [single, sharded]
        for server in servers:
            for object_id, location in objects.items():
                server.add_object(object_id, location)
            for query_id, (location, spec) in specs.items():
                server.add_query(query_id, location, spec)
            server.tick()
        for _ in range(3):
            moves = [
                (object_id, NetworkLocation(rng.choice(edge_ids), rng.random()))
                for object_id in rng.sample(sorted(objects), 5)
            ]
            edge_id = rng.choice(edge_ids)
            factor = 0.8 + 0.4 * rng.random()
            for server in servers:
                for object_id, location in moves:
                    server.move_object(object_id, location)
                server.update_edge_weight(
                    edge_id, server.network.edge(edge_id).weight * factor
                )
                server.tick()
            for query_id in specs:
                assert (
                    single.result_of(query_id).neighbors
                    == sharded.result_of(query_id).neighbors
                ), query_id
    single.close()


def test_add_query_rejects_invalid_aggregate_points_atomically():
    """A spec whose extra points reference unknown edges is rejected up
    front, leaving the server unchanged — the id stays usable and tick()
    never sees the bad registration."""
    network = city_network(100, seed=3)
    server = MonitoringServer(
        network, "ima", edge_table=EdgeTable(network, build_spatial_index=False)
    )
    edges = sorted(network.edge_ids())
    bad = aggregate_knn(2, (NetworkLocation(999_999, 0.5),))
    with pytest.raises(EdgeNotFoundError):
        server.add_query(1, NetworkLocation(edges[0], 0.5), k=bad)
    assert 1 not in server.query_ids()
    server.add_query(1, NetworkLocation(edges[0], 0.5), k=2)
    server.tick()
    assert server.result_of(1).query_id == 1


# ----------------------------------------------------------------------
# unified typed errors on result_of (both execution paths)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [None, 2])
def test_result_of_raises_unknown_query_error_uniformly(workers):
    """Never-registered, pending, and removed ids all raise the typed error.

    The sharded path serves results from a merged cache and the in-process
    path from the monitor; both must surface UnknownQueryError (a
    MonitoringError subclass), never a bare KeyError, for every miss mode.
    """
    network = city_network(100, seed=3)
    kwargs = {} if workers is None else {"workers": workers}
    with MonitoringServer(network, "ima", **kwargs) as server:
        edges = sorted(network.edge_ids())
        # 1. never registered
        with pytest.raises(UnknownQueryError):
            server.result_of(424242)
        # 2. added but not yet ticked (installation still pending)
        server.add_query(7, NetworkLocation(edges[0], 0.5), k=2)
        with pytest.raises(UnknownQueryError):
            server.result_of(7)
        server.tick()
        assert server.result_of(7).query_id == 7
        assert server.query_spec_of(7) == knn(2)
        # 3. removed (and the removal processed)
        server.remove_query(7)
        server.tick()
        with pytest.raises(UnknownQueryError):
            server.result_of(7)
        with pytest.raises(UnknownQueryError):
            server.query_spec_of(7)
        # results() misses stay plain dict misses on both paths
        assert 7 not in server.results()
