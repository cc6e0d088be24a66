"""The compiled ``kernel="native"`` settle loop.

Byte-identity against the ``csr`` engine (results *and* counters), the
transparent fallback to ``csr`` when the compiled backend is disabled or
absent or the graph's ids do not fit the C columns, the optional C-API
outcome helper, and the full-stack integration (monitors, servers,
sharded workers) behind the registry name.
"""

from __future__ import annotations

import random

import pytest

import repro.network.native as native_module
from repro.core.ima import ImaMonitor
from repro.core.search import (
    ExpansionRequest,
    SearchCounters,
    expand_knn,
    expand_knn_batch,
)
from repro.core.server import MonitoringServer
from repro.exceptions import InvalidQueryError
from repro.network.builders import city_network
from repro.network.csr import csr_snapshot
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation
from repro.network.kernels import KERNEL_CSR, KERNEL_NATIVE, available_kernels
from repro.network.native import (
    DISABLE_ENV,
    NativeSupport,
    load_native_library,
    load_outcome_helper,
    native_available,
    native_expand_batch,
    reset_native_library_cache,
)
from repro.testing import SCENARIO_PRESETS, run_differential_scenario
from repro.testing.harness import NATIVE_ALGORITHMS
from repro.testing.scenarios import ScenarioEngine, resolve_scenario
from repro.utils import optional_numpy

from kernel_legs import native_legs

# Without the compiled backend (no compiler, no numpy, REPRO_NATIVE_DISABLE=1)
# every kernel="native" batch is served by the csr path, so the
# byte-identity cases below still run there and check the fallback; only
# the cases that need the C loop itself, or numpy mirrors, are skipped.
needs_compiled = pytest.mark.skipif(
    not native_available(), reason="compiled native backend unavailable"
)
needs_numpy = pytest.mark.skipif(
    optional_numpy() is None, reason="numpy unavailable; no NativeSupport mirrors"
)


def _populated(edges=400, objects=350, seed=9, network_seed=5, edit=None):
    network = city_network(edges, seed=network_seed)
    if edit is not None:
        edit(network)  # before the table freezes the topology
    table = EdgeTable(network, build_spatial_index=False)
    rng = random.Random(seed)
    edge_ids = list(network.edge_ids())
    for object_id in range(objects):
        table.insert_object(
            object_id, NetworkLocation(rng.choice(edge_ids), rng.random())
        )
    return network, table, edge_ids, rng


def _outcome_tuple(outcome):
    return (
        outcome.neighbors,
        outcome.radius,
        outcome.state.node_dist,
        outcome.state.parent,
    )


def _requests(edge_ids, rng, count=10, k=4):
    return [
        ExpansionRequest(
            k=k, query_location=NetworkLocation(rng.choice(edge_ids), rng.random())
        )
        for _ in range(count)
    ]


def _assert_csr_served(monkeypatch, network, table, requests):
    """``kernel="native"`` runs *requests* on the csr path, byte for byte.

    The compiled loop must not run at all, and outcomes and work counters
    must equal a ``kernel="csr"`` batch over the same requests.
    """

    def compiled_loop_ran(*args, **kwargs):
        raise AssertionError("the compiled loop served a fallback batch")

    csr_counters, native_counters = SearchCounters(), SearchCounters()
    expected = expand_knn_batch(
        network, table, list(requests), counters=csr_counters, kernel=KERNEL_CSR
    )
    with monkeypatch.context() as patch:
        patch.setattr(native_module, "_native_search", compiled_loop_ran)
        served = expand_knn_batch(
            network, table, list(requests), counters=native_counters,
            kernel=KERNEL_NATIVE,
        )
    assert [_outcome_tuple(o) for o in served] == [_outcome_tuple(o) for o in expected]
    assert native_counters.snapshot() == csr_counters.snapshot()


# ---------------------------------------------------------------------------
# engine equivalence
# ---------------------------------------------------------------------------
def test_fresh_searches_byte_identical_with_counters():
    network, table, edge_ids, rng = _populated()
    heap_counters = SearchCounters()
    native_counters = SearchCounters()
    requests = [
        ExpansionRequest(
            k=1 + (i % 9),
            query_location=NetworkLocation(rng.choice(edge_ids), rng.random()),
        )
        for i in range(120)
    ]
    expected = [
        expand_knn(
            network, table, request.k,
            query_location=request.query_location, counters=heap_counters,
        )
        for request in requests
    ]
    outcomes = native_expand_batch(
        network, table, requests, counters=native_counters
    )
    for a, b in zip(expected, outcomes):
        assert _outcome_tuple(a) == _outcome_tuple(b)
    assert heap_counters.snapshot() == native_counters.snapshot()


def test_resume_requests_byte_identical():
    network, table, edge_ids, rng = _populated(edges=700, objects=90, seed=3)
    for trial in range(40):
        location = NetworkLocation(rng.choice(edge_ids), rng.random())
        k = rng.randint(3, 16)
        base = expand_knn(network, table, k, query_location=location)
        coverage = (
            base.radius * rng.uniform(0.5, 1.0)
            if base.radius != float("inf")
            else None
        )
        kwargs = dict(
            query_location=location,
            preverified=dict(base.state.node_dist),
            preverified_parent=dict(base.state.parent),
            candidates=list(base.neighbors),
            coverage_radius=coverage,
        )
        expected = expand_knn(network, table, k + 2, **kwargs)
        [outcome] = native_expand_batch(
            network, table, [ExpansionRequest(k=k + 2, **kwargs)]
        )
        assert _outcome_tuple(expected) == _outcome_tuple(outcome), trial


def test_barrier_excluded_and_fixed_radius_byte_identical():
    network, table, edge_ids, rng = _populated()
    nodes = list(network.node_ids())
    for trial in range(25):
        location = NetworkLocation(rng.choice(edge_ids), rng.random())
        barriers = {}
        for node_id in rng.sample(nodes, 3):
            result = expand_knn(network, table, 5, source_node=node_id)
            barriers[node_id] = list(result.neighbors)
        kwargs = dict(
            query_location=location,
            barrier_candidates=barriers,
            excluded_objects=set(rng.sample(range(350), 10)),
        )
        expected = expand_knn(network, table, 4, **kwargs)
        [outcome] = native_expand_batch(
            network, table, [ExpansionRequest(k=4, **kwargs)]
        )
        assert _outcome_tuple(expected) == _outcome_tuple(outcome), trial
        fixed = NetworkLocation(rng.choice(edge_ids), rng.random())
        expected = expand_knn(
            network, table, 3, query_location=fixed, fixed_radius=25.0
        )
        [outcome] = native_expand_batch(
            network,
            table,
            [ExpansionRequest(k=3, query_location=fixed, fixed_radius=25.0)],
        )
        assert _outcome_tuple(expected) == _outcome_tuple(outcome), trial


def test_weight_storms_and_source_nodes_byte_identical():
    network, table, edge_ids, rng = _populated()
    nodes = list(network.node_ids())
    for tick in range(6):
        for edge_id in rng.sample(edge_ids, len(edge_ids) // 3):
            factor = 1.3 if rng.random() < 0.5 else 0.7
            network.set_edge_weight(edge_id, network.edge(edge_id).weight * factor)
        node = rng.choice(nodes)
        expected = expand_knn(network, table, 6, source_node=node)
        [outcome] = native_expand_batch(
            network, table, [ExpansionRequest(k=6, source_node=node)]
        )
        assert _outcome_tuple(expected) == _outcome_tuple(outcome), tick


def test_matches_csr_including_counters():
    network, table, edge_ids, rng = _populated()
    csr_counters, native_counters = SearchCounters(), SearchCounters()
    requests = _requests(edge_ids, rng, count=50, k=5)
    csr_outcomes = expand_knn_batch(
        network, table, list(requests), counters=csr_counters, kernel=KERNEL_CSR
    )
    native_outcomes = native_expand_batch(
        network, table, list(requests), counters=native_counters
    )
    for a, b in zip(csr_outcomes, native_outcomes):
        assert _outcome_tuple(a) == _outcome_tuple(b)
    assert csr_counters.snapshot() == native_counters.snapshot()


def test_mid_stream_weight_storms_stay_exact():
    """Per-tick weight storms between batched calls keep outcomes identical."""
    network, table, edge_ids, rng = _populated(objects=120)
    for tick in range(6):
        for edge_id in rng.sample(edge_ids, len(edge_ids) // 3):
            factor = 1.3 if rng.random() < 0.5 else 0.7
            network.set_edge_weight(edge_id, network.edge(edge_id).weight * factor)
        location = NetworkLocation(rng.choice(edge_ids), rng.random())
        expected = expand_knn(network, table, 6, query_location=location)
        [outcome] = expand_knn_batch(
            network, table, [ExpansionRequest(k=6, query_location=location)],
            kernel=KERNEL_NATIVE,
        )
        assert _outcome_tuple(expected) == _outcome_tuple(outcome), tick


def test_batch_validates_requests_like_expand_knn():
    network, table, edge_ids, rng = _populated(objects=20)
    with pytest.raises(InvalidQueryError):
        expand_knn_batch(
            network, table,
            [ExpansionRequest(k=0, query_location=NetworkLocation(edge_ids[0], 0.5))],
            kernel=KERNEL_NATIVE,
        )
    with pytest.raises(InvalidQueryError):
        expand_knn_batch(network, table, [ExpansionRequest(k=2)], kernel=KERNEL_NATIVE)


def test_expand_knn_batch_dispatches_native_kernel():
    network, table, edge_ids, rng = _populated(edges=200, objects=80)
    requests = [
        ExpansionRequest(
            k=4, query_location=NetworkLocation(rng.choice(edge_ids), rng.random())
        )
        for _ in range(10)
    ]
    via_dispatch = expand_knn_batch(
        network, table, list(requests), kernel=KERNEL_NATIVE
    )
    direct = native_expand_batch(network, table, list(requests))
    for a, b in zip(via_dispatch, direct):
        assert _outcome_tuple(a) == _outcome_tuple(b)


# ---------------------------------------------------------------------------
# fallback paths
# ---------------------------------------------------------------------------
@needs_compiled
def test_disable_env_falls_back_to_csr(monkeypatch):
    network, table, edge_ids, rng = _populated(edges=200, objects=80)
    requests = _requests(edge_ids, rng)
    compiled = native_expand_batch(network, table, list(requests))
    monkeypatch.setenv(DISABLE_ENV, "1")
    reset_native_library_cache()
    try:
        assert load_native_library() is None
        assert not native_available()
        assert KERNEL_NATIVE not in available_kernels()
        # kernel="native" still serves requests — through the csr path.
        _assert_csr_served(monkeypatch, network, table, requests)
        fallback = expand_knn_batch(
            network, table, list(requests), kernel=KERNEL_NATIVE
        )
        for a, b in zip(compiled, fallback):
            assert _outcome_tuple(a) == _outcome_tuple(b)
    finally:
        monkeypatch.delenv(DISABLE_ENV)
        reset_native_library_cache()
    assert native_available()


def test_absent_library_falls_back_to_csr(monkeypatch):
    # No compiler (or a failed build) leaves the loader empty-handed.
    network, table, edge_ids, rng = _populated(edges=200, objects=80)
    monkeypatch.setattr(native_module, "load_native_library", lambda: None)
    _assert_csr_served(monkeypatch, network, table, _requests(edge_ids, rng))


def test_missing_outcome_helper_assembles_in_python(monkeypatch):
    network, table, edge_ids, rng = _populated(edges=200, objects=80)
    requests = _requests(edge_ids, rng)
    with_helper = native_expand_batch(network, table, list(requests))
    monkeypatch.setattr(native_module, "load_outcome_helper", lambda: None)
    without_helper = native_expand_batch(network, table, list(requests))
    for a, b in zip(with_helper, without_helper):
        assert _outcome_tuple(a) == _outcome_tuple(b)


def test_oversized_object_ids_fall_back_to_csr(monkeypatch):
    # Ids that overflow int64 cannot ride the C columns; the kernel must
    # detect that at column-build time and serve the batch via csr.
    network, table, edge_ids, rng = _populated(edges=200, objects=40)
    table.insert_object(2**70, NetworkLocation(rng.choice(edge_ids), rng.random()))
    location = NetworkLocation(rng.choice(edge_ids), rng.random())
    expected = expand_knn(network, table, 45, query_location=location)
    [outcome] = native_expand_batch(
        network, table, [ExpansionRequest(k=45, query_location=location)]
    )
    assert _outcome_tuple(expected) == _outcome_tuple(outcome)
    _assert_csr_served(
        monkeypatch, network, table, _requests(edge_ids, rng, k=45) + [
            ExpansionRequest(k=45, query_location=location)
        ]
    )


@needs_numpy
def test_oversized_node_ids_fall_back_to_csr(monkeypatch):
    def add_far_node(network):
        node = network.node(next(iter(network.node_ids())))
        far = 2**70
        network.add_node(far, node.x, node.y)
        network.add_edge(10**9, node.node_id, far, 1.0)

    network, table, edge_ids, rng = _populated(edges=200, objects=40, edit=add_far_node)
    assert not NativeSupport(csr_snapshot(network)).usable
    _assert_csr_served(monkeypatch, network, table, _requests(edge_ids, rng))


@needs_numpy
def test_native_support_usable_on_ordinary_graphs():
    support = NativeSupport(csr_snapshot(city_network(100, seed=2)))
    assert support.usable


@needs_compiled
def test_outcome_helper_loads_here():
    # The CI image ships CPython headers; if this starts failing the
    # kernel still works, it just lost its fastest assembly path.
    assert load_outcome_helper() is not None


def test_edge_table_version_tracks_object_churn():
    network, table, edge_ids, rng = _populated(edges=120, objects=5)
    version = table.version
    table.insert_object(99, NetworkLocation(rng.choice(edge_ids), 0.5))
    assert table.version > version
    version = table.version
    table.remove_object(99)
    assert table.version > version


# ---------------------------------------------------------------------------
# full-stack integration
# ---------------------------------------------------------------------------
def _scenario_stream(seed=7, edges=120, ticks=6):
    network = city_network(edges, seed=seed)
    spec = resolve_scenario("uniform-drift")
    engine = ScenarioEngine(network, spec, seed=seed)
    return network, engine, list(engine.batches(ticks))


def test_ima_monitor_on_native_matches_csr():
    from repro.core.events import apply_batch

    network, engine, batches = _scenario_stream()
    tables = {}
    monitors = {}
    for kernel in (KERNEL_CSR, KERNEL_NATIVE):
        replica = network.copy()
        table = EdgeTable(replica, build_spatial_index=False)
        for object_id, location in engine.initial_objects().items():
            table.insert_object(object_id, location)
        monitor = ImaMonitor(replica, table, kernel=kernel)
        for query_id, (location, k) in engine.initial_queries().items():
            monitor.register_query(query_id, location, k)
        tables[kernel] = (replica, table)
        monitors[kernel] = monitor
    live = set(engine.initial_queries())
    for batch in batches:
        for kernel, monitor in monitors.items():
            replica, table = tables[kernel]
            apply_batch(replica, table, batch.normalized())
            monitor.process_batch(batch)
        for update in batch.query_updates:
            if update.is_installation:
                live.add(update.query_id)
            elif update.is_termination:
                live.discard(update.query_id)
        for query_id in sorted(live):
            csr_result = monitors[KERNEL_CSR].result_of(query_id)
            native_result = monitors[KERNEL_NATIVE].result_of(query_id)
            assert list(csr_result.neighbors) == list(native_result.neighbors)
            assert csr_result.radius == native_result.radius


def test_sharded_server_runs_native_kernel():
    from repro.core.sharding import ShardedMonitoringServer

    network, engine, batches = _scenario_stream(seed=13, ticks=4)

    def build(cls, **kwargs):
        replica = network.copy()
        table = EdgeTable(replica, build_spatial_index=False)
        for object_id, location in engine.initial_objects().items():
            table.insert_object(object_id, location)
        server = cls(replica, algorithm="ima", edge_table=table, **kwargs)
        for query_id, (location, k) in engine.initial_queries().items():
            server.add_query(query_id, location, k)
        return server

    single = build(MonitoringServer, kernel=KERNEL_NATIVE)
    sharded = build(ShardedMonitoringServer, kernel=KERNEL_NATIVE, workers=2)
    try:
        for batch in batches:
            single.apply_updates(batch)
            sharded.apply_updates(batch)
            single.tick()
            sharded.tick()
        for query_id, result in single.results().items():
            other = sharded.result_of(query_id)
            assert list(result.neighbors) == list(other.neighbors)
    finally:
        single.close()
        sharded.close()


@pytest.mark.parametrize("kernel", native_legs())
def test_native_legs_select_the_backend(request, kernel):
    """The fallback leg really runs without the compiled backend."""
    fallback = request.node.get_closest_marker("native_fallback") is not None
    assert native_available() is not fallback
    assert (KERNEL_NATIVE in available_kernels()) is not fallback


@pytest.mark.parametrize("kernel", native_legs())
@pytest.mark.parametrize("scenario", sorted(SCENARIO_PRESETS))
def test_native_monitors_match_oracle_on_all_presets(scenario, kernel):
    """IMA/GMA on native and csr agree with the oracle, per preset.

    The *kernel* leg picks compiled native or its csr fallback (see
    ``tests/kernel_legs.py``); the panel itself is ``NATIVE_ALGORITHMS``.
    """
    report = run_differential_scenario(
        scenario, seed=1309, algorithms=NATIVE_ALGORITHMS
    )
    assert report.checks > 0
    assert report.ok, report.failure_message()


@pytest.mark.parametrize("kernel", native_legs())
def test_native_server_matches_oracle_through_sharding(kernel):
    report = run_differential_scenario(
        "weight-storm", seed=4242, algorithms=(), workers=2, server_kernel=kernel
    )
    assert report.checks > 0
    assert report.ok, report.failure_message()
