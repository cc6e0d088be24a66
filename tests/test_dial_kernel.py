"""Dial (bucket-queue, batched) kernel: exactness, fallbacks, batch plumbing.

The kernel's contract is byte-identical outcomes with the per-query CSR
heap path, so most tests here are differential: identical neighbors,
radii, expansion trees, parents and work counters on randomized requests
(fresh, resumed with coverage, barrier-bounded, excluded objects), the
oracle-backed scenario presets on both monitors, and unit coverage for the
quantization edge cases — unusable quantization (zero-weight degenerate
networks), bucket overflow (exact heap fallback), and weight storms
rotating the per-epoch support metadata mid-stream.
"""

from __future__ import annotations

import random

import pytest

from repro.core.expansion import compute_influence_map, compute_influence_maps
from repro.core.gma import GmaMonitor
from repro.core.ima import KERNELS, ImaMonitor
from repro.core.influence import InfluenceIndex
from repro.core.ovh import OvhMonitor
from repro.core.search import (
    ExpansionRequest,
    SearchCounters,
    expand_knn,
    expand_knn_batch,
)
from repro.core.server import MonitoringServer
from repro.exceptions import MonitoringError
from repro.network.builders import city_network
from repro.network.csr import csr_snapshot
from repro.network.dial import DialSupport, dial_expand_batch
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation
from repro.testing import SCENARIO_PRESETS, run_differential_scenario
from repro.testing.harness import DIAL_ALGORITHMS

import repro.network.dial as dial_module


def _populated(edges=400, objects=350, seed=9, network_edges_seed=5):
    network = city_network(edges, seed=network_edges_seed)
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


# ---------------------------------------------------------------------------
# engine equivalence
# ---------------------------------------------------------------------------
def test_fresh_searches_byte_identical_with_counters():
    network, table, edge_ids, rng = _populated()
    heap_counters = SearchCounters()
    dial_counters = SearchCounters()
    locations = [
        NetworkLocation(rng.choice(edge_ids), rng.random()) for _ in range(120)
    ]
    requests = [
        ExpansionRequest(k=1 + (i % 9), query_location=location)
        for i, location in enumerate(locations)
    ]
    expected = [
        expand_knn(
            network, table, request.k,
            query_location=request.query_location, counters=heap_counters,
        )
        for request in requests
    ]
    outcomes = expand_knn_batch(
        network, table, requests, counters=dial_counters, kernel="dial"
    )
    for a, b in zip(expected, outcomes):
        assert _outcome_tuple(a) == _outcome_tuple(b)
    assert heap_counters.snapshot() == dial_counters.snapshot()


def test_resume_requests_byte_identical_through_vector_seeding():
    # Sparse objects on a larger network force deep trees, so the
    # pre-verified frontiers exceed VECTOR_MIN_SEED_NODES and the numpy
    # seeding path is what gets compared.
    network, table, edge_ids, rng = _populated(edges=700, objects=90, seed=3)
    vectored = 0
    for trial in range(60):
        location = NetworkLocation(rng.choice(edge_ids), rng.random())
        k = rng.randint(3, 16)
        base = expand_knn(network, table, k, query_location=location)
        preverified = dict(base.state.node_dist)
        if len(preverified) >= dial_module.VECTOR_MIN_SEED_NODES:
            vectored += 1
        coverage = (
            base.radius * rng.uniform(0.5, 1.0)
            if base.radius != float("inf")
            else None
        )
        kwargs = dict(
            query_location=location,
            preverified=preverified,
            preverified_parent=dict(base.state.parent),
            candidates=list(base.neighbors),
            coverage_radius=coverage,
        )
        expected = expand_knn(network, table, k + 2, **kwargs)
        [outcome] = expand_knn_batch(
            network, table, [ExpansionRequest(k=k + 2, **kwargs)], kernel="dial"
        )
        assert _outcome_tuple(expected) == _outcome_tuple(outcome), trial
    assert vectored > 10  # the vector path was actually exercised


def test_barrier_and_excluded_requests_byte_identical():
    network, table, edge_ids, rng = _populated()
    nodes = list(network.node_ids())
    for trial in range(40):
        location = NetworkLocation(rng.choice(edge_ids), rng.random())
        barriers = {}
        for node_id in rng.sample(nodes, 3):
            result = expand_knn(network, table, 5, source_node=node_id)
            barriers[node_id] = list(result.neighbors)
        excluded = set(rng.sample(range(350), 10))
        kwargs = dict(
            query_location=location,
            barrier_candidates=barriers,
            excluded_objects=excluded,
        )
        expected = expand_knn(network, table, 4, **kwargs)
        [outcome] = expand_knn_batch(
            network, table, [ExpansionRequest(k=4, **kwargs)], kernel="dial"
        )
        assert _outcome_tuple(expected) == _outcome_tuple(outcome), trial


def test_batch_csr_kernel_matches_dial():
    network, table, edge_ids, rng = _populated(objects=120)
    requests = [
        ExpansionRequest(k=4, query_location=NetworkLocation(rng.choice(edge_ids), rng.random()))
        for _ in range(25)
    ]
    via_csr = expand_knn_batch(network, table, list(requests), kernel="csr")
    via_dial = expand_knn_batch(network, table, list(requests), kernel="dial")
    for a, b in zip(via_csr, via_dial):
        assert _outcome_tuple(a) == _outcome_tuple(b)


def test_batch_validates_requests_like_expand_knn():
    network, table, edge_ids, rng = _populated(objects=20)
    from repro.exceptions import InvalidQueryError

    with pytest.raises(InvalidQueryError):
        expand_knn_batch(
            network, table,
            [ExpansionRequest(k=0, query_location=NetworkLocation(edge_ids[0], 0.5))],
            kernel="dial",
        )
    with pytest.raises(InvalidQueryError):
        expand_knn_batch(network, table, [ExpansionRequest(k=2)], kernel="dial")


# ---------------------------------------------------------------------------
# quantization edge cases and fallbacks
# ---------------------------------------------------------------------------
def test_unusable_quantization_falls_back_to_heap():
    """Degenerate weights (zero mean, e.g. all-zero-weight edges) skip Dial."""
    network, table, edge_ids, rng = _populated(objects=60)
    csr = csr_snapshot(network)
    support = csr.dial_support()
    support.usable = False  # what a zero/degenerate weight profile produces
    try:
        location = NetworkLocation(rng.choice(edge_ids), rng.random())
        expected = expand_knn(network, table, 5, query_location=location)
        [outcome] = dial_expand_batch(
            network, table, [ExpansionRequest(k=5, query_location=location)], csr=csr
        )
        assert _outcome_tuple(expected) == _outcome_tuple(outcome)
    finally:
        csr._dial_support = None  # drop the doctored support


def test_empty_network_support_is_unusable():
    network = city_network(40, seed=1)
    for edge_id in list(network.edge_ids()):
        network.remove_edge(edge_id)
    support = DialSupport.build(csr_snapshot(network))
    assert not support.usable
    assert support.bucket_width == 0.0


@pytest.mark.parametrize("cap", [-1.0, 2.0])
def test_bucket_overflow_falls_back_to_heap(monkeypatch, cap):
    """Overflow during seeding (cap=-1) and mid-expansion (cap=2) both fall back."""
    network, table, edge_ids, rng = _populated(objects=60)
    csr = csr_snapshot(network)
    monkeypatch.setattr(dial_module, "MAX_BUCKET_INDEX", cap)
    fallbacks = 0
    for trial in range(10):
        location = NetworkLocation(rng.choice(edge_ids), rng.random())
        expected = expand_knn(network, table, 5, query_location=location)
        [outcome] = dial_expand_batch(
            network, table, [ExpansionRequest(k=5, query_location=location)], csr=csr
        )
        assert _outcome_tuple(expected) == _outcome_tuple(outcome), trial
        fallbacks = csr.dial_support().heap_fallbacks
    assert fallbacks >= 1


def test_weight_storm_rotates_support_epoch():
    network, table, edge_ids, rng = _populated(objects=40)
    csr = csr_snapshot(network)
    before = csr.dial_support()
    assert csr.dial_support() is before  # cached while weights are stable
    edge_id = edge_ids[0]
    network.set_edge_weight(edge_id, network.edge(edge_id).weight * 3.0)
    after = csr.dial_support()
    assert after is not before
    assert after.epoch == csr.weights_epoch
    # The rebuilt support sees the patched weight in its numpy mirror.
    if after.has_numpy:
        position = csr.index_of_edge(edge_id)
        assert float(after.np_edge_weight[position]) == csr.edge_weight[position]


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
            kernel="dial",
        )
        assert _outcome_tuple(expected) == _outcome_tuple(outcome), tick


# ---------------------------------------------------------------------------
# vectorized influence maps
# ---------------------------------------------------------------------------
def test_vectorized_influence_maps_match_scalar_exactly():
    # Very sparse objects and high k force trees past VECTOR_MIN_NODES.
    network, table, edge_ids, rng = _populated(edges=900, objects=40, seed=3)
    csr = csr_snapshot(network)
    support = csr.dial_support()
    if not support.has_numpy:
        pytest.skip("numpy unavailable; vectorized influence path disabled")
    vectored = 0
    for trial in range(40):
        location = NetworkLocation(rng.choice(edge_ids), rng.random())
        outcome = expand_knn(network, table, rng.randint(12, 30), query_location=location)
        scalar = compute_influence_map(
            network, outcome.state, outcome.radius, location, csr=csr
        )
        fast = compute_influence_map(
            network, outcome.state, outcome.radius, location, csr=csr, support=support
        )
        if len(outcome.state.node_dist) >= dial_module.VECTOR_MIN_NODES:
            vectored += 1
        assert scalar == fast, trial
    assert vectored > 5  # the numpy path was actually exercised


def test_compute_influence_maps_batch_helper():
    network, table, edge_ids, rng = _populated(objects=80)
    location = NetworkLocation(rng.choice(edge_ids), rng.random())
    outcome = expand_knn(network, table, 4, query_location=location)
    maps = compute_influence_maps(
        network, [("q", outcome.state, outcome.radius, location)]
    )
    assert maps == {
        "q": compute_influence_map(network, outcome.state, outcome.radius, location)
    }


def test_replace_subscribers_matches_sequential_replace():
    rng = random.Random(7)
    bulk, sequential = InfluenceIndex(), InfluenceIndex()
    for _ in range(6):  # several generations so stale-edge removal is hit
        updates = {}
        for subscriber in range(12):
            influences = {}
            for edge_id in rng.sample(range(40), rng.randint(0, 8)):
                influences[edge_id] = ((0.0, rng.uniform(0.5, 5.0)),)
            if rng.random() < 0.2:
                influences[rng.randrange(40)] = ()  # empty spans are dropped
            updates[subscriber] = influences
        bulk.replace_subscribers(updates)
        for subscriber, influences in updates.items():
            sequential.replace_subscriber(subscriber, influences)
        assert sorted(bulk.iter_entries()) == sorted(sequential.iter_entries())
        assert len(bulk) == len(sequential)
    for edge_id in range(40):
        assert bulk.subscribers_on_edge(edge_id) == sequential.subscribers_on_edge(edge_id)
        assert set(bulk.subscribers_on_edge_view(edge_id)) == bulk.subscribers_on_edge(edge_id)


# ---------------------------------------------------------------------------
# monitors and servers on kernel="dial"
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scenario", sorted(SCENARIO_PRESETS))
def test_dial_monitors_match_oracle_on_all_presets(scenario):
    """IMA/GMA on dial and csr agree with the oracle, per preset."""
    report = run_differential_scenario(
        scenario, seed=1309, algorithms=DIAL_ALGORITHMS
    )
    assert report.checks > 0
    assert report.ok, report.failure_message()


def test_dial_server_matches_oracle_through_sharding():
    report = run_differential_scenario(
        "weight-storm", seed=4242, algorithms=(), workers=2, server_kernel="dial"
    )
    assert report.checks > 0
    assert report.ok, report.failure_message()


@pytest.mark.parametrize("monitor_cls", [OvhMonitor, ImaMonitor, GmaMonitor])
def test_monitor_kernel_validation(monitor_cls):
    network, table, _, _ = _populated(edges=60, objects=10)
    assert "dial" in KERNELS
    monitor = monitor_cls(network, table, kernel="dial")
    assert monitor.kernel == "dial"
    with pytest.raises(MonitoringError):
        monitor_cls(network, table, kernel="bogus")


def test_server_accepts_dial_kernel():
    network = city_network(80, seed=3)
    server = MonitoringServer(network, algorithm="ima", kernel="dial")
    assert server.monitor.kernel == "dial"
    server.add_object_at(1, 10.0, 10.0)
    server.add_query_at(100, 12.0, 9.0, k=1)
    report = server.tick()
    assert report.changed_queries == {100}
    assert server.result_of(100).neighbors[0][0] == 1
