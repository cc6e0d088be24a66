"""repro — Continuous k-NN monitoring in road networks.

A faithful, pure-Python reproduction of *Mouratidis, Yiu, Papadias,
Mamoulis: "Continuous Nearest Neighbor Monitoring in Road Networks"*
(VLDB 2006): the IMA and GMA monitoring algorithms, the OVH baseline, the
road-network / spatial-index substrate they require, mobility and traffic
generators, and an experiment harness that regenerates every figure of the
paper's evaluation.

Quickstart::

    from repro import MonitoringServer, city_network

    network = city_network(target_edges=500, seed=7)
    server = MonitoringServer(network, algorithm="ima")
    server.add_object_at(1, x=150.0, y=220.0)
    server.add_object_at(2, x=410.0, y=180.0)
    server.add_query_at(100, x=200.0, y=200.0, k=1)
    server.tick()
    print(server.result_of(100).neighbors)

Performance architecture.  The expansion hot path (:func:`expand_knn`)
runs over the network's own flat-array CSR column store
(:func:`csr_snapshot` / :class:`CSRGraph`): dense integer indices,
parallel adjacency columns, a C-level binary heap, and one weight column
that ``set_edge_weight`` writes in place.  Every monitor's tick is
collect-then-flush: one :func:`expand_knn_batch` call per tick.

High-volume feeds use the server's batched ingestion path —
``add_objects_at([...])`` / ``move_objects_at([...])`` snap whole
coordinate batches through one vectorized PMR-quadtree pass, and
``apply_updates(batch)`` buffers a pre-built
:class:`UpdateBatch` wholesale — so one :meth:`MonitoringServer.tick`
processes thousands of updates without per-update call overhead.

Scaling out.  ``MonitoringServer(network, workers=N)`` builds a
:class:`ShardedMonitoringServer`: queries are hash-partitioned
(:func:`shard_of`) across N shards — the coordinator hosts one and starts
a worker process for each of the others — each shard builds its own CSR
snapshot from the network replica it is shipped, and each tick fans
out to the shards and merges their reports — with results identical to
the single-process server's (enforced by the oracle-backed differential
suite).

Multi-tenant dedup.  Wrapping any server in a :class:`DedupFrontend` maps
equivalent logical queries (same spec, same — or, with a positive snap
tolerance, nearby — location) onto one reference-counted physical query
with per-subscriber result fanout, so thousands of tenants watching the
same venue cost one expansion tree instead of thousands.

City-scale realism.  :mod:`repro.realism` feeds the system workloads
shaped like real cities: an OSM-style nodes/ways importer
(:func:`import_road_network`) with largest-component extraction and
speed-class weights, a deterministic synthetic-city generator
(:func:`synthetic_city_network`) whose output flows through that same
importer, and a rush-hour traffic model (:class:`RushHourModel`) emitting
time-of-day congestion waves, Poisson incident storms and road closures
(pinned to the finite :data:`CLOSED_EDGE_WEIGHT` sentinel) — available as
the ``rush-hour`` / ``gridlock-closures`` scenario presets and driving the
100K-edge ``bench_city_scale`` benchmarks.

Always-on service.  :mod:`repro.service` runs any server as a durable
streaming service: clients stream updates over a socket API
(:class:`StreamingService` / :class:`ServiceClient`), result deltas push
to subscribers, and every batch is write-ahead logged
(:class:`EventLog`) with periodic checkpoints
(:class:`DurableMonitoringServer`) so a crashed service recovers to the
exact pre-crash state — ``kill -9`` included, as
:func:`repro.service.run_fault_injection` proves by doing it.  The log
doubles as a workload capture replayable through the differential oracle
harness (:func:`run_differential_log`).
"""

from repro.utils import lazy_exports

__version__ = "1.0.0"

# Every public name resolves on first access (PEP 562), so importing one
# subsystem does not load the others.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.exceptions": ("ReproError", "TopologyFrozenError"),
        "repro.core": (
            "MonitoringServer",
            "ShardedMonitoringServer",
            "shard_of",
            "QuerySpec",
            "knn",
            "range_query",
            "aggregate_knn",
            "as_query_spec",
            "MonitorBase",
            "OvhMonitor",
            "ImaMonitor",
            "GmaMonitor",
            "KnnResult",
            "UpdateBatch",
            "ObjectUpdate",
            "QueryUpdate",
            "EdgeWeightUpdate",
            "TimestepReport",
            "SearchCounters",
            "apply_batch",
            "encode_batch",
            "decode_batch",
            "restore_server",
            "expand_knn",
            "expand_knn_batch",
            "ExpansionRequest",
            "evaluate_aggregates",
            "DedupFrontend",
            "DedupStats",
            "ALGORITHMS",
        ),
        "repro.network": (
            "RoadNetwork",
            "NetworkLocation",
            "EdgeTable",
            "CSRGraph",
            "csr_snapshot",
            "SequenceTable",
            "city_network",
            "grid_network",
            "linear_network",
            "network_distance",
            "brute_force_knn",
            "brute_force_range",
            "brute_force_aggregate_knn",
            "load_network",
            "save_network",
            "CLOSED_EDGE_WEIGHT",
        ),
        # realism: importer, synthetic cities, rush-hour traffic
        "repro.realism": (
            "ImportResult",
            "ImportStats",
            "import_road_network",
            "import_ways_text",
            "CitySpec",
            "synthetic_city_text",
            "synthetic_city_network",
            "RushHourSpec",
            "RushHourModel",
            "classify_edges",
        ),
        "repro.spatial": ("Point", "Rect", "Segment", "PMRQuadtree"),
        # durable streaming service
        "repro.service": (
            "DurableMonitoringServer",
            "EventLog",
            "StreamingService",
            "ServiceClient",
            "read_event_log",
            "load_initial_state",
            "run_fault_injection",
        ),
        # testing / verification harness
        "repro.testing": (
            "OracleMonitor",
            "ScenarioEngine",
            "ScenarioSpec",
            "SCENARIO_PRESETS",
            "run_differential_scenario",
            "run_differential_log",
        ),
    },
)
__all__.insert(0, "__version__")
