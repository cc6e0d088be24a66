"""Core monitoring algorithms: events, search engine, OVH, IMA, GMA, server."""

from repro.utils import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.base": ("MonitorBase", "TimestepReport"),
        "repro.core.events": (
            "ObjectUpdate",
            "QueryUpdate",
            "EdgeWeightUpdate",
            "UpdateBatch",
            "apply_batch",
            "encode_batch",
            "decode_batch",
        ),
        "repro.core.expansion": (
            "ExpansionState",
            "compute_influence_map",
            "object_distance_csr",
        ),
        "repro.core.influence": ("InfluenceIndex",),
        "repro.core.results": ("KnnResult", "NeighborList", "results_equal"),
        "repro.core.search": (
            "SearchCounters",
            "SearchOutcome",
            "expand_knn",
            "expand_knn_batch",
            "ExpansionRequest",
        ),
        "repro.core.queries": (
            "QuerySpec",
            "knn",
            "range_query",
            "aggregate_knn",
            "as_query_spec",
            "evaluate_aggregate",
            "evaluate_aggregates",
        ),
        "repro.core.dedup": ("DedupFrontend", "DedupStats"),
        "repro.core.ovh": ("OvhMonitor",),
        "repro.core.ima": ("ImaMonitor",),
        "repro.core.gma": ("GmaMonitor",),
        "repro.core.server": ("MonitoringServer", "restore_server", "ALGORITHMS"),
        "repro.core.sharding": ("ShardedMonitoringServer",),
        "repro.core.worker": ("shard_of",),
    },
)
