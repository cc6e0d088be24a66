"""Core monitoring algorithms: events, search engine, OVH, IMA, GMA, server."""

from repro.core.base import MonitorBase, TimestepReport
from repro.core.dedup import DedupFrontend, DedupStats
from repro.core.events import (
    EdgeWeightUpdate,
    ObjectUpdate,
    QueryUpdate,
    UpdateBatch,
    apply_batch,
    decode_batch,
    encode_batch,
)
from repro.core.expansion import (
    ExpansionState,
    compute_influence_map,
    object_distance_csr,
)
from repro.core.gma import GmaMonitor
from repro.core.ima import ImaMonitor
from repro.core.influence import InfluenceIndex
from repro.core.ovh import OvhMonitor
from repro.core.queries import (
    QuerySpec,
    aggregate_knn,
    as_query_spec,
    evaluate_aggregate,
    evaluate_aggregates,
    knn,
    range_query,
)
from repro.core.results import KnnResult, NeighborList, results_equal
from repro.core.search import (
    ExpansionRequest,
    SearchCounters,
    SearchOutcome,
    expand_knn,
    expand_knn_batch,
)
from repro.core.server import ALGORITHMS, MonitoringServer, restore_server
from repro.core.sharding import ShardedMonitoringServer
from repro.core.worker import shard_of

__all__ = [
    "MonitorBase",
    "TimestepReport",
    "ObjectUpdate",
    "QueryUpdate",
    "EdgeWeightUpdate",
    "UpdateBatch",
    "apply_batch",
    "encode_batch",
    "decode_batch",
    "ExpansionState",
    "compute_influence_map",
    "object_distance_csr",
    "InfluenceIndex",
    "KnnResult",
    "NeighborList",
    "results_equal",
    "SearchCounters",
    "SearchOutcome",
    "expand_knn",
    "expand_knn_batch",
    "ExpansionRequest",
    "QuerySpec",
    "knn",
    "range_query",
    "aggregate_knn",
    "as_query_spec",
    "evaluate_aggregate",
    "evaluate_aggregates",
    "DedupFrontend",
    "DedupStats",
    "OvhMonitor",
    "ImaMonitor",
    "GmaMonitor",
    "MonitoringServer",
    "ShardedMonitoringServer",
    "restore_server",
    "shard_of",
    "ALGORITHMS",
]
