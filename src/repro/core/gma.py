"""GMA — the Group Monitoring Algorithm (Section 5 of the paper).

GMA exploits *shared execution*: the network is partitioned into sequences
(maximal paths between intersection / terminal nodes), the queries falling
in the same sequence are grouped together, and instead of monitoring each
moving query individually the server monitors the k-NN sets of the
sequence's intersection endpoints — the *active nodes* — which are static.
The active nodes are maintained with the IMA machinery (object and edge
updates only; lines 1–3 and 14–15 of Figure 10 never apply because active
nodes do not move).

Per-query evaluation.  Lemma 1 of the paper states that the k-NN set of a
query inside a sequence is contained in the union of the objects in the
sequence and the k-NN sets of its two endpoints.  Our evaluation runs the
expansion of :func:`repro.core.search.expand_knn` with the monitored
endpoints acting as *barriers*: when the expansion reaches an endpoint it
merges that endpoint's monitored k-NN set (shifted by the endpoint's
distance) and does not explore past it.  Per query, only the portion of the
sequence within ``kNN_dist`` is traversed — the shared-execution saving of
the paper — and the result is provably exact: any true neighbor whose
shortest path crosses a barrier is also among that barrier's k nearest
(triangle argument of Section 5), and the first barrier on the path is
settled at its exact distance.

Update handling (Figure 12).  A query's result can change only if (i) the
query moves, (ii) the k-NN set of an active node inside its influence region
changes, (iii) an object update falls inside its influence region, or (iv)
an edge inside its influence region changes weight.  GMA keeps influence
intervals for the user queries exactly like IMA does (but discards the
expansion trees, which is what makes it cheaper in memory), detects affected
queries through these four triggers, and recomputes each of them from
scratch with the barrier-bounded expansion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.base import MonitorBase
from repro.core.events import UpdateBatch
from repro.core.expansion import (
    compute_influence_map,
    compute_influence_maps,
    edge_offset,
)
from repro.core.ima import ImaMonitor
from repro.core.influence import InfluenceIndex
from repro.core.queries import QuerySpec
from repro.core.results import KnnResult, Neighbor
from repro.core.search import ExpansionRequest, SearchCounters, expand_knn_batch

# No caller here (every search goes through expand_knn_batch), but
# benchmarks/e2e/launch.py resolves it as a module global under --trace 1.
from repro.core.search import expand_knn  # noqa: F401
from repro.exceptions import UnknownQueryError
from repro.network.csr import csr_snapshot
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.network.sequences import SequenceTable
from repro.utils.intervals import point_in_spans

#: Minimum node degree for a sequence endpoint to be monitored: terminal
#: nodes (degree 1) have nothing beyond them, so their k-NN sets add no
#: candidates that the in-sequence expansion would not find anyway.
_ACTIVE_NODE_MIN_DEGREE = 3


class GmaMonitor(MonitorBase):
    """Shared-execution continuous k-NN monitoring via sequence active nodes.

    Example::

        monitor = GmaMonitor(network, edge_table)
        monitor.register_query(1, location, k=4)
        monitor.process_batch(batch)      # grouped shared execution
    """

    name = "GMA"

    def __init__(
        self,
        network: RoadNetwork,
        edge_table: EdgeTable,
        counters: Optional[SearchCounters] = None,
    ) -> None:
        """Create the monitor.

        Args:
            network: the shared road network.
            edge_table: the shared data-object table.
            counters: optional work counters shared with a caller.
        """
        super().__init__(network, edge_table, counters)
        self._sequences = SequenceTable(network)
        # Active-node k-NN sets are maintained with the IMA machinery; the
        # inner monitor shares our counters so that the reported work is the
        # total work GMA performs.
        self._node_monitor = ImaMonitor(network, edge_table, counters=self._counters)
        self._influence = InfluenceIndex()
        self._query_sequence: Dict[int, int] = {}
        self._node_queries: Dict[int, Set[int]] = {}
        self._node_k: Dict[int, int] = {}
        # Aggregate k-NN queries (not grouped under sequences) register in
        # the inherited self._aggregates and are re-evaluated through
        # MonitorBase._refresh_aggregates.

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------
    @property
    def sequence_table(self) -> SequenceTable:
        """The sequence decomposition used for grouping (read-only use)."""
        return self._sequences

    @property
    def active_node_monitor(self) -> ImaMonitor:
        """The inner IMA monitor maintaining the active nodes (read-only)."""
        return self._node_monitor

    def active_nodes(self) -> Set[int]:
        """Ids of the currently active (monitored) intersection nodes."""
        return set(self._node_k)

    def queries_of_node(self, node_id: int) -> Set[int]:
        """The paper's ``n.Q``: user queries grouped under *node_id*."""
        return set(self._node_queries.get(node_id, ()))

    def memory_footprint_bytes(self) -> int:
        """Results + active-node trees + influence entries + sequence table."""
        base = super().memory_footprint_bytes()
        node_state = self._node_monitor.memory_footprint_bytes()
        influence = 12 * len(self._influence) + 20 * self._influence.interval_count()
        sequence_table = 8 * self._network.edge_count
        return base + node_state + influence + sequence_table

    # ------------------------------------------------------------------
    # MonitorBase hooks
    # ------------------------------------------------------------------
    def _install_query(
        self, query_id: int, location: NetworkLocation, spec: QuerySpec
    ) -> KnnResult:
        if spec.kind == "aggregate_knn":
            self._aggregates.add(query_id)
            neighbors, radius = self._evaluate_aggregate(location, spec)
        else:
            if spec.is_knn:
                sequence_id = self._sequences.sequence_id_of_edge(location.edge_id)
                self._attach_to_sequence(query_id, sequence_id, spec.k)
            neighbors, radius = self._evaluate_query(query_id, location, spec)
        return KnnResult(
            query_id=query_id,
            k=spec.result_k,
            neighbors=tuple(neighbors),
            radius=radius,
        )

    def _remove_query(self, query_id: int) -> None:
        self._influence.clear_subscriber(query_id)
        self._aggregates.discard(query_id)
        sequence_id = self._query_sequence.pop(query_id, None)
        if sequence_id is not None:
            self._detach_from_sequence(query_id, sequence_id)

    def _process(self, batch: UpdateBatch) -> Set[int]:
        # One snapshot lookup/refresh per batch, shared by every
        # barrier-bounded evaluation and influence refresh below (the inner
        # active-node monitor acquires the same cached snapshot).
        self._batch_csr = csr_snapshot(self._network)
        try:
            changed = self._process_updates(batch)
            if self._aggregates:
                changed |= self._refresh_aggregates(batch)
            return changed
        finally:
            self._batch_csr = None

    def _process_updates(self, batch: UpdateBatch) -> Set[int]:
        changed: Set[int] = set()

        # Step 1 — maintain the active-node k-NN sets (IMA over static
        # queries; only object and edge updates apply).  This runs *before*
        # the re-grouping of moved queries so that nodes activated later in
        # this timestamp — whose initial results are computed against the
        # already-updated network state — are not fed the same batch twice.
        node_batch = UpdateBatch(
            timestamp=batch.timestamp,
            object_updates=batch.object_updates,
            query_updates=[],
            edge_updates=batch.edge_updates,
        )._mark_net()  # process_batch hands _process net updates only
        node_report = self._node_monitor.process_batch(node_batch)

        # Step 2 — user query movements: re-group k-NN queries whose
        # sequence changed (activating / deactivating endpoints); moved
        # range queries simply join the affected set — their fixed-radius
        # evaluation is sequence-free.  (Moved aggregate queries are
        # re-evaluated by the :meth:`_refresh_aggregates` postlude.)
        moved_queries: Set[int] = set()
        for update in batch.query_updates:
            query_id = update.query_id
            if update.new_location is None:
                continue
            spec = self._query_spec.get(query_id)
            if spec is None:
                continue
            if spec.kind == "range":
                moved_queries.add(query_id)
                continue
            if query_id not in self._query_sequence:
                continue
            old_sequence = self._query_sequence[query_id]
            new_sequence = self._sequences.sequence_id_of_edge(
                update.new_location.edge_id
            )
            if new_sequence != old_sequence:
                self._detach_from_sequence(query_id, old_sequence)
                self._attach_to_sequence(query_id, new_sequence, spec.k)
            moved_queries.add(query_id)

        # Step 3 — determine the affected user queries: queries that moved,
        # queries whose influence region (the in-sequence part of their
        # expansion) saw an object or edge update, and queries grouped under
        # an active node whose monitored k-NN set changed and that lies
        # inside their influence region (Figure 12, lines 6-15).
        affected: Set[int] = set(moved_queries)
        for update in batch.object_updates:
            for location in (update.old_location, update.new_location):
                if location is None:
                    continue
                affected |= self._influence.subscribers_at_point(
                    location.edge_id,
                    edge_offset(self._batch_csr, location),
                )
        for update in batch.edge_updates:
            # Zero-copy view: this collection loop only reads the index.
            affected |= self._influence.subscribers_on_edge_view(
                update.edge_id
            ).keys()
        for node_id in node_report.changed_queries:
            members = self._node_queries.get(node_id)
            if not members:
                continue
            for query_id in members:
                if query_id in affected:
                    continue
                if self._node_in_query_influence(query_id, node_id):
                    affected.add(query_id)

        # Step 4 — recompute every affected query from scratch, seeded with
        # the active-node results of its sequence: one batched kernel call
        # plus one bulk influence refresh.
        query_ids: List[int] = []
        requests: List[ExpansionRequest] = []
        for query_id in affected:
            spec = self._live_expansion_spec(query_id)
            if spec is None:
                continue
            query_ids.append(query_id)
            requests.append(
                self._request_for(self._query_location[query_id], spec)
            )
        if not requests:
            return changed
        outcomes = expand_knn_batch(
            self._network,
            self._edge_table,
            requests,
            counters=self._counters,
            csr=self._batch_csr,
        )
        maps = compute_influence_maps(
            self._network,
            [
                (query_id, outcome.state, outcome.radius, request.query_location)
                for query_id, request, outcome in zip(query_ids, requests, outcomes)
            ],
            csr=self._batch_csr,
        )
        self._influence.replace_subscribers(maps)
        for query_id, outcome in zip(query_ids, outcomes):
            if self._store_result(query_id, outcome.neighbors, outcome.radius):
                changed.add(query_id)
        return changed

    def _live_expansion_spec(self, query_id: int) -> Optional[QuerySpec]:
        """The spec of an affected query served by an expansion, or None.

        Filters terminated ids (they may linger in the affected set) and
        aggregate queries (re-evaluated by :meth:`_refresh_aggregates`); a
        live k-NN query is always grouped under a sequence.
        """
        spec = self._query_spec.get(query_id)
        if spec is None or spec.kind == "aggregate_knn":
            return None
        if spec.is_knn and query_id not in self._query_sequence:
            return None
        return spec

    # ------------------------------------------------------------------
    # grouping / active-node management
    # ------------------------------------------------------------------
    def _attach_to_sequence(self, query_id: int, sequence_id: int, k: int) -> None:
        """Add a query to a sequence's group and activate its endpoints."""
        self._query_sequence[query_id] = sequence_id
        for node_id in set(self._sequences.endpoints(sequence_id)):
            if self._network.degree(node_id) < _ACTIVE_NODE_MIN_DEGREE:
                continue
            members = self._node_queries.setdefault(node_id, set())
            members.add(query_id)
            self._ensure_active(node_id, k)

    def _detach_from_sequence(self, query_id: int, sequence_id: int) -> None:
        """Remove a query from a sequence's group, deactivating empty nodes."""
        for node_id in set(self._sequences.endpoints(sequence_id)):
            members = self._node_queries.get(node_id)
            if members is None:
                continue
            members.discard(query_id)
            if not members:
                del self._node_queries[node_id]
                if node_id in self._node_k:
                    self._node_monitor.unregister_query(node_id)
                    del self._node_k[node_id]

    def _ensure_active(self, node_id: int, k: int) -> None:
        """Monitor *node_id* with at least *k* neighbors (``n.k`` maintenance).

        The monitored k only grows while the node stays active; it resets
        when the node is deactivated.  Monitoring a few more neighbors than
        the current maximum requires is harmless (their distances are still
        exact upper-bound candidates), and avoiding the shrink saves a full
        recomputation whenever a high-k query leaves the group.
        """
        current = self._node_k.get(node_id)
        if current is None:
            self._node_monitor.register_query(
                node_id, self._network.location_at_node(node_id), k
            )
            self._node_k[node_id] = k
        elif k > current:
            self._node_monitor.unregister_query(node_id)
            self._node_monitor.register_query(
                node_id, self._network.location_at_node(node_id), k
            )
            self._node_k[node_id] = k

    # ------------------------------------------------------------------
    # per-query evaluation
    # ------------------------------------------------------------------
    def _request_for(self, location: NetworkLocation, spec: QuerySpec) -> ExpansionRequest:
        """The expansion request of one query: in-sequence, bounded by active nodes.

        For a k-NN query the expansion stops at the sequence's monitored
        endpoints (the *barriers*), merging their k-NN sets instead of
        exploring beyond them — the paper's shared execution: per query only
        the part of the sequence within ``kNN_dist`` is traversed.  A range
        query runs a barrier-free fixed-radius expansion instead (an
        endpoint's monitored k-NN set cannot cover an arbitrary radius);
        GMA's contribution for it is the influence-interval *detection* of
        which ticks require re-evaluation at all.
        """
        if spec.kind == "range":
            return ExpansionRequest(
                k=1, query_location=location, fixed_radius=spec.radius
            )
        return ExpansionRequest(
            k=spec.k,
            query_location=location,
            barrier_candidates=self._barrier_candidates_for(location, spec.k),
        )

    def _evaluate_query(
        self, query_id: int, location: NetworkLocation, spec: QuerySpec
    ) -> Tuple[List[Neighbor], float]:
        """Evaluate one newly installed query and register its influence region."""
        [outcome] = expand_knn_batch(
            self._network,
            self._edge_table,
            [self._request_for(location, spec)],
            counters=self._counters,
        )
        influences = compute_influence_map(
            self._network, outcome.state, outcome.radius, location
        )
        self._influence.replace_subscriber(query_id, influences)
        return outcome.neighbors, outcome.radius

    def _barrier_candidates_for(
        self, location: NetworkLocation, k: int
    ) -> Dict[int, List[Neighbor]]:
        """Monitored k-NN sets of the sequence endpoints, keyed by node id."""
        sequences = self._sequences
        sequence_id = sequences.sequence_id_of_edge(location.edge_id)
        barriers: Dict[int, List[Neighbor]] = {}
        for node_id in set(sequences.endpoints(sequence_id)):
            if node_id not in self._node_k:
                continue
            try:
                node_result = self._node_monitor.result_of(node_id)
            except UnknownQueryError:  # pragma: no cover - defensive
                continue
            barriers[node_id] = list(node_result.neighbors[:k])
        return barriers

    def _node_in_query_influence(self, query_id: int, node_id: int) -> bool:
        """Is the active node inside the query's influence region?

        Checked via the stored influencing intervals of the edges incident to
        the node (the paper's line-8 test: the interval must include n).
        """
        columns = self._network.columns
        node_index = columns.node_index[node_id]
        inc_indptr, inc_edge = columns.inc_indptr, columns.inc_edge
        edge_ids, edge_start = columns.edge_ids, columns.edge_start
        for slot in range(inc_indptr[node_index], inc_indptr[node_index + 1]):
            position = inc_edge[slot]
            spans = self._influence.interval_of(query_id, edge_ids[position])
            if spans is None:
                continue
            offset = 0.0 if edge_start[position] == node_index else columns.edge_weight[position]
            if point_in_spans(spans, offset):
                return True
        return False
