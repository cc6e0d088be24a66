"""IMA — the Incremental Monitoring Algorithm (Section 4 of the paper).

IMA monitors every query individually.  For each query it stores the
expansion tree built by the initial Figure-2 search (exact distances of all
network nodes within ``kNN_dist``) and registers the query in the influence
lists of the edges that can affect it.  At every timestamp only the updates
that fall inside some influence region are processed; everything else is
ignored.  When a query *is* affected, the valid part of its expansion tree
is identified, re-used, and the search resumes from its frontier instead of
starting from scratch.

Processing order within a timestamp follows Figure 10 of the paper:

1. queries that move outside their expansion tree are scheduled for full
   recomputation and excluded from further incremental handling;
2. edge-weight *decreases* are applied to the affected trees (the subtree
   below the updated edge keeps its shape and shifts by the weight delta;
   the rest of the tree is kept only up to the distance of the far endpoint
   of the updated edge);
3. edge-weight *increases* are applied (the subtree below the updated edge
   is discarded; the rest of the tree is untouched);
4. queries that move *inside* their tree are re-rooted at the new position
   (the subtree hanging below the new position stays valid);
5. object updates are classified per affected query as incoming, outgoing,
   or moving neighbors using the influence intervals;
6. every affected query is finalised: if its tree was pruned or it lost too
   many neighbors the expansion resumes from the remaining verified nodes,
   otherwise the new result is read directly off the maintained candidates
   (and the tree shrinks to the smaller radius).

Every tick is collect-then-flush: steps 2-3 collect the edge updates per
affected query and prune each tree once, step 6 gathers the resumed and
fresh expansions into one :func:`~repro.core.search.expand_knn_batch` call
and the touched influence regions are refreshed in one bulk flush.

Exactness of the retained node distances in each pruning case is argued in
the docstrings of :meth:`ImaMonitor._flush_edge_prunes` and
:meth:`ImaMonitor._prune_for_query_move` and in :mod:`repro.core.expansion`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.base import MonitorBase
from repro.core.events import EdgeWeightUpdate, ObjectUpdate, UpdateBatch
from repro.core.expansion import (
    ExpansionState,
    compute_influence_map,
    compute_influence_maps,
    edge_offset,
    object_distance_csr,
)
from repro.core.influence import InfluenceIndex
from repro.core.queries import QuerySpec
from repro.core.results import KnnResult, Neighbor, NeighborList
from repro.core.search import ExpansionRequest, expand_knn_batch

# No caller here (every search goes through expand_knn_batch), but
# benchmarks/e2e/launch.py resolves it as a module global under --trace 1.
from repro.core.search import expand_knn  # noqa: F401
from repro.exceptions import EdgeNotFoundError
from repro.network.csr import CSRGraph, csr_snapshot
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork

_EPS = 1e-9

#: Sentinel for "shift not yet resolved" in the batched prune's memo table
#: (None is taken: it marks descent through a removed increase subtree).
_UNRESOLVED = object()


@dataclass
class _QueryState:
    """Per-query incremental state (the paper's query-table entry).

    Shared by k-NN and range queries: for a range query ``radius`` is the
    spec's fixed radius (the influence region never grows or shrinks with
    the result), ``k`` is a placeholder 1, and ``neighbors`` holds *every*
    in-range candidate instead of a top-k ranking.
    """

    query_id: int
    k: int
    location: NetworkLocation
    spec: QuerySpec = field(default_factory=QuerySpec)
    state: ExpansionState = field(default_factory=ExpansionState)
    neighbors: NeighborList = field(default_factory=lambda: NeighborList(1))
    radius: float = float("inf")

    @property
    def is_range(self) -> bool:
        return self.spec.kind == "range"

    @property
    def fixed_radius(self) -> Optional[float]:
        """The pinned search radius of a range query (None for k-NN)."""
        return self.spec.radius if self.spec.kind == "range" else None

    def result_neighbors(self) -> List[Neighbor]:
        """The result list: top-k for k-NN, all in-range objects for range."""
        if self.spec.kind == "range":
            return [
                pair for pair in self.neighbors.all_candidates() if pair[1] <= self.radius
            ]
        return self.neighbors.top_k()


@dataclass
class _Pending:
    """What happened to a query during the current timestamp."""

    needs_resume: bool = False
    full_recompute: bool = False
    object_changes: bool = False
    #: total weight decrease applied to edges affecting this query (used to
    #: compute the radius within which the maintained candidates are still
    #: guaranteed to be complete)
    decrease_delta: float = 0.0
    #: distance the query moved inside its tree this timestamp
    move_distance: float = 0.0
    #: edge updates collected for the one-pass prune flush (None until the
    #: first update of that kind arrives)
    decreases: Optional[List[EdgeWeightUpdate]] = None
    increases: Optional[List[EdgeWeightUpdate]] = None


class ImaMonitor(MonitorBase):
    """Incremental continuous k-NN monitoring with expansion trees.

    Example::

        monitor = ImaMonitor(network, edge_table)
        monitor.register_query(1, location, k=4)
        monitor.process_batch(batch)      # incremental maintenance
    """

    name = "IMA"

    def __init__(
        self,
        network: RoadNetwork,
        edge_table: EdgeTable,
        counters=None,
    ) -> None:
        """Create the monitor.

        Args:
            network: the shared road network.
            edge_table: the shared data-object table.
            counters: optional work counters shared with a caller.
        """
        super().__init__(network, edge_table, counters)
        self._states: Dict[int, _QueryState] = {}
        self._influence = InfluenceIndex()
        # Aggregate k-NN queries (no expansion tree / influence entries)
        # register in the inherited self._aggregates and are re-evaluated
        # through MonitorBase._refresh_aggregates.

    # ------------------------------------------------------------------
    # introspection helpers (used by tests and memory accounting)
    # ------------------------------------------------------------------
    @property
    def influence_index(self) -> InfluenceIndex:
        """The shared edge -> query influence index (read-only use)."""
        return self._influence

    def expansion_state_of(self, query_id: int) -> ExpansionState:
        """The expansion tree of a query (read-only use)."""
        return self._states[query_id].state

    def memory_footprint_bytes(self) -> int:
        """Result lists + expansion trees + influence entries (Figure 18)."""
        base = super().memory_footprint_bytes()
        trees = sum(qs.state.footprint_bytes() for qs in self._states.values())
        influence = 12 * len(self._influence) + 20 * self._influence.interval_count()
        return base + trees + influence

    # ------------------------------------------------------------------
    # MonitorBase hooks
    # ------------------------------------------------------------------
    def _install_query(
        self, query_id: int, location: NetworkLocation, spec: QuerySpec
    ) -> KnnResult:
        if spec.kind == "aggregate_knn":
            self._aggregates.add(query_id)
            neighbors, radius = self._evaluate_aggregate(location, spec)
            return KnnResult(
                query_id=query_id,
                k=spec.result_k,
                neighbors=tuple(neighbors),
                radius=radius,
            )
        query_state = _QueryState(
            query_id=query_id,
            k=spec.k,
            location=location,
            spec=spec,
            neighbors=NeighborList(spec.k),
        )
        self._states[query_id] = query_state
        self._fresh_search(query_state)
        return KnnResult(
            query_id=query_id,
            k=spec.result_k,
            neighbors=tuple(query_state.result_neighbors()),
            radius=query_state.radius,
        )

    def _remove_query(self, query_id: int) -> None:
        self._influence.clear_subscriber(query_id)
        self._states.pop(query_id, None)
        self._aggregates.discard(query_id)

    def _process(self, batch: UpdateBatch) -> Set[int]:
        # One snapshot lookup/refresh per batch: every resumed search,
        # influence refresh and object-distance computation below reuses it
        # instead of re-checking staleness per query.
        self._batch_csr = csr_snapshot(self._network)
        try:
            changed = self._process_updates(batch)
            if self._aggregates:
                changed |= self._refresh_aggregates(batch)
            return changed
        finally:
            self._batch_csr = None

    def _process_updates(self, batch: UpdateBatch) -> Set[int]:
        pending: Dict[int, _Pending] = {}

        def pending_of(query_id: int) -> _Pending:
            entry = pending.get(query_id)
            if entry is None:
                entry = _Pending()
                pending[query_id] = entry
            return entry

        # Step 1 — query movements: classify inside / outside the tree.
        deferred_moves: List[Tuple[_QueryState, NetworkLocation]] = []
        for update in batch.query_updates:
            query_state = self._states.get(update.query_id)
            if query_state is None or update.new_location is None:
                continue
            entry = pending_of(update.query_id)
            move_distance = self._object_distance(
                query_state.state, update.new_location, query_state.location
            )
            if move_distance <= query_state.radius + _EPS:
                entry.move_distance += move_distance
                deferred_moves.append((query_state, update.new_location))
            else:
                # Moving outside the influence region invalidates everything.
                query_state.location = update.new_location
                entry.full_recompute = True

        # Steps 2 and 3 — edge weight changes, decreases before increases
        # (processing an increase first could leave a stale subtree that a
        # concurrent decrease elsewhere has made reachable through a shorter
        # path; see Section 4.5).  The updates are only *collected* here;
        # the flush below prunes each affected tree once instead of once
        # per (query, update) pair.
        decreases = [u for u in batch.edge_updates if u.is_decrease]
        increases = [u for u in batch.edge_updates if u.is_increase]
        for update in decreases:
            self._handle_edge_update(update, pending_of, decrease=True)
        for update in increases:
            self._handle_edge_update(update, pending_of, decrease=False)
        self._flush_edge_prunes(pending)

        # Step 4 — query movements inside the (already pruned) tree.
        for query_state, new_location in deferred_moves:
            entry = pending_of(query_state.query_id)
            if entry.full_recompute:
                query_state.location = new_location
                continue
            self._prune_for_query_move(query_state, new_location)
            query_state.location = new_location
            entry.needs_resume = True

        # Step 5 — object updates, filtered through the influence intervals.
        for update in batch.object_updates:
            self._handle_object_update(update, pending_of)

        # Steps 6 and 7 — finalise: every resumed search and full
        # recomputation in one batched kernel call plus one bulk influence
        # flush.
        return self._finalize_batch(pending)

    # ------------------------------------------------------------------
    # update handling
    # ------------------------------------------------------------------
    def _handle_edge_update(self, update, pending_of, decrease: bool) -> None:
        # The zero-copy view is safe here: steps 2-5 only read the index
        # (influence entries change in the step-6/7 finalisation).
        for query_id in self._influence.subscribers_on_edge_view(update.edge_id):
            query_state = self._states.get(query_id)
            if query_state is None:
                continue
            entry = pending_of(query_id)
            if entry.full_recompute:
                continue
            if update.edge_id == query_state.location.edge_id:
                # A weight change of the query's own edge shifts the query's
                # effective position in travel-cost space; recompute.
                entry.full_recompute = True
                continue
            # Collect only; _flush_edge_prunes prunes each tree once.
            if decrease:
                if entry.decreases is None:
                    entry.decreases = [update]
                else:
                    entry.decreases.append(update)
                entry.decrease_delta += update.old_weight - update.new_weight
            elif entry.increases is None:
                entry.increases = [update]
            else:
                entry.increases.append(update)
            entry.needs_resume = True

    def _flush_edge_prunes(self, pending: Dict[int, _Pending]) -> None:
        """One-pass tree prune per query from its collected edge updates.

        Steps 2 and 3 of the tick: each affected tree is pruned in a single
        walk instead of once per affecting update.  A weight *increase* of a
        tree edge discards the subtree below it (its nodes may now have
        cheaper paths outside the old tree; the rest of the tree never used
        the edge).  A weight *decrease* of a tree edge shifts the subtree
        below it down by the weight delta (the paths keep their shape), and
        any decrease bounds what else can be kept: a path that benefits from
        the cheaper edge must first reach one of its endpoints without it.
        The walk accumulates, per node, the total delta of the *decreased
        tree edges* on its tree path and keeps node ``v`` at its shifted
        distance ``d'(v)`` iff its branch survives every increase and
        ``d'(v) <= T``, where ``T`` is the minimum over all collected
        decreases of ``min(d(start), d(end)) + new_weight`` (pre-update
        distances).  Retained distances are exact:

        * ``d'(v)`` is achievable — it is the old tree path re-costed under
          the new weights (subtrees below increased tree edges are skipped
          by the walk, and non-tree edges never lie on a tree path);
        * nothing beats it — a path avoiding every decreased edge costs at
          least its old cost ``>= d_old(v) >= d'(v)``, and a path through a
          first decreased edge ``e = (a, b)`` pays at least ``d_old(a)``
          for its prefix (which uses no decreased edge, and increases only
          make it costlier) plus ``new_weight(e)``, i.e. at least ``T >=
          d'(v)``.

        ``d'`` grows along tree paths (each step adds the edge's *new*
        positive weight), so the keep-set is ancestor-closed and a branch
        can be abandoned at the first node beyond ``T``.  Shifted subtrees
        hanging outside the threshold are dropped and simply re-verified by
        the resumed search, which cannot affect results.
        """
        inf = float("inf")
        # Endpoints are per-edge facts: resolve each updated edge once per
        # tick instead of once per (query, update) pair.
        endpoint_cache: Dict[int, Tuple[int, int]] = {}
        network_endpoints = self._network.endpoints_of

        def endpoints_of(edge_id: int) -> Tuple[int, int]:
            cached = endpoint_cache.get(edge_id)
            if cached is None:
                cached = endpoint_cache[edge_id] = network_endpoints(edge_id)
            return cached

        for query_id, entry in pending.items():
            if entry.full_recompute or (entry.decreases is None and entry.increases is None):
                continue
            query_state = self._states.get(query_id)
            if query_state is None:
                continue
            state = query_state.state
            node_dist = state.node_dist
            if not node_dist:
                continue
            node_dist_get = node_dist.get
            parent_get = state.parent.get
            threshold = inf
            shift_of_child: Dict[int, float] = {}
            for update in entry.decreases or ():
                start, end = endpoints_of(update.edge_id)
                dist_start = node_dist_get(start, inf)
                dist_end = node_dist_get(end, inf)
                bound = (
                    dist_start if dist_start < dist_end else dist_end
                ) + update.new_weight
                if bound < threshold:
                    threshold = bound
                # Inlined tree_edge_child over the already-fetched endpoints.
                if parent_get(end, _UNRESOLVED) == start:
                    shift_of_child[end] = update.old_weight - update.new_weight
                elif parent_get(start, _UNRESOLVED) == end:
                    shift_of_child[start] = update.old_weight - update.new_weight
            removed_roots: Set[int] = set()
            for update in entry.increases or ():
                start, end = endpoints_of(update.edge_id)
                if parent_get(end, _UNRESOLVED) == start:
                    removed_roots.add(end)
                elif parent_get(start, _UNRESOLVED) == end:
                    removed_roots.add(start)
            if threshold == inf and not removed_roots and not shift_of_child:
                continue
            parent_map = state.parent
            bound = threshold + _EPS
            new_dist: Dict[int, float] = {}
            new_parent: Dict[int, Optional[int]] = {}
            if not removed_roots and not shift_of_child:
                # No tree edge was updated: the keep-set is a pure distance
                # cut, which is ancestor-closed, so no tree walk is needed.
                for node_id, distance in node_dist.items():
                    if distance <= bound:
                        new_dist[node_id] = distance
                        new_parent[node_id] = parent_map[node_id]
            else:
                # Resolve each candidate's composed shift by memoized
                # parent-chain walks (ancestors of candidates are candidates,
                # so chains are short and amortize to O(candidates)); a
                # ``None`` status marks descent through a removed increase
                # subtree.  ``cutoff`` over-approximates the keep bound by
                # the maximum possible shift so most of a shredded tree is
                # skipped by one float compare.
                cutoff = bound + sum(shift_of_child.values())
                status: Dict[int, Optional[float]] = {}
                status_get = status.get
                for node_id, distance in node_dist.items():
                    if distance > cutoff:
                        continue
                    shift = status_get(node_id, _UNRESOLVED)
                    if shift is _UNRESOLVED:
                        chain = [node_id]
                        ancestor = parent_map[node_id]
                        while ancestor is not None:
                            shift = status_get(ancestor, _UNRESOLVED)
                            if shift is not _UNRESOLVED:
                                break
                            chain.append(ancestor)
                            ancestor = parent_map[ancestor]
                        if ancestor is None:
                            shift = 0.0
                        for link in reversed(chain):
                            if shift is None or link in removed_roots:
                                shift = None
                            else:
                                delta = shift_of_child.get(link)
                                if delta is not None:
                                    shift += delta
                            status[link] = shift
                    if shift is None:
                        continue
                    shifted = distance - shift
                    if shifted <= bound:
                        new_dist[node_id] = shifted
                        new_parent[node_id] = parent_map[node_id]
            state.node_dist = new_dist
            state.parent = new_parent

    def _edge_offset(self, location: NetworkLocation) -> float:
        """Travel-cost offset of *location* from its edge's start node."""
        return edge_offset(self._batch_csr, location)

    def _object_distance(
        self,
        state: ExpansionState,
        location: NetworkLocation,
        query_location: Optional[NetworkLocation] = None,
    ) -> float:
        """:func:`object_distance_csr` over the tick's snapshot."""
        return object_distance_csr(self._batch_csr, state, location, query_location)

    def _handle_object_update(self, update: ObjectUpdate, pending_of) -> None:
        old_affected: Set[int] = set()
        new_affected: Set[int] = set()
        if update.old_location is not None:
            offset = self._edge_offset(update.old_location)
            old_affected = self._influence.subscribers_at_point(
                update.old_location.edge_id, offset
            )
        if update.new_location is not None:
            offset = self._edge_offset(update.new_location)
            new_affected = self._influence.subscribers_at_point(
                update.new_location.edge_id, offset
            )

        for query_id in old_affected | new_affected:
            query_state = self._states.get(query_id)
            if query_state is None:
                continue
            entry = pending_of(query_id)
            if entry.full_recompute:
                continue
            entry.object_changes = True
            if query_id in new_affected:
                assert update.new_location is not None
                distance = self._object_distance(
                    query_state.state, update.new_location, query_state.location
                )
                # Incoming or moving neighbor.  When the tree is intact the
                # distance is exact (the new position lies inside the
                # influence region, so at least one endpoint of its edge is a
                # verified node); after a pruning it may be an upper bound,
                # which the resumed search corrects.
                query_state.neighbors.assign(update.object_id, distance)
            else:
                # Outgoing neighbor: it left the influence region (or the
                # system); drop it from the candidates.
                query_state.neighbors.discard(update.object_id)

    # ------------------------------------------------------------------
    # pruning rules
    # ------------------------------------------------------------------
    def _prune_for_query_move(
        self, query_state: _QueryState, new_location: NetworkLocation
    ) -> None:
        """Re-root the tree at the query's new position.

        When the new position q' lies on a tree edge, the old shortest paths
        to every node in the subtree hanging below q' pass through q', so
        that subtree stays valid with distances re-offset to start from q'
        (sub-paths of shortest paths are shortest paths).  Everything else —
        including the old result distances — is discarded and re-discovered
        by the resumed search.
        """
        state = query_state.state
        old_location = query_state.location
        network = self._network
        start, end = network.endpoints_of(new_location.edge_id)
        weight = network.weight_of(new_location.edge_id)

        if new_location.edge_id == old_location.edge_id:
            if abs(new_location.fraction - old_location.fraction) <= _EPS:
                return
            toward_end = new_location.fraction > old_location.fraction
            anchor = end if toward_end else start
            anchor_is_root_child = (
                anchor in state.node_dist and state.parent.get(anchor) is None
            )
            if anchor_is_root_child:
                new_anchor_distance = (
                    new_location.reversed_offset(weight)
                    if toward_end
                    else new_location.offset(weight)
                )
                state.reroot_subtree(anchor, new_anchor_distance)
            else:
                state.clear()
            return

        child = state.tree_edge_child(start, end)
        if child is None:
            # The new position lies on a partially covered (non-tree) edge;
            # no subtree is rooted below it, so nothing can be re-used.
            state.clear()
            return
        if child == end:
            new_child_distance = new_location.reversed_offset(weight)
        else:
            new_child_distance = new_location.offset(weight)
        state.reroot_subtree(child, new_child_distance)

    # ------------------------------------------------------------------
    # searches
    # ------------------------------------------------------------------
    def _finalize_batch(self, pending: Dict[int, _Pending]) -> Set[int]:
        """Steps 6 and 7 in collect-then-flush form.

        Gathers one :class:`~repro.core.search.ExpansionRequest` per query
        that needs a resumed or fresh expansion, runs them all through one
        :func:`~repro.core.search.expand_knn_batch` call over the batch's
        snapshot, then refreshes every touched influence region through one
        bulk :func:`~repro.core.expansion.compute_influence_maps` +
        :meth:`~repro.core.influence.InfluenceIndex.replace_subscribers`
        flush.

        A query is finalised without a new expansion (the fast path) only
        when the maintained candidates still provide k neighbors *within the
        old radius* — the region the expansion tree has complete knowledge
        of.  Otherwise (its tree was pruned, an outgoing neighbor created a
        deficit, or the best available replacement lies beyond the old
        radius) the search resumes from the tree frontier.  Queries that
        left their trees or whose own edge changed weight are recomputed
        from scratch.
        """
        changed: Set[int] = set()
        csr = self._batch_csr
        resume_states: List[_QueryState] = []
        fresh_states: List[_QueryState] = []
        fast_states: List[_QueryState] = []
        settled_states: List[_QueryState] = []
        requests: List[ExpansionRequest] = []
        for query_id, entry in pending.items():
            query_state = self._states[query_id]
            if entry.full_recompute:
                fresh_states.append(query_state)
                continue
            if entry.needs_resume or (
                not query_state.is_range
                and query_state.neighbors.radius > query_state.radius + _EPS
            ):
                resume_states.append(query_state)
                requests.append(self._resume_request(query_state, entry, csr))
            elif not query_state.is_range:
                fast_states.append(query_state)
            else:
                # Range fast path: object-only updates left exact candidate
                # distances and the pinned radius; only the result changes.
                settled_states.append(query_state)
        for query_state in fresh_states:
            query_state.state = ExpansionState()
            requests.append(self._fresh_request(query_state))

        refresh_jobs: List[tuple] = []
        if requests:
            outcomes = expand_knn_batch(
                self._network,
                self._edge_table,
                requests,
                counters=self._counters,
                csr=csr,
            )
            for query_state, outcome in zip(resume_states + fresh_states, outcomes):
                self._adopt_outcome(query_state, outcome)
                refresh_jobs.append(
                    (
                        query_state.query_id,
                        query_state.state,
                        query_state.radius,
                        query_state.location,
                    )
                )
        for query_state in fast_states:
            if self._finalize_fast_path(query_state):
                refresh_jobs.append(
                    (
                        query_state.query_id,
                        query_state.state,
                        query_state.radius,
                        query_state.location,
                    )
                )
        if refresh_jobs:
            maps = compute_influence_maps(self._network, refresh_jobs, csr=csr)
            self._influence.replace_subscribers(maps)

        for query_state in resume_states + fast_states + settled_states + fresh_states:
            if self._store_result(
                query_state.query_id,
                query_state.result_neighbors(),
                query_state.radius,
            ):
                changed.add(query_state.query_id)
        return changed

    def _resume_candidates(
        self, query_state: _QueryState, entry: _Pending, csr: CSRGraph
    ) -> List:
        """Re-usable result candidates of a resumed search, re-distanced.

        When the tree survived the tick intact (pure object-update deficit)
        the maintained distances are already exact and are reused as-is;
        otherwise every surviving candidate is re-distanced against the
        pruned tree — :func:`~repro.core.expansion.object_distance_csr`
        inlined, one call per candidate being measurable on storm ticks that
        resume hundreds of queries — giving exact distances where the
        realising endpoint survived and upper bounds elsewhere (which the
        resumed expansion corrects).
        """
        state = query_state.state
        if not (entry.needs_resume or entry.move_distance > 0):
            return list(query_state.neighbors)
        candidates: List = []
        locations_get = self._edge_table.locations.get
        edge_index = csr.edge_index
        edge_weight = csr.edge_weight
        edge_start = csr.edge_start
        edge_end = csr.edge_end
        node_ids = csr.node_ids
        node_dist_get = state.node_dist.get
        query_edge = query_state.location.edge_id
        query_fraction = query_state.location.fraction
        inf = float("inf")
        for object_id, _ in query_state.neighbors:
            location = locations_get(object_id)
            if location is None:
                continue
            position = edge_index.get(location.edge_id)
            if position is None:
                # Same contract as object_distance_csr.
                raise EdgeNotFoundError(location.edge_id)
            weight = edge_weight[position]
            offset = location.fraction * weight
            dist_start = node_dist_get(node_ids[edge_start[position]], inf)
            dist_end = node_dist_get(node_ids[edge_end[position]], inf)
            via_start = dist_start + offset if dist_start != inf else inf
            via_end = dist_end + (weight - offset) if dist_end != inf else inf
            distance = via_start if via_start < via_end else via_end
            if location.edge_id == query_edge:
                direct = abs(location.fraction - query_fraction) * weight
                if direct < distance:
                    distance = direct
            if distance != inf:
                candidates.append((object_id, distance))
        return candidates

    def _resume_request(
        self, query_state: _QueryState, entry: _Pending, csr: CSRGraph
    ) -> ExpansionRequest:
        """Build the request that resumes one query from the valid part of its tree.

        The maintained result candidates are re-used (see
        :meth:`_resume_candidates`).  The candidate set is complete for
        every object closer than ``old_radius - (weight decreases) - (query
        movement)``, so edges lying entirely inside that radius need not be
        re-scanned; the search is told so through ``coverage_radius`` and
        only scans the boundary ("mark") edges plus newly explored
        territory.
        """
        state = query_state.state
        return ExpansionRequest(
            k=query_state.k,
            query_location=query_state.location,
            preverified=state.node_dist,
            preverified_parent=state.parent,
            candidates=self._resume_candidates(query_state, entry, csr),
            coverage_radius=self._coverage_radius(query_state, entry),
            fixed_radius=query_state.fixed_radius,
        )

    @staticmethod
    def _fresh_request(query_state: _QueryState) -> ExpansionRequest:
        """The request that computes one query from scratch (Figure 2)."""
        return ExpansionRequest(
            k=query_state.k,
            query_location=query_state.location,
            fixed_radius=query_state.fixed_radius,
        )

    def _fresh_search(self, query_state: _QueryState) -> None:
        """Compute a newly installed query's result and influence region."""
        [outcome] = expand_knn_batch(
            self._network,
            self._edge_table,
            [self._fresh_request(query_state)],
            counters=self._counters,
        )
        self._adopt_outcome(query_state, outcome)
        self._influence.replace_subscriber(
            query_state.query_id,
            compute_influence_map(
                self._network,
                query_state.state,
                query_state.radius,
                query_state.location,
            ),
        )

    @staticmethod
    def _coverage_radius(query_state: _QueryState, entry: _Pending) -> Optional[float]:
        """Radius within which the maintained candidates are still complete."""
        if query_state.radius == float("inf"):
            return None
        coverage = query_state.radius - (entry.decrease_delta + entry.move_distance)
        return coverage if coverage > 0 else None

    def _adopt_outcome(self, query_state: _QueryState, outcome) -> None:
        query_state.state = outcome.state
        query_state.radius = outcome.radius
        query_state.state.shrink_to_radius(outcome.radius)
        query_state.neighbors = NeighborList.from_pairs(
            query_state.k, outcome.neighbors
        )

    def _finalize_fast_path(self, query_state: _QueryState) -> bool:
        """Finish a query affected only by object updates with enough survivors.

        The surviving and incoming candidates all carry exact distances (see
        :meth:`_handle_object_update`), so the new result is simply their
        top-k.  The radius can only have shrunk.  The tree and the influence
        intervals are trimmed only when the radius shrank substantially:
        keeping slightly-too-large intervals is safe (over-inclusive
        filtering merely processes a few irrelevant updates) and skipping the
        refresh keeps the fast path cheap — which is the point of IMA.

        Returns True when the influence region needs a refresh (the caller
        performs it through the bulk flush).
        """
        query_state.neighbors.trim_to_k()
        new_radius = query_state.neighbors.radius
        old_radius = query_state.radius
        query_state.radius = new_radius
        if new_radius < 0.9 * old_radius:
            query_state.state.shrink_to_radius(new_radius)
            return True
        return False
