"""Network expansion engine: the Figure-2 k-NN search, resumable.

This module implements one algorithm used everywhere in the library:

* the **initial result computation** of IMA (Figure 2 of the paper) — an
  expansion of the network around the query until the k nearest data
  objects are found, producing the expansion tree as a side effect;
* every **resumed search** of IMA's incremental maintenance — the valid
  part of an expansion tree is passed in as *pre-verified* node distances
  and the expansion continues from its frontier;
* the **candidate-seeded evaluation** of GMA — upper-bound candidates
  obtained from the active-node results of the query's sequence give a
  tight initial radius so that the expansion terminates almost immediately;
* the per-timestamp recomputation of the OVH baseline.

The hot loop runs over the flat-array CSR snapshot of the network
(:mod:`repro.network.csr`): adjacency is three parallel columns indexed by
dense node ids, the frontier is a plain :mod:`heapq` binary heap of
``(distance, node_index)`` pairs with lazy deletion, and per-search state
lives in reusable flat buffers instead of dictionaries.

Correctness sketch.  The search is a multi-source Dijkstra whose sources
are the query position (seeding its edge's endpoints) and the pre-verified
nodes (whose distances the caller guarantees to be exact).  Nodes are
settled in non-decreasing distance order, so when the loop stops — the
smallest frontier key is at least the current radius — every node with
distance strictly below the final radius has been settled.  Any data object
with true distance below the final radius therefore had the last node of
its shortest path settled, at which point the object was offered its exact
distance (objects on every edge incident to a settled node are scanned).
Candidates passed in as upper bounds can only shrink the radius, never hide
a closer object, so the returned top-k is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.expansion import ExpansionState
from repro.core.results import Neighbor
from repro.exceptions import InvalidQueryError, NodeNotFoundError
from repro.network.csr import CSRGraph, csr_snapshot
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork

_INF = float("inf")

#: Shared empty exclusion set — avoids allocating one per search.
_NO_EXCLUDED: frozenset = frozenset()


@dataclass
class SearchCounters:
    """Abstract work counters accumulated across searches.

    Wall-clock time in Python is dominated by interpreter overhead; the
    benchmark harness therefore also reports these counters, which track the
    algorithmic work the paper's CPU-time figures measure.

    Example::

        counters = SearchCounters()
        expand_knn(network, edge_table, k=4, query_location=loc, counters=counters)
        print(counters.snapshot())
    """

    searches: int = 0
    nodes_expanded: int = 0
    edges_scanned: int = 0
    objects_considered: int = 0
    heap_pushes: int = 0

    def merge(self, other: "SearchCounters") -> None:
        """Accumulate *other* into this instance."""
        self.searches += other.searches
        self.nodes_expanded += other.nodes_expanded
        self.edges_scanned += other.edges_scanned
        self.objects_considered += other.objects_considered
        self.heap_pushes += other.heap_pushes

    def snapshot(self) -> Dict[str, int]:
        """Return a plain-dict copy (for metrics reporting)."""
        return {
            "searches": self.searches,
            "nodes_expanded": self.nodes_expanded,
            "edges_scanned": self.edges_scanned,
            "objects_considered": self.objects_considered,
            "heap_pushes": self.heap_pushes,
        }

    def reset(self) -> None:
        self.searches = 0
        self.nodes_expanded = 0
        self.edges_scanned = 0
        self.objects_considered = 0
        self.heap_pushes = 0


@dataclass
class SearchOutcome:
    """Result of one network expansion.

    Attributes:
        neighbors: the top-k ``(object_id, distance)`` pairs, sorted.
        radius: distance of the k-th neighbor (``inf`` when fewer than k).
        state: the expansion tree produced / extended by the search; the
            verified node distances are exact network distances.
    """

    neighbors: List[Neighbor]
    radius: float
    state: ExpansionState

    @property
    def object_ids(self) -> Tuple[int, ...]:
        return tuple(object_id for object_id, _ in self.neighbors)


@dataclass
class ExpansionRequest:
    """One expansion of a batched :func:`expand_knn_batch` call.

    Fields mirror the keyword arguments of :func:`expand_knn` one-to-one;
    see its docstring for the semantics of each.  Monitors collect one
    request per query they need to (re)compute in a tick and flush the
    whole batch through a single :func:`expand_knn_batch` call.

    Example::

        request = ExpansionRequest(k=4, query_location=location)
        outcome = expand_knn_batch(network, edge_table, [request])[0]
    """

    k: int
    query_location: Optional[NetworkLocation] = None
    source_node: Optional[int] = None
    preverified: Optional[Mapping[int, float]] = None
    preverified_parent: Optional[Mapping[int, Optional[int]]] = None
    candidates: Iterable[Neighbor] = ()
    barrier_candidates: Optional[Mapping[int, Iterable[Neighbor]]] = None
    coverage_radius: Optional[float] = None
    excluded_objects: Optional[Set[int]] = None
    fixed_radius: Optional[float] = None
    seed_nodes: Optional[Iterable[Tuple[int, float]]] = None


def _share_key(request: ExpansionRequest) -> Optional[tuple]:
    """Key under which *request* may share another request's expansion.

    Only *fresh* location-rooted expansions are shareable: a request that
    resumes a tree (``preverified``), seeds candidates, uses barriers or a
    coverage radius, or is rooted at a node carries per-query state that a
    shared run cannot reproduce, so those return ``None`` (run privately).
    Two shareable requests share when they sit at the **same** snapped
    location, run the same search kind (k-NN vs fixed-radius range) and
    exclude the same objects — the settled-distance prefix of the larger
    search then contains the smaller search's entire answer.
    """
    if (
        request.query_location is None
        or request.source_node is not None
        or request.preverified
        or request.preverified_parent
        or request.barrier_candidates
        or request.coverage_radius is not None
        or request.seed_nodes
        or bool(request.candidates)
    ):
        return None
    excluded = (
        frozenset(request.excluded_objects)
        if request.excluded_objects
        else _NO_EXCLUDED
    )
    return (
        request.query_location.edge_id,
        request.query_location.fraction,
        request.fixed_radius is not None,
        excluded,
    )


def _share_bound(request: ExpansionRequest) -> float:
    """Ordering bound of a shareable request: radius for range, k for k-NN."""
    if request.fixed_radius is not None:
        return request.fixed_radius
    return float(request.k)


def _derive_outcome(source: SearchOutcome, request: ExpansionRequest) -> SearchOutcome:
    """Derive *request*'s outcome from a representative's wider expansion.

    The representative ran the same search from the same location with a
    bound at least as large (more neighbors for k-NN, a larger radius for
    range), so its sorted neighbor list is a superset prefix of the derived
    answer: truncating to ``k`` (or filtering to the smaller radius) yields
    exactly what a private expansion would have returned, value for value.
    The expansion state is a *copy* of the representative's tree — a
    superset of the private tree with identical (exact) distances, safe for
    any caller that treats verified distances as upper-bounded truth, and
    copied because IMA mutates outcome states in place.
    """
    state = ExpansionState(
        node_dist=dict(source.state.node_dist), parent=dict(source.state.parent)
    )
    if request.fixed_radius is not None:
        neighbors = [
            neighbor for neighbor in source.neighbors if neighbor[1] <= request.fixed_radius
        ]
        return SearchOutcome(
            neighbors=neighbors, radius=request.fixed_radius, state=state
        )
    neighbors = list(source.neighbors[: request.k])
    radius = neighbors[request.k - 1][1] if len(neighbors) == request.k else _INF
    return SearchOutcome(neighbors=neighbors, radius=radius, state=state)


def expand_knn_batch(
    network: RoadNetwork,
    edge_table: EdgeTable,
    requests: List[ExpansionRequest],
    counters: Optional[SearchCounters] = None,
    csr: Optional[CSRGraph] = None,
    share: bool = False,
) -> List[SearchOutcome]:
    """Run a batch of expansions over one shared snapshot.

    The single entry point of every monitor's per-tick flush: each request
    is served by a plain :func:`expand_knn` call over the shared snapshot,
    and the outcomes are returned in request order.

    With ``share=True`` the batch first groups *fresh* location-rooted
    requests (no resume state, candidates, barriers or coverage radius) by
    snapped location, search kind and exclusion set; each group runs **one**
    physical expansion — the member with the largest bound (max ``k`` for
    k-NN, max ``fixed_radius`` for range) — and the other members' outcomes
    are derived from its settled-distance prefix by truncation/filtering
    (see :func:`_derive_outcome` for why this is exact).  Work counters
    reflect only the physical expansions, which is how the shared-expansion
    savings are measured.  Defaults to ``False`` so existing callers keep
    per-request counters byte-identical.

    Example::

        requests = [ExpansionRequest(k=4, query_location=loc) for loc in locations]
        outcomes = expand_knn_batch(network, edge_table, requests, share=True)
    """
    if csr is None:
        csr = csr_snapshot(network)
    if share and len(requests) > 1:
        groups: Dict[tuple, List[int]] = {}
        for index, request in enumerate(requests):
            key = _share_key(request)
            if key is not None:
                groups.setdefault(key, []).append(index)
        derived_from: Dict[int, int] = {}
        for members in groups.values():
            if len(members) < 2:
                continue
            representative = members[0]
            for index in members[1:]:
                if _share_bound(requests[index]) > _share_bound(
                    requests[representative]
                ):
                    representative = index
            for index in members:
                if index != representative:
                    derived_from[index] = representative
        if derived_from:
            physical = [
                index for index in range(len(requests)) if index not in derived_from
            ]
            outcomes = expand_knn_batch(
                network,
                edge_table,
                [requests[index] for index in physical],
                counters=counters,
                csr=csr,
            )
            by_index = dict(zip(physical, outcomes))
            return [
                _derive_outcome(by_index[derived_from[index]], request)
                if index in derived_from
                else by_index[index]
                for index, request in enumerate(requests)
            ]
    return [
        expand_knn(
            network,
            edge_table,
            request.k,
            query_location=request.query_location,
            source_node=request.source_node,
            preverified=request.preverified,
            preverified_parent=request.preverified_parent,
            candidates=request.candidates,
            barrier_candidates=request.barrier_candidates,
            coverage_radius=request.coverage_radius,
            excluded_objects=request.excluded_objects,
            counters=counters,
            fixed_radius=request.fixed_radius,
            csr=csr,
            seed_nodes=request.seed_nodes,
        )
        for request in requests
    ]


def expand_knn(
    network: RoadNetwork,
    edge_table: EdgeTable,
    k: int,
    query_location: Optional[NetworkLocation] = None,
    source_node: Optional[int] = None,
    preverified: Optional[Mapping[int, float]] = None,
    preverified_parent: Optional[Mapping[int, Optional[int]]] = None,
    candidates: Iterable[Neighbor] = (),
    barrier_candidates: Optional[Mapping[int, Iterable[Neighbor]]] = None,
    coverage_radius: Optional[float] = None,
    excluded_objects: Optional[Set[int]] = None,
    counters: Optional[SearchCounters] = None,
    csr: Optional[CSRGraph] = None,
    fixed_radius: Optional[float] = None,
    seed_nodes: Optional[Iterable[Tuple[int, float]]] = None,
) -> SearchOutcome:
    """Expand the network around a query until its k NNs are known.

    Args:
        network: the road network (current weights are used).
        edge_table: current data-object positions.
        k: number of neighbors requested (>= 1).
        query_location: the query's position on an edge.  Exactly one of
            *query_location* and *source_node* must be provided.
        source_node: alternatively, a network node acting as the query
            (used for GMA's active nodes).
        preverified: node -> exact network distance for nodes whose shortest
            paths are already known (the valid part of an expansion tree).
            The search treats them as settled and resumes from their frontier.
        preverified_parent: optional shortest-path-tree parents of the
            pre-verified nodes (kept in the returned state).
        candidates: ``(object_id, distance)`` pairs whose distances are
            upper bounds on the true network distance; they tighten the
            initial radius (GMA seeding) but can never exclude a closer
            object.
        barrier_candidates: node -> ``(object_id, distance_from_node)`` pairs
            of that node's *monitored* k-NN set (GMA's active nodes), sorted
            by distance.  When a barrier node is settled at distance ``d``,
            the candidates are offered at ``d + distance_from_node`` and the
            expansion does NOT continue past the node.  This is exact
            provided every barrier is monitored with at least ``k``
            neighbors: any object in the true top-k whose shortest path
            crosses a barrier is, by the triangle argument of Section 5,
            also in that barrier's top-k, and the first barrier on the path
            is settled at its exact distance.
        coverage_radius: IMA's resume optimisation.  The caller asserts that
            every object whose distance is at most this value is already in
            *candidates* with an exact distance; edges between two
            pre-verified nodes that lie entirely within the coverage radius
            are then not re-scanned (their objects cannot contribute
            anything new).  Edges that are only partially covered — the
            paper's *marks* — and edges of newly settled nodes are always
            scanned.
        excluded_objects: object ids to ignore entirely (used by tests and
            by what-if analyses).
        counters: optional work counters to update in place.
        csr: an already-refreshed CSR snapshot of *network*.  Batch
            processors pass the snapshot they acquired once per timestamp so
            that the per-search staleness check is skipped; when omitted the
            cached snapshot is looked up (and refreshed) per call.
        fixed_radius: run a fixed-radius *range* search instead of a k-NN
            one: the termination bound is pinned to this value (it never
            shrinks with the candidates), nodes at distance exactly the
            radius are still settled, and the outcome holds **every** object
            within the radius sorted by ``(distance, object id)`` with
            ``radius`` set to this value.  ``k`` is ignored (pass 1).  All
            resume machinery (``preverified``, ``candidates``,
            ``coverage_radius``) composes unchanged, which is what lets IMA
            maintain range queries with the same tree repair it uses for
            k-NN.
        seed_nodes: ``(node_id, distance)`` pairs pushed as additional root
            seeds — a *frontier continuation*.  Each pair asserts that the
            node is reachable from the (possibly remote) query at the given
            distance; the expansion relaxes them exactly like the query
            edge's endpoints.  This is the cross-shard resume shape of the
            graph-partitioned server: a search that spilled over a partition
            boundary restarts in the neighboring shard from its halo
            frontier.  May be the only source (no ``query_location`` /
            ``source_node``), in which case no on-edge query offers happen.

    Returns:
        A :class:`SearchOutcome` with the exact top-k result.

    Raises:
        InvalidQueryError: if k < 1 or no query source was provided.

    Example::

        outcome = expand_knn(network, edge_table, k=4, query_location=loc)
        print(outcome.neighbors, outcome.radius)
    """
    if k < 1:
        raise InvalidQueryError(f"k must be >= 1, got {k}")
    if query_location is None and source_node is None and not seed_nodes:
        raise InvalidQueryError(
            "expand_knn needs a query_location, a source_node or seed_nodes"
        )
    if counters is None:
        counters = SearchCounters()
    counters.searches += 1

    excluded = excluded_objects or _NO_EXCLUDED
    barriers = barrier_candidates or {}
    # Candidate bookkeeping is inlined as plain dict operations: ``cand``
    # maps object id -> best offered distance, ``radius`` caches the k-th
    # smallest distance (the paper's ``q.kNN_dist``) and is recomputed —
    # a keyless C-level sort over the values — only when an offer lands
    # strictly below it.
    cand: Dict[int, float] = {}
    cand_get = cand.get
    for object_id, distance in candidates:
        if object_id not in excluded:
            previous = cand_get(object_id)
            if previous is None or distance < previous:
                cand[object_id] = distance
    if fixed_radius is not None:
        # Range search: the bound is pinned — seeded candidates cannot
        # shrink it and offers never dirty it (the recompute sites below are
        # all guarded), so the loop settles everything within the radius.
        radius = fixed_radius
    else:
        radius = sorted(cand.values())[k - 1] if len(cand) >= k else _INF

    if csr is None:
        csr = csr_snapshot(network)
    indptr = csr.indptr
    adj_node = csr.adj_node
    adj_eid = csr.adj_eid
    adj_weight = csr.adj_weight
    adj_forward = csr.adj_forward
    node_index = csr.node_index
    node_ids = csr.node_ids
    fractions_of = edge_table.edge_object_fractions
    fraction_cache_get = edge_table.fraction_cache.get

    scratch = csr.acquire_scratch()
    best = scratch.best
    tentative = scratch.tentative
    settled = scratch.settled
    tparent = scratch.tentative_parent
    touched: List[int] = []
    heap: List[Tuple[float, int]] = []
    settled_new: List[int] = []

    # Barrier node ids -> dense indices (barriers outside the network never
    # settle).
    barrier_by_idx: Dict[int, Iterable[Neighbor]] = {}
    if barriers:
        for node_id, barrier_list in barriers.items():
            idx = node_index.get(node_id)
            if idx is not None:
                barrier_by_idx[idx] = barrier_list

    edges_scanned = 0
    objects_considered = 0
    heap_pushes = 0
    nodes_expanded = 0
    radius_dirty = False
    # Root seeds relaxed with no parent: the query edge's endpoints and/or
    # the source node, collected first and pushed in one inlined loop.
    seeds: List[Tuple[int, float]] = []

    try:
        # --------------------------------------------------------------
        # seeding
        # --------------------------------------------------------------
        pre_entries: List[Tuple[int, float]] = []
        if preverified:
            for node_id, distance in preverified.items():
                idx = node_index.get(node_id)
                if idx is None:
                    raise NodeNotFoundError(node_id)
                settled[idx] = 1
                best[idx] = distance
                touched.append(idx)
                pre_entries.append((idx, distance))

        if query_location is not None:
            edge_pos = csr.index_of_edge(query_location.edge_id)
            weight = csr.edge_weight[edge_pos]
            query_fraction = query_location.fraction
            query_offset = query_fraction * weight
            oneway = csr.edge_oneway[edge_pos]
            # Objects on the query's own edge are reached directly along it.
            pairs = fractions_of(query_location.edge_id)
            if pairs:
                if excluded:
                    pairs = [pair for pair in pairs if pair[0] not in excluded]
                if oneway:
                    pairs = [pair for pair in pairs if pair[1] >= query_fraction]
                objects_considered += len(pairs)
                for object_id, fraction in pairs:
                    total = (fraction - query_fraction) * weight
                    if total < 0.0:
                        total = -total
                    # An offer strictly above the current radius can never
                    # reach the final top-k (the radius only shrinks and the
                    # k candidates below it never worsen), so skip it.
                    if total > radius:
                        continue
                    previous = cand_get(object_id)
                    if previous is None or total < previous:
                        cand[object_id] = total
                        if total < radius:
                            radius_dirty = True
            if oneway:
                seeds.append((csr.edge_end[edge_pos], weight - query_offset))
            else:
                seeds.append((csr.edge_start[edge_pos], query_offset))
                seeds.append((csr.edge_end[edge_pos], weight - query_offset))

        if source_node is not None:
            seeds.append((csr.index_of_node(source_node), 0.0))

        if seed_nodes:
            for node_id, distance in seed_nodes:
                idx = node_index.get(node_id)
                if idx is None:
                    raise NodeNotFoundError(node_id)
                seeds.append((idx, distance))

        for v, nd in seeds:
            if not settled[v]:
                heap_pushes += 1
                if nd < tentative[v]:
                    if tentative[v] == _INF:
                        touched.append(v)
                    tentative[v] = nd
                    tparent[v] = -1
                    heappush(heap, (nd, v))

        # Resume from the pre-verified frontier: relax the settled nodes'
        # unverified neighbors and re-scan the objects of their incident
        # edges.  When the caller guarantees (via coverage_radius) that every
        # object closer than that radius is already among the candidates,
        # edges lying entirely inside the covered region are skipped — only
        # the partially covered boundary edges (the paper's marks) are
        # re-scanned.
        if pre_entries:
            for u, settled_distance in pre_entries:
                for slot in range(indptr[u], indptr[u + 1]):
                    w = adj_weight[slot]
                    v = adj_node[slot]
                    fully_covered = False
                    if coverage_radius is not None and settled[v]:
                        farthest = (settled_distance + best[v] + w) / 2.0
                        fully_covered = farthest <= coverage_radius + 1e-9
                    if not fully_covered:
                        edges_scanned += 1
                        eid = adj_eid[slot]
                        pairs = fraction_cache_get(eid)
                        if pairs is None:
                            pairs = fractions_of(eid)
                        if pairs:
                            if excluded:
                                pairs = [
                                    pair for pair in pairs if pair[0] not in excluded
                                ]
                            objects_considered += len(pairs)
                            if adj_forward[slot]:
                                for object_id, fraction in pairs:
                                    total = settled_distance + fraction * w
                                    if total > radius:
                                        continue  # can never reach the top-k
                                    previous = cand_get(object_id)
                                    if previous is None or total < previous:
                                        cand[object_id] = total
                                        if total < radius:
                                            radius_dirty = True
                            else:
                                for object_id, fraction in pairs:
                                    total = settled_distance + (1.0 - fraction) * w
                                    if total > radius:
                                        continue  # can never reach the top-k
                                    previous = cand_get(object_id)
                                    if previous is None or total < previous:
                                        cand[object_id] = total
                                        if total < radius:
                                            radius_dirty = True
                    if not settled[v]:
                        heap_pushes += 1
                        nd = settled_distance + w
                        if nd < tentative[v]:
                            if tentative[v] == _INF:
                                touched.append(v)
                            tentative[v] = nd
                            tparent[v] = u
                            heappush(heap, (nd, v))

        # --------------------------------------------------------------
        # main Dijkstra loop (Figure 2, lines 7-23)
        # --------------------------------------------------------------
        while heap:
            d, u = heappop(heap)
            if settled[u] or d > tentative[u]:
                continue
            if radius_dirty:
                if fixed_radius is None:
                    radius = sorted(cand.values())[k - 1] if len(cand) >= k else _INF
                radius_dirty = False
            if d >= radius and (fixed_radius is None or d > radius):
                # k-NN stops at the radius; a range search is inclusive, so
                # nodes at distance exactly the radius still settle.
                break
            settled[u] = 1
            best[u] = d
            settled_new.append(u)
            nodes_expanded += 1
            barrier = barrier_by_idx.get(u)
            if barrier is not None:
                # Active-node barrier: merge its monitored neighbors and stop
                # the expansion here (the shared-execution core of GMA).  The
                # list is sorted by distance, so once a candidate cannot beat
                # the current radius none of the following ones can either.
                for object_id, from_node_distance in barrier:
                    if radius_dirty:
                        if fixed_radius is None:
                            radius = (
                                sorted(cand.values())[k - 1]
                                if len(cand) >= k
                                else _INF
                            )
                        radius_dirty = False
                    total = d + from_node_distance
                    if total >= radius and (fixed_radius is None or total > radius):
                        break
                    if object_id not in excluded:
                        objects_considered += 1
                        previous = cand_get(object_id)
                        if previous is None or total < previous:
                            cand[object_id] = total
                            radius_dirty = True
                continue
            for slot in range(indptr[u], indptr[u + 1]):
                w = adj_weight[slot]
                edges_scanned += 1
                eid = adj_eid[slot]
                pairs = fraction_cache_get(eid)
                if pairs is None:
                    pairs = fractions_of(eid)
                if pairs:
                    if excluded:
                        pairs = [pair for pair in pairs if pair[0] not in excluded]
                    objects_considered += len(pairs)
                    if adj_forward[slot]:
                        for object_id, fraction in pairs:
                            total = d + fraction * w
                            if total > radius:
                                continue  # can never reach the top-k
                            previous = cand_get(object_id)
                            if previous is None or total < previous:
                                cand[object_id] = total
                                if total < radius:
                                    radius_dirty = True
                    else:
                        for object_id, fraction in pairs:
                            total = d + (1.0 - fraction) * w
                            if total > radius:
                                continue  # can never reach the top-k
                            previous = cand_get(object_id)
                            if previous is None or total < previous:
                                cand[object_id] = total
                                if total < radius:
                                    radius_dirty = True
                v = adj_node[slot]
                if not settled[v]:
                    heap_pushes += 1
                    nd = d + w
                    if nd < tentative[v]:
                        if tentative[v] == _INF:
                            touched.append(v)
                        tentative[v] = nd
                        tparent[v] = u
                        heappush(heap, (nd, v))

        # --------------------------------------------------------------
        # result assembly
        # --------------------------------------------------------------
        node_dist: Dict[int, float] = dict(preverified) if preverified else {}
        if preverified_parent:
            parent: Dict[int, Optional[int]] = {
                node_id: preverified_parent.get(node_id) for node_id in node_dist
            }
        else:
            parent = dict.fromkeys(node_dist)
        for u in settled_new:
            node_id = node_ids[u]
            node_dist[node_id] = best[u]
            via = tparent[u]
            parent[node_id] = node_ids[via] if via >= 0 else None
    finally:
        scratch.release(touched)

    counters.nodes_expanded += nodes_expanded
    counters.edges_scanned += edges_scanned
    counters.objects_considered += objects_considered
    counters.heap_pushes += heap_pushes

    if fixed_radius is None:
        if radius_dirty:
            radius = sorted(cand.values())[k - 1] if len(cand) >= k else _INF
        # Sort (distance, id) tuples so ties break by object id, matching
        # NeighborList.top_k().
        top = sorted(zip(cand.values(), cand.keys()))[:k]
    else:
        # Range result: every in-radius candidate, sorted like top_k().
        # Seeded candidates that stayed upper bounds beyond the radius are
        # dropped (their exact distances, if in range, were re-offered).
        radius = fixed_radius
        top = sorted(
            (distance, object_id)
            for object_id, distance in cand.items()
            if distance <= fixed_radius
        )
    state = ExpansionState(node_dist=node_dist, parent=parent)
    return SearchOutcome(
        neighbors=[(oid, d) for d, oid in top],
        radius=radius,
        state=state,
    )
