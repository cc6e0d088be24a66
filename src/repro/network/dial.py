"""Bucket-queue (Dial) expansion kernel with batched multi-query execution.

The monitoring hot path runs hundreds of network expansions per tick — IMA
resume/fresh searches, GMA barrier evaluations, OVH recomputations — each a
Dijkstra over the flat CSR columns with a binary-heap frontier.  This module
replaces the global heap with a *two-level bucket queue* (a Dial-1969
variant): tentative distances are quantized to buckets of width ``delta =
mean(edge weight)``, a push into a future bucket is one floor-division plus
a list append, the buckets drain in ascending id through a small heap of
*bucket ids* (one entry per active bucket instead of one per frontier
node), and the bucket currently draining is itself a min-heap so that
relaxations landing inside it are ordered exactly.

Exactness contract.  The kernel is **settle-order identical** to the heap
path of :func:`repro.core.search.expand_knn`, not merely
distance-equivalent, so the two produce byte-identical outcomes:

* a relaxation produces ``nd >= d`` (weights are positive), and the floor
  quantization is monotone, so a new entry lands either in the bucket being
  drained — where the current-bucket heap keeps exact ``(distance, node)``
  order — or in a later bucket, never behind the cursor; this is what frees
  the bucket width from the ``delta <= min(edge weight)`` constraint of
  textbook Dial;
* buckets are heapified when they start draining, so the global settle
  sequence (and therefore every candidate offer, radius update, and
  early-exit decision) matches the lazy-deletion heap exactly;
* pushes with ``nd >= radius`` are skipped entirely: such entries can never
  settle (the radius only shrinks, and the tracked value is always an upper
  bound of the true radius) and the heap path only ever pops them to
  terminate, so dropping them changes no observable outcome while removing
  the dead outer-shell frontier;
* a search whose bucket index overflows :data:`MAX_BUCKET_INDEX` raises
  :class:`DialAbort` and transparently re-runs on the heap path, and a
  snapshot whose quantization is structurally unusable (no positive mean
  weight) skips the bucket queue entirely.

Batching.  :func:`dial_expand_batch` accepts every expansion request a
monitor collected for one tick and runs them over one shared scratch set
(distance/settled columns, bucket dict, candidate maps), which removes the
per-search acquire/release and snapshot bookkeeping the per-query API pays.
Resume requests with a large pre-verified frontier are seeded by
:func:`_vector_seed` — coverage tests and frontier relaxation as numpy
gathers over the CSR adjacency mirrors — and the influence-map refreshes
that follow each adopted search are served by
:func:`influence_spans_vectorized`, which replaces the per-slot Python walk
with numpy gathers over the CSR incidence columns (``inc_indptr`` /
``inc_edge`` / ``edge_*``) and computes all span arithmetic element-wise —
the identical IEEE operations of the scalar code, so the spans match
exactly.

Quantization metadata (bucket width, numpy column mirrors, reusable
distance scratch) is cached per :attr:`CSRGraph.weights_epoch` in
:class:`DialSupport`, so a weight storm costs one rebuild at the next tick
rather than one per update.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import InvalidQueryError, NodeNotFoundError
from repro.utils import optional_numpy

_INF = float("inf")

#: Shared empty exclusion set, mirroring repro.core.search.
_NO_EXCLUDED: frozenset = frozenset()

#: Hard cap on a search's bucket index; beyond it the heap path takes over.
MAX_BUCKET_INDEX = 1 << 22

#: Minimum verified-tree size for the vectorized influence path; below it
#: the numpy call overhead exceeds the scalar loop it replaces (measured
#: crossover on the dense defaults is ~150 nodes).
VECTOR_MIN_NODES = 160

#: Minimum pre-verified frontier size for the vectorized resume seeding.
VECTOR_MIN_SEED_NODES = 24

#: Span epsilon shared with repro.utils.intervals (kept numerically equal;
#: imported lazily there to avoid a utils dependency in this leaf module).
_SPAN_EPS = 1e-9


#: Lazily bound (ExpansionState, SearchOutcome, SearchCounters, expand_knn)
#: from repro.core — imported on the first batch to avoid a module cycle.
_CORE = None


def _pure_median(values) -> float:
    """Median of a non-empty sequence without numpy (even-length: midpoint)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (float(ordered[mid - 1]) + float(ordered[mid])) / 2.0


class DialAbort(Exception):
    """Raised when a bucket-queue run cannot preserve heap settle order.

    Triggers the exact per-search fallback to the heap kernel; with the
    two-level queue this only happens when a bucket index overflows
    :data:`MAX_BUCKET_INDEX` (distances astronomically larger than the mean
    edge weight).

    Example::

        try:
            raise DialAbort("bucket overflow")
        except DialAbort as exc:
            print(exc)
    """


class DialSupport:
    """Per-weights-epoch quantization and numpy metadata of a CSR snapshot.

    Built lazily by :meth:`repro.network.csr.CSRGraph.dial_support` and
    cached until the snapshot's ``weights_epoch`` moves.  Holds:

    * ``usable`` / ``bucket_width`` — whether the bucket queue applies and
      the bucket width (the mean adjacency weight);
    * numpy mirrors of the numeric CSR columns (``None`` without numpy),
      which the vectorized influence-map path gathers over;
    * a reusable full-size ``float64`` distance scratch column
      (``+inf``-filled, reset by touched indices after each use);
    * ``heap_fallbacks`` — how many searches aborted to the heap path since
      this support was built (diagnostics and tests).

    Example::

        support = csr_snapshot(network).dial_support()
        print(support.usable, support.bucket_width)
    """

    __slots__ = (
        "epoch",
        "usable",
        "min_weight",
        "max_weight",
        "bucket_width",
        "heap_fallbacks",
        "np_indptr",
        "np_adj_node",
        "np_adj_weight",
        "np_inc_indptr",
        "np_inc_edge",
        "np_edge_weight",
        "np_edge_start",
        "np_edge_end",
        "_node_dist_scratch",
        "_node_count",
    )

    def __init__(self) -> None:
        self.epoch = -1
        self.usable = False
        self.min_weight = 0.0
        self.max_weight = 0.0
        self.bucket_width = 0.0
        self.heap_fallbacks = 0
        self.np_indptr = None
        self.np_adj_node = None
        self.np_adj_weight = None
        self.np_inc_indptr = None
        self.np_inc_edge = None
        self.np_edge_weight = None
        self.np_edge_start = None
        self.np_edge_end = None
        self._node_dist_scratch = None
        self._node_count = 0

    @property
    def has_numpy(self) -> bool:
        """True when the numpy column mirrors (and vector paths) exist."""
        return self.np_edge_weight is not None

    @classmethod
    def build(cls, csr) -> "DialSupport":
        """Derive the support for *csr* at its current weights epoch.

        Example::

            support = DialSupport.build(csr_snapshot(network))
        """
        support = cls()
        support.epoch = csr._weights_epoch
        support._node_count = len(csr.node_ids)
        adj_weight = csr.adj_weight
        np = optional_numpy()
        if np is not None:
            support.np_indptr = np.asarray(csr.indptr, dtype=np.int64)
            support.np_adj_node = np.asarray(csr.adj_node, dtype=np.int64)
            support.np_adj_weight = np.asarray(csr.adj_weight, dtype=np.float64)
            support.np_inc_indptr = np.asarray(csr.inc_indptr, dtype=np.int64)
            support.np_inc_edge = np.asarray(csr.inc_edge, dtype=np.int64)
            support.np_edge_weight = np.asarray(csr.edge_weight, dtype=np.float64)
            support.np_edge_start = np.asarray(csr.edge_start, dtype=np.int64)
            support.np_edge_end = np.asarray(csr.edge_end, dtype=np.int64)
            if len(adj_weight):
                support.min_weight = float(support.np_adj_weight.min())
                support.max_weight = float(support.np_adj_weight.max())
                # Median, not mean: results are identical for any positive
                # fixed width (settle order is quantization-independent), but
                # a handful of closed-road sentinel weights (CLOSED_EDGE_WEIGHT,
                # ~1e12) would drag a mean so high that every real distance
                # lands in bucket 0 and the kernel degrades to one big heap.
                support.bucket_width = float(np.median(support.np_adj_weight))
        elif len(adj_weight):  # pragma: no cover - exercised without numpy
            support.min_weight = float(min(adj_weight))
            support.max_weight = float(max(adj_weight))
            support.bucket_width = float(_pure_median(adj_weight))
        support.usable = support.bucket_width > 0.0
        return support

    def node_dist_scratch(self):
        """The reusable ``+inf``-filled distance column (numpy, lazy).

        Callers must restore every index they wrote to ``inf`` before
        returning (the vectorized influence path does so in a ``finally``).

        Example::

            scratch = support.node_dist_scratch()
            assert scratch is support.node_dist_scratch()   # reused
        """
        scratch = self._node_dist_scratch
        if scratch is None:
            np = optional_numpy()
            scratch = np.full(self._node_count, np.inf, dtype=np.float64)
            self._node_dist_scratch = scratch
        return scratch


def influence_spans_vectorized(
    csr,
    support: DialSupport,
    node_dist: Dict[int, float],
    radius: float,
) -> Dict[int, tuple]:
    """Endpoint-based influencing intervals of every edge, via numpy gathers.

    The vectorized core of
    :func:`repro.core.expansion.compute_influence_map` for a *finite*
    radius: the caller overlays the query's own edge afterwards.  The span
    arithmetic applies the identical IEEE operations as the scalar loop
    (``reach = radius - dist``, ``anchor = weight - reach``, the same
    comparisons), element-wise over the deduplicated incident edges, so the
    produced spans are byte-identical.

    Example::

        spans = influence_spans_vectorized(csr, support, {7: 0.0}, 10.0)
    """
    np = optional_numpy()
    count = len(node_dist)
    idx = np.fromiter(map(csr.node_index.__getitem__, node_dist.keys()), np.int64, count)
    dist = np.fromiter(node_dist.values(), np.float64, count)
    within = dist <= radius
    idx = idx[within]
    if idx.size == 0:
        return {}
    dist = dist[within]
    inc_indptr = support.np_inc_indptr
    starts = inc_indptr[idx]
    counts = inc_indptr[idx + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return {}
    cum = np.cumsum(counts)
    slots = np.repeat(starts - (cum - counts), counts) + np.arange(total)
    positions = np.unique(support.np_inc_edge[slots])

    dist_arr = support.node_dist_scratch()
    dist_arr[idx] = dist
    try:
        weight = support.np_edge_weight[positions]
        dist_start = dist_arr[support.np_edge_start[positions]]
        dist_end = dist_arr[support.np_edge_end[positions]]
    finally:
        dist_arr[idx] = np.inf

    reach_start = radius - dist_start
    reach_end = radius - dist_end
    low_high = np.where(weight < reach_start, weight, reach_start)
    anchor = weight - reach_end
    full_span = anchor <= low_high + _SPAN_EPS
    anchor_clamped = np.where(anchor > 0.0, anchor, 0.0)

    edge_ids = csr.edge_ids
    influences: Dict[int, tuple] = {}
    start_ok = (dist_start <= radius).tolist()
    end_ok = (dist_end <= radius).tolist()
    weight_list = weight.tolist()
    low_list = low_high.tolist()
    anchor_list = anchor_clamped.tolist()
    full_list = full_span.tolist()
    for i, position in enumerate(positions.tolist()):
        if start_ok[i]:
            if end_ok[i]:
                if full_list[i]:
                    spans = ((0.0, weight_list[i]),)
                else:
                    spans = ((0.0, low_list[i]), (anchor_list[i], weight_list[i]))
            else:
                spans = ((0.0, low_list[i]),)
        elif end_ok[i]:
            spans = ((anchor_list[i], weight_list[i]),)
        else:  # pragma: no cover - every scanned edge touches a verified node
            continue
        influences[edge_ids[position]] = spans
    return influences


def dial_expand_batch(
    network,
    edge_table,
    requests: Iterable,
    csr=None,
    counters=None,
) -> List:
    """Run a batch of expansion requests through the bucket-queue kernel.

    Each request is a :class:`repro.core.search.ExpansionRequest`; outcomes
    are returned in request order and are byte-identical to what
    :func:`repro.core.search.expand_knn` produces for the same arguments.
    All searches of the batch share one scratch set and one refreshed CSR
    snapshot; any search the quantization cannot serve exactly (see
    :class:`DialAbort`) transparently re-runs on the heap kernel.

    Example::

        from repro.core.search import ExpansionRequest, expand_knn_batch

        outcomes = expand_knn_batch(
            network, edge_table, [ExpansionRequest(k=2, query_location=loc)],
            kernel="dial",
        )
    """
    global _CORE
    if _CORE is None:
        from repro.core.expansion import ExpansionState
        from repro.core.search import SearchCounters, SearchOutcome, expand_knn

        _CORE = (ExpansionState, SearchOutcome, SearchCounters, expand_knn)
    SearchCounters, expand_knn = _CORE[2], _CORE[3]
    from repro.network.csr import csr_snapshot

    if csr is None:
        csr = csr_snapshot(network)
    if counters is None:
        counters = SearchCounters()
    support = csr.dial_support()
    outcomes = []
    if not support.usable:
        for request in requests:
            outcomes.append(_run_heap(expand_knn, network, edge_table, request, csr, counters))
        return outcomes
    scratch = csr.acquire_scratch()
    try:
        for request in requests:
            if request.fixed_radius is not None:
                # Fixed-radius (range) searches terminate on a pinned bound
                # instead of the shrinking k-NN radius; the quantized push
                # gating below assumes the latter, so these requests are
                # served by the exact heap kernel over the same shared
                # snapshot (identical outcomes, same batch).
                outcomes.append(
                    _run_heap(expand_knn, network, edge_table, request, csr, counters)
                )
                continue
            try:
                outcomes.append(
                    _dial_search(network, edge_table, request, csr, support, scratch, counters)
                )
            except DialAbort:
                support.heap_fallbacks += 1
                outcomes.append(
                    _run_heap(expand_knn, network, edge_table, request, csr, counters)
                )
    finally:
        scratch.release([])
    return outcomes


def _run_heap(expand_knn, network, edge_table, request, csr, counters):
    """Serve one request through the exact heap kernel (fallback path)."""
    return expand_knn(
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
        csr=csr,
        fixed_radius=request.fixed_radius,
    )


def _dial_search(network, edge_table, request, csr, support, scratch, counters):
    """One expansion over the bucket queue; raises DialAbort on anomalies.

    This mirrors :func:`repro.core.search.expand_knn` statement by
    statement — only the frontier structure differs — and MUST be kept in
    sync with it (the differential suites compare the two exactly).  See
    the module docstring for why the settle order is identical.
    """
    ExpansionState, SearchOutcome = _CORE[0], _CORE[1]

    k = request.k
    query_location = request.query_location
    source_node = request.source_node
    preverified = request.preverified
    barrier_candidates = request.barrier_candidates
    coverage_radius = request.coverage_radius

    if k < 1:
        raise InvalidQueryError(f"k must be >= 1, got {k}")
    if query_location is None and source_node is None:
        raise InvalidQueryError("expand_knn needs a query_location or a source_node")

    excluded = request.excluded_objects or _NO_EXCLUDED
    barriers = barrier_candidates or {}
    cand: Dict[int, float] = {}
    cand_get = cand.get
    for object_id, distance in request.candidates:
        if object_id not in excluded:
            previous = cand_get(object_id)
            if previous is None or distance < previous:
                cand[object_id] = distance
    radius = sorted(cand.values())[k - 1] if len(cand) >= k else _INF

    indptr = csr.indptr
    adj_node = csr.adj_node
    adj_eid = csr.adj_eid
    adj_weight = csr.adj_weight
    adj_forward = csr.adj_forward
    node_index = csr.node_index
    node_ids = csr.node_ids
    fractions_of = edge_table.edge_object_fractions
    fraction_cache_get = edge_table.fraction_cache.get

    best = scratch.best
    tentative = scratch.tentative
    settled = scratch.settled
    tparent = scratch.tentative_parent
    touched: List[int] = []

    # The bucket queue: bucket id -> [(distance, node index), ...], drained
    # in ascending id order through a heap of the active ids.  Keys are the
    # floor-divided distances (floats): one interpreter op per push, and any
    # monotone fixed-width quantization preserves the settle-order argument.
    delta = support.bucket_width
    buckets: Dict[int, List[Tuple[float, int]]] = {}
    buckets_get = buckets.get
    border: List[int] = []
    settled_new: List[int] = []

    barrier_by_idx: Dict[int, Iterable] = {}
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
    seeds: List[Tuple[int, float]] = []

    try:
        # --------------------------------------------------------------
        # seeding (identical to expand_knn; pushes go to buckets)
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

        for v, nd in seeds:
            if not settled[v]:
                heap_pushes += 1
                if nd < radius and nd < tentative[v]:
                    if tentative[v] == _INF:
                        touched.append(v)
                    tentative[v] = nd
                    tparent[v] = -1
                    b = nd // delta
                    if b > MAX_BUCKET_INDEX:
                        raise DialAbort("bucket overflow while seeding")
                    entries = buckets_get(b)
                    if entries is None:
                        buckets[b] = [(nd, v)]
                        heappush(border, b)
                    else:
                        entries.append((nd, v))

        if (
            pre_entries
            and support.has_numpy
            and len(pre_entries) >= VECTOR_MIN_SEED_NODES
        ):
            extra = _vector_seed(
                pre_entries,
                request,
                csr,
                support,
                scratch,
                touched,
                buckets,
                border,
                cand,
                radius,
                excluded,
                edge_table,
            )
            edges_scanned += extra[0]
            objects_considered += extra[1]
            heap_pushes += extra[2]
            if extra[3]:
                radius_dirty = True
        elif pre_entries:
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
                        if nd < radius and nd < tentative[v]:
                            if tentative[v] == _INF:
                                touched.append(v)
                            tentative[v] = nd
                            tparent[v] = u
                            b = nd // delta
                            if b > MAX_BUCKET_INDEX:
                                raise DialAbort("bucket overflow while seeding")
                            entries = buckets_get(b)
                            if entries is None:
                                buckets[b] = [(nd, v)]
                                heappush(border, b)
                            else:
                                entries.append((nd, v))

        # --------------------------------------------------------------
        # main loop: drain buckets in ascending id.  The *current* bucket
        # is heapified and drained as a min-heap, so a relaxation landing
        # inside it (``nd // delta == current``; never below, since ``nd >=
        # d`` and the floor is monotone) is enqueued in exact heap order —
        # which is what frees the bucket width from the min-edge-weight
        # constraint of textbook Dial.
        # --------------------------------------------------------------
        frontier: List[Tuple[float, int]] = []
        current = -1.0
        while True:
            if not frontier:
                if not border:
                    break
                current = heappop(border)
                frontier = buckets.pop(current)
                heapify(frontier)
            d, u = heappop(frontier)
            if settled[u] or d > tentative[u]:
                continue
            if radius_dirty:
                radius = sorted(cand.values())[k - 1] if len(cand) >= k else _INF
                radius_dirty = False
            if d >= radius:
                break
            settled[u] = 1
            best[u] = d
            settled_new.append(u)
            nodes_expanded += 1
            barrier = barrier_by_idx.get(u)
            if barrier is not None:
                for object_id, from_node_distance in barrier:
                    if radius_dirty:
                        radius = (
                            sorted(cand.values())[k - 1]
                            if len(cand) >= k
                            else _INF
                        )
                        radius_dirty = False
                    total = d + from_node_distance
                    if total >= radius:
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
                    if nd < radius and nd < tentative[v]:
                        if tentative[v] == _INF:
                            touched.append(v)
                        tentative[v] = nd
                        tparent[v] = u
                        b = nd // delta
                        if b <= current:
                            # Landed inside the bucket being drained: keep
                            # exact order through the current heap.
                            heappush(frontier, (nd, v))
                        elif b > MAX_BUCKET_INDEX:
                            raise DialAbort("bucket overflow")
                        else:
                            try:
                                buckets[b].append((nd, v))
                            except KeyError:
                                buckets[b] = [(nd, v)]
                                heappush(border, b)

        # --------------------------------------------------------------
        # result assembly (identical to expand_knn)
        # --------------------------------------------------------------
        node_dist: Dict[int, float] = dict(preverified) if preverified else {}
        preverified_parent = request.preverified_parent
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
        for index in touched:
            best[index] = _INF
            tentative[index] = _INF
            settled[index] = 0
            tparent[index] = -1

    # Counters land only on success: an aborted run re-counts through the
    # heap fallback, so adding here as well would double-bill the search.
    counters.searches += 1
    counters.nodes_expanded += nodes_expanded
    counters.edges_scanned += edges_scanned
    counters.objects_considered += objects_considered
    counters.heap_pushes += heap_pushes

    if radius_dirty:
        radius = sorted(cand.values())[k - 1] if len(cand) >= k else _INF
    top = sorted(zip(cand.values(), cand.keys()))[:k]
    state = ExpansionState(node_dist=node_dist, parent=parent)
    return SearchOutcome(
        neighbors=[(oid, d) for d, oid in top],
        radius=radius,
        state=state,
    )


def _vector_seed(
    pre_entries,
    request,
    csr,
    support,
    scratch,
    touched,
    buckets,
    border,
    cand,
    radius,
    excluded,
    edge_table,
):
    """Vectorized resume seeding: the pre-verified frontier via numpy gathers.

    Replaces the per-slot Python walk over the pre-verified nodes'
    adjacency with array operations over the CSR column mirrors:

    * coverage tests and tentative distances are computed element-wise with
      the identical IEEE expressions of the scalar loop;
    * only the *non-covered* (mark) slots fall back to the scalar
      object-offer loop — on resume-heavy ticks almost everything is
      covered, which is where the win comes from;
    * the frontier relaxation picks, per neighbor, the first slot achieving
      the minimal tentative distance (stable lexsort), exactly the
      first-strict-improvement winner of the sequential loop, so parents
      and bucket contents match the scalar path (minus stale duplicate
      entries, which both kernels skip on pop).

    Candidate offers during seeding are order-independent — the radius is
    a constant here and offers min-accumulate — which is what makes this
    reordering exact.  Returns ``(edges_scanned, objects_considered,
    heap_pushes, radius_dirty)``.
    """
    np = optional_numpy()
    count = len(pre_entries)
    pre_idx = np.fromiter((entry[0] for entry in pre_entries), np.int64, count)
    pre_dist = np.fromiter((entry[1] for entry in pre_entries), np.float64, count)

    indptr = support.np_indptr
    starts = indptr[pre_idx]
    counts = indptr[pre_idx + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return 0, 0, 0, False
    cum = np.cumsum(counts)
    slots = np.repeat(starts - (cum - counts), counts) + np.arange(total)
    u_rep = np.repeat(pre_idx, counts)
    du_rep = np.repeat(pre_dist, counts)
    w = support.np_adj_weight[slots]
    v = support.np_adj_node[slots]

    dist_arr = support.node_dist_scratch()
    dist_arr[pre_idx] = pre_dist
    try:
        best_v = dist_arr[v]
    finally:
        dist_arr[pre_idx] = np.inf
    settled_v = best_v != np.inf

    coverage_radius = request.coverage_radius
    if coverage_radius is not None:
        # Same expression tree as the scalar loop; non-settled slots hold
        # inf in best_v, making `farthest` inf and the test False.
        farthest = (du_rep + best_v + w) / 2.0
        covered = settled_v & (farthest <= coverage_radius + 1e-9)
        scan = ~covered
    else:
        scan = np.ones(total, dtype=bool)
    edges_scanned = int(scan.sum())

    # Object offers on the non-covered (mark) slots: scalar loop, identical
    # arithmetic; offer order is irrelevant during seeding (constant radius,
    # min-accumulating candidates).
    objects_considered = 0
    radius_dirty = False
    if edges_scanned:
        adj_eid = csr.adj_eid
        adj_forward = csr.adj_forward
        fractions_of = edge_table.edge_object_fractions
        fraction_cache_get = edge_table.fraction_cache.get
        cand_get = cand.get
        scan_slots = slots[scan].tolist()
        scan_du = du_rep[scan].tolist()
        scan_w = w[scan].tolist()
        for slot, settled_distance, slot_w in zip(scan_slots, scan_du, scan_w):
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
                        offer = settled_distance + fraction * slot_w
                        if offer > radius:
                            continue  # can never reach the top-k
                        previous = cand_get(object_id)
                        if previous is None or offer < previous:
                            cand[object_id] = offer
                            if offer < radius:
                                radius_dirty = True
                else:
                    for object_id, fraction in pairs:
                        offer = settled_distance + (1.0 - fraction) * slot_w
                        if offer > radius:
                            continue  # can never reach the top-k
                        previous = cand_get(object_id)
                        if previous is None or offer < previous:
                            cand[object_id] = offer
                            if offer < radius:
                                radius_dirty = True

    # Frontier relaxation: group-min per neighbor, first-slot tie-break.
    relax = ~settled_v
    heap_pushes = int(relax.sum())
    if heap_pushes:
        cand_v = v[relax]
        cand_nd = du_rep[relax] + w[relax]
        cand_u = u_rep[relax]
        order = np.lexsort((cand_nd, cand_v))
        v_sorted = cand_v[order]
        first = np.empty(v_sorted.size, dtype=bool)
        first[0] = True
        np.not_equal(v_sorted[1:], v_sorted[:-1], out=first[1:])
        win_v = v_sorted[first].tolist()
        win_nd = cand_nd[order][first].tolist()
        win_u = cand_u[order][first].tolist()

        tentative = scratch.tentative
        tparent = scratch.tentative_parent
        delta = support.bucket_width
        buckets_get = buckets.get
        for node, nd, via in zip(win_v, win_nd, win_u):
            if nd < radius and nd < tentative[node]:
                if tentative[node] == _INF:
                    touched.append(node)
                tentative[node] = nd
                tparent[node] = via
                b = nd // delta
                if b > MAX_BUCKET_INDEX:
                    raise DialAbort("bucket overflow while seeding")
                entries = buckets_get(b)
                if entries is None:
                    buckets[b] = [(nd, node)]
                    heappush(border, b)
                else:
                    entries.append((nd, node))
    return edges_scanned, objects_considered, heap_pushes, radius_dirty
