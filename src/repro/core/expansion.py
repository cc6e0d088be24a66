"""Expansion-tree state and influence-region computation.

The expansion tree of a query q (Section 3 of the paper) contains the
shortest path from q to every network node whose distance is at most
``q.kNN_dist``.  We represent it as two dictionaries:

* ``node_dist`` — the exact network distance of every verified node, and
* ``parent`` — the predecessor of each verified node on its shortest path
  (``None`` for nodes reached directly from the query's own edge).

The tree's *marks* (the points at distance exactly ``kNN_dist`` on partially
covered edges) are not materialised: they are implied by ``node_dist`` and
the radius, and the influencing intervals derived from them are computed by
:func:`compute_influence_map`.

The pruning operations used by IMA's incremental maintenance (dropping
nodes, re-rooting after a query movement, shrinking to a smaller radius)
are methods of :class:`ExpansionState`.  Each method documents why the
distances it keeps remain *exact*, which is the correctness core of the
incremental algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.network.csr import CSRGraph, csr_snapshot
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.utils.intervals import (
    SPAN_EPS,
    Spans,
    influence_spans,
    merge_spans,
    point_spans,
)


@dataclass
class ExpansionState:
    """Verified node distances and shortest-path tree of one query."""

    node_dist: Dict[int, float] = field(default_factory=dict)
    parent: Dict[int, Optional[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.node_dist)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.node_dist

    def distance(self, node_id: int) -> float:
        """Distance of a verified node, or ``inf`` when not verified."""
        return self.node_dist.get(node_id, float("inf"))

    def copy(self) -> "ExpansionState":
        return ExpansionState(dict(self.node_dist), dict(self.parent))

    def clear(self) -> None:
        self.node_dist.clear()
        self.parent.clear()

    # ------------------------------------------------------------------
    # tree structure
    # ------------------------------------------------------------------
    def children_map(self) -> Dict[Optional[int], List[int]]:
        """Map each node (or ``None`` for the root) to its children."""
        children: Dict[Optional[int], List[int]] = {}
        for node_id, parent_id in self.parent.items():
            children.setdefault(parent_id, []).append(node_id)
        return children

    def subtree_nodes(self, root: int) -> Set[int]:
        """All verified nodes in the subtree rooted at *root* (inclusive).

        Returns an empty set when *root* is not a verified node.
        """
        if root not in self.node_dist:
            return set()
        children = self.children_map()
        result: Set[int] = set()
        stack = [root]
        while stack:
            node_id = stack.pop()
            if node_id in result:
                continue
            result.add(node_id)
            stack.extend(children.get(node_id, ()))
        return result

    def tree_edge_child(self, start: int, end: int) -> Optional[int]:
        """If the edge *start* - *end* is a tree edge, its child endpoint, else None.

        An edge is a tree edge when one endpoint is the parent of the other
        in the shortest-path tree.
        """
        if self.parent.get(end, _MISSING) == start:
            return end
        if self.parent.get(start, _MISSING) == end:
            return start
        return None

    def root_children(self) -> List[int]:
        """Nodes reached directly from the query's own edge (parent None)."""
        return [node_id for node_id, parent_id in self.parent.items() if parent_id is None]

    # ------------------------------------------------------------------
    # pruning operations (IMA maintenance)
    # ------------------------------------------------------------------
    def prune_nodes(self, nodes: Iterable[int]) -> int:
        """Remove *nodes* (and nothing else) from the state.

        Callers pass complete subtrees; any child left behind whose parent
        was removed is re-parented to ``None`` only if it is kept on purpose
        (this does not happen for complete-subtree pruning, but defensive
        re-parenting keeps the structure consistent if it ever does).
        Returns the number of nodes removed.
        """
        removed = 0
        node_set = set(nodes)
        for node_id in node_set:
            if node_id in self.node_dist:
                del self.node_dist[node_id]
                self.parent.pop(node_id, None)
                removed += 1
        # Defensive re-parenting of orphans.
        for node_id, parent_id in list(self.parent.items()):
            if parent_id is not None and parent_id not in self.node_dist:
                self.parent[node_id] = None
        return removed

    def keep_only(self, nodes: Iterable[int]) -> None:
        """Keep exactly the given verified nodes, pruning everything else."""
        keep = set(nodes) & set(self.node_dist)
        self.node_dist = {n: d for n, d in self.node_dist.items() if n in keep}
        self.parent = {
            n: (p if p in keep else None) for n, p in self.parent.items() if n in keep
        }

    def shrink_to_radius(self, radius: float) -> int:
        """Drop verified nodes farther than *radius*; return how many."""
        if radius == float("inf"):
            return 0
        to_remove = [n for n, d in self.node_dist.items() if d > radius + 1e-12]
        return self.prune_nodes(to_remove)

    def reroot_subtree(self, new_root: int, new_root_distance: float) -> None:
        """Keep only the subtree of *new_root* and re-offset its distances.

        Used when a query moves to a new position q' on a tree edge: the old
        shortest paths to the nodes below the far endpoint of that edge pass
        through q', so for those nodes the path suffix starting at q' is
        still optimal (sub-paths of shortest paths are shortest paths) and
        the new distance is ``old_distance - old(new_root) + new_root_distance``.
        """
        if new_root not in self.node_dist:
            self.clear()
            return
        offset = new_root_distance - self.node_dist[new_root]
        keep = self.subtree_nodes(new_root)
        self.keep_only(keep)
        for node_id in keep:
            self.node_dist[node_id] += offset
        self.parent[new_root] = None

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def footprint_bytes(self) -> int:
        """Rough memory footprint used by the Figure-18 experiments.

        Counts one (node id, distance, parent) record per verified node at
        24 bytes, mirroring how the paper accounts for expansion-tree size
        rather than measuring CPython object overhead.
        """
        return 24 * len(self.node_dist)


_MISSING = object()


def compute_influence_maps(
    network: RoadNetwork,
    jobs: List[tuple],
    csr: Optional["CSRGraph"] = None,
) -> Dict[object, Dict[int, Spans]]:
    """Batched :func:`compute_influence_map`: one call per flushed tick.

    *jobs* is a list of ``(key, state, radius, query_location)`` tuples; the
    result maps each *key* to its influence map.  One snapshot refresh is
    shared by the whole batch.
    """
    if csr is None:
        csr = csr_snapshot(network)
    return {
        key: compute_influence_map(network, state, radius, query_location, csr=csr)
        for key, state, radius, query_location in jobs
    }


def compute_influence_map(
    network: RoadNetwork,
    state: ExpansionState,
    radius: float,
    query_location: Optional[NetworkLocation] = None,
    csr: Optional["CSRGraph"] = None,
) -> Dict[int, Spans]:
    """Influencing intervals of every edge affected by a query.

    An edge affects the query when some point on it lies within *radius*.
    All such edges have at least one endpoint among the verified nodes (any
    point within the radius is reached through one of its edge's endpoints,
    whose distance is then also within the radius), so it suffices to scan
    the edges incident to verified nodes, plus the query's own edge.

    Distances of points are computed with the ``min`` formula over the two
    endpoint distances; for one-way edges this may overestimate the
    influence region (never underestimate it), which keeps update filtering
    conservative and therefore correct.

    The edge walk runs over the CSR snapshot's incidence columns (pass a
    pre-refreshed *csr* to skip the per-call staleness check).
    """
    if csr is None:
        csr = csr_snapshot(network)
    node_dist = state.node_dist
    node_index = csr.node_index
    node_ids = csr.node_ids
    inc_indptr = csr.inc_indptr
    inc_edge = csr.inc_edge
    edge_ids = csr.edge_ids
    edge_weight = csr.edge_weight
    edge_start = csr.edge_start
    edge_end = csr.edge_end
    node_dist_get = node_dist.get
    inf = float("inf")

    influences: Dict[int, Spans] = {}
    scratch = csr.acquire_edge_scratch()
    seen = scratch.seen
    touched: List[int] = []
    finite_radius = radius != inf
    try:
        for node_id, dist in node_dist.items():
            if dist > radius:
                continue
            u = node_index[node_id]
            for slot in range(inc_indptr[u], inc_indptr[u + 1]):
                position = inc_edge[slot]
                if seen[position]:
                    continue
                seen[position] = 1
                touched.append(position)
                weight = edge_weight[position]
                dist_start = node_dist_get(node_ids[edge_start[position]], inf)
                dist_end = node_dist_get(node_ids[edge_end[position]], inf)
                if finite_radius:
                    # influence_spans() inlined: one span grows from each
                    # endpoint whose distance is within the radius; the two
                    # merge into a full-edge span when they meet.
                    if dist_start <= radius:
                        reach = radius - dist_start
                        low_piece = (0.0, weight if weight < reach else reach)
                        if dist_end <= radius:
                            reach = radius - dist_end
                            anchor = weight - reach
                            if anchor <= low_piece[1] + SPAN_EPS:
                                spans: Spans = ((0.0, weight),)
                            else:
                                spans = (
                                    low_piece,
                                    (anchor if anchor > 0.0 else 0.0, weight),
                                )
                        else:
                            spans = (low_piece,)
                    elif dist_end <= radius:
                        reach = radius - dist_end
                        anchor = weight - reach
                        spans = ((anchor if anchor > 0.0 else 0.0, weight),)
                    else:
                        continue
                else:
                    spans = influence_spans(weight, dist_start, dist_end, radius)
                    if not spans:
                        continue
                influences[edge_ids[position]] = spans
    finally:
        scratch.release(touched)

    if query_location is not None:
        # The query's own edge: its point spans merged with the endpoint ones.
        position = csr.index_of_edge(query_location.edge_id)
        weight = edge_weight[position]
        own = point_spans(weight, query_location.fraction * weight, radius)
        endpoint_based = influence_spans(
            weight,
            node_dist_get(node_ids[edge_start[position]], inf),
            node_dist_get(node_ids[edge_end[position]], inf),
            radius,
        )
        combined = merge_spans(own, endpoint_based)
        if combined:
            influences[query_location.edge_id] = combined
    return influences


def edge_offset(csr: "CSRGraph", location: NetworkLocation) -> float:
    """Travel-cost offset of *location* from its edge's start node.

    The helper behind the monitors' update filtering: reads the weight off
    the CSR columns of the tick's snapshot.
    """
    return location.fraction * csr.edge_weight[csr.index_of_edge(location.edge_id)]


def object_distance_csr(
    csr: "CSRGraph",
    state: ExpansionState,
    location: NetworkLocation,
    query_location: Optional[NetworkLocation] = None,
) -> float:
    """Distance of an object location using the verified node distances.

    Returns the minimum of the distances through the two endpoints of the
    object's edge (infinite when neither endpoint is verified) and, when the
    object shares the query's edge, the direct along-edge distance.  For
    objects inside the influence region this value is exact (see the
    incoming-object argument in :mod:`repro.core.ima`); outside it, it is an
    upper bound.  The edge endpoints and weight come from the CSR columns.
    """
    position = csr.index_of_edge(location.edge_id)
    weight = csr.edge_weight[position]
    node_ids = csr.node_ids
    node_dist_get = state.node_dist.get
    inf = float("inf")
    offset = location.fraction * weight
    dist_start = node_dist_get(node_ids[csr.edge_start[position]], inf)
    dist_end = node_dist_get(node_ids[csr.edge_end[position]], inf)
    via_start = dist_start + offset if dist_start != inf else inf
    via_end = dist_end + (weight - offset) if dist_end != inf else inf
    distance = via_start if via_start < via_end else via_end
    if query_location is not None and query_location.edge_id == location.edge_id:
        direct = abs(location.fraction - query_location.fraction) * weight
        if direct < distance:
            distance = direct
    return distance
