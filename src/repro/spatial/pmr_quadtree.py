"""PMR quadtree over road-network edges (the paper's spatial index *SI*).

The monitoring server must map raw ``(x, y)`` coordinates arriving in object
and query updates to the network edge that contains them (Section 3 of the
paper).  The paper uses a PMR quadtree [Hoel & Samet 1991]: a quadtree over
the workspace whose leaf quads store the ids of the edges (line segments)
intersecting them.  A leaf splits when the number of stored edges exceeds a
*splitting threshold*; unlike a plain bucket quadtree the threshold is only
applied at insertion time, so existing leaves may hold more edges than the
threshold (this bounds the depth for degenerate inputs).

The index supports:

* ``insert(edge_id, segment)`` — add an edge.
* ``remove(edge_id)`` — delete an edge (needed when networks are edited).
* ``find_edge(point)`` / ``nearest_edge(point)`` — locate the edge containing
  (or closest to) a coordinate pair, the operation the monitoring server
  performs for every incoming update.
* ``edges_in_rect(rect)`` — range query, used by generators and diagnostics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import SpatialIndexError
from repro.spatial.geometry import _EPS, Point, Rect, Segment
from repro.utils import optional_numpy

#: Default number of edges a leaf holds before it splits on insertion.
DEFAULT_SPLIT_THRESHOLD = 8

#: Maximum tree depth; quads smaller than workspace / 2**depth never split.
DEFAULT_MAX_DEPTH = 16


def _bounds(segment: Segment) -> Tuple[float, float, float, float]:
    """``(min_x, min_y, max_x, max_y)`` of *segment*, without building a Rect."""
    start, end = segment.start, segment.end
    lo_x, hi_x = (start.x, end.x) if start.x <= end.x else (end.x, start.x)
    lo_y, hi_y = (start.y, end.y) if start.y <= end.y else (end.y, start.y)
    return lo_x, lo_y, hi_x, hi_y


def _candidate_children(
    children: Tuple["_QuadNode", ...], box: Tuple[float, float, float, float]
) -> List["_QuadNode"]:
    """The children a segment's :func:`_bounds` *box*, widened by ``_EPS``, meets.

    The segment must meet the parent quad.  Meeting a child is then a
    necessary condition for :meth:`Segment.intersects_rect` on it: that
    test accepts an endpoint within ``_EPS`` of the closed rectangle (the
    same widened comparisons as here) and otherwise requires the exact
    boxes to overlap, which implies this.  A child shares two sides with
    its parent, which the segment's box already meets, so only the two
    inner sides — the parent's centre lines — need comparing: four float
    comparisons per quad, and the exact test runs on candidates only.
    """
    lo_x, lo_y, hi_x, hi_y = box
    nw, ne, sw, se = children
    cx, cy = nw.rect.max_x, nw.rect.min_y
    west = lo_x <= cx + _EPS
    east = cx - _EPS <= hi_x
    candidates = []
    if cy - _EPS <= hi_y:
        if west:
            candidates.append(nw)
        if east:
            candidates.append(ne)
    if lo_y <= cy + _EPS:
        if west:
            candidates.append(sw)
        if east:
            candidates.append(se)
    return candidates


class _QuadNode:
    """A node of the PMR quadtree (leaf or internal)."""

    __slots__ = ("rect", "depth", "edge_ids", "children")

    def __init__(self, rect: Rect, depth: int) -> None:
        self.rect = rect
        self.depth = depth
        self.edge_ids: List[int] = []
        self.children: Optional[Tuple["_QuadNode", ...]] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class PMRQuadtree:
    """PMR quadtree mapping 2-D coordinates to road-network edges.

    Example::

        index = PMRQuadtree(network.bounding_box(margin=1.0))
        for edge in network.edges():
            index.insert(edge.edge_id, network.edge_segment(edge.edge_id))
        edge_id, distance = index.nearest_edge(Point(120.0, 80.0))
    """

    def __init__(
        self,
        bounds: Rect,
        split_threshold: int = DEFAULT_SPLIT_THRESHOLD,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ) -> None:
        """Create an empty index covering *bounds*.

        Args:
            bounds: workspace rectangle; inserting an edge outside it raises.
            split_threshold: leaf capacity that triggers a split on insert.
            max_depth: hard depth limit protecting against degenerate input.
        """
        if split_threshold < 1:
            raise SpatialIndexError(f"split threshold must be >= 1, got {split_threshold}")
        if max_depth < 1:
            raise SpatialIndexError(f"max depth must be >= 1, got {max_depth}")
        self._root = _QuadNode(bounds, depth=0)
        self._split_threshold = split_threshold
        self._max_depth = max_depth
        self._segments: Dict[int, Segment] = {}

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, edge_id: int) -> bool:
        return edge_id in self._segments

    @property
    def bounds(self) -> Rect:
        """The workspace rectangle this index covers."""
        return self._root.rect

    @property
    def split_threshold(self) -> int:
        return self._split_threshold

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def insert(self, edge_id: int, segment: Segment) -> None:
        """Insert *segment* under *edge_id*.

        Raises:
            SpatialIndexError: if the id is already present or the segment
                lies entirely outside the workspace bounds.
        """
        if edge_id in self._segments:
            raise SpatialIndexError(f"edge {edge_id} is already indexed")
        if not segment.intersects_rect(self._root.rect):
            raise SpatialIndexError(
                f"edge {edge_id} lies outside the index bounds {self._root.rect}"
            )
        self._segments[edge_id] = segment
        self._insert_into(self._root, edge_id, segment)

    def bulk_load(self, edges: Iterable[Tuple[int, Segment]]) -> None:
        """Insert many edges, one :meth:`insert` each, in iteration order.

        The tree's shape depends on insertion order (a leaf splits on the
        insert that overflows it), so loading the same edges in the same
        order always yields the same tree.
        """
        for edge_id, segment in edges:
            self.insert(edge_id, segment)

    def remove(self, edge_id: int) -> None:
        """Remove an edge from the index.

        Raises:
            SpatialIndexError: if the edge is not indexed.
        """
        segment = self._segments.pop(edge_id, None)
        if segment is None:
            raise SpatialIndexError(f"edge {edge_id} is not indexed")
        self._remove_from(self._root, edge_id, segment)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def find_edge(self, point: Point, tolerance: float = 1e-6) -> Optional[int]:
        """Return the id of an edge passing through *point* (within tolerance).

        If several edges pass within the tolerance (e.g. at an intersection
        node) the closest one is returned.  Returns ``None`` when no edge is
        within the tolerance; callers that must always resolve a location
        should use :meth:`nearest_edge` instead.
        """
        best_id: Optional[int] = None
        best_dist = tolerance
        for edge_id in self._candidate_edges(point):
            dist = self._segments[edge_id].distance_to_point(point)
            if dist <= best_dist:
                best_dist = dist
                best_id = edge_id
        return best_id

    def nearest_edge(self, point: Point) -> Tuple[int, float]:
        """Return ``(edge_id, distance)`` of the edge closest to *point*.

        Performs a best-first traversal of the quadtree so that only quads
        that can contain a closer edge are visited.

        Raises:
            SpatialIndexError: if the index is empty.
        """
        if not self._segments:
            raise SpatialIndexError("nearest_edge on an empty index")

        best_id: Optional[int] = None
        best_dist = float("inf")
        stack: List[_QuadNode] = [self._root]
        while stack:
            node = stack.pop()
            if self._rect_min_distance(node.rect, point) >= best_dist:
                continue
            if node.is_leaf:
                for edge_id in node.edge_ids:
                    dist = self._segments[edge_id].distance_to_point(point)
                    if dist < best_dist:
                        best_dist = dist
                        best_id = edge_id
            else:
                assert node.children is not None
                # Visit children nearest-first for better pruning.
                ordered = sorted(
                    node.children,
                    key=lambda child: self._rect_min_distance(child.rect, point),
                    reverse=True,
                )
                stack.extend(ordered)
        assert best_id is not None
        return best_id, best_dist

    def nearest_edges_bulk(self, points: Sequence[Point]) -> List[Tuple[int, float]]:
        """Vectorized :meth:`nearest_edge` for a batch of points.

        Points are grouped by the leaf quad that contains them; each group is
        matched against the leaf's edges in one numpy broadcast.  A per-point
        answer is exact whenever the best in-leaf distance does not exceed
        the point's distance to the leaf boundary (every edge *not* stored in
        the leaf misses the leaf entirely, so it lies at least that far
        away); the remaining points fall back to the exact best-first search.
        Without numpy the method degrades to a plain per-point loop.

        Raises:
            SpatialIndexError: if the index is empty.
        """
        if not self._segments:
            raise SpatialIndexError("nearest_edges_bulk on an empty index")
        np = optional_numpy() if len(points) >= 4 else None
        if np is None:
            return [self.nearest_edge(point) for point in points]

        results: List[Optional[Tuple[int, float]]] = [None] * len(points)
        groups: Dict[int, List[int]] = {}
        leaves: Dict[int, _QuadNode] = {}
        root = self._root
        for position, point in enumerate(points):
            node = root
            if not node.rect.contains_point(point):
                continue  # outside the workspace: exact fallback below
            while not node.is_leaf:
                assert node.children is not None
                for child in node.children:
                    if child.rect.contains_point(point):
                        node = child
                        break
                else:  # pragma: no cover - quadrants tile the parent
                    break
            if node.is_leaf and node.edge_ids:
                key = id(node)
                groups.setdefault(key, []).append(position)
                leaves[key] = node

        for key, positions in groups.items():
            leaf = leaves[key]
            segments = [self._segments[edge_id] for edge_id in leaf.edge_ids]
            sx = np.array([seg.start.x for seg in segments])
            sy = np.array([seg.start.y for seg in segments])
            dx = np.array([seg.end.x - seg.start.x for seg in segments])
            dy = np.array([seg.end.y - seg.start.y for seg in segments])
            norm_sq = dx * dx + dy * dy
            safe_norm = np.where(norm_sq > 0.0, norm_sq, 1.0)
            px = np.array([points[p].x for p in positions])[:, None]
            py = np.array([points[p].y for p in positions])[:, None]
            t = ((px - sx) * dx + (py - sy) * dy) / safe_norm
            t = np.clip(np.where(norm_sq > 0.0, t, 0.0), 0.0, 1.0)
            cx = sx + t * dx
            cy = sy + t * dy
            dist = np.hypot(px - cx, py - cy)
            best_column = np.argmin(dist, axis=1)
            best_dist = dist[np.arange(len(positions)), best_column]
            rect = leaf.rect
            for row, position in enumerate(positions):
                point = points[position]
                border = min(
                    point.x - rect.min_x,
                    rect.max_x - point.x,
                    point.y - rect.min_y,
                    rect.max_y - point.y,
                )
                if best_dist[row] <= border:
                    results[position] = (
                        leaf.edge_ids[int(best_column[row])],
                        float(best_dist[row]),
                    )

        return [
            result if result is not None else self.nearest_edge(points[position])
            for position, result in enumerate(results)
        ]

    def edges_in_rect(self, rect: Rect) -> Set[int]:
        """Return the ids of all edges intersecting *rect*."""
        result: Set[int] = set()
        stack: List[_QuadNode] = [self._root]
        while stack:
            node = stack.pop()
            if not node.rect.intersects(rect):
                continue
            if node.is_leaf:
                for edge_id in node.edge_ids:
                    if self._segments[edge_id].intersects_rect(rect):
                        result.add(edge_id)
            else:
                assert node.children is not None
                stack.extend(node.children)
        return result

    def segment_of(self, edge_id: int) -> Segment:
        """Return the indexed segment for *edge_id*.

        Raises:
            SpatialIndexError: if the edge is not indexed.
        """
        try:
            return self._segments[edge_id]
        except KeyError as exc:
            raise SpatialIndexError(f"edge {edge_id} is not indexed") from exc

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def leaf_count(self) -> int:
        """Number of leaf quads (used by tests and memory accounting)."""
        return sum(1 for node in self._iter_nodes() if node.is_leaf)

    def depth(self) -> int:
        """Maximum depth of any node."""
        return max((node.depth for node in self._iter_nodes()), default=0)

    def statistics(self) -> Dict[str, float]:
        """Summary statistics useful for memory accounting and debugging."""
        leaves = [node for node in self._iter_nodes() if node.is_leaf]
        entries = sum(len(node.edge_ids) for node in leaves)
        return {
            "edges": float(len(self._segments)),
            "leaves": float(len(leaves)),
            "entries": float(entries),
            "max_depth": float(self.depth()),
            "avg_entries_per_leaf": entries / len(leaves) if leaves else 0.0,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _iter_nodes(self) -> Iterator[_QuadNode]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if node.children is not None:
                stack.extend(node.children)

    def _candidate_edges(self, point: Point) -> List[int]:
        """Edges stored in the leaf quad covering *point* (empty if outside)."""
        node = self._root
        if not node.rect.contains_point(point):
            return []
        while not node.is_leaf:
            assert node.children is not None
            for child in node.children:
                if child.rect.contains_point(point):
                    node = child
                    break
            else:  # pragma: no cover - defensive, quadrants tile the parent
                return []
        return list(node.edge_ids)

    def _insert_into(self, node: _QuadNode, edge_id: int, segment: Segment) -> None:
        """Append *edge_id* to every leaf under *node* that *segment* meets.

        *node* itself must already be known to meet the segment.  The
        descent is iterative, and a child is tested with the exact
        :meth:`Segment.intersects_rect` only when it is one of
        :func:`_candidate_children`; the leaves reached are those of the
        plain recursive descent.
        """
        box = _bounds(segment)
        threshold, max_depth = self._split_threshold, self._max_depth
        stack = [node]
        while stack:
            node = stack.pop()
            children = node.children
            if children is None:
                node.edge_ids.append(edge_id)
                if len(node.edge_ids) > threshold and node.depth < max_depth:
                    self._split(node)
                continue
            for child in _candidate_children(children, box):
                if segment.intersects_rect(child.rect):
                    stack.append(child)

    def _split(self, node: _QuadNode) -> None:
        children = node.children = tuple(
            _QuadNode(rect, node.depth + 1) for rect in node.rect.quadrants()
        )
        edge_ids = node.edge_ids
        node.edge_ids = []
        segments = self._segments
        for edge_id in edge_ids:
            segment = segments[edge_id]
            for child in _candidate_children(children, _bounds(segment)):
                if segment.intersects_rect(child.rect):
                    child.edge_ids.append(edge_id)
        # PMR semantics: the split is *not* applied recursively, children may
        # temporarily exceed the threshold; they split on their own next insert.

    def _remove_from(self, node: _QuadNode, edge_id: int, segment: Segment) -> None:
        if not segment.intersects_rect(node.rect):
            return
        if node.is_leaf:
            try:
                node.edge_ids.remove(edge_id)
            except ValueError:
                pass
            return
        assert node.children is not None
        for child in node.children:
            self._remove_from(child, edge_id, segment)
        # Collapse children that became empty leaves to keep the tree tidy.
        if all(child.is_leaf and not child.edge_ids for child in node.children):
            node.children = None
            node.edge_ids = []

    @staticmethod
    def _rect_min_distance(rect: Rect, point: Point) -> float:
        dx = max(rect.min_x - point.x, 0.0, point.x - rect.max_x)
        dy = max(rect.min_y - point.y, 0.0, point.y - rect.max_y)
        return (dx * dx + dy * dy) ** 0.5
