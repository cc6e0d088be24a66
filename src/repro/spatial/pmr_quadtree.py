"""PMR quadtree over a frozen road network (the paper's spatial index *SI*).

The monitoring server must map raw ``(x, y)`` coordinates arriving in object
and query updates to the network edge nearest them (Section 3 of the
paper).  The paper uses a PMR quadtree [Hoel & Samet 1991]: a quadtree over
the workspace whose leaf quads store the edges (line segments) meeting
them.  A leaf splits when an insert takes it past the *splitting
threshold*; unlike a plain bucket quadtree the threshold is only applied at
insertion time, so the children of a split may hold more edges than the
threshold (this bounds the depth for degenerate inputs).

The tree is derived state.  It is built once from a frozen
:class:`~repro.network.graph.RoadNetwork`, inserting its edges in
``edge_ids()`` order, and holds no geometry of its own: a leaf lists dense
edge positions, and every segment is read from the network's ``node_x`` /
``node_y`` / ``edge_start`` / ``edge_end`` columns with the arithmetic of
:class:`~repro.spatial.geometry.Segment`.  The quads are columns too: per
node its rectangle, its first child and its slice of one edge-position
column.  :meth:`PMRQuadtree.snap` is the one query.
"""

from __future__ import annotations

import math
from array import array
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.exceptions import InvalidLocationError, SpatialIndexError
from repro.spatial.geometry import _EPS, Point, Rect, Segment
from repro.utils import optional_numpy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.graph import RoadNetwork

#: Number of edges a leaf holds before the insert that overflows it splits it.
SPLIT_THRESHOLD = 8

#: Maximum tree depth; quads smaller than workspace / 2**depth never split.
MAX_DEPTH = 16

_INF = float("inf")
_DISTANCE = itemgetter(0)


def _finite(x: object, y: object) -> bool:
    """Whether ``(x, y)`` are real numbers that a finite float holds.

    Coordinates arrive off the wire: a string or an int past the float
    range is refused here like ``nan`` and ``inf``, not by a TypeError or
    OverflowError deep in the search.
    """
    try:
        return math.isfinite(x) and math.isfinite(y)
    except (TypeError, OverflowError):
        return False


def _box(segment: Segment) -> Tuple[float, float, float, float]:
    """``(min_x, min_y, max_x, max_y)`` of *segment*, without building a Rect."""
    start, end = segment.start, segment.end
    lo_x, hi_x = (start.x, end.x) if start.x <= end.x else (end.x, start.x)
    lo_y, hi_y = (start.y, end.y) if start.y <= end.y else (end.y, start.y)
    return lo_x, lo_y, hi_x, hi_y


def _candidate_children(
    rects: List[Rect], first: int, box: Tuple[float, float, float, float]
) -> List[int]:
    """The children ``first`` .. ``first + 3`` (NW, NE, SW, SE) that *box* meets.

    *box* is a segment's :func:`_box`, widened here by ``_EPS``, and the
    segment must meet the parent quad.  Meeting a child is then a
    necessary condition for :meth:`Segment.intersects_rect` on it: that
    test accepts an endpoint within ``_EPS`` of the closed rectangle (the
    same widened comparisons as here) and otherwise requires the exact
    boxes to overlap, which implies this.  A child shares two sides with
    its parent, which the segment's box already meets, so only the two
    inner sides — the parent's centre lines — need comparing: four float
    comparisons per quad, and the exact test runs on candidates only.
    """
    lo_x, lo_y, hi_x, hi_y = box
    cx, cy = rects[first].max_x, rects[first].min_y
    west = lo_x <= cx + _EPS
    east = cx - _EPS <= hi_x
    candidates = []
    if cy - _EPS <= hi_y:  # NW, NE
        if west:
            candidates.append(first)
        if east:
            candidates.append(first + 1)
    if lo_y <= cy + _EPS:  # SW, SE
        if west:
            candidates.append(first + 2)
        if east:
            candidates.append(first + 3)
    return candidates


class PMRQuadtree:
    """PMR quadtree mapping 2-D coordinates to the edges of a frozen network.

    Example::

        index = PMRQuadtree(network)
        [(edge_id, fraction)] = index.snap([Point(120.0, 80.0)])
    """

    def __init__(self, network: RoadNetwork) -> None:
        """Build the tree over *network*'s edges, freezing its topology.

        The workspace is the network's bounding box grown by ``1e-6``.
        Each edge is inserted in ``edge_ids()`` order into every leaf it
        meets, and a leaf splits into its four quadrants when that insert
        takes it past :data:`SPLIT_THRESHOLD` edges (unless it is
        :data:`MAX_DEPTH` deep), so the same network always yields the same
        tree.

        Raises:
            SpatialIndexError: if the network has no edges.
        """
        store = network.freeze()
        if not store.edge_ids:
            raise SpatialIndexError("a PMR quadtree needs at least one edge")
        self._store = store
        segment = self._segment
        # Per-node build columns.  The Segments and Rects made while building
        # are dropped with them; the tree keeps flat columns only.
        rects = [network.bounding_box(margin=1e-6)]
        depths = [0]
        firsts = [-1]  # first of four consecutive children, -1 for a leaf
        members: List[List[int]] = [[]]  # edge positions of each leaf

        def split(node: int) -> None:
            first = firsts[node] = len(rects)
            for quadrant in rects[node].quadrants():
                rects.append(quadrant)
                depths.append(depths[node] + 1)
                firsts.append(-1)
                members.append([])
            held, members[node] = members[node], []
            for position in held:
                shape = segment(position)
                for child in _candidate_children(rects, first, _box(shape)):
                    if shape.intersects_rect(rects[child]):
                        members[child].append(position)
            # PMR semantics: the children are not split here even when they
            # exceed the threshold; each splits on its own next insert.

        for position in range(len(store.edge_ids)):
            shape = segment(position)
            box = _box(shape)
            stack = [0]  # the workspace contains every edge
            while stack:
                node = stack.pop()
                first = firsts[node]
                if first < 0:
                    held = members[node]
                    held.append(position)
                    if len(held) > SPLIT_THRESHOLD and depths[node] < MAX_DEPTH:
                        split(node)
                    continue
                for child in _candidate_children(rects, first, box):
                    if shape.intersects_rect(rects[child]):
                        stack.append(child)

        self._bounds = rects[0]
        self._min_x = [rect.min_x for rect in rects]
        self._min_y = [rect.min_y for rect in rects]
        self._max_x = [rect.max_x for rect in rects]
        self._max_y = [rect.max_y for rect in rects]
        self._first = array("i", firsts)
        self._offset = offset = array("i", [0])
        self._entries = entries = array("i")
        for held in members:
            entries.extend(held)
            offset.append(len(entries))

    @property
    def bounds(self) -> Rect:
        """The workspace rectangle this index covers."""
        return self._bounds

    # ------------------------------------------------------------------
    # the query
    # ------------------------------------------------------------------
    def snap(self, points: Sequence[Point]) -> List[Tuple[int, float]]:
        """``(edge_id, fraction)`` of the edge nearest each point.

        *fraction* is :meth:`Segment.project_fraction` of the point on that
        edge.  Each point takes a best-first search that visits quads
        nearest-first and keeps the first edge at the least distance.  With
        numpy and four or more points, a point first tries the edges of the
        leaf that contains it, all of them in one broadcast per leaf: that
        answer stands when it lies no farther than the leaf's border
        (every other edge misses the leaf, so it lies at least that far
        away), and among equidistant edges it may name another one than
        the search would.

        Raises:
            InvalidLocationError: if a coordinate is not a finite number
                (every point is checked before any is searched), or no edge
                lies at a finite distance from a point.
        """
        for point in points:
            if not _finite(point.x, point.y):
                raise InvalidLocationError(
                    f"coordinates ({point.x!r}, {point.y!r}) are not finite numbers"
                )
        exact = self._leaf_broadcast(points) if len(points) >= 4 else {}
        edge_ids = self._store.edge_ids
        snapped = []
        for index, point in enumerate(points):
            position = exact.get(index)
            if position is None:
                position, fraction = self._nearest(point.x, point.y)
            else:
                fraction = self._segment(position).project_fraction(point)
            snapped.append((edge_ids[position], fraction))
        return snapped

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _segment(self, position: int) -> Segment:
        """The edge at dense *position*, from the network's columns."""
        store = self._store
        start, end = store.edge_start[position], store.edge_end[position]
        xs, ys = store.node_x, store.node_y
        return Segment(Point(xs[start], ys[start]), Point(xs[end], ys[end]))

    def _nearest(self, px: float, py: float) -> Tuple[int, float]:
        """``(position, fraction)`` of the first edge at the least distance."""
        min_x, min_y, max_x, max_y = self._min_x, self._min_y, self._max_x, self._max_y
        first_of, offset, entries = self._first, self._offset, self._entries
        store = self._store
        xs, ys, starts, ends = store.node_x, store.node_y, store.edge_start, store.edge_end
        hypot = math.hypot

        def gap(node: int) -> float:
            # Rect-to-point distance: max(min - p, 0, p - max) per axis.
            gx = min_x[node] - px
            if gx < 0.0:
                gx = px - max_x[node]
                if gx < 0.0:
                    gx = 0.0
            gy = min_y[node] - py
            if gy < 0.0:
                gy = py - max_y[node]
                if gy < 0.0:
                    gy = 0.0
            return (gx * gx + gy * gy) ** 0.5

        best, best_dist, best_fraction = -1, _INF, 0.0
        stack = [(gap(0), 0)]
        while stack:
            distance, node = stack.pop()
            if distance >= best_dist:
                continue
            first = first_of[node]
            if first < 0:
                # Segment.project_fraction, then Segment.distance_to_point,
                # operation for operation (min(1, max(0, t)) as branches):
                # inlined, because a call per edge doubles a snap's cost.
                for position in entries[offset[node]:offset[node + 1]]:
                    start, end = starts[position], ends[position]
                    sx, sy, ex, ey = xs[start], ys[start], xs[end], ys[end]
                    dx = ex - sx
                    dy = ey - sy
                    norm_sq = dx * dx + dy * dy
                    if norm_sq <= _EPS:
                        t = 0.0 if hypot(px - sx, py - sy) <= hypot(px - ex, py - ey) else 1.0
                    else:
                        t = ((px - sx) * dx + (py - sy) * dy) / norm_sq
                        if t > 0.0:
                            if t > 1.0:
                                t = 1.0
                        else:
                            t = 0.0
                    dist = hypot(sx + t * dx - px, sy + t * dy - py)
                    if dist < best_dist:
                        best, best_dist, best_fraction = position, dist, t
            else:
                children = [(gap(child), child) for child in range(first, first + 4)]
                stack.extend(sorted(children, key=_DISTANCE, reverse=True))
        if best < 0:
            raise InvalidLocationError(f"no edge lies at a finite distance from ({px}, {py})")
        return best, best_fraction

    def _leaf_broadcast(self, points: Sequence[Point]) -> Dict[int, int]:
        """Point index -> edge position, for the points a leaf answers exactly.

        Empty without numpy.  Points are grouped by the leaf that contains
        them and matched against its edges in one broadcast per leaf.
        """
        np = optional_numpy()
        if np is None:
            return {}
        min_x, min_y, max_x, max_y = self._min_x, self._min_y, self._max_x, self._max_y
        first_of, offset = self._first, self._offset

        def contains(node: int, x: float, y: float) -> bool:
            return (
                min_x[node] - _EPS <= x <= max_x[node] + _EPS
                and min_y[node] - _EPS <= y <= max_y[node] + _EPS
            )

        groups: Dict[int, List[int]] = {}
        for index, point in enumerate(points):
            x, y = point.x, point.y
            if not contains(0, x, y):
                continue  # outside the workspace: the search answers it
            node = 0
            while first_of[node] >= 0:
                first = first_of[node]
                for child in range(first, first + 4):
                    if contains(child, x, y):
                        node = child
                        break
                else:  # pragma: no cover - quadrants tile the parent
                    break
            if first_of[node] < 0 and offset[node] < offset[node + 1]:
                groups.setdefault(node, []).append(index)

        store = self._store
        xs, ys, starts, ends = store.node_x, store.node_y, store.edge_start, store.edge_end
        exact: Dict[int, int] = {}
        for leaf, indexes in groups.items():
            positions = self._entries[offset[leaf]:offset[leaf + 1]]
            sx = np.array([xs[starts[p]] for p in positions])
            sy = np.array([ys[starts[p]] for p in positions])
            dx = np.array([xs[ends[p]] for p in positions]) - sx
            dy = np.array([ys[ends[p]] for p in positions]) - sy
            norm_sq = dx * dx + dy * dy
            safe_norm = np.where(norm_sq > 0.0, norm_sq, 1.0)
            px = np.array([points[i].x for i in indexes])[:, None]
            py = np.array([points[i].y for i in indexes])[:, None]
            t = ((px - sx) * dx + (py - sy) * dy) / safe_norm
            t = np.clip(np.where(norm_sq > 0.0, t, 0.0), 0.0, 1.0)
            dist = np.hypot(px - (sx + t * dx), py - (sy + t * dy))
            best_column = np.argmin(dist, axis=1)
            best_dist = dist[np.arange(len(indexes)), best_column]
            for row, index in enumerate(indexes):
                point = points[index]
                border = min(
                    point.x - min_x[leaf],
                    max_x[leaf] - point.x,
                    point.y - min_y[leaf],
                    max_y[leaf] - point.y,
                )
                if best_dist[row] <= border:
                    exact[index] = positions[int(best_column[row])]
        return exact
