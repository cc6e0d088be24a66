"""The PMR quadtree as it stood before it read its network's columns: the oracle.

It stores one :class:`Segment` per edge and one node object per quad, and
is kept here, trimmed to building and searching, so that tests can check
that :class:`repro.spatial.pmr_quadtree.PMRQuadtree` builds the same leaves
and snaps every point to the same ``(edge_id, fraction)``, bit for bit.
:func:`oracle_snap` is the single-point snap and :func:`oracle_snap_bulk`
the batch snap, each as the edge table computed it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.graph import NetworkLocation, RoadNetwork
from repro.spatial.geometry import _EPS, Point, Rect, Segment
from repro.utils import optional_numpy

SPLIT_THRESHOLD = 8
MAX_DEPTH = 16


class QuadNode:
    """A node of the oracle tree (leaf or internal)."""

    __slots__ = ("rect", "depth", "edge_ids", "children")

    def __init__(self, rect: Rect, depth: int) -> None:
        self.rect = rect
        self.depth = depth
        self.edge_ids: List[int] = []
        self.children: Optional[Tuple["QuadNode", ...]] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def _bounds(segment: Segment) -> Tuple[float, float, float, float]:
    start, end = segment.start, segment.end
    lo_x, hi_x = (start.x, end.x) if start.x <= end.x else (end.x, start.x)
    lo_y, hi_y = (start.y, end.y) if start.y <= end.y else (end.y, start.y)
    return lo_x, lo_y, hi_x, hi_y


def _candidate_children(children, box):
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


def _rect_min_distance(rect: Rect, point: Point) -> float:
    dx = max(rect.min_x - point.x, 0.0, point.x - rect.max_x)
    dy = max(rect.min_y - point.y, 0.0, point.y - rect.max_y)
    return (dx * dx + dy * dy) ** 0.5


class OracleQuadtree:
    """The segment-storing PMR quadtree, loaded one edge at a time."""

    def __init__(self, bounds: Rect) -> None:
        self.root = QuadNode(bounds, depth=0)
        self.segments: Dict[int, Segment] = {}

    @classmethod
    def of_network(cls, network: RoadNetwork) -> "OracleQuadtree":
        """The tree the edge table built: ``edge_ids()`` order, 1e-6 margin."""
        tree = cls(network.bounding_box(margin=1e-6))
        for edge_id in network.edge_ids():
            tree.insert(edge_id, network.edge_segment(edge_id))
        return tree

    def insert(self, edge_id: int, segment: Segment) -> None:
        assert edge_id not in self.segments
        assert segment.intersects_rect(self.root.rect)
        self.segments[edge_id] = segment
        box = _bounds(segment)
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.children is None:
                node.edge_ids.append(edge_id)
                if len(node.edge_ids) > SPLIT_THRESHOLD and node.depth < MAX_DEPTH:
                    self._split(node)
                continue
            for child in _candidate_children(node.children, box):
                if segment.intersects_rect(child.rect):
                    stack.append(child)

    def _split(self, node: QuadNode) -> None:
        children = node.children = tuple(
            QuadNode(rect, node.depth + 1) for rect in node.rect.quadrants()
        )
        edge_ids, node.edge_ids = node.edge_ids, []
        for edge_id in edge_ids:
            segment = self.segments[edge_id]
            for child in _candidate_children(children, _bounds(segment)):
                if segment.intersects_rect(child.rect):
                    child.edge_ids.append(edge_id)

    def nearest_edge(self, point: Point) -> Tuple[Optional[int], float]:
        """``(edge_id, distance)``; the id is None where the tree found none."""
        best_id: Optional[int] = None
        best_dist = float("inf")
        stack: List[QuadNode] = [self.root]
        while stack:
            node = stack.pop()
            if _rect_min_distance(node.rect, point) >= best_dist:
                continue
            if node.is_leaf:
                for edge_id in node.edge_ids:
                    dist = self.segments[edge_id].distance_to_point(point)
                    if dist < best_dist:
                        best_dist = dist
                        best_id = edge_id
            else:
                stack.extend(
                    sorted(
                        node.children,
                        key=lambda child: _rect_min_distance(child.rect, point),
                        reverse=True,
                    )
                )
        return best_id, best_dist

    def nearest_edges_bulk(self, points: Sequence[Point]) -> List[Tuple[Optional[int], float]]:
        np = optional_numpy() if len(points) >= 4 else None
        if np is None:
            return [self.nearest_edge(point) for point in points]
        results: List[Optional[Tuple[int, float]]] = [None] * len(points)
        groups: Dict[int, List[int]] = {}
        leaves: Dict[int, QuadNode] = {}
        for position, point in enumerate(points):
            node = self.root
            if not node.rect.contains_point(point):
                continue
            while not node.is_leaf:
                for child in node.children:
                    if child.rect.contains_point(point):
                        node = child
                        break
                else:
                    break
            if node.is_leaf and node.edge_ids:
                groups.setdefault(id(node), []).append(position)
                leaves[id(node)] = node
        for key, positions in groups.items():
            leaf = leaves[key]
            segments = [self.segments[edge_id] for edge_id in leaf.edge_ids]
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
            dist = np.hypot(px - (sx + t * dx), py - (sy + t * dy))
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

    def leaves(self) -> List[Tuple[Rect, List[int]]]:
        return leaves_under(self.root)


def leaves_under(root: QuadNode) -> List[Tuple[Rect, List[int]]]:
    """``(rect, edge ids)`` of every leaf under *root*, depth first, SE child first."""
    leaves, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.children is None:
            leaves.append((node.rect, list(node.edge_ids)))
        else:
            stack.extend(node.children)
    return leaves


def _located(tree: OracleQuadtree, point: Point, edge_id: Optional[int]):
    if edge_id is None:  # the old tree's bare assertion
        return None
    return NetworkLocation(edge_id, tree.segments[edge_id].project_fraction(point))


def oracle_snap(tree: OracleQuadtree, point: Point) -> Optional[NetworkLocation]:
    """The old ``EdgeTable.snap_point``; None where it raised AssertionError."""
    return _located(tree, point, tree.nearest_edge(point)[0])


def oracle_snap_bulk(tree: OracleQuadtree, points: Sequence[Point]):
    """The old ``EdgeTable.snap_points``; None for each point it could not place."""
    return [
        _located(tree, point, edge_id)
        for point, (edge_id, _) in zip(points, tree.nearest_edges_bulk(points))
    ]


def leaves_of(tree) -> List[Tuple[Rect, List[int]]]:
    """``(rect, edge ids)`` of every leaf of a ``PMRQuadtree``.

    Read from its columns, in the order :func:`leaves_under` walks.
    """
    edge_ids = tree._store.edge_ids
    leaves, stack = [], [0]
    while stack:
        node = stack.pop()
        first = tree._first[node]
        if first < 0:
            rect = Rect(tree._min_x[node], tree._min_y[node], tree._max_x[node], tree._max_y[node])
            entries = tree._entries[tree._offset[node]:tree._offset[node + 1]]
            leaves.append((rect, [edge_ids[position] for position in entries]))
        else:
            stack.extend(range(first, first + 4))
    return leaves


def network_of(coordinates) -> RoadNetwork:
    """A network with one edge per ``(ax, ay, bx, by)``.

    Edge i joins nodes 2i and 2i + 1, so coincident and zero-length edges
    are allowed.
    """
    network = RoadNetwork()
    for edge_id, (ax, ay, bx, by) in enumerate(coordinates):
        network.add_node(2 * edge_id, ax, ay)
        network.add_node(2 * edge_id + 1, bx, by)
        network.add_edge(edge_id, 2 * edge_id, 2 * edge_id + 1, 1.0)
    return network
