"""Tests for the PMR quadtree spatial index over network edges."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SpatialIndexError
from repro.spatial.geometry import Point, Rect, Segment
from repro.spatial.pmr_quadtree import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_SPLIT_THRESHOLD,
    PMRQuadtree,
    _QuadNode,
)

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


def _horizontal(y: float, x0: float = 0.0, x1: float = 100.0) -> Segment:
    return Segment(Point(x0, y), Point(x1, y))


class TestConstruction:
    def test_invalid_split_threshold_raises(self):
        with pytest.raises(SpatialIndexError):
            PMRQuadtree(BOUNDS, split_threshold=0)

    def test_invalid_max_depth_raises(self):
        with pytest.raises(SpatialIndexError):
            PMRQuadtree(BOUNDS, max_depth=0)

    def test_insert_and_len(self):
        tree = PMRQuadtree(BOUNDS)
        tree.insert(1, _horizontal(10))
        assert len(tree) == 1
        assert 1 in tree

    def test_duplicate_insert_raises(self):
        tree = PMRQuadtree(BOUNDS)
        tree.insert(1, _horizontal(10))
        with pytest.raises(SpatialIndexError):
            tree.insert(1, _horizontal(20))

    def test_insert_outside_bounds_raises(self):
        tree = PMRQuadtree(BOUNDS)
        with pytest.raises(SpatialIndexError):
            tree.insert(1, Segment(Point(200, 200), Point(300, 300)))

    def test_bulk_load(self):
        tree = PMRQuadtree(BOUNDS)
        tree.bulk_load((i, _horizontal(float(i))) for i in range(1, 20))
        assert len(tree) == 19

    def test_split_happens_beyond_threshold(self):
        tree = PMRQuadtree(BOUNDS, split_threshold=2)
        for i in range(6):
            tree.insert(i, _horizontal(5.0 + i, 1.0, 9.0))
        assert tree.depth() >= 1
        assert tree.leaf_count() > 1

    def test_segment_of_returns_inserted_segment(self):
        tree = PMRQuadtree(BOUNDS)
        segment = _horizontal(42.0)
        tree.insert(7, segment)
        assert tree.segment_of(7) == segment

    def test_segment_of_missing_raises(self):
        with pytest.raises(SpatialIndexError):
            PMRQuadtree(BOUNDS).segment_of(404)


class TestQueries:
    def test_find_edge_exact_hit(self):
        tree = PMRQuadtree(BOUNDS)
        tree.insert(1, _horizontal(10))
        tree.insert(2, _horizontal(50))
        assert tree.find_edge(Point(30, 10)) == 1
        assert tree.find_edge(Point(30, 50)) == 2

    def test_find_edge_outside_tolerance_returns_none(self):
        tree = PMRQuadtree(BOUNDS)
        tree.insert(1, _horizontal(10))
        assert tree.find_edge(Point(30, 40)) is None

    def test_nearest_edge_on_empty_index_raises(self):
        with pytest.raises(SpatialIndexError):
            PMRQuadtree(BOUNDS).nearest_edge(Point(1, 1))

    def test_nearest_edge_returns_closest(self):
        tree = PMRQuadtree(BOUNDS)
        tree.insert(1, _horizontal(10))
        tree.insert(2, _horizontal(80))
        edge_id, distance = tree.nearest_edge(Point(50, 30))
        assert edge_id == 1
        assert distance == pytest.approx(20.0)

    def test_edges_in_rect(self):
        tree = PMRQuadtree(BOUNDS)
        tree.insert(1, _horizontal(10))
        tree.insert(2, _horizontal(80))
        found = tree.edges_in_rect(Rect(0, 0, 100, 40))
        assert found == {1}

    def test_remove_edge(self):
        tree = PMRQuadtree(BOUNDS)
        tree.insert(1, _horizontal(10))
        tree.remove(1)
        assert len(tree) == 0
        assert tree.find_edge(Point(30, 10)) is None

    def test_remove_missing_raises(self):
        with pytest.raises(SpatialIndexError):
            PMRQuadtree(BOUNDS).remove(3)

    def test_statistics_reports_counts(self):
        tree = PMRQuadtree(BOUNDS, split_threshold=2)
        for i in range(10):
            tree.insert(i, _horizontal(float(i * 7 + 1)))
        stats = tree.statistics()
        assert stats["edges"] == 10
        assert stats["leaves"] >= 1
        assert stats["entries"] >= 10


class TestAgainstBruteForce:
    def test_nearest_edge_matches_linear_scan(self):
        rng = random.Random(3)
        tree = PMRQuadtree(BOUNDS, split_threshold=4)
        segments = {}
        for edge_id in range(60):
            a = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            b = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            segment = Segment(a, b)
            segments[edge_id] = segment
            tree.insert(edge_id, segment)
        for _ in range(50):
            probe = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            found_id, found_distance = tree.nearest_edge(probe)
            best = min(segments.values(), key=lambda s: s.distance_to_point(probe))
            assert found_distance == pytest.approx(best.distance_to_point(probe), abs=1e-9)
            assert segments[found_id].distance_to_point(probe) == pytest.approx(
                found_distance, abs=1e-9
            )

    def test_edges_in_rect_matches_linear_scan(self):
        rng = random.Random(8)
        tree = PMRQuadtree(BOUNDS, split_threshold=3)
        segments = {}
        for edge_id in range(40):
            a = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            b = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            segments[edge_id] = Segment(a, b)
            tree.insert(edge_id, segments[edge_id])
        for _ in range(20):
            x0, x1 = sorted((rng.uniform(0, 100), rng.uniform(0, 100)))
            y0, y1 = sorted((rng.uniform(0, 100), rng.uniform(0, 100)))
            rect = Rect(x0, y0, x1, y1)
            expected = {
                edge_id
                for edge_id, segment in segments.items()
                if segment.intersects_rect(rect)
            }
            assert tree.edges_in_rect(rect) == expected


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 100), st.floats(0, 100), st.floats(0, 100), st.floats(0, 100)
        ),
        min_size=1,
        max_size=40,
    ),
    st.tuples(st.floats(0, 100), st.floats(0, 100)),
)
def test_property_nearest_edge_is_truly_nearest(segment_coords, probe_coords):
    """The reported nearest edge is never farther than any other edge."""
    tree = PMRQuadtree(BOUNDS, split_threshold=3)
    segments = {}
    for edge_id, (ax, ay, bx, by) in enumerate(segment_coords):
        segment = Segment(Point(ax, ay), Point(bx, by))
        segments[edge_id] = segment
        tree.insert(edge_id, segment)
    probe = Point(*probe_coords)
    _, distance = tree.nearest_edge(probe)
    best = min(segment.distance_to_point(probe) for segment in segments.values())
    assert distance == pytest.approx(best, abs=1e-6)


# ----------------------------------------------------------------------
# Segment.intersects_rect inlines its bounding-box rejection; the
# formulation it replaced (a validated Rect per call) is the reference.
# ----------------------------------------------------------------------
def _intersects_rect_reference(segment: Segment, rect: Rect) -> bool:
    if rect.contains_point(segment.start) or rect.contains_point(segment.end):
        return True
    if not rect.intersects(segment.bounding_box):
        return False
    dx = segment.end.x - segment.start.x
    dy = segment.end.y - segment.start.y
    t_min, t_max = 0.0, 1.0
    for p, q in (
        (-dx, segment.start.x - rect.min_x),
        (dx, rect.max_x - segment.start.x),
        (-dy, segment.start.y - rect.min_y),
        (dy, rect.max_y - segment.start.y),
    ):
        if abs(p) <= 1e-12:
            if q < 0:
                return False
            continue
        t = q / p
        if p < 0:
            t_min = max(t_min, t)
        else:
            t_max = min(t_max, t)
        if t_min > t_max:
            return False
    return True


# Lattice values make touching, collinear and degenerate cases common;
# the float range covers the general position.
_coordinate = st.one_of(st.sampled_from([0.0, 25.0, 50.0, 75.0, 100.0]), st.floats(-20, 120))


@settings(max_examples=400, deadline=None)
@given(*[_coordinate] * 8)
def test_property_intersects_rect_matches_the_replaced_formulation(
    ax, ay, bx, by, x0, y0, x1, y1
):
    segment = Segment(Point(ax, ay), Point(bx, by))
    rect = Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
    assert segment.intersects_rect(rect) == _intersects_rect_reference(segment, rect)


def test_city_tree_is_unchanged_by_the_inlined_predicate(monkeypatch):
    """Same leaves, same per-leaf edge lists as a build with the old predicate."""
    from repro.network.builders import city_network
    from repro.network.edge_table import EdgeTable

    def leaves(tree):
        # _iter_nodes walks both trees in the same deterministic order
        return [
            (node.rect, node.depth, node.edge_ids)
            for node in tree._iter_nodes()
            if node.is_leaf
        ]

    network = city_network(1500, seed=11)
    tree = EdgeTable(network).spatial_index
    with monkeypatch.context() as patch:
        patch.setattr(Segment, "intersects_rect", _intersects_rect_reference)
        reference = EdgeTable(network).spatial_index
    assert tree.statistics() == reference.statistics()
    assert tree.statistics()["leaves"] > 100
    assert leaves(tree) == leaves(reference)


# ----------------------------------------------------------------------
# Insertion descends iteratively and runs the exact segment/quad test on
# bounding-box candidates only; the plain recursive build, which tests
# every child exactly, is the reference.  Both must give the same tree.
# ----------------------------------------------------------------------
def _reference_root(bounds, edges, split_threshold=DEFAULT_SPLIT_THRESHOLD):
    root = _QuadNode(bounds, 0)
    segments = {}

    def split(node):
        node.children = tuple(_QuadNode(rect, node.depth + 1) for rect in node.rect.quadrants())
        edge_ids, node.edge_ids = node.edge_ids, []
        for edge_id in edge_ids:
            for child in node.children:
                if segments[edge_id].intersects_rect(child.rect):
                    child.edge_ids.append(edge_id)

    def insert(node, edge_id, segment):
        if not segment.intersects_rect(node.rect):
            return
        if node.children is None:
            node.edge_ids.append(edge_id)
            if len(node.edge_ids) > split_threshold and node.depth < DEFAULT_MAX_DEPTH:
                split(node)
            return
        for child in node.children:
            insert(child, edge_id, segment)

    for edge_id, segment in edges:
        segments[edge_id] = segment
        insert(root, edge_id, segment)
    return root


def _leaves_under(root):
    """``(rect, depth, edge ids)`` of every leaf, in ``_iter_nodes`` order."""
    leaves, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.children is None:
            leaves.append((node.rect, node.depth, list(node.edge_ids)))
        else:
            stack.extend(node.children)
    return leaves


def _assert_same_tree(edges, bounds=BOUNDS, split_threshold=DEFAULT_SPLIT_THRESHOLD):
    edges = list(edges)
    tree = PMRQuadtree(bounds, split_threshold=split_threshold)
    tree.bulk_load(edges)
    expected = _leaves_under(_reference_root(bounds, edges, split_threshold))
    assert _leaves_under(tree._root) == expected
    return expected


def test_city_tree_matches_the_recursive_build():
    from repro.network.builders import city_network
    from repro.network.edge_table import EdgeTable

    network = city_network(1500, seed=11)
    tree = EdgeTable(network).spatial_index
    edges = [(edge.edge_id, network.edge_segment(edge.edge_id)) for edge in network.edges()]
    reference = _reference_root(network.bounding_box(margin=1e-6), edges)
    assert len(_leaves_under(reference)) > 100
    assert _leaves_under(tree._root) == _leaves_under(reference)


# within _EPS of the x = 50 / y = 50 borders, on either side
_JUST_BELOW_HALF = 50.0 - 5e-13
_JUST_ABOVE_HALF = 50.0 + 5e-13


@pytest.mark.parametrize(
    "coordinates",
    [
        # zero-length segments, many of them coincident (splits to max depth)
        [(30.0, 30.0, 30.0, 30.0)] * 12 + [(50.0, 50.0, 50.0, 50.0)] * 12
        + [(25.0, 75.0, 25.0, 75.0), (100.0, 0.0, 100.0, 0.0)],
        # segments lying on quad borders, and ending within _EPS of them
        [(0.0, y, 100.0, y) for y in (50.0, 25.0, 75.0, 12.5, 37.5, 62.5, 87.5)]
        + [(x, 0.0, x, 100.0) for x in (50.0, 25.0, 75.0, 12.5, 87.5)]
        + [(10.0, 10.0, _JUST_BELOW_HALF, 10.0), (60.0, _JUST_BELOW_HALF, 60.0, 5.0)]
        + [(_JUST_ABOVE_HALF, 90.0, 95.0, 90.0), (40.0, _JUST_ABOVE_HALF, 40.0, 95.0)]
        + [(0.0, 0.0, 100.0, 100.0), (0.0, 100.0, 100.0, 0.0)],
        # collinear runs: consecutive pieces and overlapping repeats
        [(4.0 * i, 4.0 * i, 4.0 * i + 4.0, 4.0 * i + 4.0) for i in range(25)]
        + [(2.0 * i, 50.0, 2.0 * i + 2.0, 50.0) for i in range(50)]
        + [(70.0, 40.0 + 0.1 * i, 70.0, 42.0 - 0.1 * i) for i in range(6)],
    ],
    ids=["zero-length", "quad-borders", "collinear-runs"],
)
@pytest.mark.parametrize("split_threshold", [1, 2, DEFAULT_SPLIT_THRESHOLD])
def test_degenerate_input_matches_the_recursive_build(coordinates, split_threshold):
    edges = [
        (edge_id, Segment(Point(ax, ay), Point(bx, by)))
        for edge_id, (ax, ay, bx, by) in enumerate(coordinates)
    ]
    leaves = _assert_same_tree(edges, split_threshold=split_threshold)
    assert len(leaves) > 1


_lattice = st.one_of(
    st.sampled_from([0.0, 12.5, 25.0, _JUST_BELOW_HALF, 50.0, _JUST_ABOVE_HALF, 75.0, 100.0]),
    st.floats(0, 100),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_lattice, _lattice, _lattice, _lattice), min_size=1, max_size=60))
def test_property_tree_matches_the_recursive_build(coordinates):
    edges = [
        (edge_id, Segment(Point(ax, ay), Point(bx, by)))
        for edge_id, (ax, ay, bx, by) in enumerate(coordinates)
    ]
    _assert_same_tree(edges, split_threshold=2)
