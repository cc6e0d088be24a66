"""Tests for the PMR quadtree spatial index over a frozen network's edges."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtree_oracle import QuadNode, leaves_of, leaves_under, network_of
from repro.exceptions import SpatialIndexError
from repro.network.graph import RoadNetwork
from repro.spatial.geometry import Point, Rect, Segment
from repro.spatial.pmr_quadtree import MAX_DEPTH, SPLIT_THRESHOLD, PMRQuadtree


def _horizontal(y: float, x0: float = 0.0, x1: float = 100.0):
    return (x0, y, x1, y)


def _tree(coordinates) -> PMRQuadtree:
    return PMRQuadtree(network_of(coordinates))


def _nearest(tree: PMRQuadtree, point: Point):
    """``(edge_id, distance)`` of the edge the tree snaps *point* to."""
    [(edge_id, fraction)] = tree.snap([point])
    segment = tree._segment(tree._store.edge_index[edge_id])
    return edge_id, segment.point_at_fraction(fraction).distance_to(point)


class TestConstruction:
    def test_a_network_without_edges_is_refused(self):
        network = RoadNetwork()
        network.add_node(1, 0.0, 0.0)
        with pytest.raises(SpatialIndexError):
            PMRQuadtree(network)

    def test_building_freezes_the_network(self):
        network = network_of([_horizontal(10.0)])
        PMRQuadtree(network)
        assert network.frozen

    def test_every_edge_is_in_a_leaf(self):
        tree = _tree([_horizontal(float(i)) for i in range(1, 20)])
        indexed = {edge_id for _, edge_ids in leaves_of(tree) for edge_id in edge_ids}
        assert indexed == set(range(19))

    def test_split_happens_beyond_threshold(self):
        tree = _tree([_horizontal(5.0 + i, 1.0, 9.0) for i in range(SPLIT_THRESHOLD)])
        assert len(leaves_of(tree)) == 1
        tree = _tree([_horizontal(5.0 + i, 1.0, 9.0) for i in range(SPLIT_THRESHOLD + 1)])
        assert len(leaves_of(tree)) > 1

    def test_coincident_edges_split_once_per_insert_up_to_the_depth_cap(self):
        for extra, depth in ((3, 3), (MAX_DEPTH + 4, MAX_DEPTH)):
            coincident = [(30.0, 30.0, 30.0, 30.0)] * (SPLIT_THRESHOLD + extra)
            tree = _tree(coincident + [_horizontal(90.0)])
            rect, edge_ids = max(leaves_of(tree), key=lambda leaf: len(leaf[1]))
            assert edge_ids == list(range(len(coincident)))
            assert rect.width == pytest.approx(tree.bounds.width / 2**depth)


class TestQueries:
    def test_snap_on_an_edge_returns_that_edge_and_its_fraction(self):
        tree = _tree([_horizontal(10.0), _horizontal(50.0)])
        assert tree.snap([Point(30.0, 10.0)]) == [(0, 0.3)]
        assert tree.snap([Point(30.0, 50.0)]) == [(1, 0.3)]

    def test_snap_returns_the_closest_edge(self):
        tree = _tree([_horizontal(10.0), _horizontal(80.0)])
        edge_id, distance = _nearest(tree, Point(50.0, 30.0))
        assert edge_id == 0
        assert distance == pytest.approx(20.0)

    def test_a_point_outside_the_workspace_snaps_to_the_nearest_endpoint(self):
        tree = _tree([_horizontal(10.0), _horizontal(80.0)])
        assert tree.snap([Point(-40.0, 0.0)]) == [(0, 0.0)]
        assert tree.snap([Point(140.0, 100.0)]) == [(1, 1.0)]


class TestAgainstBruteForce:
    def test_nearest_edge_matches_linear_scan(self):
        rng = random.Random(3)
        coordinates = [tuple(rng.uniform(0, 100) for _ in range(4)) for _ in range(240)]
        tree = _tree(coordinates)
        assert len(leaves_of(tree)) > 20
        segments = [Segment(Point(ax, ay), Point(bx, by)) for ax, ay, bx, by in coordinates]
        for _ in range(100):
            probe = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            found_id, found_distance = _nearest(tree, probe)
            best = min(segment.distance_to_point(probe) for segment in segments)
            assert found_distance == pytest.approx(best, abs=1e-9)
            assert segments[found_id].distance_to_point(probe) == pytest.approx(
                found_distance, abs=1e-9
            )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 100), st.floats(0, 100), st.floats(0, 100), st.floats(0, 100)
        ),
        min_size=1,
        max_size=160,
    ),
    st.tuples(st.floats(0, 100), st.floats(0, 100)),
)
def test_property_nearest_edge_is_truly_nearest(segment_coords, probe_coords):
    """The reported nearest edge is never farther than any other edge."""
    tree = _tree(segment_coords)
    probe = Point(*probe_coords)
    _, distance = _nearest(tree, probe)
    best = min(
        Segment(Point(ax, ay), Point(bx, by)).distance_to_point(probe)
        for ax, ay, bx, by in segment_coords
    )
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

    network = city_network(1500, seed=11)
    tree = PMRQuadtree(network)
    with monkeypatch.context() as patch:
        patch.setattr(Segment, "intersects_rect", _intersects_rect_reference)
        reference = PMRQuadtree(network)
    assert len(leaves_of(tree)) > 100
    assert leaves_of(tree) == leaves_of(reference)


# ----------------------------------------------------------------------
# Insertion descends iteratively and runs the exact segment/quad test on
# bounding-box candidates only; the plain recursive build, which tests
# every child exactly, is the reference.  Both must give the same tree.
# ----------------------------------------------------------------------
def _reference_root(network: RoadNetwork) -> QuadNode:
    root = QuadNode(network.bounding_box(margin=1e-6), 0)
    segments = {}

    def split(node):
        node.children = tuple(QuadNode(rect, node.depth + 1) for rect in node.rect.quadrants())
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
            if len(node.edge_ids) > SPLIT_THRESHOLD and node.depth < MAX_DEPTH:
                split(node)
            return
        for child in node.children:
            insert(child, edge_id, segment)

    for edge_id in network.edge_ids():
        segments[edge_id] = segment = network.edge_segment(edge_id)
        insert(root, edge_id, segment)
    return root


def _assert_same_tree(network: RoadNetwork):
    expected = leaves_under(_reference_root(network))
    assert leaves_of(PMRQuadtree(network)) == expected
    return expected


def test_city_tree_matches_the_recursive_build():
    from repro.network.builders import city_network

    leaves = _assert_same_tree(city_network(1500, seed=11))
    assert len(leaves) > 100


# within _EPS of the x = 50 / y = 50 borders, on either side
_JUST_BELOW_HALF = 50.0 - 5e-13
_JUST_ABOVE_HALF = 50.0 + 5e-13
_BORDERS = [100.0 * i / 128 for i in range(129)]  # every quad border to depth 7


@pytest.mark.parametrize(
    "coordinates",
    [
        # zero-length segments, many of them coincident (splits to max depth)
        [(30.0, 30.0, 30.0, 30.0)] * 26 + [(50.0, 50.0, 50.0, 50.0)] * 26
        + [(25.0, 75.0, 25.0, 75.0), (100.0, 0.0, 100.0, 0.0)]
        + [(0.0, 0.0, 0.0, 0.0), (100.0, 100.0, 100.0, 100.0)],
        # segments lying on quad borders, and ending within _EPS of them
        [(0.0, y, 100.0, y) for y in _BORDERS]
        + [(x, 0.0, x, 100.0) for x in _BORDERS]
        + [(10.0, 10.0, _JUST_BELOW_HALF, 10.0), (60.0, _JUST_BELOW_HALF, 60.0, 5.0)]
        + [(_JUST_ABOVE_HALF, 90.0, 95.0, 90.0), (40.0, _JUST_ABOVE_HALF, 40.0, 95.0)]
        + [(0.0, 0.0, 100.0, 100.0), (0.0, 100.0, 100.0, 0.0)],
        # short pieces hugging the borders of the small quads
        [(x, y, x + 1.5625, y) for x in _BORDERS[:-1:6] for y in _BORDERS[::16]]
        + [(x, y, x, y + 1.5625) for x in _BORDERS[::16] for y in _BORDERS[:-1:6]],
        # collinear runs: consecutive pieces and overlapping repeats
        [(4.0 * i, 4.0 * i, 4.0 * i + 4.0, 4.0 * i + 4.0) for i in range(25)]
        + [(2.0 * i, 50.0, 2.0 * i + 2.0, 50.0) for i in range(50)]
        + [(0.5 * i, 25.0, 0.5 * i + 0.5, 25.0) for i in range(200)]
        + [(0.0625 * i, 75.0, 0.0625 * i + 0.0625, 75.0) for i in range(1600)]
        + [(70.0, 40.0 + 0.1 * i, 70.0, 42.0 - 0.1 * i) for i in range(6)],
    ],
    ids=["zero-length", "quad-borders", "border-pieces", "collinear-runs"],
)
def test_degenerate_input_matches_the_recursive_build(coordinates):
    leaves = _assert_same_tree(network_of(coordinates))
    assert len(leaves) > 1


_lattice = st.one_of(
    st.sampled_from([0.0, 12.5, 25.0, _JUST_BELOW_HALF, 50.0, _JUST_ABOVE_HALF, 75.0, 100.0]),
    st.floats(0, 100),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_lattice, _lattice, _lattice, _lattice), min_size=1, max_size=240))
def test_property_tree_matches_the_recursive_build(coordinates):
    _assert_same_tree(network_of(coordinates))
