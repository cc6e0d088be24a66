"""Tests for planar geometry primitives (points, rectangles, segments)."""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import Point, Rect, Segment


class TestPoint:
    def test_distance_to_pythagoras(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a, b = Point(1, 2), Point(-4, 7)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_translated(self):
        assert Point(1, 1).translated(2, -1) == Point(3, 0)

    def test_as_tuple(self):
        assert Point(2.5, -1.0).as_tuple() == (2.5, -1.0)


class TestRect:
    def test_degenerate_rect_raises(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    def test_from_points(self):
        rect = Rect.from_points([Point(1, 5), Point(3, 2)])
        assert (rect.min_x, rect.min_y, rect.max_x, rect.max_y) == (1, 2, 3, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.from_points([])

    def test_dimensions_and_center(self):
        rect = Rect(0, 0, 4, 2)
        assert rect.width == 4
        assert rect.height == 2
        assert rect.area == 8
        assert rect.center == Point(2, 1)

    def test_contains_point_boundaries(self):
        rect = Rect(0, 0, 2, 2)
        assert rect.contains_point(Point(0, 0))
        assert rect.contains_point(Point(2, 2))
        assert not rect.contains_point(Point(2.1, 1))

    def test_intersects_overlapping(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(1, 1, 3, 3))

    def test_intersects_touching(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 1, 2, 2))

    def test_intersects_disjoint(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))

    def test_quadrants_tile_parent(self):
        rect = Rect(0, 0, 4, 4)
        quadrants = rect.quadrants()
        assert len(quadrants) == 4
        assert sum(q.area for q in quadrants) == pytest.approx(rect.area)
        for q in quadrants:
            assert rect.intersects(q)

    def test_expanded(self):
        rect = Rect(0, 0, 1, 1).expanded(0.5)
        assert (rect.min_x, rect.max_x) == (-0.5, 1.5)


class TestSegment:
    def test_length(self):
        assert Segment(Point(0, 0), Point(3, 4)).length == pytest.approx(5.0)

    def test_bounding_box(self):
        box = Segment(Point(2, 5), Point(0, 1)).bounding_box
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, 1, 2, 5)

    def test_point_at_fraction(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert segment.point_at_fraction(0.3) == Point(3, 0)

    def test_point_at_fraction_clamps(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert segment.point_at_fraction(1.5) == Point(10, 0)

    def test_project_fraction_midpoint(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert segment.project_fraction(Point(5, 3)) == pytest.approx(0.5)

    def test_project_fraction_beyond_ends_clamps(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert segment.project_fraction(Point(-5, 0)) == 0.0
        assert segment.project_fraction(Point(15, 0)) == 1.0

    def test_distance_to_point_perpendicular(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert segment.distance_to_point(Point(5, 4)) == pytest.approx(4.0)

    def test_distance_to_point_past_endpoint(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert segment.distance_to_point(Point(13, 4)) == pytest.approx(5.0)

    def test_intersects_rect_crossing(self):
        segment = Segment(Point(-1, 0.5), Point(2, 0.5))
        assert segment.intersects_rect(Rect(0, 0, 1, 1))

    def test_intersects_rect_endpoint_inside(self):
        segment = Segment(Point(0.5, 0.5), Point(5, 5))
        assert segment.intersects_rect(Rect(0, 0, 1, 1))

    def test_intersects_rect_disjoint(self):
        segment = Segment(Point(3, 3), Point(5, 5))
        assert not segment.intersects_rect(Rect(0, 0, 1, 1))

    def test_intersects_rect_diagonal_miss(self):
        # The segment's bounding box overlaps the rect but the segment itself
        # passes outside the corner.
        segment = Segment(Point(2.5, 0), Point(0, 2.5))
        assert not segment.intersects_rect(Rect(0, 0, 1, 1))


@settings(max_examples=60, deadline=None)
@given(
    ax=st.floats(-100, 100), ay=st.floats(-100, 100),
    bx=st.floats(-100, 100), by=st.floats(-100, 100),
    px=st.floats(-100, 100), py=st.floats(-100, 100),
)
def test_property_projection_is_nearest_point(ax, ay, bx, by, px, py):
    """The projected point is at least as close as either endpoint."""
    segment = Segment(Point(ax, ay), Point(bx, by))
    point = Point(px, py)
    nearest = segment.distance_to_point(point)
    assert nearest <= point.distance_to(segment.start) + 1e-9
    assert nearest <= point.distance_to(segment.end) + 1e-9
