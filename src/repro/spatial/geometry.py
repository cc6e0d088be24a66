"""Planar geometry primitives used by the spatial index and the generators.

The road network lives in a two-dimensional Euclidean workspace.  The PMR
quadtree (the paper's spatial index *SI*) indexes edges as straight line
segments between their endpoint coordinates, and the workload generators
place objects and queries by Euclidean coordinates before snapping them to
the nearest edge.  This module provides the required primitives: points,
axis-aligned rectangles and segments, together with the distance and
intersection predicates the rest of the library needs.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

from repro.utils import value_class

_EPS = 1e-12


@value_class(frozen=True)
class Point:
    """A point in the two-dimensional workspace.

    Example::

        point = Point(3.0, 4.0)
        print(point.distance_to(Point(0.0, 0.0)))   # 5.0
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to *other*."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


@value_class(frozen=True)
class Rect:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    Example::

        rect = Rect(0.0, 0.0, 100.0, 50.0)
        assert rect.contains_point(Point(10.0, 10.0))
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                f"degenerate rectangle: ({self.min_x}, {self.min_y}) .. "
                f"({self.max_x}, {self.max_y})"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "Rect":
        """Bounding rectangle of a non-empty collection of points."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot build a rectangle from an empty point set")
        return cls(
            min(p.x for p in pts),
            min(p.y for p in pts),
            max(p.x for p in pts),
            max(p.y for p in pts),
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    @property
    def area(self) -> float:
        return self.width * self.height

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: Point, tolerance: float = _EPS) -> bool:
        """Closed-rectangle containment test."""
        return (
            self.min_x - tolerance <= point.x <= self.max_x + tolerance
            and self.min_y - tolerance <= point.y <= self.max_y + tolerance
        )

    def intersects(self, other: "Rect") -> bool:
        """Closed-rectangle overlap test."""
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )

    # ------------------------------------------------------------------
    # subdivision (used by the quadtree)
    # ------------------------------------------------------------------
    def quadrants(self) -> Tuple["Rect", "Rect", "Rect", "Rect"]:
        """Split into NW, NE, SW, SE quadrants (in that order)."""
        cx, cy = self.center.x, self.center.y
        return (
            Rect(self.min_x, cy, cx, self.max_y),  # NW
            Rect(cx, cy, self.max_x, self.max_y),  # NE
            Rect(self.min_x, self.min_y, cx, cy),  # SW
            Rect(cx, self.min_y, self.max_x, cy),  # SE
        )

    def expanded(self, margin: float) -> "Rect":
        """Return a copy grown by *margin* on every side."""
        return Rect(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )


@value_class(frozen=True)
class Segment:
    """A straight line segment between two points (a network edge's shape).

    Example::

        segment = Segment(Point(0.0, 0.0), Point(10.0, 0.0))
        print(segment.project_fraction(Point(3.0, 4.0)))   # 0.3
    """

    start: Point
    end: Point

    @property
    def length(self) -> float:
        """Euclidean length of the segment."""
        return self.start.distance_to(self.end)

    @property
    def bounding_box(self) -> Rect:
        """Tight axis-aligned bounding rectangle."""
        return Rect(
            min(self.start.x, self.end.x),
            min(self.start.y, self.end.y),
            max(self.start.x, self.end.x),
            max(self.start.y, self.end.y),
        )

    # ------------------------------------------------------------------
    # point relations
    # ------------------------------------------------------------------
    def point_at_fraction(self, t: float) -> Point:
        """Point at parameter ``t`` in [0, 1] along the segment."""
        t = min(1.0, max(0.0, t))
        return Point(
            self.start.x + t * (self.end.x - self.start.x),
            self.start.y + t * (self.end.y - self.start.y),
        )

    def project_fraction(self, point: Point) -> float:
        """Parameter in [0, 1] of the closest point on the segment to *point*."""
        dx = self.end.x - self.start.x
        dy = self.end.y - self.start.y
        norm_sq = dx * dx + dy * dy
        if norm_sq <= _EPS:
            # Degenerate segment: the parametric projection is numerically
            # meaningless, so snap to whichever endpoint is closer (snapping
            # always to the start can be off by the full segment length).
            if point.distance_to(self.start) <= point.distance_to(self.end):
                return 0.0
            return 1.0
        t = ((point.x - self.start.x) * dx + (point.y - self.start.y) * dy) / norm_sq
        return min(1.0, max(0.0, t))

    def distance_to_point(self, point: Point) -> float:
        """Euclidean distance from *point* to the closest point on the segment.

        The PMR quadtree's search repeats this method's operations (and
        :meth:`project_fraction`'s) inline over the network's columns, so
        a change here must be made there too.
        """
        t = self.project_fraction(point)
        return self.point_at_fraction(t).distance_to(point)

    # ------------------------------------------------------------------
    # rectangle intersection (for quadtree insertion)
    # ------------------------------------------------------------------
    def intersects_rect(self, rect: Rect) -> bool:
        """Return True if the segment intersects the closed rectangle.

        Uses the Liang-Barsky parametric clipping test, which is robust for
        the axis-aligned case and does not allocate (the quadtree calls it
        ~20 times per inserted edge, so the bounding-box rejection is four
        inlined comparisons rather than a validated :class:`Rect`).
        """
        if rect.contains_point(self.start) or rect.contains_point(self.end):
            return True
        sx, sy = self.start.x, self.start.y
        ex, ey = self.end.x, self.end.y
        if (
            rect.min_x > (ex if ex > sx else sx)
            or (ex if ex < sx else sx) > rect.max_x
            or rect.min_y > (ey if ey > sy else sy)
            or (ey if ey < sy else sy) > rect.max_y
        ):
            return False

        # Liang-Barsky clipping of the parametric segment against the rect.
        dx = ex - sx
        dy = ey - sy
        t_min, t_max = 0.0, 1.0
        for p, q in (
            (-dx, sx - rect.min_x),
            (dx, rect.max_x - sx),
            (-dy, sy - rect.min_y),
            (dy, rect.max_y - sy),
        ):
            if abs(p) <= _EPS:
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

