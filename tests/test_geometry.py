"""Unit tests for the geometry primitives."""

from __future__ import annotations

import math

import pytest

from repro.geometry import Ellipse, Point, Rect, interpolate


class TestPoint:
    def test_distance_same_floor(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_across_floors_is_infinite(self):
        assert Point(0, 0, 0).distance_to(Point(0, 0, 1)) == math.inf

    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(2, 4)) == Point(1, 2)

    def test_midpoint_across_floors_raises(self):
        with pytest.raises(ValueError):
            Point(0, 0, 0).midpoint(Point(1, 1, 1))

    def test_interpolate_endpoints(self):
        start, end = Point(0, 0), Point(10, 0)
        assert interpolate(start, end, 0.0) == start
        assert interpolate(start, end, 1.0) == end
        assert interpolate(start, end, 0.25) == Point(2.5, 0)

    def test_translated(self):
        assert Point(1, 2, 3).translated(1, -2) == Point(2, 0, 3)


class TestRect:
    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    def test_area_and_center(self):
        rect = Rect(0, 0, 4, 2)
        assert rect.area == pytest.approx(8.0)
        assert rect.center == Point(2, 1)

    def test_contains_point_boundary_inclusive(self):
        rect = Rect(0, 0, 1, 1)
        assert rect.contains_point(Point(0, 0))
        assert rect.contains_point(Point(1, 1))
        assert not rect.contains_point(Point(1.01, 0.5))
        assert not rect.contains_point(Point(0.5, 0.5, floor=1))

    def test_intersection(self):
        a, b = Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)
        overlap = a.intersection(b)
        assert overlap == Rect(1, 1, 2, 2)
        assert a.intersection_area(b) == pytest.approx(1.0)
        assert a.intersection(Rect(5, 5, 6, 6)) is None

    def test_union_and_enlargement(self):
        a, b = Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)
        union = a.union(b)
        assert union == Rect(0, 0, 3, 3)

    def test_union_across_floors_raises(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1, 0).union(Rect(0, 0, 1, 1, 1))

    def test_distance_to_point(self):
        rect = Rect(0, 0, 2, 2)
        assert rect.distance_to_point(Point(1, 1)) == 0.0
        assert rect.distance_to_point(Point(5, 2)) == pytest.approx(3.0)
        assert rect.distance_to_point(Point(5, 6)) == pytest.approx(5.0)

    def test_sample_grid_inside(self):
        rect = Rect(0, 0, 10, 10)
        points = list(rect.sample_grid(2.5))
        assert points
        assert all(rect.contains_point(p) for p in points)

    def test_from_points(self):
        rect = Rect.from_points([Point(1, 1), Point(3, 0), Point(2, 4)])
        assert rect == Rect(1, 0, 3, 4)
        with pytest.raises(ValueError):
            Rect.from_points([])


class TestEllipse:
    def test_degenerate_circle(self):
        circle = Ellipse(Point(0, 0), Point(0, 0), 4.0)
        assert circle.semi_major == pytest.approx(2.0)
        assert circle.semi_minor == pytest.approx(2.0)
        assert circle.area == pytest.approx(math.pi * 4.0)
        assert circle.contains_point(Point(1.9, 0))
        assert not circle.contains_point(Point(2.1, 0))

    def test_major_axis_must_cover_foci(self):
        with pytest.raises(ValueError):
            Ellipse(Point(0, 0), Point(10, 0), 5.0)

    def test_intersection_area_with_rect(self):
        circle = Ellipse(Point(0, 0), Point(0, 0), 4.0)
        full = circle.intersection_area_with_rect(Rect(-3, -3, 3, 3), resolution=24)
        assert full == pytest.approx(circle.area, rel=0.1)
        assert circle.intersection_area_with_rect(Rect(10, 10, 12, 12)) == 0.0
