"""Axis-aligned rectangles and minimum bounding rectangles (MBRs).

Rectangles are the workhorse geometry of the reproduction: indoor partitions
and semantic locations are rectangular regions, and R-tree nodes store MBRs.
A rectangle carries a ``floor`` so that regions on different floors never
intersect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .point import Point


@dataclass(frozen=True)
class Rect:
    """An immutable axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``.

    The rectangle is closed on all sides; degenerate rectangles (zero width or
    height) are allowed and behave as line segments or points, which is how
    door footprints and point MBRs are represented.
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float
    floor: int = 0

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(
                f"invalid rectangle bounds ({self.xmin}, {self.ymin}, "
                f"{self.xmax}, {self.ymax})"
            )

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0, self.floor)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: Point) -> bool:
        """Whether ``point`` lies inside or on the border of this rectangle."""
        if point.floor != self.floor:
            return False
        return self.xmin <= point.x <= self.xmax and self.ymin <= point.y <= self.ymax

    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles share at least a boundary point."""
        if other.floor != self.floor:
            return False
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Return the overlapping rectangle, or ``None`` if disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.xmin, other.xmin),
            max(self.ymin, other.ymin),
            min(self.xmax, other.xmax),
            min(self.ymax, other.ymax),
            self.floor,
        )

    def intersection_area(self, other: "Rect") -> float:
        """Area of the overlap with ``other`` (0.0 if disjoint)."""
        overlap = self.intersection(other)
        return overlap.area if overlap is not None else 0.0

    # ------------------------------------------------------------------
    # Constructive operations
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        """Return the MBR enclosing both rectangles (must share a floor)."""
        if other.floor != self.floor:
            raise ValueError("cannot union rectangles on different floors")
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
            self.floor,
        )

    def expanded(self, margin: float) -> "Rect":
        """Return a copy grown by ``margin`` on every side."""
        return Rect(
            self.xmin - margin,
            self.ymin - margin,
            self.xmax + margin,
            self.ymax + margin,
            self.floor,
        )

    def distance_to_point(self, point: Point) -> float:
        """Minimum Euclidean distance from this rectangle to ``point``."""
        if point.floor != self.floor:
            return math.inf
        dx = max(self.xmin - point.x, 0.0, point.x - self.xmax)
        dy = max(self.ymin - point.y, 0.0, point.y - self.ymax)
        return math.hypot(dx, dy)

    def sample_grid(self, step: float) -> Iterable[Point]:
        """Yield a regular lattice of interior points with spacing ``step``.

        The lattice starts ``step/2`` away from the border so that all points
        are strictly inside; this is how reference points (P-locations) are
        laid out by the synthetic generators.
        """
        if step <= 0:
            raise ValueError("step must be positive")
        x = self.xmin + step / 2.0
        while x <= self.xmax - step / 2.0 + 1e-9:
            y = self.ymin + step / 2.0
            while y <= self.ymax - step / 2.0 + 1e-9:
                yield Point(x, y, self.floor)
                y += step
            x += step

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @staticmethod
    def from_point(point: Point, radius: float = 0.0) -> "Rect":
        """Return the (possibly degenerate) MBR of a point, optionally padded."""
        return Rect(
            point.x - radius,
            point.y - radius,
            point.x + radius,
            point.y + radius,
            point.floor,
        )

    @staticmethod
    def from_points(points: Iterable[Point]) -> "Rect":
        """Return the MBR of a non-empty collection of points on one floor."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot build an MBR from an empty point set")
        floor = pts[0].floor
        if any(p.floor != floor for p in pts):
            raise ValueError("all points must lie on the same floor")
        return Rect(
            min(p.x for p in pts),
            min(p.y for p in pts),
            max(p.x for p in pts),
            max(p.y for p in pts),
            floor,
        )

    @staticmethod
    def union_all(rects: Iterable["Rect"]) -> "Rect":
        """Return the MBR of a non-empty collection of rectangles on one floor."""
        items = list(rects)
        if not items:
            raise ValueError("cannot union an empty rectangle collection")
        result = items[0]
        for rect in items[1:]:
            result = result.union(rect)
        return result
