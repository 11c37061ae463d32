"""Simple polygon support for irregular indoor partitions.

The paper decomposes irregular partitions into regular (rectangular) ones
before analysis; this module provides the decomposition helpers plus the small
amount of polygon geometry needed to do so (point containment, area, MBR).
Polygons are simple (non self-intersecting) and live on a single floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .point import Point
from .rect import Rect


@dataclass(frozen=True)
class Polygon:
    """An immutable simple polygon defined by its vertices in order."""

    vertices: Tuple[Point, ...]

    def __init__(self, vertices: Sequence[Point]):
        points = tuple(vertices)
        if len(points) < 3:
            raise ValueError("a polygon needs at least three vertices")
        floor = points[0].floor
        if any(p.floor != floor for p in points):
            raise ValueError("all polygon vertices must lie on the same floor")
        object.__setattr__(self, "vertices", points)

    @property
    def floor(self) -> int:
        return self.vertices[0].floor

    @property
    def area(self) -> float:
        """Unsigned area via the shoelace formula."""
        total = 0.0
        n = len(self.vertices)
        for i in range(n):
            j = (i + 1) % n
            total += self.vertices[i].x * self.vertices[j].y
            total -= self.vertices[j].x * self.vertices[i].y
        return abs(total) / 2.0

    @property
    def mbr(self) -> Rect:
        return Rect.from_points(self.vertices)

    def contains_point(self, point: Point) -> bool:
        """Ray-casting point-in-polygon test (boundary counts as inside)."""
        if point.floor != self.floor:
            return False
        n = len(self.vertices)
        inside = False
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            if _on_segment(point, a, b):
                return True
            if (a.y > point.y) != (b.y > point.y):
                x_cross = a.x + (point.y - a.y) * (b.x - a.x) / (b.y - a.y)
                if point.x < x_cross:
                    inside = not inside
        return inside

def _on_segment(p: Point, a: Point, b: Point, tol: float = 1e-9) -> bool:
    """Whether ``p`` lies on segment ``ab`` within tolerance."""
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if abs(cross) > tol:
        return False
    if min(a.x, b.x) - tol <= p.x <= max(a.x, b.x) + tol and (
        min(a.y, b.y) - tol <= p.y <= max(a.y, b.y) + tol
    ):
        return True
    return False


def decompose_rectilinear(polygon: Polygon, cell_size: float) -> List[Rect]:
    """Decompose a (possibly irregular) polygon into axis-aligned rectangles.

    This mirrors the paper's pre-processing of the synthetic building, where
    "irregular partitions ... are decomposed into smaller but regular ones".
    The decomposition rasterises the polygon's MBR into a grid of squares of
    side ``cell_size`` and keeps those whose centre falls inside the polygon.
    The result is approximate but area-preserving up to the grid resolution,
    which is all downstream consumers (partition generation) require.
    """
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    mbr = polygon.mbr
    rects: List[Rect] = []
    x = mbr.xmin
    while x < mbr.xmax - 1e-9:
        y = mbr.ymin
        x_hi = min(x + cell_size, mbr.xmax)
        while y < mbr.ymax - 1e-9:
            y_hi = min(y + cell_size, mbr.ymax)
            candidate = Rect(x, y, x_hi, y_hi, mbr.floor)
            if polygon.contains_point(candidate.center):
                rects.append(candidate)
            y = y_hi
        x = x_hi
    return rects
