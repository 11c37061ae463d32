"""2D/3D point primitives used throughout the indoor space model.

Indoor positioning locations, reference points, door anchors, and object
ground-truth locations are all represented as :class:`Point` instances.  The
third coordinate (``floor``) is a small integer identifying the building level
so that multi-floor buildings can be handled without a separate type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Point:
    """An immutable point in indoor space.

    Parameters
    ----------
    x, y:
        Planar coordinates in metres.
    floor:
        Building level the point lies on.  Points on different floors are
        infinitely far apart for planar distance purposes; vertical movement
        is modelled explicitly through staircase partitions.
    """

    x: float
    y: float
    floor: int = 0

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``; ``inf`` across floors."""
        if self.floor != other.floor:
            return math.inf
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy shifted by ``(dx, dy)`` on the same floor."""
        return Point(self.x + dx, self.y + dy, self.floor)

    def midpoint(self, other: "Point") -> "Point":
        """Return the midpoint between two points on the same floor."""
        if self.floor != other.floor:
            raise ValueError("cannot take the midpoint of points on different floors")
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0, self.floor)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


def interpolate(start: Point, end: Point, fraction: float) -> Point:
    """Linearly interpolate between two points on the same floor.

    ``fraction`` = 0 returns ``start`` and 1 returns ``end``.  Values outside
    [0, 1] extrapolate along the same line, which is occasionally useful for
    the movement simulator when overshooting a waypoint within one tick.
    """
    if start.floor != end.floor:
        raise ValueError("cannot interpolate between points on different floors")
    return Point(
        start.x + (end.x - start.x) * fraction,
        start.y + (end.y - start.y) * fraction,
        start.floor,
    )
