"""Geometry primitives: points, rectangles, and ellipses."""

from .ellipse import Ellipse
from .point import Point, interpolate
from .rect import Rect

__all__ = [
    "Ellipse",
    "Point",
    "Rect",
    "interpolate",
]
