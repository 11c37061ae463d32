"""Ground-truth object trajectories.

The synthetic experiments (Section 5.3) record every object's exact location
once per second; those spatiotemporal trajectories form the ground truth used
to score the query results (recall, Kendall tau) and to drive the positioning
and RFID simulators.

A window's points are found by bisecting the time-ordered trajectory, and the
ground truth resolves each distinct location of the window once: the visited
set is a union, so neither the order nor the repeats change it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..geometry import Point
from ..space import FloorPlan


@dataclass(frozen=True)
class TrajectoryPoint:
    """One ground-truth fix: where an object truly was at a timestamp."""

    timestamp: float
    location: Point
    partition_id: Optional[int] = None


_timestamp_of = attrgetter("timestamp")


class Trajectory:
    """The time-ordered ground-truth trajectory of a single object."""

    def __init__(self, object_id: int, points: Iterable[TrajectoryPoint] = ()):
        self.object_id = object_id
        self._points: List[TrajectoryPoint] = sorted(points, key=_timestamp_of)

    def append(self, point: TrajectoryPoint) -> None:
        if self._points and point.timestamp < self._points[-1].timestamp:
            raise ValueError("trajectory points must be appended in time order")
        self._points.append(point)

    @property
    def points(self) -> Sequence[TrajectoryPoint]:
        return tuple(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def time_span(self) -> Tuple[float, float]:
        if not self._points:
            return (float("inf"), float("-inf"))
        return (self._points[0].timestamp, self._points[-1].timestamp)

    def location_at(self, timestamp: float) -> Optional[Point]:
        """The most recent known location at ``timestamp`` (None before start)."""
        index = bisect_right(self._points, timestamp, key=_timestamp_of) - 1
        if index < 0:
            return None
        return self._points[index].location

    def points_in(self, start: float, end: float) -> List[TrajectoryPoint]:
        """The trajectory points whose timestamps fall in ``[start, end]``."""
        first = bisect_left(self._points, start, key=_timestamp_of)
        last = bisect_right(self._points, end, key=_timestamp_of)
        return self._points[first:last]

    def slocations_visited(
        self, plan: FloorPlan, start: float, end: float
    ) -> Set[int]:
        """The ids of S-locations truly visited during ``[start, end]``."""
        visited: Set[int] = set()
        for location in {point.location for point in self.points_in(start, end)}:
            visited.update(plan.slocations_containing(location))
        return visited


class TrajectoryStore:
    """A collection of ground-truth trajectories keyed by object id."""

    def __init__(self) -> None:
        self._trajectories: Dict[int, Trajectory] = {}

    def add(self, trajectory: Trajectory) -> None:
        self._trajectories[trajectory.object_id] = trajectory

    def get(self, object_id: int) -> Optional[Trajectory]:
        return self._trajectories.get(object_id)

    def __len__(self) -> int:
        return len(self._trajectories)

    def __iter__(self):
        return iter(self._trajectories.values())

    def object_ids(self) -> List[int]:
        return sorted(self._trajectories)

    def true_visit_counts(
        self, plan: FloorPlan, start: float, end: float
    ) -> Dict[int, int]:
        """Count, per S-location, the objects that truly visited it in the window.

        This is the ground-truth flow used to rank S-locations when computing
        recall and the Kendall coefficient: each object is counted at most
        once per S-location, exactly like the indoor flow definition.
        """
        counts: Dict[int, int] = {sloc_id: 0 for sloc_id in plan.slocations}
        for trajectory in self._trajectories.values():
            for sloc_id in trajectory.slocations_visited(plan, start, end):
                counts[sloc_id] = counts.get(sloc_id, 0) + 1
        return counts
