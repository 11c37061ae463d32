"""Random-waypoint indoor movement simulator (Section 5.3).

Objects follow the random waypoint model constrained to the indoor topology:
an object repeatedly picks a random destination partition, walks there along
the shortest indoor (door-to-door) route at a speed bounded by ``Vmax``,
dwells for a random period, and moves on.  The exact location is recorded
every second, producing the ground-truth trajectories used both by the
positioning / RFID simulators and by the effectiveness metrics.

A tick keeps the partition of the tick before while its location lies
strictly inside that partition's rectangle and no other partition's
rectangle meets the rectangle's interior (decided once per partition, when
the simulator is built).  Partitions are closed rectangles, so such a point
lies in that partition alone, and ``FloorPlan.partition_containing`` would
return it too.  Any other tick (a point on a wall or a door, a partition
another one overlaps, a new floor) asks the plan.  The lookup draws nothing,
so every RNG draw stays where it was.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..data.trajectory import Trajectory, TrajectoryPoint, TrajectoryStore
from ..geometry import Point, Rect, interpolate
from ..space import DoorGraphRouter, FloorPlan

MIN_SPEED = 0.4  # metres per second
TICK_SECONDS = 1.0  # the ground truth's sampling period
CLIMB_TICKS = 8  # a floor change inside a staircase
MIN_LIFESPAN_FRACTION = 0.5  # an object lives for at least this share of the span


@dataclass(frozen=True)
class MovementConfig:
    """Parameters of the random waypoint simulation."""

    max_speed: float = 1.0
    dwell_min_seconds: float = 30.0
    dwell_max_seconds: float = 180.0

    def __post_init__(self) -> None:
        if self.max_speed < MIN_SPEED:
            raise ValueError(f"max_speed cannot be below {MIN_SPEED} m/s")
        if self.dwell_min_seconds > self.dwell_max_seconds:
            raise ValueError("dwell_min_seconds cannot exceed dwell_max_seconds")


class RandomWaypointSimulator:
    """Simulates ground-truth trajectories over a floor plan."""

    def __init__(
        self,
        plan: FloorPlan,
        config: MovementConfig = MovementConfig(),
        seed: Optional[int] = None,
    ):
        self._plan = plan.freeze()
        self._config = config
        self._rng = random.Random(seed)
        self._router = DoorGraphRouter(self._plan)
        self._partitions = sorted(self._plan.partitions)
        # The rectangles whose interior no other partition meets, and the last
        # recorded partition with its rectangle, if it is one (module docstring).
        partitions = self._plan.partitions
        self._interiors: Dict[int, Tuple[float, float, float, float, int]] = {}
        for partition_id, partition in partitions.items():
            rect = partition.rect
            if not any(
                _meets_interior(other.rect, rect)
                for other_id, other in partitions.items()
                if other_id != partition_id
            ):
                self._interiors[partition_id] = (
                    rect.xmin, rect.ymin, rect.xmax, rect.ymax, rect.floor
                )
        self._last_partition: Optional[int] = None
        self._last_interior: Optional[Tuple[float, float, float, float, int]] = None

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(
        self, object_count: int, start_time: float, duration_seconds: float
    ) -> TrajectoryStore:
        """Simulate ``object_count`` objects over ``[start_time, start_time + duration]``."""
        if object_count < 1:
            raise ValueError("object_count must be positive")
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        store = TrajectoryStore()
        for object_id in range(object_count):
            store.add(self._simulate_object(object_id, start_time, duration_seconds))
        return store

    def _simulate_object(
        self, object_id: int, start_time: float, duration_seconds: float
    ) -> Trajectory:
        rng = self._rng
        lifespan = duration_seconds * rng.uniform(MIN_LIFESPAN_FRACTION, 1.0)
        begin = start_time + rng.uniform(0.0, duration_seconds - lifespan)
        end = begin + lifespan

        trajectory = Trajectory(object_id)
        current = self._random_point_in(self._random_partition())
        time_cursor = begin
        self._record(trajectory, time_cursor, current)

        while time_cursor < end:
            destination_partition = self._random_partition()
            destination = self._random_point_in(destination_partition)
            time_cursor = self._walk(
                trajectory, current, destination, time_cursor, end
            )
            if time_cursor >= end:
                break
            current = destination
            time_cursor = self._dwell(trajectory, current, time_cursor, end)
        return trajectory

    # ------------------------------------------------------------------
    # Movement phases
    # ------------------------------------------------------------------
    def _walk(
        self,
        trajectory: Trajectory,
        origin: Point,
        destination: Point,
        start: float,
        deadline: float,
    ) -> float:
        route = self._router.route(origin, destination)
        if route is None:
            # Disconnected targets should not occur in generated buildings,
            # but if they do the object simply stays put for one tick.
            self._record(trajectory, start + TICK_SECONDS, origin)
            return start + TICK_SECONDS

        speed = self._rng.uniform(MIN_SPEED, self._config.max_speed)
        time_cursor = start
        waypoints = list(route.waypoints)
        position = waypoints[0]
        for target in waypoints[1:]:
            leg_length = position.distance_to(target)
            if leg_length == float("inf"):
                # Floor change inside a staircase: jump to the target point
                # after a nominal climbing time.
                for _ in range(CLIMB_TICKS):
                    time_cursor += TICK_SECONDS
                    if time_cursor > deadline:
                        return time_cursor
                    self._record(trajectory, time_cursor, position)
                position = target
                self._record(trajectory, time_cursor, position)
                continue
            travelled = 0.0
            while travelled < leg_length:
                time_cursor += TICK_SECONDS
                if time_cursor > deadline:
                    return time_cursor
                travelled = min(travelled + speed * TICK_SECONDS, leg_length)
                fraction = travelled / leg_length if leg_length > 0 else 1.0
                self._record(trajectory, time_cursor, interpolate(position, target, fraction))
            position = target
        return time_cursor

    def _dwell(
        self, trajectory: Trajectory, position: Point, start: float, deadline: float
    ) -> float:
        config = self._config
        dwell = self._rng.uniform(config.dwell_min_seconds, config.dwell_max_seconds)
        time_cursor = start
        elapsed = 0.0
        while elapsed < dwell:
            time_cursor += TICK_SECONDS
            if time_cursor > deadline:
                return time_cursor
            elapsed += TICK_SECONDS
            self._record(trajectory, time_cursor, position)
        return time_cursor

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _random_partition(self) -> int:
        return self._rng.choice(self._partitions)

    def _random_point_in(self, partition_id: int) -> Point:
        rect = self._plan.partitions[partition_id].rect
        margin_x = min(0.5, rect.width / 4.0)
        margin_y = min(0.5, rect.height / 4.0)
        return Point(
            self._rng.uniform(rect.xmin + margin_x, rect.xmax - margin_x),
            self._rng.uniform(rect.ymin + margin_y, rect.ymax - margin_y),
            rect.floor,
        )

    def _record(self, trajectory: Trajectory, timestamp: float, location: Point) -> None:
        box = self._last_interior
        if box is None or not (
            box[0] < location.x < box[2]
            and box[1] < location.y < box[3]
            and location.floor == box[4]
        ):
            self._last_partition = self._plan.partition_containing(location)
            self._last_interior = self._interiors.get(self._last_partition)
        trajectory.append(
            TrajectoryPoint(
                timestamp=timestamp, location=location, partition_id=self._last_partition
            )
        )


def _meets_interior(rect: Rect, other: Rect) -> bool:
    """Whether the closed ``rect`` shares a point with ``other``'s open interior."""
    return (
        rect.floor == other.floor
        and rect.xmin < other.xmax
        and other.xmin < rect.xmax
        and rect.ymin < other.ymax
        and other.ymin < rect.ymax
    )
