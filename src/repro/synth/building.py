"""Synthetic multi-floor building generator (the Vita-like substrate).

The paper's synthetic evaluation uses the Vita generator to build a 5-floor
building (each floor 120 m x 120 m with 100 rooms and 4 staircases) and to
simulate moving objects inside it.  Vita itself is not available, so this
module provides a parameterised grid building generator producing the same
kind of floor plan:

* each floor is a grid of rectangular rooms organised in rows;
* a horizontal hallway runs below every room row and a vertical hallway
  connects all horizontal hallways;
* staircases sit next to the vertical hallway and connect adjacent floors;
* every room has one door to its hallway, hallways interconnect through open
  (unguarded) doors;
* partitioning P-locations guard a configurable fraction of the room doors
  and every staircase door, presence P-locations are laid out on a regular
  lattice inside the partitions (the pre-selected reference points of a
  fingerprinting deployment);
* every partition doubles as an S-location.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..geometry import Point, Rect
from ..space import FloorPlan, PartitionKind


@dataclass(frozen=True)
class BuildingConfig:
    """Parameters of the synthetic grid building."""

    floors: int = 1
    room_rows: int = 2
    rooms_per_row: int = 5
    room_width: float = 12.0
    room_height: float = 12.0
    hallway_height: float = 4.0
    vertical_hallway_width: float = 4.0
    staircase_size: float = 6.0
    door_guard_fraction: float = 1.0
    presence_grid_step: float = 6.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.floors < 1:
            raise ValueError("a building needs at least one floor")
        if self.room_rows < 1 or self.rooms_per_row < 1:
            raise ValueError("the room grid must contain at least one room")
        if not (0.0 <= self.door_guard_fraction <= 1.0):
            raise ValueError("door_guard_fraction must be in [0, 1]")

    @property
    def floor_width(self) -> float:
        return self.rooms_per_row * self.room_width + self.vertical_hallway_width

    @property
    def floor_height(self) -> float:
        return self.room_rows * (self.room_height + self.hallway_height)


@dataclass
class GeneratedBuilding:
    """The generator output: a frozen floor plan plus id bookkeeping."""

    plan: FloorPlan
    config: BuildingConfig
    room_partitions: List[int] = field(default_factory=list)
    hallway_partitions: List[int] = field(default_factory=list)
    staircase_partitions: List[int] = field(default_factory=list)

    def slocation_ids(self) -> List[int]:
        return sorted(self.plan.slocations)


class GridBuildingGenerator:
    """Builds a :class:`GeneratedBuilding` from a :class:`BuildingConfig`."""

    def __init__(self, config: BuildingConfig = BuildingConfig()):
        self._config = config

    @property
    def config(self) -> BuildingConfig:
        return self._config

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(self) -> GeneratedBuilding:
        config = self._config
        rng = random.Random(config.seed)
        plan = FloorPlan()
        building = GeneratedBuilding(plan=plan, config=config)

        staircases_by_floor: Dict[int, int] = {}
        hallways_by_floor: Dict[int, List[int]] = {}

        for floor in range(config.floors):
            rooms, hallways, vertical = self._build_floor_partitions(plan, floor)
            building.room_partitions.extend(rooms.values())
            building.hallway_partitions.extend(hallways + [vertical])
            hallways_by_floor[floor] = hallways + [vertical]

            self._connect_rooms_to_hallways(plan, rng, floor, rooms, hallways)
            self._connect_hallways(plan, floor, hallways, vertical)

            staircase_id = self._build_staircase(plan, floor, vertical)
            building.staircase_partitions.append(staircase_id)
            staircases_by_floor[floor] = staircase_id

        self._connect_staircases(plan, staircases_by_floor)
        self._add_presence_plocations(plan)
        self._add_slocations(plan)
        plan.freeze()
        return building

    # ------------------------------------------------------------------
    # Floor construction
    # ------------------------------------------------------------------
    def _build_floor_partitions(
        self, plan: FloorPlan, floor: int
    ) -> Tuple[Dict[Tuple[int, int], int], List[int], int]:
        config = self._config
        rooms: Dict[Tuple[int, int], int] = {}
        hallways: List[int] = []
        for row in range(config.room_rows):
            base_y = row * (config.room_height + config.hallway_height)
            for column in range(config.rooms_per_row):
                rect = Rect(
                    column * config.room_width,
                    base_y,
                    (column + 1) * config.room_width,
                    base_y + config.room_height,
                    floor,
                )
                rooms[(row, column)] = plan.add_partition(
                    rect, PartitionKind.ROOM, name=f"f{floor}-room-{row}-{column}"
                )
            hallway_rect = Rect(
                0.0,
                base_y + config.room_height,
                config.rooms_per_row * config.room_width,
                base_y + config.room_height + config.hallway_height,
                floor,
            )
            hallways.append(
                plan.add_partition(
                    hallway_rect, PartitionKind.HALLWAY, name=f"f{floor}-hall-{row}"
                )
            )
        vertical_rect = Rect(
            config.rooms_per_row * config.room_width,
            0.0,
            config.floor_width,
            config.floor_height,
            floor,
        )
        vertical = plan.add_partition(
            vertical_rect, PartitionKind.HALLWAY, name=f"f{floor}-hall-main"
        )
        return rooms, hallways, vertical

    def _connect_rooms_to_hallways(
        self,
        plan: FloorPlan,
        rng: random.Random,
        floor: int,
        rooms: Dict[Tuple[int, int], int],
        hallways: List[int],
    ) -> None:
        config = self._config
        for (row, column), room_id in rooms.items():
            room_rect = plan.partitions[room_id].rect
            door_point = Point(
                (room_rect.xmin + room_rect.xmax) / 2.0, room_rect.ymax, floor
            )
            door_id = plan.add_door(door_point, (room_id, hallways[row]))
            if rng.random() < config.door_guard_fraction:
                plan.add_partitioning_plocation(door_point, door_id)

    def _connect_hallways(
        self, plan: FloorPlan, floor: int, hallways: List[int], vertical: int
    ) -> None:
        config = self._config
        for row, hallway_id in enumerate(hallways):
            hallway_rect = plan.partitions[hallway_id].rect
            junction = Point(
                hallway_rect.xmax,
                (hallway_rect.ymin + hallway_rect.ymax) / 2.0,
                floor,
            )
            # Hallway junctions stay unguarded so the hallway network of a
            # floor forms one open cell, as in a typical deployment.
            plan.add_door(junction, (hallway_id, vertical))

    def _build_staircase(self, plan: FloorPlan, floor: int, vertical: int) -> int:
        config = self._config
        vertical_rect = plan.partitions[vertical].rect
        # The staircase sits next to the top of the vertical hallway as a
        # separate partition outside the room grid, so nothing overlaps.
        staircase_rect = Rect(
            vertical_rect.xmax,
            vertical_rect.ymax - config.staircase_size,
            vertical_rect.xmax + config.staircase_size,
            vertical_rect.ymax,
            floor,
        )
        staircase = plan.add_partition(
            staircase_rect, PartitionKind.STAIRCASE, name=f"f{floor}-stairs"
        )
        door_point = Point(
            staircase_rect.xmin,
            (staircase_rect.ymin + staircase_rect.ymax) / 2.0,
            floor,
        )
        door_id = plan.add_door(door_point, (staircase, vertical))
        plan.add_partitioning_plocation(door_point, door_id)
        return staircase

    def _connect_staircases(
        self, plan: FloorPlan, staircases_by_floor: Dict[int, int]
    ) -> None:
        floors = sorted(staircases_by_floor)
        for lower, upper in zip(floors, floors[1:]):
            lower_id = staircases_by_floor[lower]
            upper_id = staircases_by_floor[upper]
            lower_rect = plan.partitions[lower_id].rect
            door_point = Point(
                (lower_rect.xmin + lower_rect.xmax) / 2.0,
                (lower_rect.ymin + lower_rect.ymax) / 2.0,
                lower,
            )
            door_id = plan.add_door(door_point, (lower_id, upper_id))
            plan.add_partitioning_plocation(door_point, door_id)

    # ------------------------------------------------------------------
    # P-locations and S-locations
    # ------------------------------------------------------------------
    def _add_presence_plocations(self, plan: FloorPlan) -> None:
        """Lay the reference-point lattice, clamped to each partition's extent.

        ``Rect.sample_grid`` yields nothing along a dimension shorter than
        the step, which used to leave the (4 m wide) hallways without any
        presence P-location: an object transiting a hallway could then only
        report P-locations of *other* cells, its positioning sequence became
        topologically inconsistent, every possible path died, and the whole
        synthetic building produced all-zero flows.  Clamping the step per
        partition guarantees every partition at least a centre line of
        reference points, matching how a real fingerprint deployment always
        covers its corridors.
        """
        step = self._config.presence_grid_step
        for partition in list(plan.partitions.values()):
            for point in clamped_lattice(partition.rect, step):
                plan.add_presence_plocation(point, partition.partition_id)

    def _add_slocations(self, plan: FloorPlan) -> None:
        for partition in list(plan.partitions.values()):
            plan.add_slocation_for_partition(partition.partition_id)


def clamped_lattice(rect: Rect, step: float) -> List[Point]:
    """A regular interior lattice with the step clamped to the rect's extent.

    Unlike :meth:`~repro.geometry.rect.Rect.sample_grid`, which yields
    nothing along a dimension shorter than the step, this always covers the
    rect: thin corridors get a centre line of points and degenerate rects
    fall back to the centre point — the coverage rule every reference-point
    deployment needs (see the all-zero-flows regression in
    ``tests/test_synth.py``).
    """
    if step <= 0:
        raise ValueError("step must be positive")  # same contract as sample_grid
    step_x = min(step, rect.width)
    step_y = min(step, rect.height)
    if step_x <= 0 or step_y <= 0:
        # Degenerate rect (zero-width/height), not a bad step.
        return [rect.center]
    points: List[Point] = []
    x = rect.xmin + step_x / 2.0
    while x <= rect.xmax - step_x / 2.0 + 1e-9:
        y = rect.ymin + step_y / 2.0
        while y <= rect.ymax - step_y / 2.0 + 1e-9:
            points.append(Point(x, y, rect.floor))
            y += step_y
        x += step_x
    return points or [rect.center]


def build_grid_building(**overrides) -> GeneratedBuilding:
    """Convenience wrapper: generate a building from keyword overrides."""
    config = BuildingConfig(**overrides)
    return GridBuildingGenerator(config).generate()
