"""Synthetic multi-floor building generator (the Vita-like substrate).

The paper's synthetic evaluation uses the Vita generator to build a 5-floor
building (each floor 120 m x 120 m with 100 rooms and 4 staircases) and to
simulate moving objects inside it.  Vita itself is not available, so this
module builds the same kind of floor plan on a grid:

* each floor is a grid of rectangular rooms organised in rows;
* a horizontal hallway runs below every room row and a vertical hallway
  connects all horizontal hallways;
* staircases sit next to the vertical hallway and connect adjacent floors;
* every room has one door to its hallway, hallways interconnect through open
  (unguarded) doors;
* partitioning P-locations guard every room door and every staircase door,
  presence P-locations are laid out on a regular lattice inside the
  partitions (the pre-selected reference points of a fingerprinting
  deployment);
* every partition doubles as an S-location.
"""

from __future__ import annotations

from typing import List, Tuple

from ..geometry import Point, Rect
from ..space import FloorPlan, PartitionKind

ROOM_SIZE = 12.0  # a room's width and depth, metres
HALLWAY_WIDTH = 4.0  # the horizontal hallways' depth and the vertical hallway's width
STAIRCASE_SIZE = 6.0
LATTICE_STEP = 6.0  # spacing of the reference-point lattice


def grid_building(floors: int, room_rows: int, rooms_per_row: int) -> FloorPlan:
    """The frozen plan of ``floors`` floors, each ``room_rows`` x ``rooms_per_row`` rooms."""
    if floors < 1:
        raise ValueError("a building needs at least one floor")
    if room_rows < 1 or rooms_per_row < 1:
        raise ValueError("the room grid must contain at least one room")
    plan = FloorPlan()
    width = rooms_per_row * ROOM_SIZE
    height = room_rows * (ROOM_SIZE + HALLWAY_WIDTH)
    staircases: List[int] = []
    for floor in range(floors):
        rooms: List[Tuple[int, int]] = []  # (room, its row)
        hallways: List[int] = []
        for row in range(room_rows):
            base_y = row * (ROOM_SIZE + HALLWAY_WIDTH)
            top = base_y + ROOM_SIZE
            for column in range(rooms_per_row):
                rect = Rect(column * ROOM_SIZE, base_y, (column + 1) * ROOM_SIZE, top, floor)
                name = f"f{floor}-room-{row}-{column}"
                rooms.append((plan.add_partition(rect, PartitionKind.ROOM, name=name), row))
            rect = Rect(0.0, top, width, top + HALLWAY_WIDTH, floor)
            name = f"f{floor}-hall-{row}"
            hallways.append(plan.add_partition(rect, PartitionKind.HALLWAY, name=name))
        main = plan.add_partition(
            Rect(width, 0.0, width + HALLWAY_WIDTH, height, floor),
            PartitionKind.HALLWAY,
            name=f"f{floor}-hall-main",
        )
        for room, row in rooms:
            rect = plan.partitions[room].rect
            door = Point((rect.xmin + rect.xmax) / 2.0, rect.ymax, floor)
            _guarded_door(plan, door, room, hallways[row])
        for hallway in hallways:
            # Hallway junctions stay unguarded so the hallway network of a
            # floor forms one open cell, as in a typical deployment.
            rect = plan.partitions[hallway].rect
            plan.add_door(Point(rect.xmax, (rect.ymin + rect.ymax) / 2.0, floor), (hallway, main))
        # The staircase sits next to the top of the vertical hallway as a
        # separate partition outside the room grid, so nothing overlaps.
        x = width + HALLWAY_WIDTH
        rect = Rect(x, height - STAIRCASE_SIZE, x + STAIRCASE_SIZE, height, floor)
        staircase = plan.add_partition(rect, PartitionKind.STAIRCASE, name=f"f{floor}-stairs")
        _guarded_door(plan, Point(x, (rect.ymin + rect.ymax) / 2.0, floor), staircase, main)
        staircases.append(staircase)
    for lower, (below, above) in enumerate(zip(staircases, staircases[1:])):
        rect = plan.partitions[below].rect
        door = Point((rect.xmin + rect.xmax) / 2.0, (rect.ymin + rect.ymax) / 2.0, lower)
        _guarded_door(plan, door, below, above)
    return complete_plan(plan, LATTICE_STEP)


def _guarded_door(plan: FloorPlan, point: Point, first: int, second: int) -> None:
    plan.add_partitioning_plocation(point, plan.add_door(point, (first, second)))


def complete_plan(plan: FloorPlan, step: float) -> FloorPlan:
    """Lay the reference-point lattice in every partition, make every
    partition an S-location, and freeze the plan.

    The lattice is clamped per partition (:func:`clamped_lattice`): with the
    6 m step, an unclamped lattice left the 4 m hallways without any presence
    P-location, so an object transiting a hallway could only report
    P-locations of *other* cells, its positioning sequence became
    topologically inconsistent, every possible path died, and the whole
    synthetic building produced all-zero flows.
    """
    for partition in list(plan.partitions.values()):
        for point in clamped_lattice(partition.rect, step):
            plan.add_presence_plocation(point, partition.partition_id)
    for partition_id in list(plan.partitions):
        plan.add_slocation_for_partition(partition_id)
    return plan.freeze()


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
