"""The "real data" scenario: the university test floor of Section 5.2.

The paper's real dataset (35 smartphone users tracked over a 33.9 m x 25.9 m
university floor with 14 S-locations and 75 Wi-Fi reference points) is not
publicly available.  As README's *Architecture* section says of ``synth/``
(simulated stand-ins for the paper's "real" and synthetic settings), this
module rebuilds a floor plan with the same structure and statistics — 9 office
rooms plus 5 hallway segments, partitioning P-locations at the doors, presence
reference points on a lattice with a density giving roughly 75 P-locations in
total — and the scenario builder then simulates 35 users over it with the
reported positioning characteristics (reporting period ≤ 3 s, up to 4 samples
per report, ~2.1 m positioning error).
"""

from __future__ import annotations

from typing import List

from ..geometry import Point, Rect
from ..space import FloorPlan, PartitionKind
from .building import complete_plan

FLOOR_WIDTH = 33.9
FLOOR_HEIGHT = 25.9
HALLWAY_BAND = (10.0, 15.9)
LATTICE_STEP = 3.4  # gives roughly the paper's 75 reference points


def build_university_floorplan() -> FloorPlan:
    """Build the single-floor university test plan of Figure 6.

    Layout (all sizes in metres):

    * five office rooms along the top edge and four along the bottom edge;
    * a central hallway band split into five hallway segments;
    * every room has one door into the hallway band (guarded by a
      partitioning P-location);
    * neighbouring hallway segments connect through guarded doors, so each
      room and each hallway segment is its own cell — matching the fine
      granularity of the paper's real deployment;
    * presence P-locations on a regular lattice inside every partition.
    """
    plan = FloorPlan()
    hallway_ymin, hallway_ymax = HALLWAY_BAND

    top_rooms = _add_row_of_rooms(
        plan, count=5, ymin=hallway_ymax, ymax=FLOOR_HEIGHT, prefix="office-top"
    )
    bottom_rooms = _add_row_of_rooms(
        plan, count=4, ymin=0.0, ymax=hallway_ymin, prefix="office-bottom"
    )
    hallways = _add_hallway_segments(plan, count=5, ymin=hallway_ymin, ymax=hallway_ymax)

    _connect_rooms(plan, top_rooms, hallways, door_y=hallway_ymax, room_edge="bottom")
    _connect_rooms(plan, bottom_rooms, hallways, door_y=hallway_ymin, room_edge="top")
    _connect_hallways(plan, hallways, hallway_ymin, hallway_ymax)
    return complete_plan(plan, LATTICE_STEP)


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def _add_row_of_rooms(
    plan: FloorPlan, count: int, ymin: float, ymax: float, prefix: str
) -> List[int]:
    width = FLOOR_WIDTH / count
    rooms = []
    for index in range(count):
        rect = Rect(index * width, ymin, (index + 1) * width, ymax, 0)
        rooms.append(
            plan.add_partition(rect, PartitionKind.ROOM, name=f"{prefix}-{index}")
        )
    return rooms


def _add_hallway_segments(
    plan: FloorPlan, count: int, ymin: float, ymax: float
) -> List[int]:
    width = FLOOR_WIDTH / count
    segments = []
    for index in range(count):
        rect = Rect(index * width, ymin, (index + 1) * width, ymax, 0)
        segments.append(
            plan.add_partition(rect, PartitionKind.HALLWAY, name=f"hallway-{index}")
        )
    return segments


def _connect_rooms(
    plan: FloorPlan,
    rooms: List[int],
    hallways: List[int],
    door_y: float,
    room_edge: str,
) -> None:
    for room_id in rooms:
        room_rect = plan.partitions[room_id].rect
        door_x = (room_rect.xmin + room_rect.xmax) / 2.0
        hallway_id = _hallway_for_x(plan, hallways, door_x)
        door_point = Point(door_x, door_y, 0)
        door_id = plan.add_door(door_point, (room_id, hallway_id))
        plan.add_partitioning_plocation(door_point, door_id)


def _hallway_for_x(plan: FloorPlan, hallways: List[int], x: float) -> int:
    for hallway_id in hallways:
        rect = plan.partitions[hallway_id].rect
        if rect.xmin <= x <= rect.xmax:
            return hallway_id
    return hallways[-1]


def _connect_hallways(
    plan: FloorPlan, hallways: List[int], ymin: float, ymax: float
) -> None:
    middle_y = (ymin + ymax) / 2.0
    for left, right in zip(hallways, hallways[1:]):
        boundary_x = plan.partitions[left].rect.xmax
        door_point = Point(boundary_x, middle_y, 0)
        door_id = plan.add_door(door_point, (left, right))
        plan.add_partitioning_plocation(door_point, door_id)

