"""Indoor space entities: partitions, doors, P-locations, S-locations, cells.

Terminology follows Section 2.1 of the paper:

* A **partition** is a room, hallway, or staircase created by walls and doors.
* A **door** connects exactly two partitions and is the only way to move
  between them.
* A **P-location** (positioning location) is a discrete point location an
  indoor positioning system can report.  *Partitioning* P-locations sit at
  doors and split the space into cells; *presence* P-locations merely witness
  that an object is inside some partition.
* An **S-location** (semantic location) is a user-defined region of interest,
  e.g. a shop or an exhibition area.
* A **cell** is a partition or a maximal union of partitions such that an
  object cannot enter or leave the cell without being observed at one of the
  partitioning P-locations on its boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from ..geometry import Point, Rect


class PartitionKind(str, enum.Enum):
    """The functional kind of an indoor partition."""

    ROOM = "room"
    HALLWAY = "hallway"
    STAIRCASE = "staircase"


class PLocationKind(str, enum.Enum):
    """Whether a P-location partitions the space or merely implies presence."""

    PARTITIONING = "partitioning"
    PRESENCE = "presence"


@dataclass(frozen=True)
class Partition:
    """An indoor partition (room, hallway, or staircase)."""

    partition_id: int
    rect: Rect
    kind: PartitionKind = PartitionKind.ROOM
    name: str = ""

    @property
    def floor(self) -> int:
        return self.rect.floor

    def contains(self, point: Point) -> bool:
        return self.rect.contains_point(point)

    def label(self) -> str:
        return self.name or f"r{self.partition_id}"


@dataclass(frozen=True)
class Door:
    """A door connecting two partitions.

    ``partition_ids`` always holds exactly two distinct partition identifiers.
    Staircase doors connect partitions on different floors; planar distance
    across such a door is taken as the door-to-door walking distance within the
    staircase partition.
    """

    door_id: int
    position: Point
    partition_ids: Tuple[int, int]
    name: str = ""

    def __post_init__(self) -> None:
        if len(set(self.partition_ids)) != 2:
            raise ValueError("a door must connect two distinct partitions")

    def other_side(self, partition_id: int) -> int:
        """Return the partition on the other side of the door."""
        a, b = self.partition_ids
        if partition_id == a:
            return b
        if partition_id == b:
            return a
        raise ValueError(f"partition {partition_id} is not incident to door {self.door_id}")

    def connects(self, partition_a: int, partition_b: int) -> bool:
        return set(self.partition_ids) == {partition_a, partition_b}

    def label(self) -> str:
        return self.name or f"d{self.door_id}"


@dataclass(frozen=True)
class PLocation:
    """A positioning location (reference point) returned by the positioning system."""

    ploc_id: int
    position: Point
    kind: PLocationKind
    door_id: Optional[int] = None
    partition_id: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind is PLocationKind.PARTITIONING and self.door_id is None:
            raise ValueError("a partitioning P-location must reference the door it guards")
        if self.kind is PLocationKind.PRESENCE and self.partition_id is None:
            raise ValueError("a presence P-location must reference its containing partition")

    @property
    def is_partitioning(self) -> bool:
        return self.kind is PLocationKind.PARTITIONING

    @property
    def is_presence(self) -> bool:
        return self.kind is PLocationKind.PRESENCE

    def label(self) -> str:
        return self.name or f"p{self.ploc_id}"


@dataclass(frozen=True)
class SLocation:
    """A semantic location: a user-defined region of interest."""

    sloc_id: int
    region: Rect
    name: str = ""

    @property
    def floor(self) -> int:
        return self.region.floor

    @property
    def area(self) -> float:
        return self.region.area

    def contains(self, point: Point) -> bool:
        return self.region.contains_point(point)

    def label(self) -> str:
        return self.name or f"s{self.sloc_id}"


@dataclass(frozen=True)
class Cell:
    """A topological cell: one partition or a union of adjacent partitions.

    An object cannot enter or leave a cell without being positioned at one of
    the partitioning P-locations on its boundary (Section 2.1, footnote 1).
    """

    cell_id: int
    partition_ids: FrozenSet[int]
    mbr: Rect = field(compare=False)
    name: str = ""

    def __post_init__(self) -> None:
        if not self.partition_ids:
            raise ValueError("a cell must cover at least one partition")

    def label(self) -> str:
        return self.name or f"c{self.cell_id}"
