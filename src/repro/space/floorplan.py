"""The floor plan: the container for all indoor space entities.

A :class:`FloorPlan` holds the partitions, doors, P-locations, and S-locations
of a building (single- or multi-floor) and offers geometric lookups backed by
an in-memory R-tree, mirroring how the paper stores "the entities including
S-locations, P-locations, and doors" in an R-tree to "facilitate the
geometrical computation for determining the topological relationships".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..geometry import Point, Rect
from ..indexes import RTree
from .entities import (
    Door,
    Partition,
    PartitionKind,
    PLocation,
    PLocationKind,
    SLocation,
)


class FloorPlanError(ValueError):
    """Raised when a floor plan is built or queried inconsistently."""


class FloorPlan:
    """A mutable builder + read model for an indoor space.

    Typical usage::

        plan = FloorPlan()
        r1 = plan.add_partition(Rect(0, 0, 5, 5), kind=PartitionKind.ROOM, name="r1")
        ...
        plan.add_door(Point(5, 2.5), (r1, r6))
        plan.add_partitioning_plocation(Point(5, 2.5), door_id=0)
        plan.add_presence_plocation(Point(2, 2), partition_id=r1)
        plan.add_slocation(Rect(0, 0, 5, 5), name="room 1")
        plan.freeze()

    ``freeze`` validates the plan and builds the geometric indexes; mutation
    after freezing raises.
    """

    def __init__(self) -> None:
        self.partitions: Dict[int, Partition] = {}
        self.doors: Dict[int, Door] = {}
        self.plocations: Dict[int, PLocation] = {}
        self.slocations: Dict[int, SLocation] = {}
        self._frozen = False
        self._partition_index: Optional[RTree] = None
        self._slocation_index: Optional[RTree] = None
        self._doors_by_partition: Dict[int, List[int]] = {}
        #: P-location id → :meth:`slocations_containing` its position, built
        #: by :meth:`freeze` (the SC baselines count through it).
        self.slocations_of_plocation: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Builder API
    # ------------------------------------------------------------------
    def add_partition(
        self,
        rect: Rect,
        kind: PartitionKind = PartitionKind.ROOM,
        name: str = "",
    ) -> int:
        """Register a partition and return its identifier."""
        self._ensure_mutable()
        partition_id = len(self.partitions)
        self.partitions[partition_id] = Partition(partition_id, rect, kind, name)
        return partition_id

    def add_door(self, position: Point, partition_ids: Tuple[int, int], name: str = "") -> int:
        """Register a door between two existing partitions and return its id."""
        self._ensure_mutable()
        for pid in partition_ids:
            if pid not in self.partitions:
                raise FloorPlanError(f"door references unknown partition {pid}")
        door_id = len(self.doors)
        self.doors[door_id] = Door(door_id, position, tuple(partition_ids), name)
        return door_id

    def add_partitioning_plocation(
        self, position: Point, door_id: int, name: str = ""
    ) -> int:
        """Register a partitioning P-location guarding ``door_id``."""
        self._ensure_mutable()
        if door_id not in self.doors:
            raise FloorPlanError(f"P-location references unknown door {door_id}")
        ploc_id = len(self.plocations)
        self.plocations[ploc_id] = PLocation(
            ploc_id, position, PLocationKind.PARTITIONING, door_id=door_id, name=name
        )
        return ploc_id

    def add_presence_plocation(
        self, position: Point, partition_id: Optional[int] = None, name: str = ""
    ) -> int:
        """Register a presence P-location inside ``partition_id``.

        If ``partition_id`` is omitted the containing partition is resolved
        geometrically, which requires the partitions added so far to cover the
        position.
        """
        self._ensure_mutable()
        if partition_id is None:
            partition_id = self._resolve_partition(position)
        if partition_id not in self.partitions:
            raise FloorPlanError(f"P-location references unknown partition {partition_id}")
        ploc_id = len(self.plocations)
        self.plocations[ploc_id] = PLocation(
            ploc_id, position, PLocationKind.PRESENCE, partition_id=partition_id, name=name
        )
        return ploc_id

    def add_slocation(self, region: Rect, name: str = "") -> int:
        """Register a semantic location and return its identifier."""
        self._ensure_mutable()
        sloc_id = len(self.slocations)
        self.slocations[sloc_id] = SLocation(sloc_id, region, name)
        return sloc_id

    def add_slocation_for_partition(self, partition_id: int, name: str = "") -> int:
        """Register an S-location coinciding with an existing partition."""
        partition = self.partitions.get(partition_id)
        if partition is None:
            raise FloorPlanError(f"unknown partition {partition_id}")
        return self.add_slocation(partition.rect, name or partition.label())

    def freeze(self) -> "FloorPlan":
        """Validate the plan and build the geometric indexes.  Returns ``self``."""
        if self._frozen:
            return self
        self._validate()
        self._partition_index = RTree.bulk_load(
            (p.rect, p.partition_id) for p in self.partitions.values()
        )
        self._slocation_index = RTree.bulk_load(
            (s.region, s.sloc_id) for s in self.slocations.values()
        )
        self._doors_by_partition = {pid: [] for pid in self.partitions}
        for door in self.doors.values():
            for pid in door.partition_ids:
                self._doors_by_partition[pid].append(door.door_id)
        self.slocations_of_plocation = {
            ploc_id: tuple(self.slocations_containing(ploc.position))
            for ploc_id, ploc in self.plocations.items()
        }
        self._frozen = True
        return self

    @property
    def is_frozen(self) -> bool:
        return self._frozen

    def _ensure_mutable(self) -> None:
        if self._frozen:
            raise FloorPlanError("the floor plan has been frozen and cannot be modified")

    def _validate(self) -> None:
        if not self.partitions:
            raise FloorPlanError("a floor plan needs at least one partition")
        for door in self.doors.values():
            floors = {self.partitions[p].floor for p in door.partition_ids}
            staircase = any(
                self.partitions[p].kind is PartitionKind.STAIRCASE
                for p in door.partition_ids
            )
            if len(floors) > 1 and not staircase:
                raise FloorPlanError(
                    f"door {door.door_id} crosses floors without a staircase partition"
                )
        for ploc in self.plocations.values():
            if ploc.is_presence and ploc.partition_id not in self.partitions:
                raise FloorPlanError(
                    f"presence P-location {ploc.ploc_id} references unknown partition"
                )
            if ploc.is_partitioning and ploc.door_id not in self.doors:
                raise FloorPlanError(
                    f"partitioning P-location {ploc.ploc_id} references unknown door"
                )

    # ------------------------------------------------------------------
    # Geometric / topological lookups
    # ------------------------------------------------------------------
    def _resolve_partition(self, point: Point) -> int:
        for partition in self.partitions.values():
            if partition.contains(point):
                return partition.partition_id
        raise FloorPlanError(f"no partition contains point {point}")

    def partition_containing(self, point: Point) -> Optional[int]:
        """Return the id of the partition containing ``point``, if any."""
        if self._partition_index is not None:
            hits = self._partition_index.search_point(point)
            return min(hits) if hits else None
        for partition in self.partitions.values():
            if partition.contains(point):
                return partition.partition_id
        return None

    def slocations_containing(self, point: Point) -> List[int]:
        """Return the ids of all S-locations whose region contains ``point``."""
        if self._slocation_index is not None:
            return sorted(self._slocation_index.search_point(point))
        return sorted(
            s.sloc_id for s in self.slocations.values() if s.contains(point)
        )

    def doors_of_partition(self, partition_id: int) -> List[Door]:
        """Return the doors incident to ``partition_id``."""
        if self._frozen:
            return [self.doors[d] for d in self._doors_by_partition.get(partition_id, [])]
        return [d for d in self.doors.values() if partition_id in d.partition_ids]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def floors(self) -> List[int]:
        """The sorted list of floor numbers present in the plan."""
        return sorted({p.floor for p in self.partitions.values()})

    def summary(self) -> Dict[str, int]:
        """Return entity counts, handy for logging and docs."""
        partitioning = sum(1 for p in self.plocations.values() if p.is_partitioning)
        return {
            "partitions": len(self.partitions),
            "doors": len(self.doors),
            "plocations": len(self.plocations),
            "partitioning_plocations": partitioning,
            "presence_plocations": len(self.plocations) - partitioning,
            "slocations": len(self.slocations),
            "floors": len(self.floors),
        }
