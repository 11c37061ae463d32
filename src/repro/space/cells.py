"""Cell derivation from partitions and partitioning P-locations.

Section 2.1 of the paper: "A set of partitioning P-locations altogether
partition the indoor space into cells in that an object cannot move from one
cell to another without passing one of these P-locations."  A cell is an
indoor partition or a combination of adjacent partitions (footnote 1).

Equivalently: merge partitions connected through *unguarded* doors (doors that
host no partitioning P-location).  The connected components of that relation
are the cells.  This module performs the derivation with a union-find
structure so that it stays near-linear even for large synthetic buildings.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..geometry import Rect
from .entities import Cell
from .floorplan import FloorPlan


class UnionFind:
    """A classic disjoint-set structure with path compression and union by size."""

    def __init__(self, elements: List[int]):
        self._parent: Dict[int, int] = {e: e for e in elements}
        self._size: Dict[int, int] = {e: 1 for e in elements}

    def find(self, element: int) -> int:
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, a: int, b: int) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]

    def groups(self) -> Dict[int, Set[int]]:
        """Return ``root -> member set`` for every component."""
        result: Dict[int, Set[int]] = {}
        for element in self._parent:
            result.setdefault(self.find(element), set()).add(element)
        return result


def guarded_door_ids(plan: FloorPlan) -> Set[int]:
    """Return the ids of doors hosting at least one partitioning P-location."""
    return {
        ploc.door_id
        for ploc in plan.plocations.values()
        if ploc.is_partitioning and ploc.door_id is not None
    }


def derive_cells(plan: FloorPlan) -> List[Cell]:
    """Derive the topological cells of a floor plan.

    Partitions connected by a door without any partitioning P-location belong
    to the same cell.  The returned cells are numbered deterministically (by
    the smallest partition id they contain) so repeated derivations on the
    same plan produce identical ids — important because cell ids are embedded
    in the indoor location matrix and in test expectations.
    """
    partition_ids = list(plan.partitions)
    if not partition_ids:
        return []
    uf = UnionFind(partition_ids)
    guarded = guarded_door_ids(plan)
    for door in plan.doors.values():
        if door.door_id in guarded:
            continue
        a, b = door.partition_ids
        uf.union(a, b)

    groups = uf.groups()
    ordered = sorted(groups.values(), key=min)
    cells: List[Cell] = []
    for index, members in enumerate(ordered):
        mbr = _cell_mbr(plan, members)
        cells.append(
            Cell(cell_id=index, partition_ids=frozenset(members), mbr=mbr)
        )
    return cells


def partition_to_cell(cells: List[Cell]) -> Dict[int, int]:
    """Return a ``partition_id -> cell_id`` mapping for the derived cells."""
    mapping: Dict[int, int] = {}
    for cell in cells:
        for pid in cell.partition_ids:
            mapping[pid] = cell.cell_id
    return mapping


def _cell_mbr(plan: FloorPlan, members: Set[int]) -> Rect:
    rects = [plan.partitions[pid].rect for pid in sorted(members)]
    floors = {r.floor for r in rects}
    if len(floors) == 1:
        return Rect.union_all(rects)
    # A cell spanning floors (e.g. an unguarded staircase): keep a planar MBR
    # on the lowest floor; the MBR is only used for coarse pruning.
    base_floor = min(floors)
    xmin = min(r.xmin for r in rects)
    ymin = min(r.ymin for r in rects)
    xmax = max(r.xmax for r in rects)
    ymax = max(r.ymax for r in rects)
    return Rect(xmin, ymin, xmax, ymax, base_floor)
