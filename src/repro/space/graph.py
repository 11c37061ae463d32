"""The Indoor Space Location Graph (GISL) of Section 3.1.1.

``GISL = (C, E, le)`` where the vertices ``C`` are the indoor cells, the edges
``E`` connect cells an object can move between directly, and the labelling
``le`` maps an edge to the set of P-locations witnessing that movement:

* a non-loop edge ``<ci, cj>`` is labelled with the partitioning P-locations
  whose doors divide ``ci`` from ``cj``;
* a loop edge ``<ci, ci>`` is labelled with the presence P-locations fully
  covered by ``ci``.

The graph also carries the two mappings the paper uses to bridge cells and
semantic locations: ``C2S`` (cell -> S-locations it contains) and ``Cell``
(S-location -> parent cell).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .cells import derive_cells, partition_to_cell
from .entities import Cell, PLocation
from .floorplan import FloorPlan


EdgeKey = Tuple[int, int]


def _edge_key(cell_a: int, cell_b: int) -> EdgeKey:
    """Normalise an undirected edge key (loops allowed)."""
    return (cell_a, cell_b) if cell_a <= cell_b else (cell_b, cell_a)


@dataclass
class IndoorSpaceLocationGraph:
    """The indoor space location graph plus the C2S / Cell mappings.

    Build one with :meth:`from_floorplan`; the constructor fields are exposed
    for tests that want to assemble a graph by hand.
    """

    plan: FloorPlan
    cells: Dict[int, Cell]
    edges: Dict[EdgeKey, Set[int]]
    cell_of_partition: Dict[int, int]
    cells_of_plocation: Dict[int, FrozenSet[int]]
    cell_to_slocations: Dict[int, Set[int]] = field(default_factory=dict)
    slocation_to_cell: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_floorplan(cls, plan: FloorPlan) -> "IndoorSpaceLocationGraph":
        """Derive cells, edges, labels, and the S-location mappings from a plan."""
        if not plan.is_frozen:
            plan.freeze()
        cell_list = derive_cells(plan)
        cells = {cell.cell_id: cell for cell in cell_list}
        cell_of_partition = partition_to_cell(cell_list)

        edges: Dict[EdgeKey, Set[int]] = {}
        cells_of_plocation: Dict[int, FrozenSet[int]] = {}

        for ploc in plan.plocations.values():
            adjacent = cls._adjacent_cells(plan, ploc, cell_of_partition)
            cells_of_plocation[ploc.ploc_id] = adjacent
            key = cls._edge_for_cells(adjacent)
            edges.setdefault(key, set()).add(ploc.ploc_id)

        graph = cls(
            plan=plan,
            cells=cells,
            edges=edges,
            cell_of_partition=cell_of_partition,
            cells_of_plocation=cells_of_plocation,
        )
        graph._assign_slocations()
        return graph

    @staticmethod
    def _adjacent_cells(
        plan: FloorPlan, ploc: PLocation, cell_of_partition: Dict[int, int]
    ) -> FrozenSet[int]:
        """Return the cell set a P-location gives access to.

        Partitioning P-locations sit at a door and are adjacent to the cells
        on both sides; presence P-locations are covered by the single cell of
        their containing partition.  A partitioning P-location whose door ends
        up internal to one cell (because another unguarded door already joins
        the two sides) degenerates to a single-cell set, which is handled
        uniformly downstream.
        """
        if ploc.is_presence:
            assert ploc.partition_id is not None
            return frozenset({cell_of_partition[ploc.partition_id]})
        assert ploc.door_id is not None
        door = plan.doors[ploc.door_id]
        return frozenset(cell_of_partition[pid] for pid in door.partition_ids)

    @staticmethod
    def _edge_for_cells(adjacent: FrozenSet[int]) -> EdgeKey:
        cells = sorted(adjacent)
        if len(cells) == 1:
            return _edge_key(cells[0], cells[0])
        return _edge_key(cells[0], cells[1])

    def _assign_slocations(self) -> None:
        """Populate ``C2S`` and ``Cell`` for every S-location in the plan.

        An S-location is assigned to the parent cell of the partition that
        contains its region centre (the paper assumes an S-location has a
        single parent cell).  If the centre falls outside every partition
        (possible for hand-drawn regions), the cell with the largest region
        overlap is used instead.
        """
        self.cell_to_slocations = {cell_id: set() for cell_id in self.cells}
        self.slocation_to_cell = {}
        for sloc in self.plan.slocations.values():
            cell_id = self._parent_cell_of_region(sloc.region)
            if cell_id is None:
                continue
            self.slocation_to_cell[sloc.sloc_id] = cell_id
            self.cell_to_slocations[cell_id].add(sloc.sloc_id)

    def _parent_cell_of_region(self, region) -> Optional[int]:
        partition_id = self.plan.partition_containing(region.center)
        if partition_id is not None:
            return self.cell_of_partition[partition_id]
        best_cell: Optional[int] = None
        best_overlap = 0.0
        for cell in self.cells.values():
            overlap = sum(
                self.plan.partitions[pid].rect.intersection_area(region)
                for pid in cell.partition_ids
            )
            if overlap > best_overlap:
                best_overlap = overlap
                best_cell = cell.cell_id
        return best_cell

    # ------------------------------------------------------------------
    # The paper's mappings
    # ------------------------------------------------------------------
    def c2s_many(self, cell_ids) -> Set[int]:
        """Union of ``C2S`` over a collection of cells."""
        result: Set[int] = set()
        for cell_id in cell_ids:
            result |= self.cell_to_slocations.get(cell_id, set())
        return result

    def parent_cell(self, sloc_id: int) -> Optional[int]:
        """``Cell``: the parent cell of S-location ``sloc_id``."""
        return self.slocation_to_cell.get(sloc_id)

    def cells_of(self, ploc_id: int) -> FrozenSet[int]:
        """The cell set adjacent to / containing P-location ``ploc_id``."""
        return self.cells_of_plocation[ploc_id]

    # ------------------------------------------------------------------
    # Graph structure accessors
    # ------------------------------------------------------------------
    @property
    def vertex_count(self) -> int:
        return len(self.cells)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbours(self, cell_id: int) -> Set[int]:
        """Cells directly reachable from ``cell_id`` (excluding itself)."""
        result: Set[int] = set()
        for (a, b) in self.edges:
            if a == cell_id and b != cell_id:
                result.add(b)
            elif b == cell_id and a != cell_id:
                result.add(a)
        return result

    def equivalence_classes(self) -> List[FrozenSet[int]]:
        """Group P-locations into equivalence classes (Section 3.2).

        Two P-locations are equivalent (``pi ≡ pj``) when they label the same
        GISL edge, i.e. they connect / witness exactly the same cell set and
        are therefore interchangeable when searching the indoor location
        matrix.  The classes drive both the matrix downsizing and the
        intra-merge step of the data reduction.
        """
        return [frozenset(plocs) for plocs in self.edges.values()]

    def summary(self) -> Dict[str, int]:
        """Structural counts used in docs and sanity tests."""
        loop_edges = sum(1 for (a, b) in self.edges if a == b)
        return {
            "cells": self.vertex_count,
            "edges": self.edge_count,
            "loop_edges": loop_edges,
            "plocations": len(self.cells_of_plocation),
            "slocations": len(self.slocation_to_cell),
        }
