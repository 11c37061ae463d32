"""The Indoor Location Matrix (MIL) of Section 3.1.2.

``MIL`` is conceptually an ``N x N`` upper-triangular matrix over the
P-locations:

* ``MIL[pi, pi]`` gives the cells adjacent to ``pi`` (for a partitioning
  P-location) or the cell containing it (for a presence P-location);
* ``MIL[pi, pj]`` gives the cells through which one can reach ``pj`` from
  ``pi`` without involving any other cell;
* ``MIL[pi, pj] = ∅`` when ``pi`` and ``pj`` share no cell.

We materialise the matrix sparsely as the intersection of the per-P-location
cell sets, which reproduces the worked example of Figure 3 (e.g.
``MIL[p4, p9] = {c1, c6}``, ``MIL[p3, p4] = ∅``).  Section 3.2's downsizing —
merging equivalent P-locations that label the same GISL edge into an
``M x M`` matrix where ``M`` is the number of graph edges — is exposed through
:meth:`IndoorLocationMatrix.merged`.

**One link table.**  Every MIL lookup on a query's hot path reads
:attr:`IndoorLocationMatrix.link_rows`, ``pb → {pa: (MIL[pa, pb],
1 − 1/|MIL[pa, pb]|)}`` over the non-empty links.  It is built once from
``cells_of``, the same way :attr:`~IndoorLocationMatrix.equivalence_classes`
is: an inverted ``cell → P-locations`` index gives each P-location the others
it shares a cell with.  So it is a function of the floor plan alone and never
grows with the data; :meth:`~IndoorLocationMatrix.link` reads from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .graph import IndoorSpaceLocationGraph

EMPTY_CELLS: FrozenSet[int] = frozenset()

# One MIL link: (``MIL[pa, pb]``, the factor ``1 - 1/|MIL[pa, pb]|`` by which a
# step through it misses one of its cells).
Link = Tuple[FrozenSet[int], float]
NO_LINK: Link = (EMPTY_CELLS, 1.0)


@dataclass
class IndoorLocationMatrix:
    """Sparse view of the indoor location matrix.

    Parameters
    ----------
    cells_of:
        Per-P-location cell sets (``MIL[p, p]``).
    representative:
        Maps each P-location to its equivalence-class representative; the
        identity mapping for the un-merged matrix.

    Two derived tables serve the per-query hot paths, the equivalence
    classes and the link rows; both are functions of ``cells_of`` /
    ``representative`` alone (which are not mutated after construction) and
    are bounded by the floor plan, not by the data.
    """

    cells_of: Dict[int, FrozenSet[int]]
    representative: Dict[int, int]
    is_merged: bool = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: IndoorSpaceLocationGraph) -> "IndoorLocationMatrix":
        """Build the full (un-merged) matrix from an indoor space location graph."""
        cells_of = dict(graph.cells_of_plocation)
        representative = {ploc_id: ploc_id for ploc_id in cells_of}
        return cls(cells_of=cells_of, representative=representative, is_merged=False)

    def merged(self, graph: IndoorSpaceLocationGraph) -> "IndoorLocationMatrix":
        """Return the downsized M x M matrix of Section 3.2.

        Equivalent P-locations (those labelling the same GISL edge) collapse
        onto the representative with the smallest identifier.  Lookups through
        the merged matrix first map each P-location to its representative, so
        callers do not need to know whether merging happened.
        """
        representative: Dict[int, int] = {}
        cells_of: Dict[int, FrozenSet[int]] = {}
        for members in graph.edges.values():
            if not members:
                continue
            rep = min(members)
            for ploc_id in members:
                representative[ploc_id] = rep
            cells_of[rep] = graph.cells_of_plocation[rep]
        # P-locations that somehow do not appear on any edge keep themselves.
        for ploc_id, cell_set in self.cells_of.items():
            representative.setdefault(ploc_id, ploc_id)
            cells_of.setdefault(representative[ploc_id], cell_set)
        return IndoorLocationMatrix(
            cells_of=cells_of, representative=representative, is_merged=True
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def resolve(self, ploc_id: int) -> int:
        """Map a P-location to the row/column actually stored in the matrix."""
        return self.representative.get(ploc_id, ploc_id)

    def cells_adjacent(self, ploc_id: int) -> FrozenSet[int]:
        """``MIL[p, p]``: adjacent / containing cells of ``p``."""
        return self.cells_of.get(self.resolve(ploc_id), EMPTY_CELLS)

    @cached_property
    def equivalence_classes(self) -> Dict[int, int]:
        """``p → class representative`` for every P-location with cells.

        Equivalent P-locations (identical non-empty cell sets, Section 3.2)
        share the smallest id among them.  P-locations without cells — and
        ids the matrix does not know — are absent: ``.get`` puts them all in
        the one class ``None`` of the empty cell set.  Built on first use.
        """
        classes: Dict[int, int] = {}
        smallest: Dict[FrozenSet[int], int] = {}
        for ploc_id in sorted(set(self.representative) | set(self.cells_of)):
            cells = self.cells_adjacent(ploc_id)
            if cells:
                classes[ploc_id] = smallest.setdefault(cells, ploc_id)
        return classes

    @cached_property
    def link_rows(self) -> Dict[int, Dict[int, Link]]:
        """``pb → {pa: (MIL[pa, pb], 1 - 1/|MIL[pa, pb]|)}`` over non-empty links.

        One row per P-location with cells, holding every P-location it shares
        a cell with (itself included); a linked pair is stored in both rows,
        as one tuple.  P-locations without cells — and ids the matrix does
        not know — have no row and appear in none.  Built on first use.
        """
        with_cells = {
            ploc_id: cells
            for ploc_id in sorted(set(self.representative) | set(self.cells_of))
            if (cells := self.cells_adjacent(ploc_id))
        }
        sharing: Dict[int, List[int]] = {}  # cell → the P-locations touching it
        for ploc_id, cells in with_cells.items():
            for cell in cells:
                sharing.setdefault(cell, []).append(ploc_id)
        rows: Dict[int, Dict[int, Link]] = {ploc_id: {} for ploc_id in with_cells}
        for ploc_b, cells_b in with_cells.items():
            row = rows[ploc_b]
            for cell in cells_b:
                for ploc_a in sharing[cell]:
                    if ploc_a not in row:
                        cells = with_cells[ploc_a] & cells_b
                        row[ploc_a] = rows[ploc_a][ploc_b] = (cells, 1.0 - 1.0 / len(cells))
        return rows

    def link(self, ploc_a: int, ploc_b: int) -> Link:
        """``(MIL[pa, pb], 1 - 1/|MIL[pa, pb]|)``, or :data:`NO_LINK` if empty."""
        return self.link_rows.get(ploc_b, {}).get(ploc_a, NO_LINK)

    def cells_between(self, ploc_a: int, ploc_b: int) -> FrozenSet[int]:
        """``MIL[pa, pb]``: the cells directly connecting the two P-locations."""
        return self.link(ploc_a, ploc_b)[0]

    def connected(self, ploc_a: int, ploc_b: int) -> bool:
        """Whether ``MIL[pa, pb]`` is non-empty (a direct move is possible)."""
        return bool(self.cells_between(ploc_a, ploc_b))

    def equivalent(self, ploc_a: int, ploc_b: int) -> bool:
        """Whether two P-locations are equivalent (identical cell sets)."""
        return self.cells_adjacent(ploc_a) == self.cells_adjacent(ploc_b)

    def plocation_ids(self) -> List[int]:
        """The P-locations (or representatives, if merged) stored in the matrix."""
        return sorted(self.cells_of)

    # ------------------------------------------------------------------
    # Dimensionality / statistics
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """The number of rows (N for the raw matrix, M ≤ N when merged)."""
        return len(self.cells_of)

    def nonempty_pairs(self) -> int:
        """Count the non-empty upper-triangular entries (including diagonal).

        Quadratic in the stored dimension; intended for diagnostics and the
        matrix ablation benchmark, not for the query hot path.
        """
        ids = self.plocation_ids()
        count = 0
        for i, a in enumerate(ids):
            for b in ids[i:]:
                if self.cells_of[a] & self.cells_of[b]:
                    count += 1
        return count

    def dense(self) -> Dict[Tuple[int, int], FrozenSet[int]]:
        """Materialise the upper-triangular matrix as a dictionary.

        Only intended for small spaces (tests reproducing Figure 3); large
        deployments should use :meth:`cells_between` directly.
        """
        ids = self.plocation_ids()
        matrix: Dict[Tuple[int, int], FrozenSet[int]] = {}
        for i, a in enumerate(ids):
            for b in ids[i:]:
                matrix[(a, b)] = self.cells_of[a] & self.cells_of[b]
        return matrix

    def summary(self) -> Dict[str, int]:
        return {
            "dimension": self.dimension,
            "merged": int(self.is_merged),
            "plocations_mapped": len(self.representative),
        }


def possible_cells_of_sequence(
    matrix: IndoorLocationMatrix, ploc_ids: Iterable[int]
) -> Set[int]:
    """Union of adjacent cells over the P-locations of a positioning sequence.

    Algorithm 1, line 6 derives an object's possible semantic locations from
    it: every cell a reported P-location touches may have been visited, so the
    union bounds the object's whereabouts.  The reducer reads the same PSLs
    from its per-P-location table (``DataReducer.psls_of``).
    """
    cells: Set[int] = set()
    for ploc_id in ploc_ids:
        cells |= matrix.cells_adjacent(ploc_id)
    return cells
