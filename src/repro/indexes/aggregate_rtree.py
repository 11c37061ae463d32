"""COUNT-aggregate R-tree used by the Best-First TkPLQ algorithm.

Algorithm 4 of the paper organises moving objects into "an in-memory
COUNT-aggregate R-tree" ``RC`` where "each non-leaf node entry e ... is
augmented with a count e.count that stores the number of objects covered in
e's child nodes".  The Best-First search joins this tree against the R-tree of
query S-locations ``RQ`` and uses the counts as upper bounds on flow (an
object's presence never exceeds 1).

:meth:`CountAggregateRTree.build` STR-packs ``(xmin, ymin, xmax, ymax, floor,
item)`` bounds once, level by level, straight into entries: the tiling is
:func:`~repro.indexes.rtree.str_tiles` and a node's bounds follow
:func:`~repro.indexes.rtree.union_bounds`, so the tree has the shape
:meth:`RTree.bulk_load <repro.indexes.rtree.RTree.bulk_load>` gives the same
rectangles.  An entry is a plain tuple that carries its bound fields, so the
join tests intersection on floats and builds no :class:`~repro.geometry.Rect`
(plain tuples, not a named tuple: CPython specialises indexing and
unpacking for exact tuples only).  Best-first packs ``RQ`` the same way;
its counts go unused.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Tuple

from .rtree import DEFAULT_MAX_ENTRIES, center_x_key, center_y_key, str_tiles, union_bounds

#: One entry of the tree: ``(xmin, ymin, xmax, ymax, floor, count, children,
#: item)``.  ``floor`` is ``-1`` on a node whose subtree spans several floors
#: (a wildcard for the join).  ``children`` is ``None`` on a leaf entry, whose
#: ``item`` is the payload it bounds and whose count is 1; on a node entry it
#: is the tuple of child entries, ``count`` the number of leaf entries under
#: them and ``item`` ``None``.
AggregateEntry = Tuple[float, float, float, float, int, int, Optional[tuple], Any]

#: Positions of an :data:`AggregateEntry`'s fields after its bounds.
COUNT, CHILDREN, ITEM = 5, 6, 7


class CountAggregateRTree:
    """A COUNT-aggregate R-tree: the root's entries and how many leaf entries
    lie under them (``count``).

    Built once, by :meth:`build`, per window from the objects that survive
    the data reduction step.
    """

    __slots__ = ("root_entries", "count")

    def __init__(self, root_entries: Tuple[AggregateEntry, ...]):
        self.root_entries = root_entries
        self.count = sum(entry[COUNT] for entry in root_entries)

    @classmethod
    def build(
        cls,
        items: Iterable[Tuple[float, float, float, float, int, Any]],
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> "CountAggregateRTree":
        """STR-pack ``(xmin, ymin, xmax, ymax, floor, item)`` bounds, every
        node entry annotated with its count."""
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        level = [
            (xmin, ymin, xmax, ymax, floor, 1, None, item)
            for xmin, ymin, xmax, ymax, floor, item in items
        ]
        if not level:
            return cls(())
        while True:
            level = [
                (*union_bounds(group), sum(entry[COUNT] for entry in group), tuple(group), None)
                for group in str_tiles(level, max_entries, center_x_key, center_y_key)
            ]
            if len(level) == 1:
                return cls(level[0][CHILDREN])
