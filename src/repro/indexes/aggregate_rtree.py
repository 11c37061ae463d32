"""COUNT-aggregate R-tree used by the Best-First TkPLQ algorithm.

Algorithm 4 of the paper organises moving objects into "an in-memory
COUNT-aggregate R-tree" ``RC`` where "each non-leaf node entry e ... is
augmented with a count e.count that stores the number of objects covered in
e's child nodes".  The Best-First search joins this tree against the R-tree of
query S-locations and uses the counts as upper bounds on flow (an object's
presence never exceeds 1).

This module bulk-loads the generic :class:`~repro.indexes.rtree.RTree`, copies
it once into count-annotated nodes and exposes the node/entry view the join
algorithm needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple

from ..geometry import Rect
from .rtree import DEFAULT_MAX_ENTRIES, RTree, RTreeNode


@dataclass
class AggregateEntry:
    """A uniform view over aggregate-tree entries used during the join.

    ``node`` is ``None`` for leaf-level entries (concrete objects); otherwise
    it points at the child node this entry summarises.
    """

    mbr: Rect
    count: int
    node: Optional["AggregateNode"]
    item: Any = None

    @property
    def is_leaf_entry(self) -> bool:
        return self.node is None


@dataclass
class AggregateNode:
    """A node of the COUNT-aggregate R-tree."""

    is_leaf: bool
    entries: List[AggregateEntry]
    mbr: Optional[Rect]
    count: int


class CountAggregateRTree:
    """A COUNT-aggregate R-tree over ``(mbr, item)`` pairs.

    Built once, by :meth:`build`, per window from the objects that survive
    the data reduction step; ``root.count`` is the number of pairs.
    """

    def __init__(self, root: AggregateNode):
        self.root = root

    @classmethod
    def build(
        cls, items: Iterable[Tuple[Rect, Any]], max_entries: int = DEFAULT_MAX_ENTRIES
    ) -> "CountAggregateRTree":
        """STR-pack ``items`` and annotate every node entry with its count."""
        base = RTree.bulk_load(items, max_entries=max_entries)
        return cls(_convert(base.root) if len(base) else _empty_node())

    def root_entries(self) -> List[AggregateEntry]:
        """Return the entries of the root node (the starting join list)."""
        return list(self.root.entries)


def _convert(node: RTreeNode) -> AggregateNode:
    """Recursively convert a plain R-tree node into an aggregate node."""
    if node.is_leaf:
        entries = [
            AggregateEntry(mbr=e.mbr, count=1, node=None, item=e.item)
            for e in node.entries
        ]
        return AggregateNode(
            is_leaf=True,
            entries=entries,
            mbr=node.mbr,
            count=len(entries),
        )
    child_nodes = [_convert(child) for child in node.children]
    entries = [
        AggregateEntry(mbr=child.mbr, count=child.count, node=child)
        for child in child_nodes
        if child.mbr is not None
    ]
    return AggregateNode(
        is_leaf=False,
        entries=entries,
        mbr=node.mbr,
        count=sum(child.count for child in child_nodes),
    )


def _empty_node() -> AggregateNode:
    return AggregateNode(is_leaf=True, entries=[], mbr=None, count=0)
