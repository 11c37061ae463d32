"""One-dimensional R-tree over time (the paper's "1DR-tree").

The IUPT (Indoor Uncertain Positioning Table) is indexed on its time attribute
with a one-dimensional R-tree so that the range query of Algorithms 2-4
(``tree.RangeQuery([ts, te])``) fetches exactly the positioning records whose
timestamps fall into the query window.

A 1D R-tree is a balanced tree whose nodes carry time intervals instead of
planar rectangles.  We implement it directly (rather than degrading the 2D
R-tree) because the 1D case admits a much simpler and faster packed layout:
the tree is built once, by :meth:`OneDimensionalRTree.from_sorted`, from
records already in time order, packed bottom-up, which also matches how a
historical table would be organised on disk.  Out-of-order input is refused,
never sorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


@dataclass
class IntervalNode(Generic[T]):
    """A node of the 1D R-tree covering the time range ``[tmin, tmax]``."""

    tmin: float
    tmax: float
    is_leaf: bool
    entries: List[Tuple[float, T]] = field(default_factory=list)
    children: List["IntervalNode[T]"] = field(default_factory=list)

    def covers(self, start: float, end: float) -> bool:
        return self.tmin <= end and start <= self.tmax


class OneDimensionalRTree(Generic[T]):
    """A packed 1D R-tree over ``(timestamp, record)`` pairs.

    Built once, by :meth:`from_sorted`, and never mutated afterwards.
    """

    def __init__(self, leaf_capacity: int = 64, fanout: int = 16):
        if leaf_capacity < 2 or fanout < 2:
            raise ValueError("leaf_capacity and fanout must both be at least 2")
        self._records: List[Tuple[float, T]] = []
        self._root: Optional[IntervalNode[T]] = None

    @classmethod
    def from_sorted(
        cls,
        records: Sequence[Tuple[float, T]],
        leaf_capacity: int = 64,
        fanout: int = 16,
    ) -> "OneDimensionalRTree[T]":
        """Bulk-load the tree from records already sorted by timestamp.

        Ties must already be in arrival order; the packed layout preserves
        the given order exactly.  A record earlier than the one before it is
        a ``ValueError`` naming its index: the input is never sorted here.
        """
        tree: "OneDimensionalRTree[T]" = cls(leaf_capacity=leaf_capacity, fanout=fanout)
        tree._records = list(records)
        for index in range(1, len(tree._records)):
            before, at = tree._records[index - 1][0], tree._records[index][0]
            if at < before:
                raise ValueError(
                    f"from_sorted needs records in timestamp order: record {index} "
                    f"(t={at}) is earlier than record {index - 1} (t={before})"
                )
        tree._root = _pack(tree._records, leaf_capacity, fanout)
        return tree

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    @property
    def height(self) -> int:
        """Tree height; 0 for an empty tree."""
        if self._root is None:
            return 0
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    @property
    def time_span(self) -> Tuple[float, float]:
        """The ``(earliest, latest)`` timestamps stored, or ``(inf, -inf)`` if empty."""
        if not self._records:
            return (math.inf, -math.inf)
        return (self._records[0][0], self._records[-1][0])

    def __iter__(self) -> Iterator[Tuple[float, T]]:
        return iter(self._records)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(self, start: float, end: float) -> List[T]:
        """Return all records whose timestamp lies in ``[start, end]``.

        This is the ``RangeQuery`` primitive used by Algorithms 2-4.  The tree
        descends only into nodes whose interval overlaps the query window.
        """
        if start > end:
            raise ValueError("query interval start must not exceed its end")
        if self._root is None:
            return []
        results: List[T] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node.covers(start, end):
                continue
            if node.is_leaf:
                results.extend(
                    record for ts, record in node.entries if start <= ts <= end
                )
            else:
                # Pushed reversed so leaves pop in time order: the result is
                # globally time-ordered, which sequence construction relies on.
                stack.extend(reversed(node.children))
        return results


def _pack(
    records: List[Tuple[float, T]], leaf_capacity: int, fanout: int
) -> Optional[IntervalNode[T]]:
    """Pack time-ordered records into leaves, then group levels up to one root."""
    if not records:
        return None
    level: List[IntervalNode[T]] = []
    for start in range(0, len(records), leaf_capacity):
        chunk = records[start : start + leaf_capacity]
        level.append(
            IntervalNode(tmin=chunk[0][0], tmax=chunk[-1][0], is_leaf=True, entries=chunk)
        )
    while len(level) > 1:
        parents: List[IntervalNode[T]] = []
        for start in range(0, len(level), fanout):
            group = level[start : start + fanout]
            parents.append(
                IntervalNode(
                    tmin=group[0].tmin, tmax=group[-1].tmax, is_leaf=False, children=group
                )
            )
        level = parents
    return level[0]
