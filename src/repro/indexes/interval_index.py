"""One-dimensional R-tree over time (the paper's "1DR-tree").

The IUPT (Indoor Uncertain Positioning Table) is indexed on its time attribute
with a one-dimensional R-tree so that the range query of Algorithms 2-4
(``tree.RangeQuery([ts, te])``) fetches exactly the positioning records whose
timestamps fall into the query window.

A 1D R-tree is a balanced tree whose nodes carry time intervals instead of
planar rectangles.  We implement it directly (rather than degrading the 2D
R-tree) because the 1D case admits a much simpler and faster packed layout:
records are sorted by timestamp and packed bottom-up, which also matches how a
historical table would be organised on disk.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
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

    The tree supports appends (records usually arrive in time order, so the
    append path keeps the structure packed) and time-range queries.  Out-of-
    order inserts are accepted and handled by keeping a small unsorted overflow
    buffer that is merged on the next rebuild; this mirrors the behaviour of a
    buffered bulk loader without complicating the query path.
    """

    def __init__(self, leaf_capacity: int = 64, fanout: int = 16):
        if leaf_capacity < 2 or fanout < 2:
            raise ValueError("leaf_capacity and fanout must both be at least 2")
        self._leaf_capacity = leaf_capacity
        self._fanout = fanout
        self._records: List[Tuple[float, T]] = []
        self._root: Optional[IntervalNode[T]] = None
        self._keys: Optional[List[float]] = None  # sorted key column, lazy
        self._dirty = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def insert(self, timestamp: float, record: T) -> None:
        """Insert a record; keeps the record list sorted by timestamp."""
        if self._records and timestamp >= self._records[-1][0]:
            self._records.append((timestamp, record))
        else:
            # timestamps may tie; insort on the timestamp key only
            insort(self._records, (timestamp, record), key=lambda pair: pair[0])
        self._dirty = True

    def bulk_load(self, records: Sequence[Tuple[float, T]]) -> None:
        """Replace the tree contents with ``records`` (sorted internally)."""
        self._records = sorted(records, key=lambda pair: pair[0])
        self._dirty = True

    @classmethod
    def from_sorted(
        cls,
        records: Sequence[Tuple[float, T]],
        leaf_capacity: int = 64,
        fanout: int = 16,
    ) -> "OneDimensionalRTree[T]":
        """Bulk-load constructor over records already sorted by timestamp.

        Skips the sort of :meth:`bulk_load` and packs the tree eagerly, so
        the construction cost is paid here rather than on the first query.
        Ties must already be in arrival order; the packed layout preserves
        the given order exactly.
        """
        tree: "OneDimensionalRTree[T]" = cls(leaf_capacity=leaf_capacity, fanout=fanout)
        tree._records = list(records)
        tree._dirty = True
        tree._rebuild()
        return tree

    def _rebuild(self) -> None:
        self._keys = None
        if not self._records:
            self._root = None
            self._dirty = False
            return
        leaves: List[IntervalNode[T]] = []
        for start in range(0, len(self._records), self._leaf_capacity):
            chunk = self._records[start : start + self._leaf_capacity]
            leaves.append(
                IntervalNode(
                    tmin=chunk[0][0],
                    tmax=chunk[-1][0],
                    is_leaf=True,
                    entries=list(chunk),
                )
            )
        level = leaves
        while len(level) > 1:
            parents: List[IntervalNode[T]] = []
            for start in range(0, len(level), self._fanout):
                group = level[start : start + self._fanout]
                parents.append(
                    IntervalNode(
                        tmin=group[0].tmin,
                        tmax=group[-1].tmax,
                        is_leaf=False,
                        children=group,
                    )
                )
            level = parents
        self._root = level[0]
        self._dirty = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    @property
    def height(self) -> int:
        """Tree height; 0 for an empty tree."""
        if self._dirty:
            self._rebuild()
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
        if self._dirty:
            self._rebuild()
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

    def count_in_range(self, start: float, end: float) -> int:
        """Return the number of records with timestamps in ``[start, end]``."""
        if self._dirty:
            self._rebuild()
        if self._keys is None:
            self._keys = [ts for ts, _ in self._records]
        return bisect_right(self._keys, end) - bisect_left(self._keys, start)
