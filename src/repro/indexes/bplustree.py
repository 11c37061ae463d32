"""A B+-tree keyed on timestamps.

An earlier formulation of the paper's flow algorithm indexes the IUPT with a
B+-tree on the time attribute before the final version switches to the 1D
R-tree.  Both are provided so that the index ablation (``python -m
repro.experiments ablation_indexes``) can compare them; each is built once
from ``(timestamp, record)`` pairs in time order (``BPlusTree.bulk_load``,
``OneDimensionalRTree.from_sorted``) and answers the same ``range_query``.

The implementation is a classic in-memory B+-tree with linked leaves, which
makes the range scan a sequential walk over the leaf chain.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")


@dataclass
class _LeafNode(Generic[T]):
    keys: List[float] = field(default_factory=list)
    values: List[List[T]] = field(default_factory=list)
    next: Optional["_LeafNode[T]"] = None


@dataclass
class _InnerNode(Generic[T]):
    keys: List[float] = field(default_factory=list)
    children: List[Any] = field(default_factory=list)


class BPlusTree(Generic[T]):
    """A B+-tree mapping float keys (timestamps) to lists of records.

    Duplicate keys are supported: all records sharing a timestamp are stored
    in the same leaf slot, which matches how multiple objects can report at
    the same sampling instant.  Built once, by :meth:`bulk_load`, and never
    mutated afterwards.
    """

    def __init__(self, order: int = 32):
        if order < 4:
            raise ValueError("order must be at least 4")
        self._root: Any = _LeafNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @classmethod
    def bulk_load(
        cls, pairs: Iterable[Tuple[float, T]], order: int = 32
    ) -> "BPlusTree[T]":
        """Build a tree from ``(key, value)`` pairs already sorted by key.

        Classic bottom-up bulk loading in O(n): duplicate keys are grouped
        into one leaf slot (preserving the given value order), leaves are
        packed to the tree order and linked, and the inner levels are built
        over the minimum key of each subtree.  A key below the one before it
        is a ``ValueError`` naming the pair's index: the input is never
        sorted here.
        """
        tree: "BPlusTree[T]" = cls(order=order)
        keys: List[float] = []
        buckets: List[List[T]] = []
        size = 0
        for key, value in pairs:
            if keys and key < keys[-1]:
                raise ValueError(
                    f"bulk_load needs pairs in key order: pair {size} "
                    f"(key {key}) is below pair {size - 1} (key {keys[-1]})"
                )
            if keys and key == keys[-1]:
                buckets[-1].append(value)
            else:
                keys.append(key)
                buckets.append([value])
            size += 1
        if not keys:
            return tree

        leaves: List[_LeafNode[T]] = []
        for start in range(0, len(keys), order):
            leaves.append(
                _LeafNode(
                    keys=keys[start : start + order],
                    values=buckets[start : start + order],
                )
            )
        for left, right in zip(leaves, leaves[1:]):
            left.next = right

        level: List[Any] = list(leaves)
        minima: List[float] = [leaf.keys[0] for leaf in leaves]
        while len(level) > 1:
            parents: List[Any] = []
            parent_minima: List[float] = []
            for start in range(0, len(level), order):
                group = level[start : start + order]
                group_minima = minima[start : start + order]
                parents.append(
                    _InnerNode(keys=group_minima[1:], children=group)
                )
                parent_minima.append(group_minima[0])
            level = parents
            minima = parent_minima

        tree._root = level[0]
        tree._size = size
        return tree

    @property
    def height(self) -> int:
        height = 1
        node = self._root
        while isinstance(node, _InnerNode):
            node = node.children[0]
            height += 1
        return height

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, key: float) -> List[T]:
        """Return all records stored under exactly ``key``."""
        leaf, index = self._find_leaf(key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return list(leaf.values[index])
        return []

    def range_query(self, start: float, end: float) -> List[T]:
        """Return all records with keys in ``[start, end]`` in key order."""
        if start > end:
            raise ValueError("query interval start must not exceed its end")
        leaf, index = self._find_leaf(start)
        results: List[T] = []
        while leaf is not None:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if key > end:
                    return results
                if key >= start:
                    results.extend(leaf.values[index])
                index += 1
            leaf = leaf.next
            index = 0
        return results

    def items(self) -> Iterator[Tuple[float, T]]:
        """Yield every ``(key, value)`` pair in key order."""
        node = self._root
        while isinstance(node, _InnerNode):
            node = node.children[0]
        leaf: Optional[_LeafNode[T]] = node
        while leaf is not None:
            for key, bucket in zip(leaf.keys, leaf.values):
                for value in bucket:
                    yield key, value
            leaf = leaf.next

    def _find_leaf(self, key: float) -> Tuple[_LeafNode[T], int]:
        node = self._root
        while isinstance(node, _InnerNode):
            node = node.children[bisect_right(node.keys, key)]
        return node, bisect_left(node.keys, key)
