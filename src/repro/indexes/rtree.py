"""An in-memory R-tree over axis-aligned rectangles.

The paper keeps several in-memory R-trees: one over indoor entities
(S-locations, P-locations, doors) to answer geometric containment queries
during pre-processing, one over the query S-locations (``RQ`` in Algorithm 4),
and a COUNT-aggregate variant over moving objects (``RC``).  Each is built
once, from its whole input, by STR (Sort-Tile-Recursive) bulk loading and is
never mutated afterwards; :mod:`repro.indexes.aggregate_rtree` builds the
aggregate variant on top of it.

The tree stores arbitrary Python objects keyed by their MBR.  Entries on
different floors are kept apart naturally because cross-floor rectangles never
intersect; the root may therefore span several floors, which only costs a few
extra node visits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..geometry import Point, Rect

DEFAULT_MAX_ENTRIES = 8


@dataclass
class RTreeEntry:
    """A leaf-level entry: an MBR and the payload object it bounds."""

    mbr: Rect
    item: Any


@dataclass
class RTreeNode:
    """An R-tree node.  Leaf nodes hold :class:`RTreeEntry`, inner nodes hold children."""

    is_leaf: bool
    entries: List[RTreeEntry] = field(default_factory=list)
    children: List["RTreeNode"] = field(default_factory=list)
    mbr: Optional[Rect] = None

    def recompute_mbr(self) -> None:
        rects: List[Rect]
        if self.is_leaf:
            rects = [e.mbr for e in self.entries]
        else:
            rects = [c.mbr for c in self.children if c.mbr is not None]
        self.mbr = _union_across_floors(rects) if rects else None


def _union_across_floors(rects: Sequence[Rect]) -> Rect:
    """Union rectangles that may span several floors: the one floor-union rule.

    The result is only used for pruning, so a floor-agnostic bound (the floor
    of the first rectangle, planar union of all) is acceptable: it is
    conservative in x/y, and floor filtering happens at the entry level.
    """
    if not rects:
        raise ValueError("cannot union an empty rectangle collection")
    floor = rects[0].floor
    xmin = min(r.xmin for r in rects)
    ymin = min(r.ymin for r in rects)
    xmax = max(r.xmax for r in rects)
    ymax = max(r.ymax for r in rects)
    same_floor = all(r.floor == floor for r in rects)
    return Rect(xmin, ymin, xmax, ymax, floor if same_floor else -1)


def loose_intersects(a: Optional[Rect], b: Rect) -> bool:
    """Intersection test in which floor ``-1`` (a multi-floor MBR) is a wildcard.

    The one predicate for anything that may be a node MBR — this tree's own
    searches and the best-first join of two trees alike: the floor-strict
    :meth:`Rect.intersects` never matches a ``-1`` MBR, which would prune the
    whole subtree under it.
    """
    if a is None:
        return False
    if a.floor != -1 and b.floor != -1 and a.floor != b.floor:
        return False
    return (
        a.xmin <= b.xmax
        and b.xmin <= a.xmax
        and a.ymin <= b.ymax
        and b.ymin <= a.ymax
    )


class RTree:
    """A static R-tree, built once by :meth:`bulk_load` (STR packing).

    Parameters
    ----------
    max_entries:
        Maximum node fanout.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self._root = RTreeNode(is_leaf=True)
        self._size = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def root(self) -> RTreeNode:
        return self._root

    @property
    def height(self) -> int:
        """Number of levels in the tree (a lone leaf root has height 1)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    def items(self) -> Iterator[Tuple[Rect, Any]]:
        """Yield all ``(mbr, item)`` pairs in the tree."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    yield entry.mbr, entry.item
            else:
                stack.extend(node.children)

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        items: Iterable[Tuple[Rect, Any]],
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> "RTree":
        """Build an R-tree from ``(mbr, item)`` pairs using STR packing."""
        tree = cls(max_entries=max_entries)
        entries = [RTreeEntry(mbr=mbr, item=item) for mbr, item in items]
        tree._size = len(entries)
        if not entries:
            return tree
        leaves = _str_pack_leaves(entries, max_entries)
        tree._root = _build_upper_levels(leaves, max_entries)
        return tree

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(self, window: Rect) -> List[Any]:
        """Return the payloads of all entries whose MBR intersects ``window``."""
        return [item for _, item in self.search_entries(window)]

    def search_entries(self, window: Rect) -> List[Tuple[Rect, Any]]:
        """Return ``(mbr, item)`` pairs of all entries intersecting ``window``."""
        results: List[Tuple[Rect, Any]] = []
        if self._size == 0:
            return results
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not loose_intersects(node.mbr, window):
                continue
            if node.is_leaf:
                for entry in node.entries:
                    if entry.mbr.intersects(window):
                        results.append((entry.mbr, entry.item))
            else:
                stack.extend(node.children)
        return results

    def search_point(self, point: Point) -> List[Any]:
        """Return the payloads of all entries whose MBR contains ``point``."""
        return self.search(Rect.from_point(point))

    def nearest(self, point: Point, count: int = 1) -> List[Tuple[float, Any]]:
        """Return the ``count`` entries nearest to ``point`` as ``(distance, item)``.

        A simple branch-and-bound traversal; adequate for the moderate tree
        sizes used in the reproduction (P-location lookup during positioning).
        """
        import heapq

        if self._size == 0:
            return []
        heap: List[Tuple[float, int, Any, bool]] = []
        counter = 0
        heapq.heappush(heap, (0.0, counter, self._root, False))
        results: List[Tuple[float, Any]] = []
        while heap and len(results) < count:
            distance, _, payload, is_entry = heapq.heappop(heap)
            if is_entry:
                results.append((distance, payload))
                continue
            node: RTreeNode = payload
            if node.is_leaf:
                for entry in node.entries:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (entry.mbr.distance_to_point(point), counter, entry.item, True),
                    )
            else:
                for child in node.children:
                    if child.mbr is None:
                        continue
                    counter += 1
                    heapq.heappush(
                        heap,
                        (child.mbr.distance_to_point(point), counter, child, False),
                    )
        return results


# ----------------------------------------------------------------------
# STR packing
# ----------------------------------------------------------------------
# The sort keys of an entry or node: the floats of its MBR's ``Rect.center``,
# computed without building the Point; a node without an MBR sorts first.
def _x_key(item) -> Tuple[int, float]:
    mbr = item.mbr
    return (mbr.floor, (mbr.xmin + mbr.xmax) / 2.0) if mbr else (0, 0.0)


def _y_key(item) -> float:
    mbr = item.mbr
    return (mbr.ymin + mbr.ymax) / 2.0 if mbr else 0.0


def _str_pack_leaves(entries: List[RTreeEntry], max_entries: int) -> List[RTreeNode]:
    """Pack leaf nodes with the Sort-Tile-Recursive heuristic."""
    import math

    entries = sorted(entries, key=_x_key)
    leaf_count = max(1, math.ceil(len(entries) / max_entries))
    slice_count = max(1, math.ceil(math.sqrt(leaf_count)))
    slice_size = max(1, math.ceil(len(entries) / slice_count))
    leaves: List[RTreeNode] = []
    for start in range(0, len(entries), slice_size):
        vertical = sorted(entries[start : start + slice_size], key=_y_key)
        for leaf_start in range(0, len(vertical), max_entries):
            node = RTreeNode(
                is_leaf=True, entries=vertical[leaf_start : leaf_start + max_entries]
            )
            node.recompute_mbr()
            leaves.append(node)
    return leaves


def _build_upper_levels(nodes: List[RTreeNode], max_entries: int) -> RTreeNode:
    """Stack packed nodes into upper levels until a single root remains."""
    import math

    while len(nodes) > 1:
        nodes = sorted(nodes, key=_x_key)
        parent_count = max(1, math.ceil(len(nodes) / max_entries))
        slice_count = max(1, math.ceil(math.sqrt(parent_count)))
        slice_size = max(1, math.ceil(len(nodes) / slice_count))
        parents: List[RTreeNode] = []
        for start in range(0, len(nodes), slice_size):
            vertical = sorted(nodes[start : start + slice_size], key=_y_key)
            for parent_start in range(0, len(vertical), max_entries):
                parent = RTreeNode(
                    is_leaf=False,
                    children=vertical[parent_start : parent_start + max_entries],
                )
                parent.recompute_mbr()
                parents.append(parent)
        nodes = parents
    return nodes[0]
