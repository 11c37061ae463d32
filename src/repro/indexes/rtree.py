"""An in-memory R-tree over axis-aligned rectangles.

The paper keeps several in-memory R-trees: one over indoor entities
(S-locations, P-locations, doors) to answer geometric containment queries
during pre-processing, and the two that Algorithm 4 joins, over moving objects
(``RC``) and over the query S-locations (``RQ``).  Each is built once, from
its whole input, by STR (Sort-Tile-Recursive) bulk loading and is never
mutated afterwards.  :mod:`repro.indexes.aggregate_rtree` packs Algorithm 4's
two trees with this module's tiling (:func:`str_tiles`) and floor-union rule
(:func:`union_bounds`) straight into count-annotated entries.

The tree stores arbitrary Python objects keyed by their MBR.  Entries on
different floors are kept apart naturally because cross-floor rectangles never
intersect; the root may therefore span several floors, which only costs a few
extra node visits.

A search is one loop over the nodes with the floor wildcard and the four
bound comparisons written out on the query box's floats: it builds no
``Rect`` and calls no predicate per node or entry, and it visits the nodes and
returns the hits in the order the predicate-per-node walk did.
"""

from __future__ import annotations

import math
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
        self.mbr = Rect(*union_bounds([_box(rect) for rect in rects])) if rects else None


#: A box as plain floats, ``(xmin, ymin, xmax, ymax, floor)``; the entries of
#: :mod:`repro.indexes.aggregate_rtree` start with these five fields.
Bounds = Tuple[float, float, float, float, int]


def _box(rect: Rect) -> Bounds:
    return (rect.xmin, rect.ymin, rect.xmax, rect.ymax, rect.floor)


def union_bounds(boxes: Sequence[Sequence]) -> Bounds:
    """The bounds of boxes (tuples starting ``xmin, ymin, xmax, ymax, floor``)
    that may span several floors: the one floor-union rule.

    The result is only used for pruning, so a floor-agnostic bound (the floor
    of the first box, planar union of all; ``-1`` when the floors differ) is
    acceptable: it is conservative in x/y, and floor filtering happens at the
    entry level.
    """
    if not boxes:
        raise ValueError("cannot union an empty rectangle collection")
    floor = boxes[0][4]
    return (
        min(box[0] for box in boxes),
        min(box[1] for box in boxes),
        max(box[2] for box in boxes),
        max(box[3] for box in boxes),
        floor if all(box[4] == floor for box in boxes) else -1,
    )


def loose_intersects(a: Optional[Rect], b: Rect) -> bool:
    """Intersection test in which floor ``-1`` (a multi-floor MBR) is a wildcard.

    The rule for anything that may be a node MBR: :meth:`RTree._search`
    applies it inline to its nodes, and best-first's join to the bound fields
    of its tuple entries.  The floor-strict :meth:`Rect.intersects` never
    matches a ``-1`` MBR, which would prune the whole subtree under it.
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
        nodes = [
            _packed(RTreeNode(is_leaf=True, entries=group))
            for group in str_tiles(entries, max_entries, _mbr_x_key, _mbr_y_key)
        ]
        while len(nodes) > 1:
            nodes = [
                _packed(RTreeNode(is_leaf=False, children=group))
                for group in str_tiles(nodes, max_entries, _mbr_x_key, _mbr_y_key)
            ]
        tree._root = nodes[0]
        return tree

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(self, window: Rect) -> List[Any]:
        """Return the payloads of all entries whose MBR intersects ``window``."""
        return [entry.item for entry in self._search(*_box(window))]

    def search_entries(self, window: Rect) -> List[Tuple[Rect, Any]]:
        """Return ``(mbr, item)`` pairs of all entries intersecting ``window``."""
        return [(entry.mbr, entry.item) for entry in self._search(*_box(window))]

    def search_point(self, point: Point) -> List[Any]:
        """Return the payloads of all entries whose MBR contains ``point``."""
        x, y = point.x, point.y
        return [entry.item for entry in self._search(x, y, x, y, point.floor)]

    def _search(
        self, xmin: float, ymin: float, xmax: float, ymax: float, floor: int
    ) -> List[RTreeEntry]:
        """The entries meeting a box, depth first from the last child pushed:
        a node tested as :func:`loose_intersects` does, an entry as
        :meth:`Rect.intersects` does."""
        results: List[RTreeEntry] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            mbr = node.mbr
            if (
                mbr is None
                or (mbr.floor != floor and mbr.floor != -1 and floor != -1)
                or not (
                    mbr.xmin <= xmax
                    and xmin <= mbr.xmax
                    and mbr.ymin <= ymax
                    and ymin <= mbr.ymax
                )
            ):
                continue
            if not node.is_leaf:
                stack.extend(node.children)
                continue
            for entry in node.entries:
                box = entry.mbr
                if (
                    box.floor == floor
                    and box.xmin <= xmax
                    and xmin <= box.xmax
                    and box.ymin <= ymax
                    and ymin <= box.ymax
                ):
                    results.append(entry)
        return results

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
                        (_node_distance(child.mbr, point), counter, child, False),
                    )
        return results


def _node_distance(mbr: Rect, point: Point) -> float:
    """The distance bound of a node MBR, floor ``-1`` (a multi-floor node)
    a wildcard, as in :func:`loose_intersects`: the floor-strict
    :meth:`Rect.distance_to_point` puts it at infinity, so the search would
    pop every farther entry before expanding it."""
    if mbr.floor != -1:
        return mbr.distance_to_point(point)
    dx = max(mbr.xmin - point.x, 0.0, point.x - mbr.xmax)
    dy = max(mbr.ymin - point.y, 0.0, point.y - mbr.ymax)
    return math.hypot(dx, dy)


# ----------------------------------------------------------------------
# STR packing
# ----------------------------------------------------------------------
# The sort keys of a box (a tuple starting ``xmin, ymin, xmax, ymax, floor``):
# the floats of ``Rect.center``, computed without building the Point.
def center_x_key(box) -> Tuple[int, float]:
    return (box[4], (box[0] + box[2]) / 2.0)


def center_y_key(box) -> float:
    return (box[1] + box[3]) / 2.0


def str_tiles(items: Sequence, max_entries: int, x_key, y_key) -> List[list]:
    """One level of Sort-Tile-Recursive packing: ``items`` in groups of at
    most ``max_entries``, sorted into vertical slices by ``x_key`` and within
    a slice by ``y_key`` (both sorts stable).  Every level of every packed tree
    is grouped by this function.
    """
    ordered = sorted(items, key=x_key)
    group_count = max(1, math.ceil(len(ordered) / max_entries))
    slice_count = max(1, math.ceil(math.sqrt(group_count)))
    slice_size = max(1, math.ceil(len(ordered) / slice_count))
    groups: List[list] = []
    for start in range(0, len(ordered), slice_size):
        vertical = sorted(ordered[start : start + slice_size], key=y_key)
        for group_start in range(0, len(vertical), max_entries):
            groups.append(vertical[group_start : group_start + max_entries])
    return groups


def _mbr_x_key(item) -> Tuple[int, float]:
    return center_x_key(_box(item.mbr))


def _mbr_y_key(item) -> float:
    return center_y_key(_box(item.mbr))


def _packed(node: RTreeNode) -> RTreeNode:
    node.recompute_mbr()
    return node
