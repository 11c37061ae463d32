"""Best-first search (Algorithm 4) as it stood before its join ran on float
bounds (test oracle only).

The earlier implementation, moved here verbatim: the ``RC`` tree is
``RTree.bulk_load`` copied into count-annotated ``AggregateNode`` s by
``_convert``, every heap push builds a ``_QueryEntry`` / ``_HeapItem``, every
pair is joined through ``loose_intersects``, and a leaf's exact flow sums
every candidate of its join list.  Two changes are applied.  The
zero-padding fix: once an exact 0.0 tops the heap every unranked location has
flow 0, so the search stops there and the ranking ends with the unranked
locations in ascending id (before, the locations of an ``RQ`` subtree the
join dropped were padded after the zeros the heap had already emitted).  And
``flows`` lists only the flows the search computed (before, every location it
never reached was listed with a padded 0.0).

``tests/test_best_first_oracle.py`` requires the current search to return the
same rankings and flows (by ``float.hex``) and the same ``heap_operations``.
It runs both on store-less pipelines: the two keep different objects under
the same ``window.derived`` keys.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.query import RankedLocation, SearchStats, TkPLQResult, TkPLQuery
from repro.geometry import Rect
from repro.indexes.rtree import DEFAULT_MAX_ENTRIES, RTree, RTreeNode, loose_intersects
from repro.storage.sharded import ShardedRecordStore


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


@dataclass
class _QueryEntry:
    """A uniform view over RQ entries: either an R-tree node or a leaf S-location."""

    mbr: Rect
    node: Optional[RTreeNode] = None
    sloc_id: Optional[int] = None

    @property
    def is_leaf_entry(self) -> bool:
        return self.sloc_id is not None


@dataclass
class _HeapItem:
    """One max-heap element: an RQ entry, its join list, and its flow bound."""

    bound: float
    entry: _QueryEntry
    join_list: Optional[List[AggregateEntry]]
    exact: bool = False


class BestFirstOracle:
    """Answer TkPLQ with the R-tree join guided by flow upper bounds."""

    name = "best-first"

    def __init__(self, pipeline: "QueryPipeline", rtree_fanout: int = 8):
        self._pipeline = pipeline
        self._fanout = rtree_fanout

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def search(self, iupt: ShardedRecordStore, query: TkPLQuery) -> TkPLQResult:
        stats = SearchStats()
        began = time.perf_counter()

        pipeline = self._pipeline
        graph = pipeline.flow_computer.graph
        plan = graph.plan
        query_set: Set[int] = set(query.query_slocations)
        parent_cells = {
            sloc_id: graph.parent_cell(sloc_id) for sloc_id in query_set
        }

        # Phase 1: data preparation and the object aggregate R-tree.  The
        # per-object reduction runs through the engine pipeline (with path
        # construction deferred — the guided join only builds paths for the
        # candidates it actually visits).  RC is a function of the window's
        # artefacts alone, so it is kept beside them and rebuilt only when
        # they are.
        ctx = pipeline.context(query.interval, query_set, stats=stats)
        window = pipeline.window(ctx, iupt, build_paths=False)
        rc_key = ("RC", self._fanout)
        rc = window.derived.get(rc_key)
        if rc is None:
            rc = window.derived[rc_key] = self._build_rc(plan, window.entries)
        presences, aggregate = rc

        # Phase 2: R-tree over the query S-locations (its shape follows the
        # order the request lists them in) and the root join.
        rq_key = ("RQ", self._fanout, tuple(query.query_slocations))
        query_tree = window.derived.get(rq_key)
        if query_tree is None:
            query_tree = window.derived[rq_key] = RTree.bulk_load(
                (
                    (plan.slocations[sloc_id].region, sloc_id)
                    for sloc_id in query.query_slocations
                ),
                max_entries=self._fanout,
            )
        heap: List[Tuple[float, int, _HeapItem]] = []
        counter = itertools.count()
        root_list = aggregate.root_entries()
        for entry in self._entries_of_node(query_tree.root):
            self._join_and_push(heap, counter, entry, root_list, stats)

        # Phase 3: the guided join.
        emitted: List[RankedLocation] = []
        flows: Dict[int, float] = {}

        while heap and len(emitted) < query.k:
            _, _, _, item = heapq.heappop(heap)
            stats.heap_operations += 1
            entry = item.entry

            if entry.is_leaf_entry:
                sloc_id = entry.sloc_id
                assert sloc_id is not None
                if item.exact:
                    if item.bound == 0.0:
                        break  # the fix: every unranked location has flow 0
                    emitted.append(RankedLocation(sloc_id, item.bound))
                    flows[sloc_id] = item.bound
                    continue
                join_list = item.join_list or []
                if not join_list:
                    # No candidate object can reach this location: exact 0.
                    self._push(heap, counter, _HeapItem(0.0, entry, None, exact=True))
                    continue
                if all(e.is_leaf_entry for e in join_list):
                    flow_value = self._exact_flow(
                        ctx,
                        join_list,
                        presences,
                        parent_cells.get(sloc_id),
                        stats,
                    )
                    self._push(
                        heap, counter, _HeapItem(flow_value, entry, None, exact=True)
                    )
                else:
                    self._expand_join_list(heap, counter, entry, join_list, stats)
            else:
                join_list = item.join_list or []
                sub_entries = self._entries_of_node(entry.node)
                if join_list and all(e.is_leaf_entry for e in join_list):
                    for sub_entry in sub_entries:
                        self._join_and_push(heap, counter, sub_entry, join_list, stats)
                else:
                    for sub_entry in sub_entries:
                        self._expand_join_list(heap, counter, sub_entry, join_list, stats)

        # The heap emptied or an exact 0.0 topped it: every location not yet
        # emitted has flow 0 (those of dropped R-tree branches too), and they
        # complete the answer in id order.
        if len(emitted) < query.k:
            already = {entry.sloc_id for entry in emitted}
            for sloc_id in sorted(query_set - already):
                if len(emitted) >= query.k:
                    break
                emitted.append(RankedLocation(sloc_id, 0.0))
                flows[sloc_id] = 0.0

        stats.elapsed_seconds = time.perf_counter() - began
        ranking = emitted[: query.k]
        return TkPLQResult(
            query=query,
            ranking=ranking,
            flows=flows,
            stats=stats,
            algorithm=self.name,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _build_rc(
        self, plan, entries: Sequence[Tuple[int, "StoredPresence"]]
    ) -> Tuple[Dict[int, "StoredPresence"], CountAggregateRTree]:
        """The surviving objects by id and the aggregate R-tree over their PSL MBRs."""
        presences: Dict[int, "StoredPresence"] = {}
        items: List[Tuple[Rect, int]] = []
        mbrs_of: Dict[frozenset, List[Rect]] = {}  # objects with equal PSLs share their MBRs
        for object_id, entry in entries:
            if entry.pruned:
                continue
            presences[object_id] = entry
            mbrs = mbrs_of.get(entry.psls)
            if mbrs is None:
                mbrs = mbrs_of[entry.psls] = self._psl_mbrs(plan, entry.psls)
            items.extend((mbr, object_id) for mbr in mbrs)
        return presences, CountAggregateRTree.build(items, max_entries=self._fanout)

    @staticmethod
    def _psl_mbrs(plan, psls) -> List[Rect]:
        """Represent an object's PSLs by one MBR per floor (finer-grained MBRs)."""
        regions = [plan.slocations[sloc_id].region for sloc_id in psls if sloc_id in plan.slocations]
        by_floor: Dict[int, List[Rect]] = {}
        for region in regions:
            by_floor.setdefault(region.floor, []).append(region)
        return [Rect.union_all(group) for group in by_floor.values()]

    def _entries_of_node(self, node: Optional[RTreeNode]) -> List[_QueryEntry]:
        if node is None:
            return []
        if node.is_leaf:
            return [
                _QueryEntry(mbr=entry.mbr, sloc_id=entry.item) for entry in node.entries
            ]
        return [
            _QueryEntry(mbr=child.mbr, node=child)
            for child in node.children
            if child.mbr is not None
        ]

    def _join_and_push(
        self,
        heap: List[Tuple[float, int, _HeapItem]],
        counter,
        entry: _QueryEntry,
        candidates: Sequence[AggregateEntry],
        stats: SearchStats,
    ) -> None:
        """Join one RQ entry with a candidate list and push it with its bound."""
        join_list = [c for c in candidates if loose_intersects(c.mbr, entry.mbr)]
        bound = float(sum(c.count for c in join_list))
        self._push(heap, counter, _HeapItem(bound, entry, join_list))

    def _expand_join_list(
        self,
        heap: List[Tuple[float, int, _HeapItem]],
        counter,
        entry: _QueryEntry,
        join_list: Sequence[AggregateEntry],
        stats: SearchStats,
    ) -> None:
        """``ExpandList``: descend one level into the aggregate tree."""
        expanded: List[AggregateEntry] = []
        bound = 0.0
        for candidate in join_list:
            children = (
                [candidate]
                if candidate.is_leaf_entry
                else list(candidate.node.entries)
            )
            for child in children:
                if loose_intersects(child.mbr, entry.mbr):
                    expanded.append(child)
                    bound += child.count
        if expanded or entry.is_leaf_entry:
            self._push(heap, counter, _HeapItem(bound, entry, expanded))

    def _push(self, heap, counter, item: _HeapItem) -> None:
        # Ties on the bound are broken towards smaller S-location ids so that
        # the emitted order matches the deterministic ranking of the other
        # algorithms (non-leaf entries use -1 and are simply expanded first).
        tie = item.entry.sloc_id if item.entry.is_leaf_entry else -1
        heapq.heappush(heap, (-item.bound, tie, next(counter), item))

    def _exact_flow(
        self,
        ctx: "ExecutionContext",
        join_list: Sequence[AggregateEntry],
        presences: Dict[int, "StoredPresence"],
        cell_id: Optional[int],
        stats: SearchStats,
    ) -> float:
        """Compute the exact flow of a leaf query entry from its candidate objects.

        Path construction is performed lazily per candidate through the
        pipeline, which memoises it on the shared presence artefact (and so
        in the window's store entry, when a store is attached) — the
        per-object sharing that Section 4.1 obtained from a per-query cache.
        """
        if cell_id is None:
            return 0.0
        object_ids = sorted({entry.item for entry in join_list})
        flow_value = 0.0
        for object_id in object_ids:
            stored = presences.get(object_id)
            if stored is None:
                continue
            if stored.computation is None:
                self._pipeline.presence.build_paths(ctx, object_id, stored)
            stats.flow_evaluations += 1
            flow_value += stored.computation.presence_in_cell(cell_id)
        return flow_value
