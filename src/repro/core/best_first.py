"""The Best-First TkPLQ algorithm (Algorithm 4).

The best-first algorithm avoids computing the flow of every query location.
It proceeds in three phases:

1. **Preparation.**  Fetch the window's positioning records, reduce every
   object's sequence, and bulk-load the surviving objects into an in-memory
   COUNT-aggregate R-tree ``RC`` keyed by the MBR of their possible semantic
   locations (PSLs).

2. **Root join.**  Join the root entries of the query S-location R-tree ``RQ``
   with the root entries of ``RC``; each ``RQ`` entry is pushed into a
   max-heap together with its *join list* (the ``RC`` entries intersecting it)
   and an upper bound on its flow (the sum of entry counts, valid because an
   object's presence never exceeds 1).

3. **Guided join.**  Repeatedly pop the entry with the largest bound.  Leaf
   entries with an exhausted join list have an exact flow value that dominates
   everything still in the heap and are emitted; leaf entries joined with
   object-level entries get their exact flow computed (sharing per-object path
   construction through the common cache); otherwise the entry and/or its join
   list are expanded one level and re-enqueued with refined bounds.

The algorithm terminates as soon as ``k`` locations have been emitted, which
is where its extra pruning over the nested-loop algorithm comes from.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from ..data.records import SampleSet
from ..geometry import Rect
from ..indexes import AggregateEntry, CountAggregateRTree, RTree, RTreeNode
from ..indexes.rtree import loose_intersects
from ..storage.sharded import ShardedRecordStore
from .query import RankedLocation, SearchStats, TkPLQResult, TkPLQuery, rank_top_k

if TYPE_CHECKING:  # pragma: no cover - typing only (core never imports the engine)
    from ..engine.cache import StoredPresence
    from ..engine.context import ExecutionContext
    from ..engine.stages import QueryPipeline


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


class BestFirstTkPLQ:
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

        # If entire R-tree branches were dropped because no object can reach
        # them, fewer than k locations may have been emitted; the missing ones
        # all have flow 0 and are appended in id order to complete the answer.
        if len(emitted) < query.k:
            already = {entry.sloc_id for entry in emitted}
            for sloc_id in sorted(query_set - already):
                if len(emitted) >= query.k:
                    break
                emitted.append(RankedLocation(sloc_id, 0.0))
                flows[sloc_id] = 0.0

        # Record flows for the locations never reached (bounded by the emitted ones).
        for sloc_id in query.query_slocations:
            flows.setdefault(sloc_id, 0.0)

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
        for object_id, entry in entries:
            if entry.pruned:
                continue
            presences[object_id] = entry
            items.extend((mbr, object_id) for mbr in self._psl_mbrs(plan, entry.psls))
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
