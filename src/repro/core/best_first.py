"""The Best-First TkPLQ algorithm (Algorithm 4).

The best-first algorithm avoids computing the flow of every query location.
It proceeds in three phases:

1. **Preparation.**  Fetch the window's positioning records, reduce every
   object's sequence, and STR-pack the objects into an in-memory
   COUNT-aggregate R-tree ``RC``, one leaf entry per object and floor whose
   bounds are the min/max over the regions of the object's possible semantic
   locations (PSLs) on that floor.  ``RC`` packs every object of the window,
   whatever the query set: an object whose PSLs miss it only loosens a bound
   (its MBR may still meet a query location), and never enters an exact
   flow.

2. **Root join.**  Join the root entries of the query S-location R-tree ``RQ``
   with the root entries of ``RC``; each ``RQ`` entry is pushed into a
   max-heap together with its *join list* (the ``RC`` entries intersecting it)
   and an upper bound on its flow (the sum of entry counts, valid because an
   object's presence never exceeds 1).

3. **Guided join.**  Repeatedly pop the entry with the largest bound.  Leaf
   entries with an exact flow dominate everything still in the heap and are
   emitted; leaf entries joined with object-level entries get their exact
   flow computed (path construction runs lazily, per candidate, on the
   shared artefact); otherwise the entry and/or its join list are expanded
   one level and re-enqueued with refined bounds.

The algorithm terminates as soon as ``k`` locations have been emitted, which
is where its extra pruning over the nested-loop algorithm comes from.  It
also stops once an exact 0.0 tops the heap (or the heap empties): then every
location not yet emitted has flow 0 — those under an ``RQ`` subtree the join
dropped because no candidate reaches it included — and they complete the
ranking in ascending id, as in every other algorithm's ranking.  The
answer's ``flows`` lists exactly the ranked locations' flows: a location the
search never resolved is absent.

**The join runs on floats.**  ``RC`` and ``RQ`` are
:data:`~repro.indexes.aggregate_rtree.AggregateEntry` tuples carrying their
bounds, a heap element is a plain tuple ``(-bound, tie, order, entry, join
list)`` (join list ``None``: the bound is the exact flow), and a pair is
tested on the bound fields, floor ``-1`` (a node spanning floors) being a
wildcard.  ``RC`` is kept in the window's ``derived`` dict per fanout, so a
warm query packs only ``RQ`` (its shape follows the order the request lists
the locations in; about 20 µs) and joins.

**A leaf's exact flow sums only the objects that can reach it.**  Beside
``RC`` the window keeps, per S-location, the objects whose PSLs contain it,
in ascending id.  Each of them is a candidate of the location's
object-level join list (its MBR on the location's floor contains the
location's region), so the exact flow adds exactly the candidates that can
reach the location, in exactly the order the nested-loop fold adds them.
Every other candidate would add ``+ 0.0``: an object's PSLs are ``C2S`` of
every cell its P-locations touch, each step of a valid path runs through
``MIL[p, q] = MIL[p, p] ∩ MIL[q, q]``, so no valid path touches the parent
cell of an S-location outside the PSLs, its presence there is 0.0, and
``x + 0.0 == x`` for every flow ``x ≥ 0``.  So every flow is bit for bit
nested-loop's, and so is ``flow_evaluations`` for each location resolved.
``tests/best_first_oracle.py`` holds the earlier search (rectangle MBRs, a
dataclass per heap push, every candidate summed); ``tests/test_best_first_oracle.py``
pins the two to one ranking, one ``flows`` map and one heap-operation count.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from ..indexes import AggregateEntry, CountAggregateRTree
from ..indexes.aggregate_rtree import CHILDREN, ITEM
from ..indexes.rtree import Bounds
from .query import RankedLocation, SearchStats, TkPLQResult, TkPLQuery

if TYPE_CHECKING:  # pragma: no cover - typing only (core never imports the engine)
    from ..engine.cache import StoredPresence
    from ..engine.context import ExecutionContext
    from ..engine.stages import QueryPipeline
    from ..storage.sharded import ShardedRecordStore

class BestFirstTkPLQ:
    """Answer TkPLQ with the R-tree join guided by flow upper bounds."""

    name = "best-first"

    def __init__(self, pipeline: "QueryPipeline", rtree_fanout: int = 8):
        if rtree_fanout < 4:
            raise ValueError(f"rtree_fanout must be at least 4, got {rtree_fanout}")
        self._pipeline = pipeline
        self._fanout = rtree_fanout

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def search(self, iupt: "ShardedRecordStore", query: TkPLQuery) -> TkPLQResult:
        stats = SearchStats()
        began = time.perf_counter()

        # Phase 1: the per-object reduction runs through the engine pipeline
        # with path construction deferred — the guided join only builds paths
        # for the candidates it actually sums.
        pipeline = self._pipeline
        query_set: Set[int] = set(query.query_slocations)
        ctx = pipeline.context(query.interval, query_set, stats=stats)
        window = pipeline.window(ctx, iupt, build_paths=False)
        derived = window.derived
        rc_key = ("RC", self._fanout)
        rc = derived.get(rc_key)
        if rc is None:
            rc = derived[rc_key] = self._build_rc(window.entries)
        objects, reachers = rc
        locations, parent_cells = self._build_rq(query.query_slocations)

        # Phase 2: the root join.
        heap: List[tuple] = []
        order = itertools.count()
        push = _push  # a module global, read once per search
        for entry in locations:
            bound, joined = _join(entry, objects)
            push(heap, order, entry, bound, joined)

        # Phase 3: the guided join.
        emitted: List[RankedLocation] = []
        flows: Dict[int, float] = {}
        pops = 0
        k, pop = query.k, heapq.heappop
        while heap and len(emitted) < k:
            negative, _tie, _order, entry, join_list = pop(heap)
            pops += 1
            if join_list is None:  # an exact flow
                if not negative:
                    break  # an exact 0.0: every location left has flow 0
                emitted.append(RankedLocation(entry[ITEM], -negative))
                flows[entry[ITEM]] = -negative
                continue
            # Trees are balanced and a join list is expanded a whole level at
            # a time, so its first entry tells the level of all of them.
            objects_level = bool(join_list) and join_list[0][CHILDREN] is None
            children = entry[CHILDREN]
            if children is None:  # a query S-location
                sloc_id = entry[ITEM]
                if not join_list:  # no candidate object can reach it
                    push(heap, order, entry, 0.0, None)
                elif objects_level:
                    flow = self._exact_flow(
                        ctx, reachers.get(sloc_id, ()), parent_cells[sloc_id], stats
                    )
                    push(heap, order, entry, flow, None)
                else:
                    bound, joined = _join(entry, _below(join_list))
                    push(heap, order, entry, bound, joined)
            elif objects_level:
                for sub_entry in children:
                    bound, joined = _join(sub_entry, join_list)
                    push(heap, order, sub_entry, bound, joined)
            else:
                below = _below(join_list)
                for sub_entry in children:
                    bound, joined = _join(sub_entry, below)
                    if joined or sub_entry[CHILDREN] is None:
                        push(heap, order, sub_entry, bound, joined)
        stats.heap_operations = pops

        # The heap emptied or an exact 0.0 topped it: every location not yet
        # emitted has flow 0, and they complete the ranking in ascending id.
        ranked = {location.sloc_id for location in emitted}
        for sloc_id in sorted(query_set - ranked)[: k - len(emitted)]:
            emitted.append(RankedLocation(sloc_id, 0.0))
            flows[sloc_id] = 0.0

        # Algorithm 4's stopping rule: the k-th exact flow dominates every
        # bound left in the heap.
        stats.kth_flow = emitted[-1].flow
        stats.bound_left = -heap[0][0] if heap else 0.0
        stats.elapsed_seconds = time.perf_counter() - began
        return TkPLQResult(
            query=query,
            ranking=emitted,
            flows=flows,
            stats=stats,
            algorithm=self.name,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _build_rc(
        self, entries: Sequence[Tuple[int, "StoredPresence"]]
    ) -> Tuple[Tuple[AggregateEntry, ...], Dict[int, List[Tuple[int, "StoredPresence"]]]]:
        """The root entries of ``RC`` over every object's per-floor PSL
        bounds, and per S-location the objects that can reach it (whose PSLs
        contain it), in ascending id."""
        slocations = self._pipeline.flow_computer.graph.plan.slocations
        items = []
        reachers: Dict[int, List[Tuple[int, "StoredPresence"]]] = {}
        for object_id, stored in entries:
            items.extend(
                (*bounds, object_id) for bounds in self._psl_bounds(slocations, stored.psls)
            )
            for sloc_id in stored.psls:
                reachers.setdefault(sloc_id, []).append((object_id, stored))
        return CountAggregateRTree.build(items, self._fanout).root_entries, reachers

    def _build_rq(
        self, query_slocations: Sequence[int]
    ) -> Tuple[Tuple[AggregateEntry, ...], Dict[int, Optional[int]]]:
        """The root entries of ``RQ`` and the parent cell of each location."""
        graph = self._pipeline.flow_computer.graph
        regions = [graph.plan.slocations[sloc_id].region for sloc_id in query_slocations]
        tree = CountAggregateRTree.build(
            (
                (region.xmin, region.ymin, region.xmax, region.ymax, region.floor, sloc_id)
                for region, sloc_id in zip(regions, query_slocations)
            ),
            self._fanout,
        )
        return tree.root_entries, {
            sloc_id: graph.parent_cell(sloc_id) for sloc_id in query_slocations
        }

    @staticmethod
    def _psl_bounds(slocations, psls) -> List[Bounds]:
        """Represent an object's PSLs by one MBR per floor (finer-grained MBRs),
        in order of first appearance: the min/max over the regions' bounds."""
        by_floor: Dict[int, List[float]] = {}
        for sloc_id in psls:
            sloc = slocations.get(sloc_id)
            if sloc is None:
                continue
            region = sloc.region
            box = by_floor.get(region.floor)
            if box is None:
                by_floor[region.floor] = [region.xmin, region.ymin, region.xmax, region.ymax]
            else:
                box[0] = min(box[0], region.xmin)
                box[1] = min(box[1], region.ymin)
                box[2] = max(box[2], region.xmax)
                box[3] = max(box[3], region.ymax)
        return [(*box, floor) for floor, box in by_floor.items()]

    def _exact_flow(
        self,
        ctx: "ExecutionContext",
        reachers: Sequence[Tuple[int, "StoredPresence"]],
        cell_id: Optional[int],
        stats: SearchStats,
    ) -> float:
        """The exact flow of one query location from the candidates that can
        reach it, summed in ascending object id.

        Every object whose PSLs contain the location is a candidate of its
        object-level join list (its MBR on the location's floor contains the
        location's region), and every other candidate would add ``+ 0.0``.
        Path construction runs lazily per summed candidate through the
        pipeline, which memoises it on the shared artefact — the per-object
        sharing that Section 4.1 obtained from a per-query cache.
        """
        build_paths = self._pipeline.presence.build_paths
        flow_value = 0.0
        for object_id, stored in reachers:
            if stored.computation is None:
                build_paths(ctx, object_id, stored)
            flow_value += stored.computation.presence_in_cell(cell_id)
        stats.flow_evaluations += len(reachers)
        return flow_value


def _push(
    heap: List[tuple],
    order,
    entry: AggregateEntry,
    bound: float,
    join_list: Optional[List[AggregateEntry]],
) -> None:
    """Push one ``RQ`` entry with its bound and join list (``None``: the bound
    is its exact flow).

    Ties on the bound are broken towards smaller S-location ids so that the
    emitted order matches the deterministic ranking of the other algorithms
    (node entries use -1 and are simply expanded first); ``order`` keeps
    equal keys in push order.
    """
    tie = entry[ITEM] if entry[CHILDREN] is None else -1
    heapq.heappush(heap, (-bound, tie, next(order), entry, join_list))


def _join(
    entry: AggregateEntry, candidates: Sequence[AggregateEntry]
) -> Tuple[float, List[AggregateEntry]]:
    """The flow bound of ``entry`` and its join list: the sum of the counts of
    the candidates whose MBR meets its MBR (floor ``-1`` is a wildcard), and
    those candidates in order."""
    xmin, ymin, xmax, ymax, floor, _count, _children, _item = entry
    joined = []
    count = 0
    for candidate in candidates:
        cxmin, cymin, cxmax, cymax, cfloor, ccount, _children, _item = candidate
        if (
            cxmin <= xmax
            and xmin <= cxmax
            and cymin <= ymax
            and ymin <= cymax
            and (cfloor == floor or cfloor == -1 or floor == -1)
        ):
            joined.append(candidate)
            count += ccount
    return float(count), joined


def _below(join_list: Sequence[AggregateEntry]) -> List[AggregateEntry]:
    """``ExpandList``: the entries one level down from a join list of nodes."""
    return [child for node in join_list for child in node[CHILDREN]]
