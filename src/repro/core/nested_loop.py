"""The Nested-Loop TkPLQ algorithm (Algorithm 3).

Instead of iterating query locations in the outer loop (like the naive
algorithm), the nested-loop algorithm iterates objects in the outer loop: it
reduces each object's sequence *once* against the full query set, constructs
its valid possible paths *once*, and then scores every relevant query location
against those shared paths.  The per-object local scores are aggregated into
global flows and the top-k is obtained by a full ranking.

The per-object work (reduce → path construction) runs through the staged
pipeline it is given, so it transparently benefits from the cross-query
presence store of the owning :class:`~repro.engine.runtime.QueryEngine`.
"""

from __future__ import annotations

import time
from typing import Dict, Set, TYPE_CHECKING

from ..data.iupt import IUPT
from .query import SearchStats, TkPLQResult, TkPLQuery, rank_top_k

if TYPE_CHECKING:  # pragma: no cover - typing only (core never imports the engine)
    from ..engine.stages import QueryPipeline


def score_presence_into_flows(
    entry,
    query_set: Set[int],
    parent_cells: Dict[int, int],
    flows: Dict[int, float],
    stats: SearchStats,
) -> None:
    """Score one object's presence artefact against a query's locations.

    The inner scoring kernel of Algorithm 3: only the query locations the
    object may actually have visited (its PSLs) are evaluated; all other
    locations receive zero presence.  Shared by :class:`NestedLoopTkPLQ` and
    the :class:`~repro.engine.batch.BatchPlanner`, whose bit-for-bit
    equivalence depends on both using exactly this kernel.
    """
    if entry.pruned:
        return
    relevant = entry.psls & query_set
    for sloc_id in relevant:
        cell_id = parent_cells.get(sloc_id)
        if cell_id is None:
            continue
        stats.flow_evaluations += 1
        flows[sloc_id] += entry.computation.presence_in_cell(cell_id)


class NestedLoopTkPLQ:
    """Answer TkPLQ with one pass over objects, sharing intermediate results."""

    name = "nested-loop"

    def __init__(self, pipeline: "QueryPipeline"):
        self._pipeline = pipeline

    def search(self, iupt: IUPT, query: TkPLQuery) -> TkPLQResult:
        stats = SearchStats()
        began = time.perf_counter()

        pipeline = self._pipeline
        graph = pipeline.flow_computer.graph
        query_set: Set[int] = set(query.query_slocations)
        parent_cells: Dict[int, int] = {}
        for sloc_id in query_set:
            cell_id = graph.parent_cell(sloc_id)
            if cell_id is not None:
                parent_cells[sloc_id] = cell_id

        ctx = pipeline.context(query.interval, query_set, stats=stats)

        flows: Dict[int, float] = {sloc_id: 0.0 for sloc_id in query.query_slocations}
        for _object_id, entry in pipeline.window(ctx, iupt).entries:
            score_presence_into_flows(entry, query_set, parent_cells, flows, stats)

        stats.elapsed_seconds = time.perf_counter() - began
        return TkPLQResult(
            query=query,
            ranking=rank_top_k(flows, query.k),
            flows=flows,
            stats=stats,
            algorithm=self.name,
        )
