"""Batched evaluation of many TkPLQ queries in one pass.

Section 4.1's intermediate-result sharing reuses one object's reduced
sequence and possible paths across the locations of *one* query.  The
:class:`BatchPlanner` generalises that sharing across *queries*: queries over
the same window are grouped, every object in the window is reduced once
against the union of the group's query sets and its paths are constructed
once, and each query then only scores its own locations against the shared
per-object artefacts.

The per-query answers are exactly those of the nested-loop algorithm run
independently: each query is scored by the same
:func:`~repro.core.nested_loop.score_query_over_entries` the algorithm uses,
over objects in the same (fetch) order with identical per-object presences —
so the summed flows (and therefore the rankings) match bit for bit.  Both
names are imported here from :mod:`repro.core.nested_loop`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.nested_loop import BATCH_ALGORITHM, score_query_over_entries
from ..core.query import SearchStats, TkPLQResult, TkPLQuery
from ..storage.sharded import ShardedRecordStore
from .stages import QueryPipeline

@dataclass
class BatchReport:
    """The outcome of one batched run: per-query results plus shared-work totals.

    ``shared_stats`` aggregates the fetch/reduce/path work of every window
    group; its ``objects_total`` is the *sum* of the per-window object
    populations (an object reported in two windows counts twice, matching
    how much fetch-and-reduce work the batch actually performed).
    """

    results: List[TkPLQResult]
    groups: int
    shared_stats: SearchStats = field(default_factory=SearchStats)
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def rankings(self) -> List[List[int]]:
        return [result.top_k_ids() for result in self.results]


class BatchPlanner:
    """Plan and execute many TkPLQ queries over shared per-object work."""

    def __init__(self, pipeline: QueryPipeline):
        self._pipeline = pipeline

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, queries: Sequence[TkPLQuery]) -> List[List[int]]:
        """Group query indices by identical window.

        Queries sharing a window share one fetch, one reduction pass and one
        path construction per object; queries over different windows cannot
        share those artefacts (their per-object sequences differ) and form
        separate groups, preserving first-seen order.
        """
        groups: Dict[Tuple[float, float], List[int]] = {}
        for index, query in enumerate(queries):
            groups.setdefault(query.interval, []).append(index)
        return list(groups.values())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, iupt: ShardedRecordStore, queries: Sequence[TkPLQuery]
    ) -> BatchReport:
        """Answer every query, sharing per-object work within window groups.

        The returned results are ordered like ``queries``.  Each result's
        ``stats`` carries its own scoring counters (``flow_evaluations``,
        per-query elapsed time); the shared fetch/reduce/path work of the
        whole batch is reported once in :attr:`BatchReport.shared_stats`.
        """
        began = time.perf_counter()
        results: List[TkPLQResult] = [None] * len(queries)  # type: ignore[list-item]
        shared_stats = SearchStats()
        groups = self.plan(queries)

        for group in groups:
            group_stats = SearchStats()
            self._execute_group(iupt, queries, group, group_stats, results)
            shared_stats.merge(group_stats, same_window=False)

        return BatchReport(
            results=list(results),
            groups=len(groups),
            shared_stats=shared_stats,
            elapsed_seconds=time.perf_counter() - began,
        )

    def _execute_group(
        self,
        iupt: ShardedRecordStore,
        queries: Sequence[TkPLQuery],
        group: List[int],
        group_stats: SearchStats,
        results: List[TkPLQResult],
    ) -> None:
        """One window group: shared per-object pass, then per-query scoring."""
        pipeline = self._pipeline
        graph = pipeline.flow_computer.graph
        window = queries[group[0]].interval
        union_key = frozenset(
            sloc_id
            for index in group
            for sloc_id in queries[index].query_slocations
        )

        ctx = pipeline.context(window, union_key, stats=group_stats)
        entries = pipeline.window(ctx, iupt).entries

        parent_cells = {
            sloc_id: graph.parent_cell(sloc_id) for sloc_id in union_key
        }

        for index in group:
            results[index] = score_query_over_entries(
                queries[index], entries, parent_cells
            )
