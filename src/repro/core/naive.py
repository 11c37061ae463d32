"""The naive TkPLQ algorithm (Section 4, introduction).

The naive algorithm simply calls the single-location flow computation
(Algorithm 2) once per query S-location and ranks the results.  It is correct
but repeats work: on an engine without a presence store (what the paper's
experiments run), an object that contributes to several query locations has
its samples reduced and its possible paths constructed once *per location*.
The nested-loop and best-first algorithms remove exactly this redundancy.
"""

from __future__ import annotations

import time
from typing import Dict, TYPE_CHECKING

from ..storage.sharded import ShardedRecordStore
from .query import SearchStats, TkPLQResult, TkPLQuery

if TYPE_CHECKING:  # pragma: no cover - typing only (core never imports the engine)
    from ..engine.stages import QueryPipeline


class NaiveTkPLQ:
    """Answer TkPLQ by independent per-location flow computations."""

    name = "naive"

    def __init__(self, pipeline: "QueryPipeline"):
        self._pipeline = pipeline

    def search(self, iupt: ShardedRecordStore, query: TkPLQuery) -> TkPLQResult:
        """Compute the flow of every query location independently and rank."""
        stats = SearchStats()
        began = time.perf_counter()

        flows: Dict[int, float] = {}
        for sloc_id in query.query_slocations:
            # Each read covers the objects that may have visited its
            # location; only a presence store (one entry per window) lets a
            # later read reuse what an earlier one built.
            ctx = self._pipeline.context(query.interval, (sloc_id,), stats=stats)
            flows.update(self._pipeline.flows(ctx, iupt, (sloc_id,)))

        stats.elapsed_seconds = time.perf_counter() - began
        return TkPLQResult.ranked(query, flows, stats, self.name)
