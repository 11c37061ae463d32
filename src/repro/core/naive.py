"""The naive TkPLQ algorithm (Section 4, introduction).

The naive algorithm simply calls the single-location flow computation
(Algorithm 2) once per query S-location and ranks the results.  It is correct
but repeats work: an object that contributes to several query locations has
its samples reduced and its possible paths constructed once *per location*.
The nested-loop and best-first algorithms remove exactly this redundancy.
"""

from __future__ import annotations

import time
from typing import Dict, TYPE_CHECKING

from ..data.iupt import IUPT
from .query import SearchStats, TkPLQResult, TkPLQuery, rank_top_k

if TYPE_CHECKING:  # pragma: no cover - typing only (core never imports the engine)
    from ..engine.stages import QueryPipeline


class NaiveTkPLQ:
    """Answer TkPLQ by independent per-location flow computations."""

    name = "naive"

    def __init__(self, pipeline: "QueryPipeline"):
        self._pipeline = pipeline

    def search(self, iupt: IUPT, query: TkPLQuery) -> TkPLQResult:
        """Compute the flow of every query location independently and rank."""
        stats = SearchStats()
        began = time.perf_counter()

        flows: Dict[int, float] = {}
        for sloc_id in query.query_slocations:
            # Deliberately no sharing between locations: every call
            # re-reduces and re-constructs the paths of every relevant
            # object.  (The pipeline's cross-query store keys by location
            # set, so distinct locations never share work there either.)
            ctx = self._pipeline.context(
                query.interval, frozenset({sloc_id}), stats=stats
            )
            flows[sloc_id] = self._pipeline.flow(ctx, iupt, sloc_id).flow

        stats.elapsed_seconds = time.perf_counter() - began
        return TkPLQResult(
            query=query,
            ranking=rank_top_k(flows, query.k),
            flows=flows,
            stats=stats,
            algorithm=self.name,
        )
