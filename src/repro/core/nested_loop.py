"""The Nested-Loop TkPLQ algorithm (Algorithm 3) and the engine's one fold.

Instead of iterating query locations in the outer loop (like the naive
algorithm), the nested-loop algorithm iterates objects in the outer loop: it
reduces each object's sequence *once* against the full query set, constructs
its valid possible paths *once*, and then scores every relevant query location
against those shared paths.  The per-object local scores are aggregated into
global flows and the top-k is obtained by a full ranking.

That scoring is :func:`accumulate_flows_over_entries`, the one fold of
per-object presences into flows.  It has one caller,
:meth:`~repro.engine.stages.QueryPipeline.flows` — the window, then the fold —
and every read goes through that: this algorithm, the naive one's
per-location reads, ``QueryEngine.flow`` / ``flows`` / ``batch`` and both
kinds of standing query sum the same presences in the same (fetch) order,
which is what makes their answers equal bit for bit.
:meth:`~repro.core.query.TkPLQResult.ranked` turns the flows into an answer.

The per-object work (reduce → path construction) runs through the staged
pipeline it is given, so it transparently benefits from the cross-query
presence store of the owning :class:`~repro.engine.runtime.QueryEngine`,
whose one entry per window serves every query set.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from ..storage.sharded import ShardedRecordStore
from .query import SearchStats, TkPLQResult, TkPLQuery

if TYPE_CHECKING:  # pragma: no cover - typing only (core never imports the engine)
    from ..engine.cache import StoredPresence
    from ..engine.stages import QueryPipeline

#: The ``algorithm`` label of a query answered by ``QueryEngine.batch``.
BATCH_ALGORITHM = "batched-nested-loop"


def accumulate_flows_over_entries(
    entries: Sequence[Tuple[int, "StoredPresence"]],
    sloc_ids: Sequence[int],
    parent_cells: Dict[int, Optional[int]],
    stats: SearchStats,
    kernel: str = "scalar",
) -> Dict[int, float]:
    """Sum per-location flows over per-object artefacts, in entry order.

    Only the locations an object may have visited (its PSLs) are evaluated;
    every other location receives zero presence from it, so an object whose
    PSLs miss every location — one PSL pruning rules out — is read not at
    all, and its presences need not exist.  An S-location in an artefact's
    PSLs always has a parent cell: the graph's ``C2S`` only holds
    S-locations that have one.

    ``kernel`` selects nothing: ``bench/`` passes
    ``EngineConfig.resolved_scoring_kernel`` by keyword, so the keyword is
    accepted, and anything but ``"scalar"`` is a ``ValueError``.
    """
    if kernel != "scalar":
        raise ValueError(
            f"unknown scoring kernel {kernel!r}; the engine has one, 'scalar'"
        )
    flows: Dict[int, float] = {sloc_id: 0.0 for sloc_id in sloc_ids}
    for _object_id, entry in entries:
        for sloc_id in sloc_ids:
            if sloc_id in entry.psls:
                stats.flow_evaluations += 1
                flows[sloc_id] += entry.computation.presence_in_cell(
                    parent_cells[sloc_id]
                )
    return flows


class NestedLoopTkPLQ:
    """Answer TkPLQ with one pass over objects, sharing intermediate results."""

    name = "nested-loop"

    def __init__(self, pipeline: "QueryPipeline"):
        self._pipeline = pipeline

    def search(self, iupt: ShardedRecordStore, query: TkPLQuery) -> TkPLQResult:
        began = time.perf_counter()
        ctx = self._pipeline.context(query.interval, query.query_slocations)
        flows = self._pipeline.flows(ctx, iupt, query.query_slocations)
        ctx.stats.elapsed_seconds = time.perf_counter() - began
        return TkPLQResult.ranked(query, flows, ctx.stats, self.name)
