"""The :class:`QueryEngine` — the execution-engine facade.

A ``QueryEngine`` owns one :class:`~repro.core.flow.FlowComputer` (the
reduction / path primitives), one cross-query
:class:`~repro.engine.cache.PresenceStore`, and the three TkPLQ algorithms
wired to the shared :class:`~repro.engine.stages.QueryPipeline`.  It is the
layer every entry point goes through:

* :meth:`flow` / :meth:`flows` — Algorithm 2 through the staged pipeline;
* :meth:`search` / :meth:`top_k` — the naive, nested-loop and best-first
  algorithms, sharing the engine's store.  Nested-loop (Algorithm 3) is the
  default: best-first (Algorithm 4) ranks the same, but its COUNT bound
  pruned no object on any configuration measured, so its ``RC`` / ``RQ``
  build and join only add cost, and it lists only the flows it resolved.
  Ask for it by name (``algorithm="best-first"``), as the experiments do;
* :meth:`batch` / :meth:`batch_top_k` — many queries, those over one window
  sharing its store entry;
* :meth:`cache_stats` / :meth:`reset_cache` — cache introspection.

:class:`~repro.system.IndoorFlowSystem` *is* one of these, built from a
floor plan instead of a graph and a matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.best_first import BestFirstTkPLQ
from ..core.flow import FlowComputer, FlowResult
from ..core.naive import NaiveTkPLQ
from ..core.nested_loop import NestedLoopTkPLQ, score_query_over_entries
from ..core.query import SearchStats, TkPLQResult, TkPLQuery
from ..core.reduction import DataReductionConfig
from ..space.graph import IndoorSpaceLocationGraph
from ..space.matrix import IndoorLocationMatrix
from ..storage.sharded import ShardedRecordStore
from .cache import PresenceStore
from .config import EngineConfig
from .continuous import ContinuousQueryEngine
from .stages import QueryPipeline

ALGORITHMS = ("naive", "nested-loop", "best-first")


@dataclass
class BatchReport:
    """The outcome of one batched run: per-query results plus shared-work totals.

    ``groups`` is how many distinct windows the batch read.  ``shared_stats``
    aggregates the fetch/reduce/path work of every window; its
    ``objects_total`` is the *sum* of the per-window object populations (an
    object reported in two windows counts twice, matching how much
    fetch-and-reduce work the batch actually performed).
    """

    results: List[TkPLQResult]
    groups: int
    shared_stats: SearchStats = field(default_factory=SearchStats)
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def rankings(self) -> List[List[int]]:
        return [result.top_k_ids() for result in self.results]


class QueryEngine:
    """Execute flow computations and TkPLQ queries over one indoor model."""

    def __init__(
        self,
        graph: IndoorSpaceLocationGraph,
        matrix: IndoorLocationMatrix,
        reduction: DataReductionConfig = DataReductionConfig.enabled(),
        config: Optional[EngineConfig] = None,
    ):
        self.config = config or EngineConfig()
        self.store: Optional[PresenceStore] = (
            PresenceStore(self.config.presence_store_capacity)
            if self.config.caching_enabled
            else None
        )
        self.flow_computer = FlowComputer(graph, matrix, reduction)
        self.pipeline = QueryPipeline(
            self.flow_computer, store=self.store, config=self.config
        )
        self._algorithms = {
            "naive": NaiveTkPLQ(self.pipeline),
            "nested-loop": NestedLoopTkPLQ(self.pipeline),
            "best-first": BestFirstTkPLQ(self.pipeline),
        }

    # ------------------------------------------------------------------
    # Flow computation (Algorithm 2)
    # ------------------------------------------------------------------
    def flow(
        self,
        iupt: ShardedRecordStore,
        sloc_id: int,
        start: float,
        end: float,
        stats: Optional[SearchStats] = None,
    ) -> FlowResult:
        """Indoor flow of one S-location through the staged pipeline."""
        ctx = self.pipeline.context((start, end), frozenset({sloc_id}), stats=stats)
        return self.pipeline.flow(ctx, iupt, sloc_id)

    def flows(
        self, iupt: ShardedRecordStore, sloc_ids: Sequence[int], start: float, end: float
    ) -> Dict[int, float]:
        """Flows of several S-locations, sharing one per-object pass."""
        return self.pipeline.flows_for_all(iupt, sloc_ids, start, end)

    # ------------------------------------------------------------------
    # TkPLQ
    # ------------------------------------------------------------------
    def search(
        self, iupt: ShardedRecordStore, query: TkPLQuery, algorithm: str = "nested-loop"
    ) -> TkPLQResult:
        """Answer one TkPLQ with the chosen algorithm (nested-loop by default)."""
        if algorithm not in self._algorithms:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        return self._algorithms[algorithm].search(iupt, query)

    def top_k(
        self,
        iupt: ShardedRecordStore,
        query_slocations: Sequence[int],
        k: int,
        start: float,
        end: float,
        algorithm: str = "nested-loop",
    ) -> TkPLQResult:
        """Convenience wrapper building the query in place."""
        query = TkPLQuery.build(query_slocations, k, start, end)
        return self.search(iupt, query, algorithm)

    # ------------------------------------------------------------------
    # Continuous queries
    # ------------------------------------------------------------------
    def continuous(self, iupt: ShardedRecordStore) -> ContinuousQueryEngine:
        """Attach a continuous-query engine to ``iupt``.

        Standing queries registered with the returned
        :class:`~repro.engine.continuous.ContinuousQueryEngine` are refreshed
        incrementally after every ``ingest_batch`` / ``evict_before`` on the
        table, which keeps them (a durable table logs them, so they can be
        restored after a restart).
        """
        return ContinuousQueryEngine(self, iupt)

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    def batch(self, iupt: ShardedRecordStore, queries: Sequence[TkPLQuery]) -> BatchReport:
        """Answer many queries, each scored by the nested-loop fold.

        Queries over one window share its store entry: each object is fetched
        and reduced once, and its presences built once, by the first query
        that reads it (an uncached engine shares nothing).  The results are
        ordered like ``queries``; each result's ``stats`` carries its own
        scoring counters, and the fetch/reduce/path work of the whole batch
        is reported once in :attr:`BatchReport.shared_stats`.
        """
        began = time.perf_counter()
        graph = self.flow_computer.graph
        windows: Dict[Tuple[float, float], SearchStats] = {}
        results: List[TkPLQResult] = []
        for query in queries:
            stats = windows.setdefault(query.interval, SearchStats())
            ctx = self.pipeline.context(query.interval, query.query_slocations, stats=stats)
            entries = self.pipeline.window(ctx, iupt).entries
            parent_cells = {
                sloc_id: graph.parent_cell(sloc_id) for sloc_id in query.query_slocations
            }
            results.append(score_query_over_entries(query, entries, parent_cells))
        shared_stats = SearchStats()
        for stats in windows.values():
            shared_stats.merge(stats, same_window=False)
        return BatchReport(
            results, len(windows), shared_stats, time.perf_counter() - began
        )

    def batch_top_k(
        self, iupt: ShardedRecordStore, queries: Sequence[TkPLQuery]
    ) -> List[TkPLQResult]:
        """Like :meth:`batch`, returning just the per-query results."""
        return self.batch(iupt, queries).results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, float]:
        """Statistics of the cross-query presence store, counted in artefacts.

        ``entries`` is how many per-object artefacts the store holds (what
        ``capacity`` bounds), ``windows`` how many window entries hold them.
        """
        if self.store is None:
            return {"enabled": 0.0}
        summary = self.store.stats.as_dict()
        summary["enabled"] = 1.0
        summary["entries"] = float(len(self.store))
        summary["windows"] = float(self.store.windows)
        summary["capacity"] = float(self.store.capacity)
        return summary

    def reset_cache(self) -> None:
        """Drop every stored window — artefacts, derived trees, statistics."""
        if self.store is not None:
            self.store.clear()
            self.store.reset_stats()
