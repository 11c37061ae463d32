"""The :class:`QueryEngine` — the execution-engine facade.

A ``QueryEngine`` owns one :class:`~repro.core.flow.FlowComputer` (the
reduction / path primitives), one cross-query
:class:`~repro.engine.cache.PresenceStore`, and the three TkPLQ algorithms
wired to the shared :class:`~repro.engine.stages.QueryPipeline`.  It is the
layer every entry point goes through:

* :meth:`flow` / :meth:`flows` — Algorithm 2 through the staged pipeline;
* :meth:`search` / :meth:`top_k` — the naive, nested-loop and best-first
  algorithms, sharing the engine's store;
* :meth:`batch` / :meth:`batch_top_k` — many queries in one pass through the
  :class:`~repro.engine.batch.BatchPlanner`;
* :meth:`cache_stats` / :meth:`reset_cache` — cache introspection.

:class:`~repro.system.IndoorFlowSystem` *is* one of these, built from a
floor plan instead of a graph and a matrix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.best_first import BestFirstTkPLQ
from ..core.flow import FlowComputer, FlowResult
from ..core.naive import NaiveTkPLQ
from ..core.nested_loop import NestedLoopTkPLQ
from ..core.query import SearchStats, TkPLQResult, TkPLQuery
from ..core.reduction import DataReductionConfig
from ..data.iupt import IUPT
from ..space.graph import IndoorSpaceLocationGraph
from ..space.matrix import IndoorLocationMatrix
from .batch import BatchPlanner, BatchReport
from .cache import PresenceStore
from .config import EngineConfig
from .continuous import ContinuousQueryEngine
from .stages import QueryPipeline

ALGORITHMS = ("naive", "nested-loop", "best-first")


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
        self.planner = BatchPlanner(self.pipeline)
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
        iupt: IUPT,
        sloc_id: int,
        start: float,
        end: float,
        stats: Optional[SearchStats] = None,
    ) -> FlowResult:
        """Indoor flow of one S-location through the staged pipeline."""
        ctx = self.pipeline.context((start, end), frozenset({sloc_id}), stats=stats)
        return self.pipeline.flow(ctx, iupt, sloc_id)

    def flows(
        self, iupt: IUPT, sloc_ids: Sequence[int], start: float, end: float
    ) -> Dict[int, float]:
        """Flows of several S-locations, sharing one per-object pass."""
        return self.pipeline.flows_for_all(iupt, sloc_ids, start, end)

    # ------------------------------------------------------------------
    # TkPLQ
    # ------------------------------------------------------------------
    def search(
        self, iupt: IUPT, query: TkPLQuery, algorithm: str = "best-first"
    ) -> TkPLQResult:
        """Answer one TkPLQ with the chosen algorithm."""
        if algorithm not in self._algorithms:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        return self._algorithms[algorithm].search(iupt, query)

    def top_k(
        self,
        iupt: IUPT,
        query_slocations: Sequence[int],
        k: int,
        start: float,
        end: float,
        algorithm: str = "best-first",
    ) -> TkPLQResult:
        """Convenience wrapper building the query in place."""
        query = TkPLQuery.build(query_slocations, k, start, end)
        return self.search(iupt, query, algorithm)

    # ------------------------------------------------------------------
    # Continuous queries
    # ------------------------------------------------------------------
    def continuous(self, iupt: IUPT, manifest_path=None) -> ContinuousQueryEngine:
        """Attach a continuous-query engine to ``iupt``.

        Standing queries registered with the returned
        :class:`~repro.engine.continuous.ContinuousQueryEngine` are refreshed
        incrementally after every ``ingest_batch`` / ``evict_before`` on the
        table.  ``manifest_path`` persists the registered queries so they can
        be restored after a restart (used with durable tables).
        """
        return ContinuousQueryEngine(self, iupt, manifest_path=manifest_path)

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    def batch(self, iupt: IUPT, queries: Sequence[TkPLQuery]) -> BatchReport:
        """Answer many queries in one pass, sharing per-object work."""
        return self.planner.execute(iupt, queries)

    def batch_top_k(
        self, iupt: IUPT, queries: Sequence[TkPLQuery]
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
