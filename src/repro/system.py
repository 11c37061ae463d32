"""High-level facade wiring the indoor space model to the TkPLQ algorithms.

:class:`IndoorFlowSystem` is the public entry point most users need: it takes
a floor plan, derives the indoor space location graph and the (merged) indoor
location matrix, and deploys a :class:`~repro.engine.runtime.QueryEngine` over
them.  Flow computation, the three TkPLQ search algorithms, and batched
multi-query evaluation are all exposed behind a single object; every method
is a thin wrapper over the engine (and so shares its cross-query presence
store).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .core.flow import FlowComputer, FlowResult
from .core.query import TkPLQResult, TkPLQuery
from .core.reduction import DataReductionConfig
from .data.iupt import IUPT
from .engine.batch import BatchReport
from .engine.config import EngineConfig
from .engine.runtime import QueryEngine
from .space.floorplan import FloorPlan
from .space.graph import IndoorSpaceLocationGraph
from .space.matrix import IndoorLocationMatrix


class IndoorFlowSystem:
    """The end-to-end system of the paper, from floor plan to top-k answers.

    Parameters
    ----------
    plan:
        The indoor floor plan (frozen automatically if needed).
    use_merged_matrix:
        Whether to downsize the indoor location matrix by merging equivalent
        P-locations (Section 3.2).  On by default, as in the paper.
    reduction:
        The data reduction configuration; disable it to obtain the ``-ORG``
        behaviour studied in Section 5.2.1.
    engine_config:
        Execution-engine configuration (the presence store's capacity).  The
        default is a bounded cross-query presence store.
    """

    def __init__(
        self,
        plan: FloorPlan,
        use_merged_matrix: bool = True,
        reduction: DataReductionConfig = DataReductionConfig.enabled(),
        engine_config: Optional[EngineConfig] = None,
    ):
        self.plan = plan.freeze()
        self.graph = IndoorSpaceLocationGraph.from_floorplan(self.plan)
        raw_matrix = IndoorLocationMatrix.from_graph(self.graph)
        self.matrix = raw_matrix.merged(self.graph) if use_merged_matrix else raw_matrix
        self.engine = QueryEngine(
            self.graph, self.matrix, reduction, config=engine_config
        )
        self.flow_computer: FlowComputer = self.engine.flow_computer

    # ------------------------------------------------------------------
    # Flow computation
    # ------------------------------------------------------------------
    def flow(self, iupt: IUPT, sloc_id: int, start: float, end: float) -> FlowResult:
        """Indoor flow of one S-location over ``[start, end]`` (Algorithm 2)."""
        return self.engine.flow(iupt, sloc_id, start, end)

    def flows(
        self, iupt: IUPT, sloc_ids: Sequence[int], start: float, end: float
    ) -> Dict[int, float]:
        """Flows of several S-locations, sharing per-object work."""
        return self.engine.flows(iupt, sloc_ids, start, end)

    # ------------------------------------------------------------------
    # TkPLQ
    # ------------------------------------------------------------------
    def top_k(
        self,
        iupt: IUPT,
        query_slocations: Sequence[int],
        k: int,
        start: float,
        end: float,
        algorithm: str = "best-first",
    ) -> TkPLQResult:
        """Answer a top-k popular location query.

        ``algorithm`` is one of ``"naive"``, ``"nested-loop"``, ``"best-first"``.
        """
        return self.engine.top_k(iupt, query_slocations, k, start, end, algorithm)

    def search(
        self, iupt: IUPT, query: TkPLQuery, algorithm: str = "best-first"
    ) -> TkPLQResult:
        """Answer an already constructed :class:`TkPLQuery`."""
        return self.engine.search(iupt, query, algorithm)

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    def batch(self, iupt: IUPT, queries: Sequence[TkPLQuery]) -> BatchReport:
        """Answer many TkPLQ queries in one pass, sharing per-object work."""
        return self.engine.batch(iupt, queries)

    def batch_top_k(
        self, iupt: IUPT, queries: Sequence[TkPLQuery]
    ) -> List[TkPLQResult]:
        """Like :meth:`batch`, returning just the per-query results."""
        return self.engine.batch_top_k(iupt, queries)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, float]:
        """Hit/miss statistics of the engine's cross-query presence store."""
        return self.engine.cache_stats()

    def summary(self) -> Dict[str, int]:
        """Structural summary of the deployed model (plan, graph, matrix)."""
        info: Dict[str, int] = {}
        info.update({f"plan_{key}": value for key, value in self.plan.summary().items()})
        info.update({f"graph_{key}": value for key, value in self.graph.summary().items()})
        info.update({f"matrix_{key}": value for key, value in self.matrix.summary().items()})
        return info
