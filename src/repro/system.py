"""The end-to-end system of the paper: a query engine built from a floor plan.

:class:`IndoorFlowSystem` is the public entry point most users need.  It is a
:class:`~repro.engine.runtime.QueryEngine` whose constructor takes a floor
plan and derives the indoor space location graph and the merged indoor
location matrix (Section 3.2) from it; flow computation, the three TkPLQ
search algorithms, batched and continuous evaluation are the engine's own
methods, sharing its cross-query presence store.
"""

from __future__ import annotations

from typing import Dict, Optional

from .core.reduction import DataReductionConfig
from .engine.config import EngineConfig
from .engine.runtime import QueryEngine
from .space.floorplan import FloorPlan
from .space.graph import IndoorSpaceLocationGraph
from .space.matrix import IndoorLocationMatrix


class IndoorFlowSystem(QueryEngine):
    """The end-to-end system of the paper, from floor plan to top-k answers.

    Parameters
    ----------
    plan:
        The indoor floor plan (frozen automatically if needed).
    reduction:
        The data reduction configuration; disable it to obtain the ``-ORG``
        behaviour studied in Section 5.2.1.
    config:
        Execution-engine configuration (the presence store's capacity).  The
        default is a bounded cross-query presence store.
    """

    def __init__(
        self,
        plan: FloorPlan,
        reduction: DataReductionConfig = DataReductionConfig.enabled(),
        config: Optional[EngineConfig] = None,
    ):
        self.plan = plan.freeze()
        self.graph = IndoorSpaceLocationGraph.from_floorplan(self.plan)
        self.matrix = IndoorLocationMatrix.from_graph(self.graph).merged(self.graph)
        super().__init__(self.graph, self.matrix, reduction, config=config)

    def summary(self) -> Dict[str, int]:
        """Structural summary of the deployed model (plan, graph, matrix)."""
        info: Dict[str, int] = {}
        info.update({f"plan_{key}": value for key, value in self.plan.summary().items()})
        info.update({f"graph_{key}": value for key, value in self.graph.summary().items()})
        info.update({f"matrix_{key}": value for key, value in self.matrix.summary().items()})
        return info
