"""Core contribution: indoor flows and the top-k popular location query."""

from .best_first import BestFirstTkPLQ
from .flow import FlowComputer, FlowResult
from .naive import NaiveTkPLQ
from .nested_loop import NestedLoopTkPLQ
from .paths import PathConstructionStats, candidate_path_count
from .presence import PresenceComputation
from .query import (
    RankedLocation,
    SearchStats,
    TkPLQResult,
    TkPLQuery,
    rank_top_k,
)
from .reduction import (
    DataReducer,
    DataReductionConfig,
    ReducedSequence,
    ReductionStats,
)

__all__ = [
    "BestFirstTkPLQ",
    "DataReducer",
    "DataReductionConfig",
    "FlowComputer",
    "FlowResult",
    "NaiveTkPLQ",
    "NestedLoopTkPLQ",
    "PathConstructionStats",
    "PresenceComputation",
    "RankedLocation",
    "ReducedSequence",
    "ReductionStats",
    "SearchStats",
    "TkPLQResult",
    "TkPLQuery",
    "candidate_path_count",
    "rank_top_k",
]
