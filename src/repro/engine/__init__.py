"""The execution-engine layer: staged pipeline, caching, standing queries.

This package turns the core algorithms into an explicit execution engine:

* :mod:`~repro.engine.config` — :class:`EngineConfig`, the engine's one knob;
* :mod:`~repro.engine.context` — :class:`ExecutionContext`, per-query state;
* :mod:`~repro.engine.cache` — :class:`PresenceStore`, the cross-query LRU
  cache of per-window presence artefacts, one entry per window and table
  version whatever the query set;
* :mod:`~repro.engine.stages` — the composable pipeline stages
  (fetch → reduce → paths → presence) and :class:`QueryPipeline`;
* :mod:`~repro.engine.continuous` — :class:`ContinuousQueryEngine`,
  incrementally maintained standing queries over streaming ingestion;
* :mod:`~repro.engine.runtime` — :class:`QueryEngine`, the facade every
  entry point goes through (:class:`~repro.system.IndoorFlowSystem` is its
  subclass built from a floor plan), and :class:`BatchReport`, what its
  ``batch`` returns.

Every read but best-first's is one call,
:meth:`~repro.engine.stages.QueryPipeline.flows`: the window, then the one
fold, :func:`~repro.core.nested_loop.accumulate_flows_over_entries`, which
lives beside Algorithm 3 (``core`` never imports the engine) and has no other
caller; :meth:`~repro.core.query.TkPLQResult.ranked` makes a top-k answer of
its flows.
"""

from ..core.nested_loop import BATCH_ALGORITHM
from .cache import CacheStats, PresenceStore, StoredPresence
from .config import EngineConfig
from .context import ExecutionContext
from .continuous import (
    CONTINUOUS_ALGORITHM,
    ContinuousQueryEngine,
    Subscription,
    SubscriptionStats,
)
from .runtime import ALGORITHMS, BatchReport, QueryEngine
from .stages import (
    FetchStage,
    PathStage,
    PresenceStage,
    QueryPipeline,
    ReduceStage,
)

__all__ = [
    "ALGORITHMS",
    "BATCH_ALGORITHM",
    "BatchReport",
    "CacheStats",
    "CONTINUOUS_ALGORITHM",
    "ContinuousQueryEngine",
    "EngineConfig",
    "ExecutionContext",
    "FetchStage",
    "PathStage",
    "PresenceStage",
    "PresenceStore",
    "QueryEngine",
    "QueryPipeline",
    "ReduceStage",
    "StoredPresence",
    "Subscription",
    "SubscriptionStats",
]
