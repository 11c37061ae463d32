"""The execution-engine layer: staged pipeline, caching, batching.

This package turns the core algorithms into an explicit execution engine:

* :mod:`~repro.engine.config` — :class:`EngineConfig`, the engine's one knob;
* :mod:`~repro.engine.context` — :class:`ExecutionContext`, per-query state;
* :mod:`~repro.engine.cache` — :class:`PresenceStore`, the cross-query LRU
  cache of per-window presence artefacts;
* :mod:`~repro.engine.stages` — the composable pipeline stages
  (fetch → reduce → paths → presence) and :class:`QueryPipeline`;
* :mod:`~repro.engine.batch` — :class:`BatchPlanner`, many queries per pass;
* :mod:`~repro.engine.continuous` — :class:`ContinuousQueryEngine`,
  incrementally maintained standing queries over streaming ingestion;
* :mod:`~repro.engine.runtime` — :class:`QueryEngine`, the facade every
  entry point goes through (:class:`~repro.system.IndoorFlowSystem` is its
  subclass built from a floor plan).

The fold that scores presences into flows is not here:
:func:`~repro.core.nested_loop.accumulate_flows_over_entries` and
:func:`~repro.core.nested_loop.score_query_over_entries` live beside
Algorithm 3, which scores with them too.
"""

from .batch import (
    BATCH_ALGORITHM,
    BatchPlanner,
    BatchReport,
    score_query_over_entries,
)
from .cache import CacheStats, PresenceStore, StoredPresence
from .config import EngineConfig
from .context import ExecutionContext
from .continuous import (
    CONTINUOUS_ALGORITHM,
    ContinuousQueryEngine,
    Subscription,
    SubscriptionStats,
)
from .runtime import ALGORITHMS, QueryEngine
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
    "BatchPlanner",
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
    "score_query_over_entries",
]
