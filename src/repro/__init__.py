"""repro — reproduction of "Finding Most Popular Indoor Semantic Locations
Using Uncertain Mobility Data" (Li, Lu, Shou, Chen, Chen; IEEE TKDE 2019).

The package implements the paper's indoor flow model and Top-k Popular
Location Query (TkPLQ) over uncertain indoor positioning data, together with
every substrate the evaluation depends on: the indoor space model (cells,
indoor space location graph, indoor location matrix), spatial and temporal
indexes, data reduction, the three search algorithms, the comparison
baselines, and synthetic data generators for both the "real data" and the
Vita-like synthetic settings.

Quickstart::

    from repro import build_real_scenario

    scenario = build_real_scenario(duration_seconds=600)
    query_set = scenario.slocation_ids()
    result = scenario.system.top_k(
        scenario.iupt, query_set, k=3,
        start=scenario.start_time, end=scenario.end_time,
    )
    for entry in result.ranking:
        print(scenario.plan.slocations[entry.sloc_id].label(), entry.flow)
"""

from .baselines import (
    MonteCarlo,
    SemiConstrainedCounting,
    SimpleCounting,
    UncertaintyRegionFlow,
)
from .core import (
    BestFirstTkPLQ,
    DataReducer,
    DataReductionConfig,
    FlowComputer,
    NaiveTkPLQ,
    NestedLoopTkPLQ,
    PresenceComputation,
    RankedLocation,
    SearchStats,
    TkPLQResult,
    TkPLQuery,
)
from .data import IUPT, PositioningRecord, Sample, SampleSet, Trajectory, TrajectoryStore
from .engine import (
    ALGORITHMS,
    BatchReport,
    CacheStats,
    ContinuousQueryEngine,
    EngineConfig,
    ExecutionContext,
    PresenceStore,
    QueryEngine,
    QueryPipeline,
    Subscription,
)
from .eval import (
    MethodOutcome,
    kendall_coefficient,
    recall_at_k,
    run_methods,
)
from .geometry import Point, Rect
from .space import (
    FloorPlan,
    IndoorLocationMatrix,
    IndoorSpaceLocationGraph,
    PartitionKind,
    PLocationKind,
)
from .service import (
    QueryService,
    RemoteSubscription,
    ServiceClient,
    ServiceError,
)
from .storage import (
    DurabilityConfig,
    DurableRecordStore,
    EvictedRangeError,
    IngestReceipt,
    ShardedRecordStore,
)
from .synth import (
    Scenario,
    build_real_scenario,
    build_synthetic_scenario,
    build_university_floorplan,
)
from .system import IndoorFlowSystem

__version__ = "18.2.0"

__all__ = [
    "ALGORITHMS",
    "BatchReport",
    "BestFirstTkPLQ",
    "CacheStats",
    "ContinuousQueryEngine",
    "DataReducer",
    "DataReductionConfig",
    "DurabilityConfig",
    "DurableRecordStore",
    "EngineConfig",
    "EvictedRangeError",
    "ExecutionContext",
    "FloorPlan",
    "FlowComputer",
    "IUPT",
    "IndoorFlowSystem",
    "IndoorLocationMatrix",
    "IndoorSpaceLocationGraph",
    "IngestReceipt",
    "MethodOutcome",
    "MonteCarlo",
    "NaiveTkPLQ",
    "NestedLoopTkPLQ",
    "PartitionKind",
    "PLocationKind",
    "Point",
    "PositioningRecord",
    "PresenceComputation",
    "PresenceStore",
    "QueryEngine",
    "QueryPipeline",
    "QueryService",
    "RankedLocation",
    "Rect",
    "RemoteSubscription",
    "Sample",
    "SampleSet",
    "Scenario",
    "ServiceClient",
    "ServiceError",
    "ShardedRecordStore",
    "SearchStats",
    "SemiConstrainedCounting",
    "SimpleCounting",
    "Subscription",
    "TkPLQResult",
    "TkPLQuery",
    "Trajectory",
    "TrajectoryStore",
    "UncertaintyRegionFlow",
    "build_real_scenario",
    "build_synthetic_scenario",
    "build_university_floorplan",
    "kendall_coefficient",
    "recall_at_k",
    "run_methods",
    "__version__",
]
