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
    BatchPlanner,
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
    run_method,
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

# 3.0.0: the storage layer. IUPT is now a facade over a record-store backend
# (flat in-memory or time-partitioned sharded), with streaming ingest_batch,
# per-shard versioning / shard-scoped cache keys, and retention eviction.
# IUPT.extend now bumps the data version once per batch (was: per record).
# 3.1.0: continuous queries. Stores publish ingest/eviction events
# (IUPT.subscribe); ContinuousQueryEngine maintains standing TkPLQ / flow
# results incrementally after every batch, re-keying untouched objects'
# cached presences instead of recomputing them.
# 3.2.0: the query service layer. repro.service puts the engine behind an
# asyncio NDJSON wire protocol (QueryService / ServiceClient) with admission
# control, per-op latency metrics, and live push of standing-subscription
# refreshes (Subscription.on_update); stores gained a shared re-entrant
# mutation/read lock so concurrent service workers are safe.
# 3.3.0: durable storage. DurableRecordStore / IUPT.durable put a write-ahead
# log (per-shard segments + batch commit records) and per-shard snapshots
# under the sharded store; recovery reproduces bit-identical
# range_query/version_token state, the service gained a checkpoint op,
# subscription-manifest restore and flush-on-drain, and both stores honour
# one documented eviction/ingest boundary contract (flat stores evict now).
# 3.4.0: binary record codec. repro.codec packs record batches into one
# little-endian columnar layout shared by WAL frames, snapshots, and a lazily
# materialised shard representation; DurabilityConfig.codec defaults to
# "binary" (JSON directories and mixed segments still recover). (Its second
# column container and the matrix scoring path beside the fold went in 9.0.0.)
# 3.5.0: WAL-shipping read replicas + partition-aware router. The durable
# store exposes a replication cursor API (committed_batches_after /
# commit listeners / follower lag tracking, size-triggered WAL compaction
# with follower hold-back); the wire protocol gained binary RPK1 frames and
# wal_cursor/wal_tail/wal_ack/replica_status ops; ReadReplica catches up
# (snapshot-or-replay) then tails commits through the normal ingest path for
# bit-identical tables; PartitionRouter fans writes to the primary and
# routes reads across replicas by time-partition affinity under a
# read-your-writes staleness bound; ServiceClient reconnects with bounded
# backoff; `python -m repro.service.topology` runs each role as a process.
# 4.0.0: one execution path through the engine. EngineConfig keeps one field
# (presence_store_capacity); the executors, the per-query cache, the
# "recompute" refresh mode and whole-table cache keys are gone; FlowComputer holds the per-object
# primitives only (flow / flows live on QueryEngine) and the TkPLQ algorithms
# take the QueryPipeline they drive; IndoorFlowSystem moved to repro.system;
# an S-location id the floor plan does not know raises ValueError everywhere.
# 5.0.0: one record store and one record encoding. The flat in-memory store,
# the store-kind / index-kind parameters and DurabilityConfig.codec are gone:
# IUPT() is a table over ShardedRecordStore (IUPT.records is time order, its
# data_key a shard-version token, eviction drops whole shards), WAL segments
# and snapshots are always RSG1 / RSN1 (JSON-era directories still open), and
# ingest_batch on the wire takes one RPK1 payload; the paper's two time
# indexes live in repro.indexes, compared by experiments.ablation_indexes.
# 6.0.0: one frame reader, one connection and one accept loop for the service
# tier. repro.service.stream (read_frame / Connection / FrameServer) is the
# only code that frames a stream; QueryService and PartitionRouter subclass the
# same accept loop and ServiceClient reads with the same reader, so a refused
# line is answered identically by every role. The sans-I/O frame assembler,
# the client core and the replica's ack-interval parameter are gone; a header
# line spelling the reserved "_bin" key is a bad_frame.
# 7.0.0: the durable store says each durability rule once. DurabilityConfig
# keeps three fields (fsync, snapshot_every_batches, fail_after_writes): the
# size-triggered compaction threshold, its follower allowance and the
# recover-time checkpoint switch are gone with the topology flag for the first
# and the commit wall-clock ledger (lag in seconds); opening a directory that
# holds segments always ends in a checkpoint. One log reader serves recovery
# and replication replay; a corrupt snapshot file or a CRC-valid frame of the
# wrong shape raises a ValueError naming the file instead of opening a smaller
# table. Best-first joins multi-floor R-tree nodes (floor -1) with
# indexes.rtree.loose_intersects and equals naive on every building.
# 8.0.0: the presence store's unit is the window. PresenceStore maps (window,
# query set, table version) to one WindowPresences — the per-object artefacts
# in fetch order plus the best-first trees built from them — and counts
# capacity and every statistic in artefacts; per-object get / put / rekey and
# make_store_key are gone. QueryPipeline.window is the one place a query
# fetches and probes the store, and it refuses a window below the retention
# watermark before serving an entry; cache_stats() gained "windows".
# 8.1.0: a pooled request crosses each boundary once. FrameServer hands a
# decoded frame to a synchronous _serve_request; QueryService admits it there,
# runs the handler on one of query_workers threads draining one queue and
# answers from one loop callback that writes the frame to the transport
# (Connection has no outbox and no writer task). Wire bytes are unchanged. A
# topology role builds the floor plan only: --objects / --duration are ignored.
# 9.0.0: one column container for the codec and one accumulation for the
# engine. RPK1 columns are array.array; repro.codec lost BACKENDS,
# active_backend, numpy_available and resolve_backend, every backend=
# parameter, the REPRO_CODEC_BACKEND variable and all but codec_version of
# codec_info() / the stats op's codec block / describe()["codec_backend"].
# score_query_over_entries lost kernel= / matrix=, PresenceMatrix lost
# score_flows; every caller folds presences in fetch order. Bytes, flows and
# rankings are unchanged. EngineConfig.resolved_scoring_kernel ("scalar"), the
# kernel= keyword of accumulate_flows_over_entries and PresenceMatrix stay only
# because bench/ spells them.
# 10.0.0: a follower attaches in one request. wal_tail is the whole replication
# handshake (the wal_cursor op and ServiceClient.wal_cursor are gone; protocol
# 3); the durable store fires IngestEvent (now with seq, the batch and a cached
# payload()) / EvictionEvent to its own listeners, and WalCommit, WalEviction,
# the commit-listener and follower methods are gone — a follower's lag lives on
# its tailing connection. QueryService lost read_only= (role="replica" implies
# it); four topology flags became module constants.
# 11.0.0: the durable store is the sharded store plus a log.
# DurableRecordStore subclasses ShardedRecordStore and writes the log from
# three hooks of its mutations (_log_batch, _log_eviction, _evicted): inner
# and the forwarding members are gone, so a durable ingest sorts and checks
# the watermark once, and one listener table remains. The frames moved to
# repro.storage.wal, the service's worker pool to repro.service.pool and the
# WAL tail to repro.service.wal_tail. AdmissionConfig and the per-client
# token bucket (its rate, depth, shed reason and counter) are gone:
# QueryService(max_inflight=64) is the one admission bound and
# AdmissionController.admit takes no client id. The subscription manifest is
# written by the store's atomic-write rule under its fsync policy, and a
# damaged one refuses QueryService.start() with a ValueError naming it. Bytes
# on disk and on the wire are unchanged.
# 12.0.0: a standing query has one kind vocabulary, one change hook and one
# refresh rule. Subscription.kind is "top_k" / "flows", the wire's spelling
# (a manifest entry with the older hyphenated top-k spelling still restores;
# an unknown kind refuses the start by name); Subscription.on_change(
# subscription) replaces the update / eviction hook pair, whose keywords
# register, register_top_k and register_flows no longer take; resync takes an
# ingest event's steps with no receipt, and repro.service no longer exports a
# second list of kind names. Wire and disk bytes are unchanged.
# 13.0.0: the system is the engine, and Algorithm 3 scores in one place.
# IndoorFlowSystem(plan, reduction, config) subclasses QueryEngine: its
# forwarding methods and .engine are gone, engine_config= is config= and
# use_merged_matrix= is gone (the matrix is always merged). The one scoring
# fold, accumulate_flows_over_entries, and score_query_over_entries (which
# takes stats= instead of objects_total) live in repro.core.nested_loop;
# repro.engine.stages / repro.engine.batch re-export them and
# score_presence_into_flows is gone. QueryEngine lost rtree_fanout=,
# FlowComputer lost reduce_object. A TkPLQuery listing an S-location twice
# raises ValueError (bad_request on the wire). Answers are unchanged.
# 14.0.0: every index is built once from its input. RTree, OneDimensionalRTree,
# BPlusTree and CountAggregateRTree have no insert / extend; their constructors
# are RTree.bulk_load, OneDimensionalRTree.from_sorted, BPlusTree.bulk_load and
# CountAggregateRTree.build(items, max_entries) (count_in_range, the instance
# bulk_load, total_count, all_items and items_under are gone). The two time
# indexes raise ValueError naming the first out-of-order pair instead of
# building a wrong tree. A replica applies its pushes and snapshot re-catch-ups
# on its service's worker pool (QueryService.pool). Eleven helpers no code
# called are gone. Answers are unchanged.
# 15.0.0: the table is the store. IUPT is a second name for ShardedRecordStore
# (repro.data.iupt and the abstract record-store base class, with its export,
# are gone), and every layer takes the store itself. Gone with the facade: its
# forwarders, extend (ingest_batch), the whole-table and window data keys
# (version_token), IUPT(store=...), object_ids, summary, records_of_object and
# filtered_to_objects; sequences_in, with_max_sample_set_size and report moved
# onto the store. A snapshot file at version 0 or holding no record refuses the
# open by name, and reset_to_packed_shards refuses an empty shard and leaves
# the table as it was. WalTail lost store_kind; Rect.enlargement, Rect.as_tuple
# and Point.as_tuple are gone. Answers, tokens and bytes on disk are unchanged.
__version__ = "15.0.0"

__all__ = [
    "ALGORITHMS",
    "BatchPlanner",
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
    "run_method",
    "run_methods",
    "__version__",
]
