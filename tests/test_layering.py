"""Layering and public surface as two tables, each checked by one test parametrized over its
rows: ``GONE`` maps a subject to the names a PR deleted from it, ``RULES`` states each structural
rule once.  Every row names its PR; ``src/repro`` is parsed once, on import."""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib.util
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import repro
import repro.experiments
from repro import IUPT, IndoorFlowSystem, QueryEngine, QueryService, ShardedRecordStore
from repro.codec import PackedRecordBatch, PresenceMatrix
from repro.core import nested_loop
from repro.data.records import PositioningRecord
from repro.engine import cache, continuous, stages
from repro.indexes import CountAggregateRTree, RTree
from repro.service import AdmissionController, ReadReplica, client, protocol, topology

SRC = pathlib.Path(repro.__file__).parent
SOURCES = {str(p.relative_to(SRC)): p.read_text("utf-8") for p in sorted(SRC.rglob("*.py"))}
TREES = {where: ast.parse(source) for where, source in SOURCES.items()}
SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _calls_in(node, site):
    """``(site, "receiver.callee", call)`` under ``node``; a site is ``file.py:Class.func``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield site, ast.unparse(child.func), child
        scoped = isinstance(child, SCOPES)
        yield from _calls_in(child, f"{site}.{child.name}".replace(":.", ":") if scoped else site)


CALLS = [call for where, tree in TREES.items() for call in _calls_in(tree, f"{where}:")]


def _calls(names, *under):
    """``(site, receiver, call)`` for each call of one of ``names`` in a file under ``under``."""
    return [(site, callee.rpartition(".")[0], call) for site, callee, call in CALLS
            if callee.rpartition(".")[2] in names.split() and site.startswith(under or ("",))]


def _sites(names, *under):
    return [site for site, _, _ in _calls(names, *under)]


@functools.cache
def _defined(where):
    """What a file defines: classes, functions, a name assigned at any depth, ``self.<name>``."""
    nodes = [n for n in ast.walk(TREES[where]) if isinstance(n, (ast.Assign, ast.AnnAssign))]
    targets = [t for n in nodes for t in getattr(n, "targets", [getattr(n, "target", 0)])]
    return {node.name for node in ast.walk(TREES[where]) if isinstance(node, SCOPES)} | {
        t.id for t in targets if isinstance(t, ast.Name)} | {
        t.attr for t in targets if isinstance(t, ast.Attribute) and ast.unparse(t.value) == "self"}


def _defined_outside(where, names):
    """``{name: files}`` for each of ``names`` not defined in ``where`` alone."""
    homes = {name: [file for file in TREES if name in _defined(file)] for name in names.split()}
    return {name: files for name, files in homes.items() if files != [where]}


def _assigns(attrs):
    """Files that assign one of ``attrs`` on any object: ``x.a = ...``, ``+=``, ``setattr(x, "a", ...)``."""
    nodes = [(w, n) for w, tree in TREES.items() for n in ast.walk(tree)
             if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign))]
    targets = [(w, t) for w, n in nodes for top in getattr(n, "targets", [getattr(n, "target", 0)])
               for t in ast.walk(top)]
    return sorted({w for w, t in targets if isinstance(t, ast.Attribute) and t.attr in attrs.split()} | {
        site.partition(":")[0] for site, _, call in _calls("setattr __setattr__")
        if any(getattr(arg, "value", 0) in attrs.split() for arg in call.args)})


def _fields(cls):
    return [field.name for field in dataclasses.fields(cls)]


def _params(function):
    return list(inspect.signature(function).parameters)


def _members(pr, names, *subjects):
    """GONE rows: a function ``has`` a parameter, a module or class an attribute or export."""
    return [(pr, f"{s.__qualname__}()", lambda n, s=s: n in _params(s), names)
            if inspect.isroutine(s) else
            (pr, s.__name__, lambda n, s=s: hasattr(s, n) or n in getattr(s, "__all__", ()), names)
            for s in subjects]


def _text(pr, names, *under):
    """What files under ``under`` spell, a name inside a longer word not counting."""
    files = [source for where, source in SOURCES.items() if where.startswith(under)]
    has = lambda name: any(re.search(rf"(?<![A-Za-z0-9]){re.escape(name)}(?![A-Za-z0-9])", source)
                           for source in files)
    return pr, f"text:{','.join(under) or 'src/repro'}", has, names


POOL_SIDE = ("service/server.py", "service/pool.py", "service/wal_tail.py")
INSERTS = "insert insert_point extend count_in_range total_count all_items items_under"
STANDING = continuous.ContinuousQueryEngine
DURABLE_NAMES = {name for name, value in vars(repro.storage.durable).items()
                 if getattr(value, "__module__", None) == "repro.storage.durable"}


def _imports_durable(where):
    """A file's imports that reach ``storage/durable.py``: the module, or a name it defines."""
    return [ast.unparse(node) for node in ast.walk(TREES[where])
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                "durable" in re.split(r"\W+", ast.unparse(node))
                or {alias.name for alias in node.names} & DURABLE_NAMES)]


GONE = [
    *_members(17, "index_kind store_kind binary", IUPT.__init__, IUPT.sharded, IUPT.durable,
              repro.build_real_scenario, repro.build_synthetic_scenario,
              repro.synth.WkNNPositioningSimulator.generate, repro.ServiceClient.ingest_batch),
    *_members(18, "FrameAssembler ClientCore", repro.service, client, protocol),
    *_members(18, "ack_every", ReadReplica.__init__),
    _text(19, "getattr hasattr", *POOL_SIDE),
    *_members(21, "make_store_key", repro.engine, cache),
    *_members(21, "rekey", repro.PresenceStore),
    _text(21, "make_store_key rekey build_paths_for", "core/", "engine/"),
    _text(23, "Queue outbox writer_task run_writer drain", "service/stream.py"),
    _text(23, "ThreadPoolExecutor wrap_future", ""),
    _text(24, "vectorized numpy environ getenv", ""),
    *_members(24, "backend kernel matrix", repro.codec.encode_batch, repro.codec.decode_batch,
              PackedRecordBatch.__init__, PackedRecordBatch.from_records, PackedRecordBatch.decode,
              PresenceMatrix.__init__),
    *_members(24, "BACKENDS active_backend numpy_available resolve_backend", repro.codec),
    *_members(24, "score_flows", PresenceMatrix),
    (25, "protocol.OPS", protocol.OPS.__contains__, "wal_cursor"),
    *_members(25, "read_only", QueryService.__init__),
    (25, "def:storage/durable.py", _defined("storage/durable.py").__contains__,
     "WalCommit WalEviction CommitListener add_commit_listener remove_commit_listener "
     "_notify_commit register_follower ack_follower unregister_follower follower_lags "
     "subscribe unsubscribe"),
    (25, "IngestEvent.__slots__", repro.storage.IngestEvent.__slots__.__contains__, "wall_time"),
    (25, "EvictionEvent-fields", _fields(repro.storage.EvictionEvent).__contains__, "wall_time"),
    (26, "def:storage/durable.py", _defined("storage/durable.py").__contains__,
     "_inner inner append range_query version_token eviction_watermark shard_seconds "
     "shard_count shard_versions __len__ records_in_time_order time_span"),
    _text(26, "_TokenBucket rate_per_second burst REASON_RATE forget_client", ""),
    *_members(27, "on_update on_evicted", STANDING.register, STANDING.register_top_k,
              STANDING.register_flows),
    *_members(27, "EvictedCallback", continuous),
    *_members(27, "SUBSCRIPTION_KINDS", protocol, repro.service),
    *_members(27, "_register_subscription _resume_subscription _subscribed", QueryService),
    *_members(28, "rtree_fanout use_merged_matrix engine_config objects_total",
              IndoorFlowSystem.__init__, QueryEngine.__init__,
              nested_loop.accumulate_flows_over_entries),
    *_members(28, "reduce_object", repro.FlowComputer),
    (28, "PresenceMatrix.__slots__", PresenceMatrix.__slots__.__contains__, "_has_parent"),
    _text(28, "score_presence_into_flows", ""),
    *_members(29, INSERTS, RTree, CountAggregateRTree),
    *[(29, tree, lambda n, t=tree: hasattr(getattr(repro.indexes, t, None), n), names)
      for tree, names in [("BPlusTree", INSERTS), ("OneDimensionalRTree", INSERTS + " bulk_load")]
      ],  # both trees went in PR 38; were one to come back, it comes back without these
    _text(29, "run_in_executor _quadratic_split _pick_seeds _enlargement _loose_union _dirty", ""),
    *_members(30, "RecordStore", repro, repro.storage),
    (30, "importable-modules", importlib.util.find_spec, "repro.data.iupt"),
    _text(30, "iupt.store data_key_for RecordStore", ""),
    (34, "def:space/matrix.py", _defined("space/matrix.py").__contains__, "_links"),
    (35, "def:core/best_first.py", _defined("core/best_first.py").__contains__,
     "_QueryEntry _HeapItem _join_and_push _expand_join_list _entries_of_node _psl_mbrs"),
    (35, "def:indexes/aggregate_rtree.py", _defined("indexes/aggregate_rtree.py").__contains__,
     "AggregateNode _convert _empty_node"),
    (35, "def:indexes/rtree.py", _defined("indexes/rtree.py").__contains__,
     "_str_pack_leaves _build_upper_levels _union_across_floors"),
    *_members(35, "AggregateNode", repro.indexes),
    _text(35, "Rect RTree loose_intersects", "core/best_first.py"),
    *_members(36, "BatchPlanner", repro, repro.engine),
    (36, "importable-modules", importlib.util.find_spec, "repro.engine.batch"),
    *_members(36, "query_slocations", repro.PresenceStore.get, repro.PresenceStore.put,
              repro.PresenceStore.pop),
    (36, "def:engine/continuous.py", _defined("engine/continuous.py").__contains__, "query_key"),
    (36, "def:engine/runtime.py", _defined("engine/runtime.py").__contains__, "planner"),
    _text(36, "union_key", "engine/"),
    *[row for names, subject in (
        ("contains_rect", repro.Rect), ("manhattan_to", repro.Point),
        ("readers_of", repro.SemiConstrainedCounting),
        ("partitions_visited", repro.Trajectory),
        ("reachable_partitions", repro.space.DoorGraphRouter),
        ("c2s representative_plocation", repro.space.IndoorSpaceLocationGraph),
        ("plocations_near", repro.FloorPlan), ("object_presence", repro.FlowComputer),
    ) for row in _members(36, names, subject)],
    *_members(37, "samples_before samples_after candidate_paths_before candidate_paths_after",
              repro.core.ReductionStats),
    *_members(38, "BPlusTree OneDimensionalRTree", repro.indexes),
    (38, "importable-modules", importlib.util.find_spec,
     "repro.indexes.bplustree repro.indexes.interval_index"),
    *_members(38, "single_query_outcome batched_outcome", repro.experiments),
    *_members(38, "run_batched", repro.eval),
    _text(38, "single_query_outcome batched_outcome run_batched", ""),
    (39, "importable-modules", importlib.util.find_spec,
     "repro.experiments.real_experiments repro.experiments.synth_experiments "
     "repro.experiments.rfid_experiments repro.experiments.registry repro.geometry.polygon"),
    *_members(39, "REAL_DEFAULTS SYNTH_DEFAULTS clear_scenario_cache experiment_names "
              "get_real_scenario get_synth_scenario real_scale synth_scale "
              "RealScale SynthScale REAL_SCALES SYNTH_SCALES",
              repro.experiments, repro.experiments.config),
    *_members(39, "Polygon decompose_rectilinear", repro.geometry),
    *_members(39, "mc_seed", repro.eval.run_methods),  # PR 42: run_method went
    (39, "MethodOutcome-fields", _fields(repro.eval.MethodOutcome).__contains__, "flows"),
    _text(39, "_clamp_k _default_setting", "experiments/"),
    *_members(40, "BuildingConfig GeneratedBuilding GridBuildingGenerator build_grid_building "
              "RFIDConfig university_floor_statistics", repro.synth),
    _text(40, "BuildingConfig GeneratedBuilding GridBuildingGenerator build_grid_building "
          "RFIDConfig university_floor_statistics stream_into door_guard_fraction", ""),
    _text(40, "rng seed config presence_grid_step", "synth/building.py"),
    *_members(40, "reduction shard_seconds max_sample_set_size with_rfid",
              repro.build_real_scenario),
    *_members(40, "reduction shard_seconds max_sample_set_size presence_grid_step max_speed",
              repro.build_synthetic_scenario),
    *_members(40, "presence_grid_step", repro.build_university_floorplan),
    *_members(40, "movable_partitions", repro.synth.RandomWaypointSimulator.__init__),
    *_members(40, "shard_seconds batch_seconds", repro.synth.WkNNPositioningSimulator.generate),
    *_members(40, "config", repro.synth.RFIDSimulator.__init__),
    *_members(40, "table", repro.synth.RFIDSimulator.generate),
    (40, "MovementConfig-fields", _fields(repro.synth.MovementConfig).__contains__,
     "min_speed tick_seconds min_lifespan_fraction"),
    (40, "PositioningConfig-fields", _fields(repro.synth.PositioningConfig).__contains__,
     "max_sample_set_size min_period_seconds weight_noise distance_epsilon "
     "candidate_radius_factor"),
    _text(41, "read_frame readline readexactly start_server open_connection StreamReader",
          "service/"),
    *_members(42, "run_method", repro),
    *_members(42, "run_method SEARCH_METHODS BASELINE_METHODS pruning_ratio rank_by_score",
              repro.eval),
    (42, "def:eval/harness.py", _defined("eval/harness.py").__contains__,
     "run_method _execute _ALGORITHM_NAMES _run_search _search_engine MC_SEED SEARCH_METHODS "
     "BASELINE_METHODS as_row"),
    (42, "def:eval/metrics.py", _defined("eval/metrics.py").__contains__,
     "pruning_ratio rank_by_score"),
    (42, "MethodOutcome-fields", _fields(repro.eval.MethodOutcome).__contains__,
     "elapsed_seconds kendall recall"),
    (42, "QuerySetting-fields", _fields(repro.experiments.QuerySetting).__contains__, "seed"),
    *_members(42, "flow_computer seed", repro.MonteCarlo.__init__),
    *_members(42, "rounds _simulate_round _sample_certain_path _draw", repro.MonteCarlo),
    *_members(42, "minimum_axis", repro.UncertaintyRegionFlow.__init__),
    *_members(42, "threshold", repro.SimpleCounting),
    *_members(44, "summarise_object_spans", repro.storage),
    (44, "def:storage/base.py", _defined("storage/base.py").__contains__, "summarise_object_spans"),
    (44, "def:synth/movement.py", _defined("synth/movement.py").__contains__, "_last_location"),
    *_members(47, "manifest_path", STANDING.__init__, QueryEngine.continuous),
    *_members(47, "subscription_manifest_path", repro.DurableRecordStore),
    (47, "def:engine/continuous.py", _defined("engine/continuous.py").__contains__,
     "_persist_manifest _manifest_fsync"),
    (47, "def:experiments/ablations.py", _defined("experiments/ablations.py").__contains__,
     "ablation_algorithms"),
    *_members(48, "load_shard", ShardedRecordStore),  # recovery absorbs what an ingest did
    *_members(48, "records", repro.storage.sharded._Shard.__init__),
    *_members(49, "flow flows_for_all", stages.QueryPipeline),  # every read: QueryPipeline.flows
    *_members(49, "score_query_over_entries", nested_loop, repro.engine),
    *_members(49, "pinned_data_key", repro.engine.ExecutionContext),
    *_members(49, "pinned_key", STANDING._compute),  # _maintain's lock hold pins the token
    *_members(50, "_SHARD_SECTION encode_shard_sections decode_shard_sections", protocol),
    *_members(50, "payload records _payload", repro.storage.IngestEvent),  # it carries frames
    *_members(50, "committed_batches_after", repro.DurableRecordStore),
    (50, "def:storage/wal.py", _defined("storage/wal.py").__contains__, "torn_snapshot_frame"),
    *_members(51, "loop", repro.service.pool.WorkerPool),  # the outbox is the way back
]  # fmt: skip

RULES = [  # (PR, rule, actual, expected)
    (15, "EngineConfig-fields", lambda: _fields(repro.EngineConfig), ["presence_store_capacity"]),
    (19, "DurabilityConfig-fields", lambda: _fields(repro.DurabilityConfig),
     ["fsync", "snapshot_every_batches", "fail_after_writes"]),
    (21, "only-FetchStage.run-reads-the-table", lambda: _sites("sequences_in", "core/", "engine/"),
     ["engine/stages.py:FetchStage.run"]),
    (21, "only-QueryPipeline.window-fetches", lambda: [
        site for site, on, _ in _calls("run", "core/", "engine/") if on.endswith("fetch")],
     ["engine/stages.py:QueryPipeline.window"]),
    (21, "one-store-probe-per-window", lambda: [
        f"{site} {ast.unparse(call.args[0])}"
        for site, on, call in _calls("get", "core/", "engine/") if on.endswith("store")],
     ["engine/stages.py:QueryPipeline._window ctx.window"]),
    (21, "PresenceStore.get-signature", lambda: _params(repro.PresenceStore.get),
     ["self", "window", "data_key"]),  # PR 36: the query set left the key
    (23, "two-stream-writers", lambda: _sites("write", "service/"),
     ["service/client.py:ServiceClient.send", "service/stream.py:Connection.send_frame"]),
    (23, "one-task-spawner", lambda: _sites("ensure_future create_task", "service/stream.py",
                                            *POOL_SIDE), ["service/stream.py:FrameServer._spawn"]),
    (23, "futures-only-to-stop-and-run_blocking", lambda: _sites("create_future", *POOL_SIDE),
     ["service/pool.py:WorkerPool.run_blocking", "service/server.py:QueryService.stop"]),
    (23, "one-error-mapping", lambda: _sites("evicted_error_frame"),
     ["service/protocol.py:push_evicted_frame", "service/server.py:_error_response"]),
    (23, "one-internal-error", lambda: [SOURCES["service/server.py"].count(w) for w in (
        '"internal"', "NotImplementedError")], [1, 1]),
    (25, "only-_handshake-sends-wal_tail", lambda: _sites("wal_tail", "service/replica.py"),
     ["service/replica.py:ReadReplica._handshake"]),
    (25, "_handshake-callers", lambda: _sites("_handshake", "service/replica.py"),
     ["service/replica.py:ReadReplica.start", "service/replica.py:ReadReplica._reattach"]),
    (25, "no-loop-on-the-way-to-wal_tail", lambda: [node.name for node in ast.walk(TREES[
        "service/replica.py"]) if getattr(node, "name", 0) in ("_handshake", "_reattach", "start")
        and any(isinstance(n, (ast.For, ast.AsyncFor, ast.While)) for n in ast.walk(node))], []),
    (25, "the-tail-subscribes-to-the-store", lambda: [
        f"{site} {on}" for site, on, _ in _calls("subscribe", "service/")],
     ["service/wal_tail.py:WalTail._do_wal_tail store"]),
    (26, "durable-extends-store", lambda: repro.DurableRecordStore.__mro__[1], ShardedRecordStore),
    (26, "durable-defines-three-log-hooks", lambda: sorted(_defined("storage/durable.py") & {
        "_log_batch", "_log_eviction", "_evicted"}), ["_evicted", "_log_batch", "_log_eviction"]),
    (26, "one-admission-bound", lambda: [
        _params(AdmissionController.__init__), _params(AdmissionController.admit)],
     [["self", "max_inflight"], ["self"]]),
    (26, "threads-start-in-pool", lambda: _sites("Thread"), ["service/pool.py:WorkerPool.start"]),
    (27, "register_top_k-signature", lambda: _params(STANDING.register_top_k),
     ["self", "query_slocations", "k", "start", "end"]),  # bench/ passes them positionally
    (27, "one-change-hook", lambda: [name for name in vars(continuous.Subscription(
        1, "flows", (0.0, 1.0), (1,))) if name.startswith("on_")], ["on_change"]),
    (27, "wire-spelled-kinds", lambda: (continuous.TOP_K, continuous.FLOWS), ("top_k", "flows")),
    (28, "system-subclasses-engine", lambda: IndoorFlowSystem.__mro__[1], QueryEngine),
    (28, "system-adds-only-summary", lambda: sorted(name for name in vars(IndoorFlowSystem)
        if name == "__init__" or not name.startswith("__")), ["__init__", "summary"]),
    (28, "IndoorFlowSystem.__init__-signature", lambda: _params(IndoorFlowSystem.__init__),
     ["self", "plan", "reduction", "config"]),
    (28, "Algorithm-3-folds-in-nested_loop.py", lambda: _defined_outside(
        "core/nested_loop.py", "accumulate_flows_over_entries"), {}),
    (28, "engine-re-exports-the-fold", lambda: stages.accumulate_flows_over_entries,
     nested_loop.accumulate_flows_over_entries),
    (29, "every-tree-built-by-its-bulk-constructor", lambda: sorted({  # an index class: *Tree
        callee for _, callee, _ in CALLS if re.fullmatch(r"[A-Za-z]*Tree(\.\w+)?", callee)}),
     ["CountAggregateRTree.build", "RTree.bulk_load"]),
    (30, "IUPT-is-the-store", lambda: IUPT, ShardedRecordStore),
    (30, "the-store-subclasses-nothing", lambda: ShardedRecordStore.__mro__[1], object),
    (30, "API-sizes", lambda: [len(pkg.__all__) for pkg in (
        repro, repro.codec, repro.engine, repro.synth)],
     [57, 7, 18, 10]),  # repro.engine lost BatchPlanner; PR 42: repro lost run_method;
    # PR 49: repro.engine lost score_query_over_entries
    (33, "PositioningRecord.__slots__", lambda: getattr(PositioningRecord, "__slots__", None),
     ("object_id", "sample_set", "timestamp")),
    (33, "only-to_records-builds-trusted-records", lambda: [
        site for site, on, _ in _calls("_from_columns") if on != "SampleSet"],
     ["codec/packed.py:PackedRecordBatch.to_records"]),
    (33, "sample-set-columns-assigned-in-records.py-alone", lambda: _assigns("ploc_ids probs"),
     ["data/records.py"]),  # so a lone set that records share is never mutated
    (34, "the-DP-reads-link-rows", lambda: _sites("link", "core/presence.py"), []),
    (34, "STR-keys-build-no-Point", lambda: [node.lineno for node in ast.walk(
        TREES["indexes/rtree.py"]) if isinstance(node, ast.Attribute) and node.attr == "center"], []),
    (42, "one-method-runner", lambda: _sites("run_methods"), ["experiments/runner.py:evaluate"]),
    (42, "the-evaluation's-settable-values", lambda: [
        _fields(repro.experiments.QuerySetting), *map(_params, (
            repro.eval.run_methods, repro.MonteCarlo.__init__, repro.SimpleCounting.__init__,
            repro.UncertaintyRegionFlow.__init__))],
     [["k", "q_fraction", "delta_seconds", "repeats", "mc_rounds", "sc_rho"],
      ["scenario", "methods", "query", "sc_rho", "mc_rounds"],  # QuerySetting's, passed on
      ["self", "graph", "matrix", "rounds"], ["self", "plan", "threshold"],
      ["self", "plan", "rfid", "max_speed"]]),
    (42, "one-default-each", lambda: [
        parameter.name for function in (repro.eval.run_methods, repro.MonteCarlo.__init__)
        for parameter in inspect.signature(function).parameters.values()
        if parameter.default is not parameter.empty], []),
    (42, "evaluation-API-sizes", lambda: [len(pkg.__all__) for pkg in (
        repro.eval, repro.experiments, repro.baselines)], [11, 8, 4]),
    (44, "storage-API-size", lambda: len(repro.storage.__all__), 13),
    (44, "the-generator-searches-a-tree-only-for-the-nearest-fallback", lambda: _sites(
        "search search_entries search_point nearest", "synth/"),
     ["synth/positioning.py:WkNNPositioningSimulator._candidate_plocations"]),
    (44, "reports-built-as-two-columns", lambda: _sites("SampleSet", "synth/"), []),
    (44, "spans-of-the-sorted-batch-alone", lambda: _sites("_object_spans"),
     ["storage/sharded.py:ShardedRecordStore.ingest_batch"]),
    (47, "the-engine-writes-no-file", lambda: [  # the table keeps its standing queries
        f"{where}: {line}" for where in TREES if where.startswith("engine/")
        for line in [*_imports_durable(where), *re.findall(r"\batomic_write\b", SOURCES[where])]],
     []),
    (48, "one-absorb-path", lambda: _sites("absorb", "storage/"),  # ingest and recovery both
     ["storage/sharded.py:ShardedRecordStore._absorb"]),
    (48, "the-shard-alone-decides-in-order", lambda: _sites("sort timestamps", "storage/durable.py"),
     []),  # the durable store sorts no record and reads no timestamp column
    (49, "the-one-fold's-one-caller", lambda: _sites("accumulate_flows_over_entries"),
     ["engine/stages.py:QueryPipeline.flows"]),
    (49, "parent_cell-call-sites", lambda: _sites("parent_cell"),  # a read's map is built once
     ["baselines/monte_carlo.py:MonteCarlo.round_flows",
      "core/best_first.py:BestFirstTkPLQ._build_rq", "engine/stages.py:QueryPipeline.flows"]),
    (49, "every-ranked-answer-by-TkPLQResult.ranked", lambda: _sites(
        "rank_top_k", "core/", "engine/", "baselines/"), ["core/query.py:TkPLQResult.ranked"]),
    (50, "a-replicated-batch-is-encoded-once-by-_log_batch", lambda: _sites(
        "encode_batch records_to_payload from_records", "service/wal_tail.py", "storage/base.py"),
     []),  # the tail ships the frames the log holds
    (50, "the-replica-reads-payloads-through-decode_wal_frames", lambda: [
        f"{site} {callee}" for site, callee, _ in CALLS if site.startswith("service/replica.py")
        and callee.rpartition(".")[2] in ("decode_wal_frames", "decode", "records_from_payload")],
     ["service/replica.py:_log_frames decode_wal_frames"]),
    (51, "one-way-back-to-the-loop", lambda: _sites("call_soon_threadsafe"),
     ["service/pool.py:WorkerPool._wake"]),  # an item's completion and a post from outside
]  # fmt: skip


@pytest.mark.parametrize("pr, subject, has, names", GONE, ids=[f"PR{r[0]}-{r[1]}" for r in GONE])
def test_gone(pr, subject, has, names):
    assert [name for name in names.split() if has(name)] == [], f"PR {pr} deleted them"


@pytest.mark.parametrize("pr, rule, actual, expected", RULES, ids=[row[1] for row in RULES])
def test_rule(pr, rule, actual, expected):
    assert actual() == expected, f"PR {pr}: {rule}"


# Rules checked item by item, so that a failure names the file, package, call, name or flag.
PACKAGES = ["repro", *(i.name for i in pkgutil.walk_packages(repro.__path__, "repro.") if i.ispkg)]
STREAM_SITES = {  # one reader (a decoder each connection builds), one listener, one dial
    **dict.fromkeys(["decode_frame", "binary_length"], "stream.py:FrameDecoder._line"),
    "FrameDecoder": "stream.py:Connection.__init__",
    "create_server": "stream.py:FrameServer._listen", "create_connection": "client.py:_dial"}
FRAMES = """_FRAME_HEADER SEGMENT_MAGIC _SEGMENT_PREFIX SNAPSHOT_MAGIC _SNAPSHOT_PREFIX _frame_bytes
    encode_wal_frame encode_segment_frame encode_snapshot_frame _parse_frame_body decode_wal_frames
    _field frame_records _legacy_json_records torn_tail""".split()
FLAGS = ["primary --compact-above-bytes", "primary --shard-seconds", "primary --snapshot-every",
         "replica --reconnect-retries", "router --reconnect-retries", "router --freshness-timeout",
         *(f"{role} --presence-capacity" for role in ("primary", "replica", "router"))]


@pytest.mark.parametrize("name", [where[5:] for where in TREES if where.startswith("core/")])
def test_core_does_not_import_engine_at_run_time(name):  # PR 15
    nodes = list(ast.walk(TREES[f"core/{name}"]))
    typing_only = {node for guard in nodes if isinstance(guard, ast.If) and "TYPE_CHECKING" in
                   ast.unparse(guard.test) for line in guard.body for node in ast.walk(line)}
    imports = [ast.unparse(node) for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
               and node not in typing_only]
    assert [line for line in imports if "engine" in re.split(r"\W+", line)] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):  # PR 31: every package, "<__all__>" if it has none
    module = importlib.import_module(package)
    assert [name for name in getattr(module, "__all__", ["<__all__>"])
            if not hasattr(module, name) or module.__all__.count(name) > 1] == []


@pytest.mark.parametrize("name", STREAM_SITES)
def test_the_service_tier_frames_a_stream_in_exactly_one_place(name):  # PR 18
    assert _sites(name, "service/") == [f"service/{STREAM_SITES[name]}"]


@pytest.mark.parametrize("name", FRAMES)
def test_the_log_frames_are_defined_in_the_wal_module_alone(name):  # PR 26
    assert _defined_outside("storage/wal.py", name) == {}


@pytest.mark.parametrize("flag", FLAGS, ids=lambda flag: flag.replace(" ", ""))
def test_topology_flags_nobody_passed_are_constants(flag):  # PR 19: the first; PR 25: the rest
    role, flag = flag.split()
    argv = [role, "--data-dir", "d"] if role == "primary" else [role, "--primary", "h:1"]
    assert flag in topology.build_parser().parse_known_args([*argv, flag, "1"])[1]


def test_the_table_is_the_store(tmp_path):
    """The four names ``bench/`` spells answer: ``sharded``, ``durable``, ``store``, ``records``."""
    table = IUPT.sharded(shard_seconds=5.0)
    assert type(table) is ShardedRecordStore and table.store is table
    assert table.shard_seconds == 5.0 and table.records == ()
    durable = IUPT.durable(tmp_path, shard_seconds=5.0)
    assert type(durable) is repro.DurableRecordStore and durable.store is durable
    durable.close()


def test_the_system_is_the_engine():
    """A topology role builds one ``IndoorFlowSystem`` of the default capacity;
    ``--seed`` is accepted and changes nothing."""
    plans = []
    for argv in (["primary", "--data-dir", "d"], ["replica", "--primary", "h:1", "--seed", "29"]):
        engine = topology._build_engine(topology.build_parser().parse_args(argv))
        assert type(engine) is IndoorFlowSystem
        assert engine.store.capacity == repro.EngineConfig().presence_store_capacity
        plans.append(engine.summary())
    assert plans[0] == plans[1]


def test_importing_the_package_and_a_topology_role_does_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), *sys.path]))
    code = "import sys, repro, repro.service.topology; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
