"""Layering and public surface: ``core`` never imports ``engine`` at run time,
every exported name resolves, the engine has exactly one knob, and a record has
one store and one encoding — nothing takes a store, index or wire-form choice."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pathlib

import pytest

import repro
import repro.storage
from repro import (
    IUPT,
    DurabilityConfig,
    DurableRecordStore,
    EngineConfig,
    ServiceClient,
    ShardedRecordStore,
    build_real_scenario,
    build_synthetic_scenario,
)
from repro.synth.positioning import WkNNPositioningSimulator

CORE_DIR = pathlib.Path(repro.__file__).parent / "core"
SERVICE_DIR = pathlib.Path(repro.__file__).parent / "service"


def _runtime_imports(tree: ast.Module):
    """Every import node of a module outside ``if TYPE_CHECKING:`` blocks."""

    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and "TYPE_CHECKING" in ast.dump(child.test):
                for orelse in child.orelse:
                    yield from walk(orelse)
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child
            yield from walk(child)

    return walk(tree)


def _imported_modules(node, package_parts):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = package_parts[: len(package_parts) - node.level + 1] if node.level else []
    module = ".".join(base + ([node.module] if node.module else []))
    return [module] + [f"{module}.{alias.name}" for alias in node.names]


@pytest.mark.parametrize(
    "path", sorted(CORE_DIR.glob("*.py")), ids=lambda path: path.name
)
def test_core_does_not_import_engine_at_run_time(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in _runtime_imports(tree):
        for module in _imported_modules(node, ["repro", "core"]):
            assert not (module + ".").startswith("repro.engine."), (
                f"{path.name}:{node.lineno} imports {module} at run time"
            )


@pytest.mark.parametrize(
    "package",
    ["repro", "repro.core", "repro.engine", "repro.storage", "repro.service"],
)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_engine_config_has_exactly_one_field():
    assert [field.name for field in dataclasses.fields(EngineConfig)] == [
        "presence_store_capacity"
    ]


def test_durability_config_has_no_codec_field():
    """Nor a second checkpoint trigger, nor a recovery mode: three fields."""
    assert {field.name for field in dataclasses.fields(DurabilityConfig)} == {
        "fsync",
        "snapshot_every_batches",
        "fail_after_writes",
    }


def test_one_checkpoint_trigger_and_no_commit_wall_clock():
    from repro.service.topology import build_parser
    from repro.storage import EvictionEvent, IngestEvent

    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["primary", "--data-dir", "d", "--compact-above-bytes", "1"]
        )
    eviction = tuple(field.name for field in dataclasses.fields(EvictionEvent))
    assert "wall_time" not in IngestEvent.__slots__ + eviction


@pytest.mark.parametrize(
    "argv",
    [
        ["primary", "--data-dir", "d", "--shard-seconds", "60"],
        ["primary", "--data-dir", "d", "--snapshot-every", "64"],
        ["replica", "--primary", "h:1", "--reconnect-retries", "5"],
        ["router", "--primary", "h:1", "--reconnect-retries", "5"],
        ["router", "--primary", "h:1", "--freshness-timeout", "5"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_topology_flags_nobody_passed_are_constants(argv):
    from repro.service.topology import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_the_server_asks_whether_its_table_is_durable_once():
    """One ``isinstance`` in ``__init__``; no duck-typing probe anywhere."""
    probes = [
        f"{path.name}: {node.func.id}( at line {node.lineno}"
        for path in (SERVICE_DIR / name for name in ("server.py", "pool.py", "wal_tail.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "hasattr")
    ]
    assert probes == []


@pytest.mark.parametrize(
    "function",
    [
        IUPT.__init__,
        IUPT.sharded,
        IUPT.durable,
        build_real_scenario,
        build_synthetic_scenario,
        WkNNPositioningSimulator.generate,
        ServiceClient.ingest_batch,
    ],
    ids=lambda function: function.__qualname__,
)
def test_no_store_index_or_wire_form_parameter(function):
    parameters = set(inspect.signature(function).parameters)
    assert not parameters & {"index_kind", "store_kind", "binary"}


def test_the_table_is_the_store(tmp_path):
    """``IUPT`` is a second name for the one store, the durable store is that
    store plus a log, and nothing under ``src/repro`` reaches through a facade:
    no ``repro.data.iupt``, no ``RecordStore`` base, no ``iupt.store`` and no
    ``data_key_for``.  The names ``bench/`` spells still answer."""
    import re

    assert IUPT is ShardedRecordStore
    assert DurableRecordStore.__mro__[1] is ShardedRecordStore
    assert ShardedRecordStore.__mro__[1] is object
    assert not hasattr(repro.storage, "RecordStore")
    assert "RecordStore" not in repro.__all__ + repro.storage.__all__
    with pytest.raises(ImportError):
        importlib.import_module("repro.data.iupt")
    for path in sorted(SRC_DIR.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        for spelled in ("iupt.store", "data_key_for", r"\bRecordStore\b"):
            assert not re.search(spelled, source), (str(path.relative_to(SRC_DIR)), spelled)
    table = IUPT.sharded(shard_seconds=5.0)
    assert type(table) is ShardedRecordStore and table.store is table
    assert table.shard_seconds == 5.0 and table.records == ()
    durable = IUPT.durable(tmp_path, shard_seconds=5.0)
    assert type(durable) is DurableRecordStore and durable.store is durable
    durable.close()


@pytest.mark.parametrize(
    "name",
    ["readline", "readexactly", "binary_length", "start_server", "open_connection"],
)
def test_the_service_tier_frames_a_stream_in_exactly_one_place(name):
    """One reader, one listener, one dial: each stream primitive (and the
    length rule) is called once under ``src/repro/service``."""
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SERVICE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and name == getattr(node.func, "attr", getattr(node.func, "id", None))
    ]
    assert len(sites) == 1, sites


def test_the_sans_io_assembler_and_client_core_are_gone():
    import repro.service
    import repro.service.client
    import repro.service.protocol

    for module in (repro.service, repro.service.client, repro.service.protocol):
        for name in ("FrameAssembler", "ClientCore"):
            assert not hasattr(module, name)
            assert name not in getattr(module, "__all__", ())


def test_the_replica_ack_interval_is_not_a_parameter():
    from repro.service.replica import ReadReplica

    assert "ack_every" not in inspect.signature(ReadReplica.__init__).parameters


STORAGE_DIR = pathlib.Path(repro.__file__).parent / "storage"


def test_a_follower_attaches_in_one_request_and_the_store_keeps_no_ledger():
    """One handshake op, one store event stream, follower state on the
    connection: ``wal_cursor`` is no op, the durable store defines no commit
    listener, follower method or ``subscribe`` of its own, the replica sends
    ``wal_tail`` from one function with no loop on the way to it, and the
    server's tail subscribes to the store."""
    from repro.service import QueryService, protocol

    assert "wal_cursor" not in protocol.OPS
    assert "read_only" not in inspect.signature(QueryService.__init__).parameters
    tree = ast.parse((STORAGE_DIR / "durable.py").read_text(encoding="utf-8"))
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    } | {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    assert not defined & {
        "WalCommit", "WalEviction", "CommitListener", "add_commit_listener",
        "remove_commit_listener", "_notify_commit", "register_follower",
        "ack_follower", "unregister_follower", "follower_lags", "subscribe",
        "unsubscribe",
    }  # fmt: skip
    replica = ast.parse((SERVICE_DIR / "replica.py").read_text(encoding="utf-8"))
    functions = {
        node.name: node
        for node in ast.walk(replica)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }

    def callers(attr):
        return sorted(
            name
            for name, function in functions.items()
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == attr
        )

    assert callers("wal_tail") == ["_handshake"]
    assert callers("_handshake") == ["_reattach", "start"]
    for name in ("_handshake", "_reattach", "start"):
        loops = [
            node
            for node in ast.walk(functions[name])
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While))
        ]
        assert loops == [], name
    subscribes = [
        f"{owner} {ast.unparse(call.func.value)}"
        for call, owner in _calls_with_owner([SERVICE_DIR])
        if getattr(call.func, "attr", None) == "subscribe"
    ]
    assert subscribes == ["wal_tail.py:WalTail._do_wal_tail store"]


ENGINE_DIR = pathlib.Path(repro.__file__).parent / "engine"


def _calls_with_owner(directories):
    """``(call, "file.py:Class.function")`` for every call under ``directories``."""

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = owner + [child.name]
            if isinstance(child, ast.Call):
                yield child, ".".join(owner)
            yield from walk(child, inner)

    for directory in directories:
        for path in sorted(directory.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for call, owner in walk(tree, []):
                yield call, f"{path.name}:{owner}"


def test_a_query_meets_the_table_and_the_store_in_exactly_one_place():
    """``sequences_in`` is called by ``FetchStage.run``, ``fetch.run`` by
    ``QueryPipeline.window``, and the store is probed once per window — by
    window, never per object — from ``QueryPipeline._window``."""
    fetches, stage_runs, probes = [], [], []
    for call, owner in _calls_with_owner([CORE_DIR, ENGINE_DIR]):
        func = call.func
        if not isinstance(func, ast.Attribute):
            continue
        receiver = ast.unparse(func.value)
        if func.attr == "sequences_in":
            fetches.append(owner)
        if func.attr == "run" and receiver.endswith("fetch"):
            stage_runs.append(owner)
        if func.attr == "get" and receiver.split(".")[-1].lstrip("_") == "store":
            probes.append((owner, ast.unparse(call.args[0])))
    assert fetches == ["stages.py:FetchStage.run"]
    assert stage_runs == ["stages.py:QueryPipeline.window"]
    assert probes == [("stages.py:QueryPipeline._window", "ctx.window")]


def test_the_per_object_store_api_is_gone():
    import repro.engine
    import repro.engine.cache

    for path in sorted(CORE_DIR.glob("*.py")) + sorted(ENGINE_DIR.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for name in ("make_store_key", ".rekey(", "build_paths_for"):
            assert name not in source, f"{path.name} names {name}"
    assert "make_store_key" not in repro.engine.__all__
    assert not hasattr(repro.engine.cache, "make_store_key")
    assert not hasattr(repro.engine.PresenceStore, "rekey")
    assert list(inspect.signature(repro.engine.PresenceStore.get).parameters) == [
        "self", "window", "query_slocations", "data_key",
    ]
    assert (len(repro.engine.__all__), len(repro.__all__)) == (20, 59)


def test_a_standing_query_has_one_hook_and_one_kind_vocabulary():
    import repro.engine
    import repro.engine.continuous as continuous
    import repro.service
    import repro.service.protocol
    from repro.service.server import QueryService

    engine = continuous.ContinuousQueryEngine
    for method in (engine.register, engine.register_top_k, engine.register_flows):
        parameters = inspect.signature(method).parameters
        assert not {"on_update", "on_evicted"} & set(parameters), method.__name__
    # bench/ calls register_top_k(q, k, start, end) positionally.
    assert list(inspect.signature(engine.register_top_k).parameters) == [
        "self", "query_slocations", "k", "start", "end",
    ]
    assert not hasattr(continuous, "EvictedCallback")
    subscription = continuous.Subscription(1, continuous.FLOWS, (0.0, 1.0), (1,))
    assert [name for name in vars(subscription) if name.startswith("on_")] == [
        "on_change"
    ]
    assert (continuous.TOP_K, continuous.FLOWS) == ("top_k", "flows")
    assert not hasattr(repro.service.protocol, "SUBSCRIPTION_KINDS")
    assert "SUBSCRIPTION_KINDS" not in repro.service.__all__
    for name in ("_register_subscription", "_resume_subscription", "_subscribed"):
        assert not hasattr(QueryService, name), name
    assert (len(repro.engine.__all__), len(repro.__all__)) == (20, 59)


def _names(path):
    """Every identifier a module spells: names, attributes, imported aliases."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def test_a_pooled_request_has_one_road_and_it_is_the_only_one():
    """No executor beside the service's own work queue, no queue or writer
    task between a connection and its transport, two writers of a stream (a
    listening role's ``Connection`` and the client), one error mapping."""
    for name in ("server.py", "pool.py", "wal_tail.py"):
        server = set(_names(SERVICE_DIR / name))
        assert not server & {"run_in_executor", "ThreadPoolExecutor", "wrap_future"}
    stream = set(_names(SERVICE_DIR / "stream.py"))
    assert not stream & {"Queue", "outbox", "writer_task", "run_writer", "drain"}
    writes, tasks, futures, mappings = [], [], [], []
    for call, owner in _calls_with_owner([SERVICE_DIR]):
        name = getattr(call.func, "attr", getattr(call.func, "id", None))
        if name == "write":
            writes.append(owner)
        if name in ("ensure_future", "create_task") and owner.startswith(
            ("stream.py", "server.py", "pool.py", "wal_tail.py")
        ):
            tasks.append(owner)
        if name == "create_future" and owner.startswith(
            ("server.py", "pool.py", "wal_tail.py")
        ):
            futures.append(owner)
        if name == "evicted_error_frame" and not owner.startswith("protocol.py"):
            mappings.append(owner)
    assert writes == [
        "client.py:ServiceClient._request_once",
        "stream.py:Connection.send_frame",
    ]
    assert tasks == ["stream.py:FrameServer._spawn"]
    # The drain's wake-up and the awaitable face of the queue; no pooled op.
    assert futures == [
        "pool.py:WorkerPool.run_blocking",
        "server.py:QueryService.stop",
    ]
    assert mappings == ["server.py:_error_response"]
    source = (SERVICE_DIR / "server.py").read_text(encoding="utf-8")
    assert source.count('"internal"') == 1
    assert source.count("NotImplementedError") == 1


SRC_DIR = pathlib.Path(repro.__file__).parent


def test_the_codec_has_one_column_container_and_the_engine_one_accumulation():
    """No numpy, no environment read, no backend / kernel / matrix choice."""
    import repro.codec
    from repro.codec import PackedRecordBatch, PresenceMatrix, decode_batch, encode_batch
    from repro.engine.batch import score_query_over_entries

    for path in sorted(SRC_DIR.rglob("*.py")):
        where = str(path.relative_to(SRC_DIR))
        source = path.read_text(encoding="utf-8")
        assert "vectorized" not in source, where
        modules = [
            name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _imported_modules(node, [])
        ]
        assert "numpy" not in [name.split(".")[0] for name in modules], where
        assert not set(_names(path)) & {"environ", "getenv"}, where
    for function in (
        encode_batch,
        decode_batch,
        PackedRecordBatch.__init__,
        PackedRecordBatch.from_records,
        PackedRecordBatch.decode,
        PresenceMatrix.__init__,
        score_query_over_entries,
    ):
        parameters = set(inspect.signature(function).parameters)
        assert not parameters & {"backend", "kernel", "matrix"}, function.__qualname__
    assert not set(repro.codec.__all__) & {
        "BACKENDS", "active_backend", "numpy_available", "resolve_backend",
    }  # fmt: skip
    assert len(repro.codec.__all__) == 7
    assert not hasattr(PresenceMatrix, "score_flows")


def test_importing_the_package_and_a_topology_role_does_not_import_numpy():
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR.parent), *sys.path]))
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro, repro.service.topology; "
            "assert 'numpy' not in sys.modules, 'numpy was imported'",
        ],
        check=True,
        env=env,
    )


def _defined(path):
    """The functions, classes and module-level names ``path`` defines, and
    the ``self.<name>`` attributes it assigns."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        for target in targets:
            if isinstance(target, ast.Name) and node in tree.body:
                names.add(target.id)
            elif isinstance(target, ast.Attribute) and ast.unparse(target.value) == "self":
                names.add(target.attr)
    return names


def test_the_durable_store_is_the_sharded_store_plus_a_log():
    """No second store inside the durable one, and no member that only
    forwards to it: queries, introspection and the watermark are inherited."""
    defined = _defined(STORAGE_DIR / "durable.py")
    assert not defined & {
        "_inner", "inner", "append", "range_query", "version_token",
        "eviction_watermark", "shard_seconds", "shard_count", "shard_versions",
        "__len__", "records_in_time_order", "time_span",
    }  # fmt: skip
    assert {"_log_batch", "_log_eviction", "_evicted"} <= defined


FRAMING = (
    "_FRAME_HEADER", "SEGMENT_MAGIC", "_SEGMENT_PREFIX", "SNAPSHOT_MAGIC",
    "_SNAPSHOT_PREFIX", "_frame_bytes", "encode_wal_frame", "encode_segment_frame",
    "encode_snapshot_frame", "_parse_frame_body", "decode_wal_frames", "_field",
    "frame_records", "_legacy_json_records",
)  # fmt: skip


@pytest.mark.parametrize("name", FRAMING)
def test_the_log_frames_are_defined_in_the_wal_module_alone(name):
    sites = [
        str(path.relative_to(SRC_DIR))
        for path in sorted(SRC_DIR.rglob("*.py"))
        if name in _defined(path)
    ]
    assert sites == ["storage/wal.py"]


def test_admission_has_one_bound_and_no_per_client_state():
    """``max_inflight`` and drain: no token bucket, rate, burst or client id."""
    from repro.service.admission import AdmissionController

    for path in sorted(SRC_DIR.rglob("*.py")):
        spelled = set(_names(path)) & {
            "_TokenBucket", "rate_per_second", "burst", "REASON_RATE", "forget_client",
        }  # fmt: skip
        assert not spelled, (str(path.relative_to(SRC_DIR)), spelled)
    assert list(inspect.signature(AdmissionController.admit).parameters) == ["self"]
    assert list(inspect.signature(AdmissionController.__init__).parameters) == [
        "self", "max_inflight",
    ]  # fmt: skip


def test_worker_threads_are_started_in_the_pool_alone():
    """One pool: threads start only in ``service/pool.py``, and no code hands
    work to asyncio's default executor, a second pool nothing here counts."""
    calls = [
        (getattr(node.func, "attr", getattr(node.func, "id", None)), path.relative_to(SRC_DIR))
        for path in sorted(SRC_DIR.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    ]
    assert [str(where) for name, where in calls if name == "Thread"] == ["service/pool.py"]
    assert [str(where) for name, where in calls if name == "run_in_executor"] == []


def test_the_system_is_the_engine():
    """``IndoorFlowSystem`` is a ``QueryEngine`` built from a floor plan, with
    no forwarding member, and a topology role builds that one engine."""
    import repro.engine
    from repro import IndoorFlowSystem, QueryEngine
    from repro.service import topology

    assert IndoorFlowSystem.__mro__[1] is QueryEngine
    own = {
        name
        for name in vars(IndoorFlowSystem)
        if name == "__init__" or not name.startswith("__")
    }
    assert own == {"__init__", "summary"}
    for argv, capacity in (
        (["replica", "--primary", "h:1", "--presence-capacity", "123"], 123),
        (["primary", "--data-dir", "d"], EngineConfig().presence_store_capacity),
    ):
        engine = topology._build_engine(topology.build_parser().parse_args(argv))
        assert type(engine) is IndoorFlowSystem
        assert engine.store.capacity == capacity
    assert (len(repro.engine.__all__), len(repro.__all__)) == (20, 59)


def test_algorithm_3_scores_in_one_place():
    """One fold of presences into flows, defined beside Algorithm 3; the
    engine modules re-export the same objects ``bench/`` and tests import."""
    import repro.engine.batch
    import repro.engine.stages
    from repro.core import nested_loop

    for name, where in (
        ("score_presence_into_flows", []),
        ("accumulate_flows_over_entries", ["core/nested_loop.py"]),
        ("score_query_over_entries", ["core/nested_loop.py"]),
    ):
        sites = [
            str(path.relative_to(SRC_DIR))
            for path in sorted(SRC_DIR.rglob("*.py"))
            if name in _defined(path)
        ]
        assert sites == where, name
    assert (
        repro.engine.stages.accumulate_flows_over_entries
        is nested_loop.accumulate_flows_over_entries
    )
    assert (
        repro.engine.batch.score_query_over_entries
        is nested_loop.score_query_over_entries
    )


def test_options_nobody_passed_are_gone():
    from repro import FlowComputer, IndoorFlowSystem, QueryEngine
    from repro.codec import PresenceMatrix
    from repro.core.nested_loop import (
        accumulate_flows_over_entries,
        score_query_over_entries,
    )

    for function in (
        IndoorFlowSystem.__init__,
        QueryEngine.__init__,
        accumulate_flows_over_entries,
        score_query_over_entries,
    ):
        parameters = set(inspect.signature(function).parameters)
        assert not parameters & {
            "rtree_fanout", "use_merged_matrix", "engine_config", "objects_total",
        }, function.__qualname__  # fmt: skip
    assert list(inspect.signature(IndoorFlowSystem.__init__).parameters) == [
        "self", "plan", "reduction", "config",
    ]  # fmt: skip
    assert not hasattr(FlowComputer, "reduce_object")
    assert "_has_parent" not in PresenceMatrix.__slots__


def test_every_index_is_built_once_from_its_input():
    """No tree has a second build path, and every tree ``src/repro`` builds
    comes from its bulk constructor, over its whole input."""
    from repro.indexes import BPlusTree, CountAggregateRTree, OneDimensionalRTree, RTree

    trees = {tree.__name__: tree for tree in (RTree, OneDimensionalRTree, BPlusTree, CountAggregateRTree)}
    gone = {
        "insert", "insert_point", "extend", "count_in_range", "total_count", "all_items",
        "items_under",
    }  # fmt: skip
    for name, tree in trees.items():
        assert not gone & set(dir(tree)), name
    assert not hasattr(OneDimensionalRTree, "bulk_load")
    for path in sorted(SRC_DIR.rglob("*.py")):
        assert not _defined(path) & {
            "_quadratic_split", "_pick_seeds", "_enlargement", "_loose_union", "_dirty",
        }, path  # fmt: skip
    builds = set()
    for path in sorted(SRC_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            where = f"{path.relative_to(SRC_DIR)}:{node.lineno}"
            assert getattr(node.func, "id", None) not in trees, where
            owner = getattr(node.func, "value", None)
            if getattr(owner, "id", None) in trees:
                assert node.func.attr in {"bulk_load", "from_sorted", "build"}, where
                builds.add(owner.id)
    assert builds == set(trees)
