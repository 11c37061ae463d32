"""Mutation check of the layering tables in ``tests/test_layering.py``.

The ``GONE`` changes are generated from that table: each name a row says was
deleted is re-added in every form its kind of subject can take.  The
``RULES`` changes below are written by hand, one or more per row.  The
changes are made one at a time to ``src/repro`` of a copy of the repository;
every given test file is run against the copy, and a change counts as caught
by a file when pytest fails on it.  The tables are read from the first file::

    mkdir /tmp/layering-copy && cp -r src tests /tmp/layering-copy/
    cp OTHER_VERSION.py /tmp/layering-copy/tests/test_layering_other.py
    python3 tests/layering_mutants.py /tmp/layering-copy \\
        tests/test_layering.py tests/test_layering_other.py

Test files are named relative to the copy, whose sources are restored after
every change.  A change whose target text is gone is reported ``n/a``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

READD_PARAMETER = '''
import inspect as _inspect


def _readd_parameter(function, name):
    function = getattr(function, "__func__", function)
    signature = _inspect.signature(function)
    params = list(signature.parameters.values())
    at = len([p for p in params if p.kind is not p.VAR_KEYWORD])
    extra = _inspect.Parameter(name, _inspect.Parameter.KEYWORD_ONLY, default=None)
    function.__signature__ = signature.replace(parameters=params[:at] + [extra] + params[at:])
'''

# GONE subjects that are a container of names: (file, text to replace, its replacement).
CONTAINERS = {
    "protocol.OPS": ("service/protocol.py", None, 'OPS = OPS + ("{}",)'),
    "IngestEvent.__slots__": ("storage/base.py", "class IngestEvent:\n",
                              "class IngestEvent:\n    {}: float\n"),
    "EvictionEvent-fields": ("storage/base.py", "class EvictionEvent:\n",
                             "class EvictionEvent:\n    {}: float\n"),
    "MethodOutcome-fields": ("eval/harness.py", "class MethodOutcome:\n",
                             "class MethodOutcome:\n    {}: float\n"),
    "QuerySetting-fields": ("experiments/runner.py", "    sc_rho: float = 0.25\n",
                            "    sc_rho: float = 0.25\n    {}: int = 0\n"),
    **{f"{cls}-fields": (f"synth/{path}", f"class {cls}:\n",
                         f"class {cls}:\n    {{}}: float = 0.0\n")
       for cls, path in (("MovementConfig", "movement.py"),
                         ("PositioningConfig", "positioning.py"))},
    "PresenceMatrix.__slots__": ("codec/kernels.py", "__slots__ = (", '__slots__ = ("{}", '),
    **dict.fromkeys(["BPlusTree", "OneDimensionalRTree"], (  # deleted trees, back with a method
        "indexes/__init__.py", None, "class {tree}:\n    def {}(self):\n        pass")),
}
ANCHORS = {  # the line after which a topology role's deleted flag is re-added
    "primary": 'primary.add_argument("--data-dir", required=True)',
    "replica": 'replica.add_argument("--name", default="replica")',
    "router": '"--replicas", default="", help="comma-separated HOST:PORT list"\n    )',
}
HANDSHAKE_DOC = '"""The one request that (re)attaches the tail at :attr:`applied_seq`."""'


def change(label, path, old, new):
    """``old`` None appends ``new`` to the file (creating it); else replaces ``old``."""
    return (f"{path}: {label}", path, old, new)


def parameters(path, function, names):
    """Parameters re-added to ``function``'s signature as keyword-only ones."""
    return [change(f"{function}({name}=)", path, None,
                   READD_PARAMETER + f"\n_readd_parameter({function}, {name!r})")
            for name in names.split()]


def code(path, label, text):
    return change(label, path, None, text)


def returns(path, label, expression):
    """A function returning ``expression``: its names need not exist, it never runs."""
    return change(label, path, None, f"def _mutant():\n    return {expression}")


def flag_readded(role, flag):
    new = f'{ANCHORS[role]}\n    {role}.add_argument("{flag}")'
    return change(f"{role} {flag}", "service/topology.py", ANCHORS[role], new)


def base(path, cls, bases=""):
    """A mixin put first among ``cls``'s bases."""
    old = f"class {cls}({bases}):" if bases else f"class {cls}:"
    new = f"class _Mutant:\n    pass\n\n\nclass {cls}(_Mutant{', ' * bool(bases)}{bases}):"
    return change(f"{cls} gains a base", path, old, new)


def _home(layering, name):
    """The one file that defines ``name`` at module level."""
    [where] = [where for where, tree in layering.TREES.items()
               if any(getattr(node, "name", None) == name for node in tree.body)]
    return where


def _in_main_class(layering, path, label, text):
    """``text`` as the first statements of ``path``'s largest class."""
    classes = [node for node in layering.TREES[path].body if isinstance(node, ast.ClassDef)]
    cls = max(classes, key=lambda node: len(node.body))
    lines = layering.SOURCES[path].splitlines(keepends=True)
    at = cls.body[0].lineno - 1
    indent = " " * cls.body[0].col_offset
    old = "".join(lines[at - 1:at + 1])
    added = "".join(f"{indent}{line}\n" for line in text.splitlines())
    return change(f"{cls.name}: {label}", path, old, lines[at - 1] + added + lines[at])


def readds(layering, subject, name):
    """Every form ``name`` takes as a member of a ``GONE`` row's ``subject``."""
    if subject in CONTAINERS:
        path, old, new = CONTAINERS[subject]
        new = new.replace("{tree}", subject).replace("{}", name)
        return [change(f"{subject} gains {name}", path, old, new)]
    if subject == "importable-modules":
        path = name.removeprefix("repro.").replace(".", "/") + ".py"
        return [change(f"{name} is back", path, None, '"""Re-added."""')]
    if subject.startswith("def:"):
        path = subject[4:]
        in_class = [
            _in_main_class(layering, path, f"{name} in the class body", f"{name} = None"),
            _in_main_class(layering, path, f"self.{name}",
                           f"def _mutant(self):\n    self.{name} = None"),
        ] if any(isinstance(node, ast.ClassDef) for node in layering.TREES[path].body) else []
        return [
            change(f"defines {name}()", path, None, f"def {name}():\n    pass"),
            change(f"assigns {name} in a function", path, None, f"def _mutant():\n    {name} = None"),
            *in_class,
        ]
    if subject.startswith("text:"):
        spelled = f"def _mutant(x):\n    import {name}\n    return {name}(x), x.{name}()"
        if name.isidentifier():
            spelled += f"\n\n\ndef {name}():\n    pass"
        prefixes = subject[5:].replace("src/repro", "").split(",")
        return [change(f"spells {name}", path, None, spelled) for path in (
            next(where for where in layering.SOURCES if where.startswith(prefix))
            for prefix in prefixes)]
    if subject.endswith("()"):
        function = subject[:-2]
        return parameters(_home(layering, function.split(".")[0]), function, name)
    if subject.startswith("repro"):
        module = importlib.import_module(subject)
        path = str(pathlib.Path(module.__file__).relative_to(layering.SRC))
        forms = [change(f"{subject}.{name}", path, None, f"{name} = None")]
        if hasattr(module, "__all__"):
            forms.append(change(f"{subject}.__all__ gains {name}", path, None,
                                f'{name} = None\n__all__ = [*__all__, "{name}"]'))
        return forms
    return [change(f"{subject}.{name}", _home(layering, subject), None, f"{subject}.{name} = None")]


def rule_breakers(layering):
    """One or more changes per ``RULES`` row and per rule checked item by item."""
    return [
        code("core/paths.py", "imports the engine", "def _mutant():\n    from ..engine import cache"),
        code("core/query.py", "imports repro.engine", "def _mutant():\n    import repro.engine"),
        change("EngineConfig gains a field", "engine/config.py",
               "    presence_store_capacity: int = 4096\n",
               "    presence_store_capacity: int = 4096\n    mutant_knob: int = 0\n"),
        *[returns("service/client.py", f"a second {name}", f"stream.{name}()")
          for name in layering.STREAM_SITES],
        change("DurabilityConfig gains a field", "storage/durable.py",
               "    fail_after_writes: Optional[int] = None\n",
               "    fail_after_writes: Optional[int] = None\n    codec: str = 'binary'\n"),
        returns("engine/runtime.py", "reads the table", "iupt.sequences_in(0, 1)"),
        returns("engine/runtime.py", "runs the fetch stage", "pipeline.fetch.run(None)"),
        returns("engine/stages.py", "probes the store per object", "self._store.get(object_id)"),
        returns("engine/continuous.py", "probes a store", "store.get(key)"),
        *parameters("engine/cache.py", "PresenceStore.get", "object_id"),
        returns("service/router.py", "writes to a stream", "writer.write(b'')"),
        returns("service/server.py", "spawns a task", "loop.create_task(coro)"),
        returns("service/pool.py", "ensures a future", "asyncio.ensure_future(coro)"),
        returns("service/wal_tail.py", "creates a future", "loop.create_future()"),
        returns("service/replica.py", "maps an eviction", "evicted_error_frame(error)"),
        code("service/server.py", "a second internal error", '_MUTANT = "internal"'),
        code("service/server.py", "a second NotImplementedError", "_MUTANT = NotImplementedError"),
        returns("service/replica.py", "sends wal_tail", "client.wal_tail(0)"),
        returns("service/replica.py", "calls _handshake", "replica._handshake()"),
        change("a loop in _handshake", "service/replica.py", HANDSHAKE_DOC,
               HANDSHAKE_DOC + "\n        for _ in ():\n            pass"),
        returns("service/server.py", "subscribes to the store", "store.subscribe(print)"),
        returns("service/wal_tail.py", "subscribes to itself", "self.subscribe(print)"),
        base("storage/durable.py", "DurableRecordStore", "ShardedRecordStore"),
        *[change(f"{hook} renamed", "storage/durable.py", f"def {hook}(", f"def {hook}_mutant(")
          for hook in ("_log_batch", "_log_eviction", "_evicted")],
        *[code("storage/durable.py", f"defines {name}", f"{name} = None")
          for name in layering.FRAMES],
        *parameters("service/admission.py", "AdmissionController.admit", "client_id"),
        *parameters("service/admission.py", "AdmissionController.__init__", "rate_per_second"),
        returns("service/server.py", "starts a thread", "threading.Thread()"),
        *parameters("engine/continuous.py", "ContinuousQueryEngine.register_top_k", "algorithm"),
        change("a second hook", "engine/continuous.py",
               "        self.on_change: Optional[ChangeCallback] = None\n",
               "        self.on_change: Optional[ChangeCallback] = None\n"
               "        self.on_update = None\n"),
        change("top-k spelled with a hyphen", "engine/continuous.py",
               'TOP_K = "top_k"', 'TOP_K = "top-k"'),
        base("system.py", "IndoorFlowSystem", "QueryEngine"),
        code("system.py", "a forwarding member", "IndoorFlowSystem.flows_of = lambda self: None"),
        *parameters("system.py", "IndoorFlowSystem.__init__", "rtree"),
        code("engine/stages.py", "defines the fold", "def accumulate_flows_over_entries():\n    pass"),
        code("engine/stages.py", "wraps the fold", "import functools as _f\n"
             "accumulate_flows_over_entries = _f.wraps(accumulate_flows_over_entries)(lambda *a: a)"),
        returns("core/best_first.py", "constructs an RTree directly", "RTree([])"),
        change("IUPT becomes a subclass", "data/__init__.py",
               "from ..storage.sharded import ShardedRecordStore as IUPT\n",
               "from ..storage.sharded import ShardedRecordStore\n\n\n"
               "class IUPT(ShardedRecordStore):\n    pass\n"),
        base("storage/sharded.py", "ShardedRecordStore"),
        *[code(path, "one more export", '_mutant_export = None\n__all__ = [*__all__, "_mutant_export"]')
          for path in ("__init__.py", "codec/__init__.py", "engine/__init__.py",
                       "synth/__init__.py")],
        *[code(path, "exports a missing name", '__all__ = [*__all__, "missing_name"]')
          for path in ("service/__init__.py", "geometry/__init__.py", "synth/__init__.py")],
        code("core/__init__.py", "exports a name twice", "__all__ = [*__all__, __all__[0]]"),
        code("space/__init__.py", "no __all__", "del __all__"),
        *[flag_readded(*flag.split()) for flag in layering.FLAGS],
        change("PositioningRecord loses its slots", "data/records.py",
               "@dataclass(frozen=True, slots=True)\nclass PositioningRecord:",
               "@dataclass(frozen=True)\nclass PositioningRecord:"),
        change("PositioningRecord gains a field", "data/records.py",
               "    timestamp: float\n\n    @classmethod",
               "    timestamp: float\n    source: int = 0\n\n    @classmethod"),
        *[returns(path, "builds trusted records", "PositioningRecord._from_columns([], [], [])")
          for path in ("storage/sharded.py", "codec/packed.py")],
        code("core/reduction.py", "assigns a sample set's column",
             "def _mutant(kept):\n    kept.probs = ()"),
        code("storage/wal.py", "augments a sample set's column",
             "def _mutant(kept):\n    kept.ploc_ids += ()"),
        code("codec/packed.py", "sets a sample set's column by name",
             "def _mutant(kept):\n    object.__setattr__(kept, 'ploc_ids', ())"),
        returns("core/presence.py", "calls link per tail", "matrix.link(tail, ploc_id)"),
        returns("indexes/rtree.py", "reads an MBR's center", "entry.mbr.center.x"),
        returns("experiments/paper.py", "a second runner call", "run_methods(None, (), None)"),
        *parameters("baselines/simple_counting.py", "SimpleCounting.__init__", "top_only"),
        change("run_methods gets a default", "eval/harness.py",
               "    mc_rounds: int,\n) -> List[MethodOutcome]:",
               "    mc_rounds: int = 40,\n) -> List[MethodOutcome]:"),
        *[code(path, "one more export", '_mutant_export = None\n__all__ = [*__all__, "_mutant_export"]')
          for path in ("eval/__init__.py", "experiments/__init__.py", "baselines/__init__.py",
                       "storage/__init__.py")],
        returns("synth/positioning.py", "searches a window", "self._ploc_index.search(window)"),
        returns("synth/movement.py", "searches a point", "index.search_point(location)"),
        returns("synth/positioning.py", "builds a report by the constructor",
                "SampleSet(samples, normalise=True)"),
        returns("storage/durable.py", "a second spans caller", "_object_spans(batch, times)"),
        code("engine/continuous.py", "imports the durable module",
             "def _mutant():\n    from ..storage import durable"),
        code("engine/runtime.py", "imports the durable store",
             "def _mutant():\n    from ..storage import DurableRecordStore"),
        code("engine/stages.py", "imports from the durable module",
             "def _mutant():\n    from ..storage.durable import fsync_dir"),
        returns("engine/cache.py", "spells atomic_write", "atomic_write(path, b'', 'never')"),
        returns("storage/durable.py", "absorbs a slice itself", "shard.absorb(records, times)"),
        returns("storage/sharded.py", "a second absorb site", "self._shards[key].absorb([], [])"),
        returns("storage/durable.py", "sorts records", "records.sort(key=None)"),
        returns("storage/durable.py", "reads a timestamp column", "self._shards[key].timestamps()"),
        returns("engine/runtime.py", "a second fold caller",
                "accumulate_flows_over_entries(entries, sloc_ids, cells, stats)"),
        returns("core/nested_loop.py", "folds by itself",
                "accumulate_flows_over_entries(entries, sloc_ids, cells, stats)"),
        returns("engine/continuous.py", "maps a location to its cell",
                "graph.parent_cell(sloc_id)"),
        returns("core/naive.py", "maps a location to its cell", "graph.parent_cell(sloc_id)"),
        returns("baselines/scc.py", "ranks by itself", "rank_top_k(flows, query.k)"),
        returns("engine/continuous.py", "ranks by itself", "query.rank_top_k(flows, 3)"),
        returns("service/wal_tail.py", "encodes a batch", "protocol.records_to_payload(records)"),
        returns("service/wal_tail.py", "packs a batch", "PackedRecordBatch.from_records(records)"),
        returns("storage/base.py", "encodes a batch", "encode_batch(records)"),
        returns("service/replica.py", "decodes a blob", "PackedRecordBatch.decode(blob)"),
        returns("service/replica.py", "decodes records", "protocol.records_from_payload(blob)"),
        returns("service/replica.py", "a second frame reader", "decode_wal_frames(payload)"),
    ]


def load(copy, test_file):
    """The test module ``test_file`` of the copy, importing the copy's ``repro``."""
    sys.path.insert(0, str(copy / "src"))
    spec = importlib.util.spec_from_file_location("layering", copy / test_file)
    layering = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layering)
    return layering


def apply(src, path, old, new):
    """Make one change; returns the file's original text (None: no such file),
    or ``False`` when the text to replace is gone."""
    file = src / path
    original = file.read_text("utf-8") if file.exists() else None
    text = original or ""
    if old is None:
        text += "\n\n" + new + "\n"
    elif old in text:
        text = text.replace(old, new, 1)
    else:
        return False
    file.write_text(text, "utf-8")
    return original


def caught(copy, test_files):
    """Whether pytest fails on each test file; the files run side by side."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    runs = [
        subprocess.Popen([*command, file], cwd=copy, env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for file in test_files
    ]
    return [run.wait() != 0 for run in runs]


def main(copy, *test_files):
    copy = pathlib.Path(copy).resolve()
    src = copy / "src" / "repro"
    if any(caught(copy, test_files)):
        sys.exit("a test file fails before any change")
    layering = load(copy, test_files[0])
    tables = {
        "GONE": [form for _, subject, _, names in layering.GONE for name in names.split()
                 for form in readds(layering, subject, name)],
        "RULES": rule_breakers(layering),
    }
    tally = {table: {"made": 0, "n/a": 0, **dict.fromkeys(test_files, 0)} for table in tables}
    only = {file: [] for file in test_files}
    for table, changes in tables.items():
        for label, path, old, new in changes:
            original = apply(src, path, old, new)
            if original is False:
                tally[table]["n/a"] += 1
                print(f"{table:5}  n/a  {label}", flush=True)
                continue
            try:
                kills = caught(copy, test_files)
            finally:
                if original is None:
                    (src / path).unlink()
                else:
                    (src / path).write_text(original, "utf-8")
            tally[table]["made"] += 1
            for file, kill in zip(test_files, kills):
                tally[table][file] += kill
                if kill and sum(kills) == 1:
                    only[file].append(label)
            verdicts = " ".join("killed" if kill else "LIVED " for kill in kills)
            print(f"{table:5}  {verdicts}  {label}", flush=True)
    for table, counts in tally.items():
        print(table, counts)
    for file, labels in only.items():
        print(f"caught only by {file}: {len(labels)}", *labels, sep="\n  ")


if __name__ == "__main__":
    main(*sys.argv[1:])
