"""The window-keyed presence store never changes an answer.

The store keeps one entry per ``(window, table version)`` — per-object
artefacts plus the best-first ``RC`` built from them — and serves it to every
query set without touching the table, so everything the table would have
said on the way has to be said some other way:

* **retention**: the version token leaves the watermark out, so a warmed
  entry whose window now reaches below the watermark must raise exactly like
  a cold query (``TestRetention``; the replica half lives in
  ``tests/test_replication.py``);
* **cached == uncached**: over random interleavings of ingestion, eviction,
  watermark moves, cache resets and repeated reads, a default engine and an
  ``EngineConfig.uncached()`` one give the same flows, rankings and search
  counters, or raise the same error (``test_cached_equals_uncached``), also
  from two threads at once (``test_two_threads_on_one_warm_key``);
* **one entry serves every query set**: a second query set over a warm
  window misses nothing and builds only the presences of its objects that no
  earlier query built (``TestOneEntryPerWindow``);
* **derived state dies with its entry**: ``reset_cache()`` and an uncached
  engine rebuild ``RC``, which every query set shares, and ``RQ`` is built
  per query (``TestDerivedState``).

Mutation-checked: dropping ``data_key`` from the store key, skipping the
eviction check in ``QueryPipeline.window`` and keeping ``derived`` across
``reset_cache()`` each fail a test here.
"""

from __future__ import annotations

import functools
import sys
import threading
from typing import Callable, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IUPT, EngineConfig, QueryEngine, TkPLQuery
from repro.core import SearchStats, best_first
from repro.storage import EvictedRangeError
from repro.synth import build_synthetic_scenario

SHARD_SECONDS = 60.0
DURATION = 240.0
ALGORITHMS = ("naive", "nested-loop", "best-first")


@functools.lru_cache(maxsize=None)
def _scenario():
    """Two floors, so best-first joins multi-floor MBRs; 885 records."""
    return build_synthetic_scenario(
        num_objects=10, floors=2, room_rows=1, rooms_per_row=3, duration_seconds=DURATION
    )


@functools.lru_cache(maxsize=None)
def _batches(seconds: float = 20.0) -> Tuple[tuple, ...]:
    """The scenario's stream in time order, sliced every ``seconds``."""
    sliced: List[list] = [[] for _ in range(int(DURATION / seconds))]
    for record in sorted(_scenario().iupt.records_in_time_order(), key=lambda r: r.timestamp):
        sliced[min(int(record.timestamp // seconds), len(sliced) - 1)].append(record)
    return tuple(tuple(batch) for batch in sliced)


def _table(batches: int = len(_batches())) -> IUPT:
    table = IUPT(shard_seconds=SHARD_SECONDS)
    for batch in _batches()[:batches]:
        table.ingest_batch(batch)
    return table


def _engine(config: EngineConfig = None) -> QueryEngine:
    scenario = _scenario()
    return QueryEngine(scenario.system.graph, scenario.system.matrix, config=config)


def _comparable(result) -> object:
    """Everything of an answer that the table and the query determine."""
    if isinstance(result, dict):
        return result
    if isinstance(result, list):
        return [_comparable(one) for one in result]
    if hasattr(result, "ranking"):
        return (
            [(entry.sloc_id, entry.flow) for entry in result.ranking],
            result.flows,
            result.stats.objects_total,
            result.stats.flow_evaluations,
            result.stats.heap_operations,
        )
    return (result.sloc_id, result.flow)


#: One read of each kind the engine offers, over ``(slocs, k, start, end)``.
READS: Dict[str, Callable] = {
    **{
        f"top_k[{algorithm}]": (
            lambda engine, table, slocs, k, start, end, algorithm=algorithm:
            engine.top_k(table, slocs, k, start, end, algorithm)
        )
        for algorithm in ALGORITHMS
    },
    "flows": lambda engine, table, slocs, k, start, end: engine.flows(
        table, slocs, start, end
    ),
    "flow": lambda engine, table, slocs, k, start, end: engine.flow(
        table, slocs[0], start, end
    ),
    "batch": lambda engine, table, slocs, k, start, end: engine.batch_top_k(
        table,
        [
            TkPLQuery.build(slocs, k, start, end),
            TkPLQuery.build(slocs[:3], 1, start, end),
        ],
    ),
}


def _outcome(read: Callable, engine, table, *args) -> object:
    try:
        return _comparable(read(engine, table, *args))
    except EvictedRangeError as error:
        return ("evicted", error.start, error.end, error.watermark)


# ----------------------------------------------------------------------
# A served entry never outlives retention
# ----------------------------------------------------------------------
class TestRetention:
    """``restore_watermark`` moves retention with every shard version
    unchanged, so the store key of a warmed ``[70, 110]`` stays valid."""

    SLOCS = [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("name", sorted(READS))
    def test_a_warmed_window_below_the_watermark_raises(self, name):
        engine, table = _engine(), _table()
        read = READS[name]
        warm = _outcome(read, engine, table, self.SLOCS, 2, 70.0, 110.0)
        hits = engine.cache_stats()["hits"]
        assert _outcome(read, engine, table, self.SLOCS, 2, 70.0, 110.0) == warm
        assert engine.cache_stats()["hits"] > hits  # served from the store

        token = table.version_token(70.0, 110.0)
        table.restore_watermark(80.0)
        assert table.version_token(70.0, 110.0) == token
        with pytest.raises(EvictedRangeError) as refused:
            read(engine, table, self.SLOCS, 2, 70.0, 110.0)
        assert (refused.value.start, refused.value.watermark) == (70.0, 80.0)

        # The watermark itself is the first answerable instant.
        at_watermark = _outcome(read, engine, table, self.SLOCS, 2, 80.0, 110.0)
        assert at_watermark == _outcome(
            read, _engine(EngineConfig.uncached()), table, self.SLOCS, 2, 80.0, 110.0
        )


# ----------------------------------------------------------------------
# Cached equals uncached, as a property
# ----------------------------------------------------------------------
#: Few and overlapping, so one example asks the same key again and again
#: while batches land in it (the stream is preloaded up to 60-160 s).
WINDOWS = [(70.0, 110.0), (70.0, 130.0), (100.0, 160.0)]
QUERY_SETS = [
    [0, 1, 2, 3, 4, 5],
    [5, 3, 1, 0, 2, 4],  # the first set in another order: another RQ
    list(range(12)),
]

_reads = st.tuples(
    st.just("read"),
    st.sampled_from(sorted(READS)),
    st.integers(0, len(WINDOWS) - 1),
    st.integers(0, len(QUERY_SETS) - 1),
    st.integers(1, 4),
)
_operations = st.one_of(
    *[_reads] * 6,
    *[st.tuples(st.just("ingest"))] * 3,
    st.tuples(st.just("evict"), st.sampled_from([60.0, 120.0])),
    st.tuples(st.just("restore"), st.sampled_from([30.0, 80.0, 105.0])),
    st.tuples(st.just("reset")),
)


@given(
    capacity=st.sampled_from([8, 25, 4096]),
    preloaded=st.integers(3, 8),
    operations=st.lists(_operations, min_size=8, max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_cached_equals_uncached(capacity, preloaded, operations):
    table = _table(preloaded)
    pending = list(_batches()[preloaded:])
    cached = _engine(EngineConfig(presence_store_capacity=capacity))
    uncached = _engine(EngineConfig.uncached())
    for operation in operations:
        kind = operation[0]
        if kind == "ingest":
            if pending and pending[0][0].timestamp >= table.eviction_watermark:
                table.ingest_batch(pending.pop(0))
        elif kind == "evict":
            table.evict_before(operation[1])
        elif kind == "restore":
            table.restore_watermark(operation[1])
        elif kind == "reset":
            cached.reset_cache()
        else:
            _, name, window, query_set, k = operation
            args = (QUERY_SETS[query_set], k, *WINDOWS[window])
            assert _outcome(READS[name], cached, table, *args) == _outcome(
                READS[name], uncached, table, *args
            ), operation
        stats = cached.cache_stats()
        assert stats["entries"] <= capacity
        assert stats["entries"] == sum(
            len(window.entries) for window in cached.store._windows.values()
        )


def test_two_threads_on_one_warm_key():
    """The service runs two query workers over one engine: both may fill a
    lazily deferred computation, build ``RC`` or count a hit at once."""
    table = _table()
    engine = _engine()
    slocs, (start, end) = QUERY_SETS[2], WINDOWS[1]
    oracle = _engine(EngineConfig.uncached())
    expected = {
        ("flows", 0): _comparable(oracle.flows(table, slocs, start, end)),
        **{
            ("top_k", k): _comparable(oracle.top_k(table, slocs, k, start, end))
            for k in (1, 2, 3, 4)
        },
    }
    # Warm the key with deferred computations only: the threads fill them.
    engine.top_k(table, slocs, 1, start, end)
    objects = engine.cache_stats()["entries"]
    hits_before = engine.cache_stats()["hits"]
    rounds, wrong = 60, []

    def worker(offset: int) -> None:
        for index in range(rounds):
            if (index + offset) % 2:
                key, found = ("flows", 0), engine.flows(table, slocs, start, end)
            else:
                k = 1 + index % 4
                key, found = ("top_k", k), engine.top_k(table, slocs, k, start, end)
            if _comparable(found) != expected[key]:
                wrong.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    stats = engine.cache_stats()
    # One hit per artefact per read, none lost; nothing missed or re-stored.
    assert stats["hits"] - hits_before == 3 * rounds * objects
    assert (stats["entries"], stats["windows"]) == (objects, 1.0)


# ----------------------------------------------------------------------
# One entry per window, whatever the query set
# ----------------------------------------------------------------------
def _hex(flows: Dict[int, float]) -> Dict[int, str]:
    return {sloc_id: flow.hex() for sloc_id, flow in flows.items()}


class TestOneEntryPerWindow:
    def test_a_second_query_set_reads_the_warm_entry(self):
        """A top-k over one set, then flows over another: one window entry,
        no miss for the second, and presences built only for the second
        set's reachers the first did not build — answers bit for bit an
        uncached engine's."""
        table, engine = _table(), _engine()
        uncached = _engine(EngineConfig.uncached())
        (start, end), first, second = WINDOWS[1], [0, 1, 2, 3], [2, 3, 6, 7, 8, 9]
        top = engine.top_k(table, first, 2, start, end)
        assert _comparable(top) == _comparable(uncached.top_k(table, first, 2, start, end))
        misses = engine.cache_stats()["misses"]

        [window] = engine.store._windows.values()
        built = {oid for oid, stored in window.entries if stored.computation is not None}
        reachers = {oid for oid, stored in window.entries if stored.psls & set(second)}
        assert built & reachers and reachers - built  # neither side vacuous
        stats = SearchStats()
        context = engine.pipeline.context((start, end), second, stats=stats)
        flows = engine.pipeline.flows(context, table, second)
        assert stats.computed_object_ids == reachers - built
        assert _hex(flows) == _hex(uncached.flows(table, second, start, end))
        assert any(flows.values())
        stats = engine.cache_stats()
        assert (stats["windows"], stats["misses"]) == (1.0, misses)


# ----------------------------------------------------------------------
# Derived state lives and dies with its entry
# ----------------------------------------------------------------------
class TestDerivedState:
    @pytest.fixture()
    def builds(self, monkeypatch):
        """Count the builds of ``RC`` and ``RQ``."""
        counts = {"RC": 0, "RQ": 0}
        for name in counts:
            method = getattr(best_first.BestFirstTkPLQ, f"_build_{name.lower()}")

            def counted(*args, _name=name, _method=method, **kwargs):
                counts[_name] += 1
                return _method(*args, **kwargs)

            monkeypatch.setattr(best_first.BestFirstTkPLQ, f"_build_{name.lower()}", counted)
        return counts

    def test_the_default_top_k_builds_neither_tree(self, builds):
        table, engine = _table(), _engine()
        slocs, (start, end) = QUERY_SETS[0], WINDOWS[0]
        result = engine.top_k(table, slocs, 2, start, end)
        assert result.algorithm == "nested-loop"
        assert result.stats.heap_operations == 0
        assert builds == {"RC": 0, "RQ": 0}
        assert engine.store.get((start, end), table.version_token(start, end)).derived == {}

    def test_a_warm_query_builds_no_rc_and_a_reset_forgets_it(self, builds):
        table, engine = _table(), _engine()
        slocs, (start, end) = QUERY_SETS[0], WINDOWS[0]
        engine.top_k(table, slocs, 2, start, end, "best-first")
        assert builds == {"RC": 1, "RQ": 1}
        engine.top_k(table, slocs, 3, start, end, "best-first")  # another k: the same RC
        engine.flows(table, slocs, start, end)  # another op on the same key
        engine.top_k(table, slocs, 1, start, end, "best-first")
        assert builds == {"RC": 1, "RQ": 3}  # RQ per best-first query

        engine.reset_cache()
        engine.top_k(table, slocs, 2, start, end, "best-first")
        assert builds == {"RC": 2, "RQ": 4}
        assert engine.cache_stats()["hits"] == 0

    def test_rc_serves_every_query_set_and_rq_is_built_per_query(self, builds):
        table, engine = _table(), _engine()
        (start, end) = WINDOWS[0]
        for query_set in QUERY_SETS + QUERY_SETS:
            engine.top_k(table, query_set, 2, start, end, "best-first")
        assert builds == {"RC": 1, "RQ": 2 * len(QUERY_SETS)}
        assert engine.cache_stats()["windows"] == 1

    def test_an_uncached_engine_keeps_nothing(self, builds):
        table, engine = _table(), _engine(EngineConfig.uncached())
        slocs, (start, end) = QUERY_SETS[0], WINDOWS[0]
        engine.top_k(table, slocs, 2, start, end, "best-first")
        cold = dict(builds)
        engine.top_k(table, slocs, 2, start, end, "best-first")
        assert builds == {name: 2 * count for name, count in cold.items()}
