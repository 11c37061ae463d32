"""Continuous queries: differential correctness, delta maintenance, eviction.

The subsystem's contract is *exactness*: a standing query's maintained result
must be bit-identical — flows, ranking, tie-breaks — to what a fresh engine
would compute from scratch over the table's current contents, after every
interleaved ``ingest_batch`` / ``evict_before``.  The differential harness
here (`run_differential_interleaving`, also driven by the hypothesis test in
``test_property_based.py``) asserts that over seeded-random interleavings on
two shard geometries — 10-second shards, and one shard holding the whole
stream, whose token churns on every batch and which retention never trims;
the unit tests pin the delta-maintenance mechanics (skips, re-keys,
recomputes) and the eviction semantics.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro import (
    FloorPlan,
    IUPT,
    PartitionKind,
    Point,
    QueryEngine,
    Rect,
    SampleSet,
)
from repro.data.records import PositioningRecord
from repro.space import IndoorLocationMatrix, IndoorSpaceLocationGraph
from repro.storage import EvictedRangeError, EvictionEvent, IngestEvent

SHARD_SECONDS = 10.0
SPAN = 60.0
#: Shard duration per table geometry: the stream spans six shards, or one.
GEOMETRIES = {"sharded": SHARD_SECONDS, "one-shard": 1e9}


# ----------------------------------------------------------------------
# A small three-partition space with enough P-locations for real flows
# ----------------------------------------------------------------------
def _small_space():
    plan = FloorPlan()
    room_a = plan.add_partition(Rect(0, 0, 6, 6), PartitionKind.ROOM, name="a")
    room_b = plan.add_partition(Rect(6, 0, 12, 6), PartitionKind.ROOM, name="b")
    hall = plan.add_partition(Rect(0, 6, 12, 10), PartitionKind.HALLWAY, name="hall")
    door_a = plan.add_door(Point(3.0, 6.0), (room_a, hall))
    door_b = plan.add_door(Point(9.0, 6.0), (room_b, hall))
    door_ab = plan.add_door(Point(6.0, 3.0), (room_a, room_b))
    plocs = [
        plan.add_partitioning_plocation(Point(3.0, 6.0), door_a),
        plan.add_partitioning_plocation(Point(9.0, 6.0), door_b),
        plan.add_partitioning_plocation(Point(6.0, 3.0), door_ab),
        plan.add_presence_plocation(Point(2.0, 3.0), room_a),
        plan.add_presence_plocation(Point(10.0, 3.0), room_b),
        plan.add_presence_plocation(Point(6.0, 8.0), hall),
    ]
    slocs = [
        plan.add_slocation_for_partition(partition)
        for partition in (room_a, room_b, hall)
    ]
    plan.freeze()
    graph = IndoorSpaceLocationGraph.from_floorplan(plan)
    matrix = IndoorLocationMatrix.from_graph(graph).merged(graph)
    return graph, matrix, plocs, slocs


def _fresh_engine(engine: QueryEngine) -> QueryEngine:
    """A cold engine over the same indoor model (the differential oracle)."""
    return QueryEngine(engine.flow_computer.graph, engine.flow_computer.matrix)


def _stream(
    seed: int, plocs: List[int], objects: int = 5, count: int = 60
) -> List[PositioningRecord]:
    """A deterministic random report stream over ``[0, SPAN)``."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        timestamp = round(rng.uniform(0.0, SPAN - 0.1), 1)
        object_id = rng.randrange(objects)
        chosen = rng.sample(plocs, rng.randint(1, 3))
        pairs = [(ploc, rng.uniform(0.1, 1.0)) for ploc in chosen]
        records.append(
            PositioningRecord(
                object_id, SampleSet.from_pairs(pairs, normalise=True), timestamp
            )
        )
    records.sort(key=lambda record: record.timestamp)
    return records


def _batches(records: List[PositioningRecord]) -> List[List[PositioningRecord]]:
    """Slice a time-ordered stream at the shard boundaries."""
    sliced: List[List[PositioningRecord]] = [[] for _ in range(int(SPAN / SHARD_SECONDS))]
    for record in records:
        sliced[min(int(record.timestamp // SHARD_SECONDS), len(sliced) - 1)].append(
            record
        )
    return sliced


def _make_table(geometry: str = "sharded") -> IUPT:
    return IUPT(shard_seconds=GEOMETRIES[geometry])


# ----------------------------------------------------------------------
# The differential harness (also driven by test_property_based.py)
# ----------------------------------------------------------------------
def _check_subscription(engine: QueryEngine, iupt: IUPT, kind: str, sub) -> int:
    """Compare one standing result against a fresh engine's full recompute.

    Returns the number of non-zero flow values seen (the vacuity guard of
    the calling tests).  Evicted subscriptions must agree with the oracle on
    *raising*: the fresh recompute of the same window must refuse too.
    """
    fresh = _fresh_engine(engine)
    if kind == "top-k":
        if not sub.active:
            with pytest.raises(EvictedRangeError):
                fresh.search(iupt, sub.query, "nested-loop")
            return 0
        reference = fresh.search(iupt, sub.query, "nested-loop")
        assert sub.result.flows == reference.flows
        assert sub.top_k_ids() == reference.top_k_ids()
        assert [entry.flow for entry in sub.result.ranking] == [
            entry.flow for entry in reference.ranking
        ]
        return sum(1 for flow in reference.flows.values() if flow > 0.0)
    if not sub.active:
        with pytest.raises(EvictedRangeError):
            fresh.flows(iupt, list(sub.sloc_ids), *sub.window)
        return 0
    reference = fresh.flows(iupt, list(sub.sloc_ids), *sub.window)
    assert sub.result == reference
    return sum(1 for flow in reference.values() if flow > 0.0)


def run_differential_interleaving(seed: int, geometry: str = "sharded") -> int:
    """One seeded interleaving of ingest / evict / reads, checked exhaustively.

    Registers four standing queries (two historical windows, one mid-stream,
    one covering the live edge), then streams the remaining batches in with
    seeded-random evictions interleaved (no-ops on the one-shard table),
    asserting after every step that every subscription is bit-identical to a
    fresh engine's full recompute — or, once evicted, that both sides raise.
    Returns the number of non-zero flows observed (callers guard against
    vacuous runs).
    """
    graph, matrix, plocs, slocs = _small_space()
    engine = QueryEngine(graph, matrix)
    iupt = _make_table(geometry)
    batches = _batches(_stream(seed, plocs))
    iupt.ingest_batch(batches[0])
    iupt.ingest_batch(batches[1])

    continuous = engine.continuous(iupt)
    subscriptions: List[Tuple[str, object]] = [
        ("top-k", continuous.register_top_k(slocs, k=2, start=0.0, end=19.0)),
        ("top-k", continuous.register_top_k(slocs[:2], k=1, start=0.0, end=SPAN)),
        ("flows", continuous.register_flows(slocs, 10.0, 35.0)),
        ("top-k", continuous.register_top_k(slocs, k=3, start=35.0, end=SPAN)),
    ]

    rng = random.Random(seed + 1000)
    nonzero = 0
    frontier = 2 * SHARD_SECONDS
    for batch in batches[2:]:
        iupt.ingest_batch(batch)
        frontier += SHARD_SECONDS
        if rng.random() < 0.3:
            iupt.evict_before(rng.uniform(SHARD_SECONDS, frontier - SHARD_SECONDS))
        for kind, sub in subscriptions:
            nonzero += _check_subscription(engine, iupt, kind, sub)

    # Final eviction reaching into the historical windows.
    iupt.evict_before(15.0)
    for kind, sub in subscriptions:
        nonzero += _check_subscription(engine, iupt, kind, sub)
    continuous.close()
    return nonzero


class TestDifferentialHarness:
    """Incremental maintenance ≡ full recompute, over random interleavings."""

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_five_seeds_bit_identical(self, geometry):
        nonzero = 0
        for seed in range(5):
            nonzero += run_differential_interleaving(seed, geometry)
        assert nonzero > 0, (
            "every standing query saw only zero flows across all seeds; "
            "the bit-identity assertions were vacuous"
        )


# ----------------------------------------------------------------------
# Delta-maintenance mechanics
# ----------------------------------------------------------------------
def _continuous_setup(geometry: str = "sharded", seed: int = 3):
    graph, matrix, plocs, slocs = _small_space()
    engine = QueryEngine(graph, matrix)
    iupt = _make_table(geometry)
    batches = _batches(_stream(seed, plocs))
    for batch in batches[:3]:
        iupt.ingest_batch(batch)
    return engine, iupt, plocs, slocs, batches


class TestDeltaMaintenance:
    def test_disjoint_batch_skips_refresh_on_sharded_store(self):
        engine, iupt, plocs, slocs, batches = _continuous_setup()
        continuous = engine.continuous(iupt)
        sub = continuous.register_top_k(slocs, k=2, start=0.0, end=19.0)
        result_before = sub.result
        iupt.ingest_batch(batches[4])  # lands in shard [40, 50) only
        assert sub.stats.skipped == 1
        assert sub.stats.refreshes == 1  # just the registration compute
        assert sub.result is result_before  # not even re-scored

    def test_disjoint_batch_rekeys_untouched_objects_on_one_shard_table(self):
        engine, iupt, plocs, slocs, batches = _continuous_setup("one-shard")
        continuous = engine.continuous(iupt)
        sub = continuous.register_top_k(slocs, k=2, start=0.0, end=19.0)
        computed_after_register = sub.stats.objects_recomputed
        window_objects = sub.result.stats.objects_total
        assert window_objects > 0

        # One shard's token churns on ANY ingestion, but none of these
        # records overlap the window — every artefact must be re-keyed, none
        # recomputed.
        iupt.ingest_batch(batches[4])
        assert sub.stats.skipped == 0
        assert sub.stats.refreshes == 2
        assert sub.stats.objects_rekeyed == window_objects
        assert sub.stats.objects_recomputed == computed_after_register
        assert engine.store.stats.rekeys >= window_objects

    def test_a_refresh_that_touched_nobody_fetches_and_rescores_nothing(
        self, monkeypatch
    ):
        """The whole store entry moves to the new token and the result stands;
        the refresh is still counted and still pushed."""
        engine, iupt, plocs, slocs, batches = _continuous_setup("one-shard")
        pushed = []
        sub = engine.continuous(iupt).register_top_k(slocs, k=2, start=0.0, end=19.0)
        sub.on_change = lambda changed: pushed.append(changed.result)
        standing = sub.result
        window_objects = standing.stats.objects_total
        fetch, fetches = iupt.sequences_in, []
        monkeypatch.setattr(
            iupt, "sequences_in", lambda *w: fetches.append(w) or fetch(*w)
        )

        iupt.ingest_batch(batches[4])  # same shard, no record inside [0, 19]
        assert fetches == []
        assert sub.result is standing and pushed == [standing]
        assert (sub.stats.refreshes, sub.stats.skipped) == (2, 0)
        assert sub.stats.objects_rekeyed == window_objects
        assert sub.stats.last_churn == 0
        # An ad-hoc query of the same key is served from the carried entry.
        hits = engine.store.stats.hits
        assert engine.search(iupt, sub.query, "nested-loop").flows == standing.flows
        assert engine.store.stats.hits == hits + window_objects and fetches == []
        assert standing.flows == _fresh_engine(engine).search(
            iupt, sub.query, "nested-loop"
        ).flows

        # With the entry gone there is nothing to carry: a full recompute.
        engine.reset_cache()
        del fetches[:]  # the fresh engine above fetched once
        iupt.ingest_batch(batches[5])
        assert len(fetches) == 1 and sub.stats.refreshes == 3
        assert sub.result is not standing and sub.result.flows == standing.flows
        assert sub.stats.objects_rekeyed == window_objects

    def test_overlapping_batch_recomputes_only_touched_objects(self):
        engine, iupt, plocs, slocs, batches = _continuous_setup()
        continuous = engine.continuous(iupt)
        sub = continuous.register_top_k(slocs, k=2, start=0.0, end=29.0)
        computed_after_register = sub.stats.objects_recomputed
        window_objects = sub.result.stats.objects_total
        assert window_objects >= 2

        # One new record for one object, inside the window: that object is
        # recomputed, the others are re-keyed.
        iupt.ingest_batch(
            [PositioningRecord(0, SampleSet.certain(plocs[3]), 25.0)]
        )
        assert sub.stats.objects_rekeyed == window_objects - 1
        assert sub.stats.objects_recomputed == computed_after_register + 1

    def test_standing_queries_over_one_window_share_one_entry(self):
        """Two standing queries with different query sets over one window:
        one store entry, which the first refresh builds and the second is
        served; after every batch both results are a fresh recompute's, bit
        for bit."""
        engine, iupt, plocs, slocs, batches = _continuous_setup()
        continuous = engine.continuous(iupt)
        window = (10.0, SPAN)
        top = continuous.register_top_k(slocs[:2], 1, *window)
        flows = continuous.register_flows(slocs[1:], *window)
        assert engine.cache_stats()["windows"] == 1
        nonzero = 0
        for batch in batches[3:]:
            iupt.ingest_batch(batch)
            assert engine.cache_stats()["windows"] == 1
            fresh = _fresh_engine(engine)
            expected = fresh.search(iupt, top.query, "nested-loop")
            assert [(e.sloc_id, e.flow.hex()) for e in top.result.ranking] == [
                (e.sloc_id, e.flow.hex()) for e in expected.ranking
            ]
            assert {s: f.hex() for s, f in top.result.flows.items()} == {
                s: f.hex() for s, f in expected.flows.items()
            }
            reference = fresh.flows(iupt, list(flows.sloc_ids), *window)
            assert {s: f.hex() for s, f in flows.result.items()} == {
                s: f.hex() for s, f in reference.items()
            }
            nonzero += sum(1 for flow in reference.values() if flow > 0.0)
        assert top.stats.refreshes == flows.stats.refreshes == 1 + len(batches[3:])
        assert nonzero > 0
        continuous.close()

    def test_refresh_result_tracks_new_data(self):
        engine, iupt, plocs, slocs, _ = _continuous_setup()
        continuous = engine.continuous(iupt)
        sub = continuous.register_flows(slocs, 0.0, 29.0)
        flow_before = sub.result[slocs[0]]
        # Stream an object dwelling in room a within the window.
        iupt.ingest_batch(
            [
                PositioningRecord(9, SampleSet.certain(plocs[3]), t)
                for t in (25.0, 26.0, 27.0)
            ]
        )
        assert sub.result[slocs[0]] > flow_before

    def test_churn_counts_ranking_changes(self):
        graph, matrix, plocs, slocs = _small_space()
        engine = QueryEngine(graph, matrix)
        iupt = _make_table("sharded")
        # One object firmly in room a.
        iupt.ingest_batch(
            [PositioningRecord(1, SampleSet.certain(plocs[3]), t) for t in (1.0, 2.0)]
        )
        continuous = engine.continuous(iupt)
        sub = continuous.register_top_k([slocs[0], slocs[1]], k=1, start=0.0, end=9.0)
        assert sub.top_k_ids() == [slocs[0]]
        # Three objects land in room b: the top-1 flips and churn records it.
        iupt.ingest_batch(
            [
                PositioningRecord(oid, SampleSet.certain(plocs[4]), 5.0)
                for oid in (2, 3, 4)
            ]
        )
        assert sub.top_k_ids() == [slocs[1]]
        assert sub.stats.last_churn == 1
        assert sub.stats.churn_total >= 1

    def test_unregister_and_close_stop_refreshes(self):
        engine, iupt, plocs, slocs, batches = _continuous_setup()
        continuous = engine.continuous(iupt)
        sub = continuous.register_top_k(slocs, k=2, start=0.0, end=SPAN)
        assert continuous.unregister(sub)
        assert not continuous.unregister(sub)
        iupt.ingest_batch(batches[3])
        assert sub.stats.refreshes == 1  # only the registration compute

        kept = continuous.register_top_k(slocs, k=2, start=0.0, end=SPAN)
        continuous.close()
        iupt.ingest_batch(batches[4])
        assert kept.stats.refreshes == 1
        assert iupt.listener_count == 0


# ----------------------------------------------------------------------
# Eviction semantics
# ----------------------------------------------------------------------
class TestContinuousEviction:
    def test_eviction_into_window_marks_subscription(self):
        engine, iupt, plocs, slocs, _ = _continuous_setup()
        continuous = engine.continuous(iupt)
        early = continuous.register_top_k(slocs, k=2, start=0.0, end=19.0)
        late = continuous.register_top_k(slocs, k=2, start=20.0, end=29.0)
        iupt.evict_before(15.0)
        assert not early.active
        assert late.active
        with pytest.raises(EvictedRangeError):
            early.result
        with pytest.raises(EvictedRangeError):
            early.top_k_ids()
        late.result  # still served

    def test_eviction_below_window_does_not_refresh(self):
        engine, iupt, plocs, slocs, _ = _continuous_setup()
        continuous = engine.continuous(iupt)
        late = continuous.register_top_k(slocs, k=2, start=20.0, end=29.0)
        refreshes = late.stats.refreshes
        iupt.evict_before(15.0)  # strictly below the window: token unchanged
        assert late.active
        assert late.stats.refreshes == refreshes

    def test_register_on_evicted_window_raises(self):
        engine, iupt, plocs, slocs, _ = _continuous_setup()
        iupt.evict_before(15.0)
        continuous = engine.continuous(iupt)
        with pytest.raises(EvictedRangeError):
            continuous.register_top_k(slocs, k=2, start=0.0, end=19.0)
        assert not continuous.subscriptions


class TestEvictionCacheInterplayToday:
    """Regression for the ad-hoc (non-continuous) path that exists today:
    a warm presence cache must never mask retention eviction."""

    def test_repeated_top_k_after_eviction_raises_not_stale(self):
        engine, iupt, plocs, slocs, _ = _continuous_setup()
        window = (0.0, 29.0)
        first = engine.top_k(iupt, slocs, k=2, start=window[0], end=window[1])
        assert first.ranking  # the cache is now warm for this window
        assert engine.store.stats.puts > 0

        iupt.evict_before(15.0)
        # The same query again: check_not_evicted fires in the fetch stage
        # before any cached presence can be consulted.
        with pytest.raises(EvictedRangeError):
            engine.top_k(iupt, slocs, k=2, start=window[0], end=window[1])
        # A window above the watermark still answers.
        engine.top_k(iupt, slocs, k=2, start=20.0, end=29.0)


# ----------------------------------------------------------------------
# Storage events (the subscription hook itself)
# ----------------------------------------------------------------------
class TestStoreEvents:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_ingest_event_carries_sorted_object_spans(self, geometry):
        iupt = _make_table(geometry)
        events = []
        iupt.subscribe(events.append)
        iupt.ingest_batch(
            [
                PositioningRecord(5, SampleSet.certain(1), 12.0),
                PositioningRecord(2, SampleSet.certain(1), 3.0),
                PositioningRecord(5, SampleSet.certain(1), 4.0),
            ]
        )
        assert len(events) == 1
        receipt = events[0].receipt
        assert isinstance(events[0], IngestEvent)
        assert receipt.records_ingested == 3
        assert receipt.object_spans == ((2, 3.0, 3.0), (5, 4.0, 12.0))
        assert receipt.objects_overlapping(0.0, 5.0) == {2, 5}
        assert receipt.objects_overlapping(10.0, 20.0) == {5}
        assert receipt.objects_overlapping(20.0, 30.0) == frozenset()

    def test_append_notifies(self):
        iupt = IUPT()
        events = []
        iupt.subscribe(events.append)
        iupt.report(3, SampleSet.certain(1), 7.0)
        assert len(events) == 1
        assert events[0].receipt.object_spans == ((3, 7.0, 7.0),)

    def test_eviction_event_and_unsubscribe(self):
        iupt = IUPT(shard_seconds=10.0)
        iupt.ingest_batch(
            [PositioningRecord(1, SampleSet.certain(1), float(t)) for t in range(30)]
        )
        events = []
        token = iupt.subscribe(events.append)
        iupt.evict_before(15.0)
        assert len(events) == 1
        assert isinstance(events[0], EvictionEvent)
        assert events[0].watermark == 10.0
        assert events[0].records_dropped == 10
        iupt.evict_before(5.0)  # nothing left to drop: no event
        assert len(events) == 1

        assert iupt.unsubscribe(token)
        assert not iupt.unsubscribe(token)
        iupt.ingest_batch([PositioningRecord(1, SampleSet.certain(1), 40.0)])
        assert len(events) == 1


# ----------------------------------------------------------------------
# Push callbacks (the service layer's change hook)
# ----------------------------------------------------------------------
class TestPushCallbacks:
    def test_on_update_fires_after_state_is_applied(self):
        """Ordering contract: when the hook runs, the subscription already
        serves the new result and counts the refresh."""
        engine, iupt, plocs, slocs, batches = _continuous_setup()
        continuous = engine.continuous(iupt)
        observed = []

        def on_change(sub):
            observed.append((sub.stats.refreshes, sub.result, sub.top_k_ids()))

        sub = continuous.register_top_k(slocs, k=2, start=0.0, end=SPAN)
        sub.on_change = on_change
        assert observed == []  # the registration compute is not a refresh
        iupt.ingest_batch(batches[3])
        assert len(observed) == 1
        refreshes, pushed, pushed_ids = observed[0]
        assert refreshes == 2  # registration + this refresh, already counted
        assert pushed is sub.result
        assert pushed_ids == sub.top_k_ids()

    def test_on_update_skipped_refreshes_do_not_fire(self):
        engine, iupt, plocs, slocs, batches = _continuous_setup()
        continuous = engine.continuous(iupt)
        fired = []
        sub = continuous.register_top_k(slocs, k=2, start=0.0, end=19.0)
        sub.on_change = lambda s: fired.append(s.result)
        iupt.ingest_batch(batches[4])  # shard [40, 50): token unchanged
        assert sub.stats.skipped == 1
        assert fired == []
        iupt.ingest_batch(batches[3] or batches[5])  # keep the stream moving
        # Only batches touching [0, 19] fire; this one still does not.
        assert fired == []

    def test_on_update_fires_per_applied_refresh_for_flows(self):
        engine, iupt, plocs, slocs, batches = _continuous_setup()
        continuous = engine.continuous(iupt)
        fired = []
        sub = continuous.register_flows(slocs, 0.0, SPAN)
        sub.on_change = lambda s: fired.append(dict(s.result))
        iupt.ingest_batch(batches[3])
        iupt.ingest_batch(batches[4])
        # The window covers the whole stream, so every batch lands in it: two fires.
        assert len(fired) == 2
        assert fired[-1] == sub.result

    def test_callback_attachable_after_registration(self):
        engine, iupt, plocs, slocs, batches = _continuous_setup()
        continuous = engine.continuous(iupt)
        sub = continuous.register_top_k(slocs, k=2, start=0.0, end=SPAN)
        fired = []
        sub.on_change = lambda s: fired.append(s.sub_id)
        iupt.ingest_batch(batches[3])
        assert fired == [sub.sub_id]

    def test_on_evicted_fires_once_with_the_raised_error(self):
        engine, iupt, plocs, slocs, batches = _continuous_setup()
        continuous = engine.continuous(iupt)
        evictions = []

        def on_change(sub):
            with pytest.raises(EvictedRangeError) as excinfo:
                sub.result
            evictions.append(excinfo.value)

        sub = continuous.register_top_k(slocs, k=2, start=0.0, end=19.0)
        sub.on_change = on_change
        iupt.evict_before(10.0)
        assert len(evictions) == 1
        with pytest.raises(EvictedRangeError) as excinfo:
            sub.result
        assert excinfo.value is evictions[0]
        iupt.evict_before(20.0)  # already dead: no second notification
        assert len(evictions) == 1


# ----------------------------------------------------------------------
# Concurrent ingestion (the service's worker pool does exactly this)
# ----------------------------------------------------------------------
class TestConcurrentIngest:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_concurrent_ingest_threads_keep_standing_results_exact(
        self, geometry
    ):
        """Regression for the unlocked ``_on_event``: several threads calling
        ``ingest_batch`` concurrently must serialise their refreshes — after
        the dust settles every standing result is still bit-identical to a
        fresh full recompute over the final table."""
        import threading

        graph, matrix, plocs, slocs = _small_space()
        engine = QueryEngine(graph, matrix)
        iupt = _make_table(geometry)
        batches = [b for b in _batches(_stream(11, plocs, objects=6, count=120)) if b]
        continuous = engine.continuous(iupt)
        subs = [
            ("top-k", continuous.register_top_k(slocs, k=2, start=0.0, end=SPAN)),
            ("flows", continuous.register_flows(slocs, 0.0, SPAN)),
            ("top-k", continuous.register_top_k(slocs, k=3, start=5.0, end=35.0)),
        ]

        errors = []
        barrier = threading.Barrier(4)

        def ingest(worker: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                for index, batch in enumerate(batches):
                    if index % 4 == worker:
                        iupt.ingest_batch(batch)
            except Exception as error:  # noqa: BLE001 - reported via the list
                errors.append(error)

        threads = [
            threading.Thread(target=ingest, args=(worker,)) for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(iupt) == sum(len(batch) for batch in batches)

        nonzero = 0
        for kind, sub in subs:
            assert sub.active
            nonzero += _check_subscription(engine, iupt, kind, sub)
        assert nonzero > 0, "concurrency test produced only zero flows (vacuous)"
        continuous.close()


class TestConcurrentRegistration:
    def test_concurrent_registrations_mint_unique_subscription_ids(self):
        """Regression: ids were read OUTSIDE the lock before admission, so
        two worker threads registering at once could mint the same sub_id —
        one standing query silently replaced the other, and the durable
        manifest/resume path keys on exactly these ids."""
        import threading

        graph, matrix, plocs, slocs = _small_space()
        engine = QueryEngine(graph, matrix)
        iupt = _make_table("sharded")
        for batch in _batches(_stream(3, plocs, objects=4, count=40)):
            if batch:
                iupt.ingest_batch(batch)
        continuous = engine.continuous(iupt)

        registered = []
        errors = []
        barrier = threading.Barrier(8)

        def register(worker: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                for _ in range(5):
                    registered.append(
                        continuous.register_top_k(slocs, k=2, start=0.0, end=SPAN)
                    )
            except Exception as error:  # noqa: BLE001 - reported via the list
                errors.append(error)

        threads = [
            threading.Thread(target=register, args=(worker,)) for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        ids = [subscription.sub_id for subscription in registered]
        assert len(set(ids)) == len(ids) == 40
        assert len(continuous.subscriptions) == 40  # nothing was replaced
        continuous.close()
