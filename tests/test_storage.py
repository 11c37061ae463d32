"""Tests for the storage layer: shard-geometry equivalence, versioning, eviction.

The property the whole layer hangs on: shard boundaries never change an
answer.  A many-shard table is *indistinguishable* from a one-shard table
(``shard_seconds=1e9``) and from a stable time sort of the arrivals through
every query path — range queries, per-object sequences, flows, and TkPLQ
rankings must be bit-identical — while ingestion versions advance per shard
and window queries prune to overlapping shards.
"""

from __future__ import annotations

import random

import pytest

from repro import IUPT, QueryEngine, SampleSet
from repro.data.records import PositioningRecord
from repro.storage import DurableRecordStore, EvictedRangeError, ShardedRecordStore

#: One shard holds every timestamp the tests use: no boundary can matter.
ONE_SHARD_SECONDS = 1e9


def _record(object_id: int, ploc: int, timestamp: float) -> PositioningRecord:
    return PositioningRecord(object_id, SampleSet.certain(ploc), timestamp)


def _mixed_records(count: int = 120, seed: int = 5):
    """Deterministic records spanning several 10-second shards, with ties."""
    rng = random.Random(seed)
    records = []
    for i in range(count):
        timestamp = round(rng.uniform(0.0, 60.0), 1)  # ties are likely
        records.append(_record(i % 7, (i * 3) % 9, timestamp))
    return records


def _rows(records):
    return [(r.object_id, r.timestamp, r.sample_set) for r in records]


def _sorted_window(arrivals, start, end):
    """The reference model: a stable time sort of the arrivals, filtered."""
    ordered = sorted(arrivals, key=lambda r: r.timestamp)
    return [r for r in ordered if start <= r.timestamp <= end]


class TestStoreEquivalence:
    @pytest.fixture()
    def pair(self):
        one_shard = IUPT.sharded(shard_seconds=ONE_SHARD_SECONDS)
        sharded = IUPT.sharded(shard_seconds=10.0)
        records = _mixed_records()
        one_shard.extend(records)
        sharded.ingest_batch(records)
        assert one_shard.store.shard_count == 1 and sharded.store.shard_count == 6
        return one_shard, sharded

    @pytest.mark.parametrize(
        "window",
        [
            (0.0, 60.0),  # everything
            (9.5, 10.5),  # straddles one shard boundary
            (5.0, 35.0),  # straddles several boundaries
            (10.0, 20.0),  # exactly one shard (inclusive right boundary)
            (17.3, 17.3),  # point query
            (100.0, 200.0),  # empty
        ],
    )
    def test_range_query_identical(self, pair, window):
        one_shard, sharded = pair
        expected = _rows(_sorted_window(_mixed_records(), *window))
        assert _rows(one_shard.range_query(*window)) == expected
        assert _rows(sharded.range_query(*window)) == expected

    def test_streamed_batches_keep_arrival_order_on_ties(self):
        """In-order batches are appended, late ones merged: either way a tie
        on the timestamp keeps the earlier arrival first, as a stable sort does."""
        ordered = sorted(_mixed_records(), key=lambda r: r.timestamp)
        cut = next(  # a batch boundary that splits a tie
            i for i in range(20, len(ordered)) if ordered[i - 1].timestamp == ordered[i].timestamp
        )
        late = [_record(9, 1, ordered[cut].timestamp), _record(9, 2, 0.0)]
        batches = [ordered[:cut], ordered[cut:cut + 1], ordered[cut + 1:], late]
        one_shard = IUPT.sharded(shard_seconds=ONE_SHARD_SECONDS)
        sharded = IUPT.sharded(shard_seconds=10.0)
        for batch in batches:
            one_shard.extend(batch)
            sharded.ingest_batch(batch)
        arrivals = [record for batch in batches for record in batch]
        expected = _rows(_sorted_window(arrivals, 0.0, 60.0))
        assert _rows(sharded.range_query(0.0, 60.0)) == expected
        assert _rows(one_shard.range_query(0.0, 60.0)) == expected
        assert _rows(sharded.records) == _rows(one_shard.records) == expected

    def test_sequences_identical_across_boundaries(self, pair):
        one_shard, sharded = pair
        for window in ((0.0, 60.0), (9.0, 31.0), (19.9, 20.1)):
            expected = {}
            for record in _sorted_window(_mixed_records(), *window):
                expected.setdefault(record.object_id, []).append(record.sample_set)
            expected = dict(sorted(expected.items()))
            for table in (one_shard, sharded):
                sequences = table.sequences_in(*window)
                assert sequences == expected
                assert list(sequences) == list(expected)  # ascending object id

    def test_introspection_matches(self, pair):
        one_shard, sharded = pair
        records = _mixed_records()
        stamps = [r.timestamp for r in records]
        for table in (one_shard, sharded):
            assert len(table) == len(records)
            assert table.object_ids() == sorted({r.object_id for r in records})
            assert table.time_span() == (min(stamps), max(stamps))
            assert table.summary()["records"] == len(records)

    def test_transformations_preserve_store_kind(self, pair):
        _, sharded = pair
        truncated = sharded.with_max_sample_set_size(1)
        filtered = sharded.filtered_to_objects([0, 1])
        # Exact types: a durable store is a ShardedRecordStore too.
        assert type(truncated.store) is ShardedRecordStore
        assert type(filtered.store) is ShardedRecordStore
        assert truncated.store.shard_seconds == sharded.store.shard_seconds
        assert filtered.object_ids() == [0, 1]

    def test_sharded_tables_report_one_fixed_index_label(self, pair):
        # The store's only index is its sorted timestamp columns; the label
        # is read-only and nothing takes an index choice any more.
        label = "timestamp-column"
        for table in (*pair, IUPT()):
            assert table.index_kind == table.store.describe()["index_kind"] == label
            assert table.filtered_to_objects([0]).index_kind == label
        with pytest.raises(TypeError):
            ShardedRecordStore(index_kind="1dr-tree")
        with pytest.raises(TypeError):
            IUPT.sharded(index_kind="1dr-tree")
        with pytest.raises(TypeError):
            IUPT(index_kind="1dr-tree")


class TestShardedStore:
    def test_shard_pruning_probes_only_overlapping_shards(self):
        store = ShardedRecordStore(shard_seconds=10.0)
        store.ingest_batch([_record(1, 1, float(t)) for t in range(0, 60)])
        assert store.shard_count == 6
        assert store.overlapping_shard_keys(25.0, 34.9) == [2, 3]
        before = store.shards_probed
        store.range_query(25.0, 34.9)
        assert store.shards_probed - before == 2

    def test_batch_slices_bump_only_touched_shards(self):
        store = ShardedRecordStore(shard_seconds=10.0)
        store.ingest_batch([_record(1, 1, float(t)) for t in (1.0, 11.0, 21.0)])
        assert store.shard_versions() == {0: 1, 1: 1, 2: 1}
        receipt = store.ingest_batch([_record(2, 2, 15.0), _record(2, 2, 16.0)])
        assert receipt.shards_touched == (1,)
        assert store.shard_versions() == {0: 1, 1: 2, 2: 1}

    def test_version_token_scoped_to_window(self):
        store = ShardedRecordStore(shard_seconds=10.0)
        store.ingest_batch([_record(1, 1, 5.0), _record(1, 1, 15.0)])
        early = store.version_token(0.0, 9.0)
        late = store.version_token(10.0, 19.0)
        store.ingest_batch([_record(2, 2, 17.0)])
        assert store.version_token(0.0, 9.0) == early
        assert store.version_token(10.0, 19.0) != late

    def test_new_shard_invalidates_window_that_now_overlaps_it(self):
        store = ShardedRecordStore(shard_seconds=10.0)
        store.ingest_batch([_record(1, 1, 5.0)])
        token = store.version_token(0.0, 25.0)
        store.ingest_batch([_record(2, 2, 15.0)])
        assert store.version_token(0.0, 25.0) != token

    def test_tokens_differ_between_instances(self):
        a = ShardedRecordStore(shard_seconds=10.0)
        b = ShardedRecordStore(shard_seconds=10.0)
        record = _record(1, 1, 5.0)
        a.ingest_batch([record])
        b.ingest_batch([record])
        assert a.version_token() != b.version_token()

    def test_negative_timestamps_shard_correctly(self):
        store = ShardedRecordStore(shard_seconds=10.0)
        store.ingest_batch([_record(1, 1, -5.0), _record(1, 2, 5.0)])
        assert [r.timestamp for r in store.range_query(-10.0, 0.0)] == [-5.0]
        assert len(store.range_query(-10.0, 10.0)) == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShardedRecordStore(shard_seconds=0.0)


class TestEviction:
    def _store(self) -> ShardedRecordStore:
        store = ShardedRecordStore(shard_seconds=10.0)
        store.ingest_batch([_record(1, 1, float(t)) for t in range(0, 50)])
        return store

    def test_evicts_whole_shards_only(self):
        store = self._store()
        dropped = store.evict_before(25.0)  # shards [0,10) and [10,20) go
        assert dropped == 20
        assert store.eviction_watermark == 20.0
        assert len(store) == 30

    def test_query_into_evicted_range_raises(self):
        store = self._store()
        store.evict_before(25.0)
        with pytest.raises(EvictedRangeError) as excinfo:
            store.range_query(5.0, 45.0)
        assert "evicted" in str(excinfo.value)
        # Queries entirely above the watermark still work.
        assert len(store.range_query(20.0, 45.0)) == 26

    def test_flow_on_evicted_window_raises_not_partial(self):
        """An engine query reaching evicted history fails loudly.

        A silently partial flow would look exactly like a small real flow;
        the storage layer must make the truncation impossible to miss.
        """
        iupt, engine = _figure_like_table()
        iupt.evict_before(15.0)
        with pytest.raises(EvictedRangeError):
            engine.flow(iupt, 0, 0.0, 30.0)
        # A window in the surviving range still answers.
        engine.flow(iupt, 0, 20.0, 30.0)

    def test_refilling_evicted_range_rejected(self):
        store = self._store()
        store.evict_before(25.0)
        with pytest.raises(ValueError):
            store.ingest_batch([_record(9, 1, 5.0)])

    def test_eviction_below_a_window_keeps_its_token(self):
        """Routine retention must not invalidate cached windows above it."""
        store = self._store()
        token = store.version_token(30.0, 45.0)
        store.evict_before(25.0)
        assert store.version_token(30.0, 45.0) == token


class TestEvictionBoundaryParity:
    """The retention boundary contract of ``storage/base.py``, across geometries.

    With the cut-off exactly on a shard boundary the store honours the
    exclusive cut-off exactly, whatever the shard duration: a record with
    ``timestamp == cutoff`` always survives, the watermark lands on the
    cut-off, a window starting exactly at the watermark never raises, and the
    survivors are the stable time sort of the arrivals at or above it.
    """

    CUTOFF = 20.0  # a shard boundary for every duration below

    def _arrivals(self):
        records = [_record(1, 1, float(t)) for t in range(0, 40, 2)]
        return records + [_record(2, 3, self.CUTOFF)]  # timestamp == cutoff

    def _pair(self):
        stores = (
            ShardedRecordStore(shard_seconds=10.0),
            ShardedRecordStore(shard_seconds=4.0),
        )
        for store in stores:
            store.ingest_batch(self._arrivals())
        return stores

    def test_record_at_cutoff_survives_on_both(self):
        for store in self._pair():
            dropped = store.evict_before(self.CUTOFF)
            assert dropped == 10  # strictly-below records only
            survivors = [r.timestamp for r in store.records_in_time_order()]
            assert min(survivors) == self.CUTOFF
            assert sum(1 for t in survivors if t == self.CUTOFF) == 2

    def test_watermark_and_boundary_queries_identical(self):
        for store in self._pair():
            store.evict_before(self.CUTOFF)
            assert store.eviction_watermark == self.CUTOFF
            # A window starting exactly at the watermark must not raise …
            at_watermark = store.range_query(self.CUTOFF, 40.0)
            assert [r.timestamp for r in at_watermark][0] == self.CUTOFF
            # … while one epsilon below must.
            with pytest.raises(EvictedRangeError):
                store.range_query(self.CUTOFF - 1e-9, 40.0)

    def test_post_eviction_answers_identical(self):
        stores = self._pair()
        for store in stores:
            store.evict_before(self.CUTOFF)
        survivors = [r for r in self._arrivals() if r.timestamp >= self.CUTOFF]
        for window in ((20.0, 40.0), (20.0, 20.0), (25.0, 31.0)):
            expected = _rows(_sorted_window(survivors, *window))
            for store in stores:
                assert _rows(store.range_query(*window)) == expected

    def test_ingest_at_watermark_accepted_below_rejected_on_both(self):
        for store in self._pair():
            store.evict_before(self.CUTOFF)
            store.ingest_batch([_record(7, 1, self.CUTOFF)])  # at watermark: ok
            with pytest.raises(ValueError):
                store.ingest_batch([_record(7, 1, self.CUTOFF - 0.5)])


class TestEmptyBatchParity:
    """An empty ``ingest_batch`` must be a no-op on every store.

    Neither the sharded store nor its durable subclass (the batch
    short-circuits before the WAL) may bump any version token, fire events,
    or trigger continuous refreshes.
    """

    @pytest.fixture(params=["sharded", "durable"])
    def store(self, request, tmp_path):
        if request.param == "sharded":
            yield ShardedRecordStore(shard_seconds=10.0)
        else:
            with DurableRecordStore(tmp_path / "db", shard_seconds=10.0) as store:
                yield store

    def test_no_version_bump_no_events(self, store):
        store.ingest_batch([_record(1, 1, 5.0)])
        events = []
        store.subscribe(events.append)
        token = store.version_token()
        receipt = store.ingest_batch([])
        assert receipt.records_ingested == 0
        assert receipt.shards_touched == ()
        assert receipt.object_spans == ()
        assert store.version_token() == token
        assert events == []

    def test_no_continuous_refresh(self, store):
        iupt, engine = _figure_like_table(store)
        continuous = engine.continuous(iupt)
        subscription = continuous.register_top_k([0, 1], 1, 0.0, 30.0)
        refreshes = subscription.stats.refreshes
        iupt.ingest_batch([])
        assert subscription.stats.refreshes == refreshes
        assert subscription.stats.skipped == 0  # not even a skipped event
        continuous.close()


class TestBatchVersioning:
    def test_ingest_receipt_reports_touched_shards(self):
        iupt = IUPT.sharded(shard_seconds=10.0)
        receipt = iupt.ingest_batch(
            [_record(1, 1, 5.0), _record(1, 1, 15.0), _record(1, 1, 17.0)]
        )
        assert receipt.records_ingested == 3
        assert receipt.shards_touched == (0, 1)


def _figure_like_table(store=None):
    """A tiny two-room space plus an engine, for storage/engine integration.

    The table sits on ``store`` (default: a sharded store of 10-second shards).
    """
    from repro import FloorPlan, PartitionKind, Point, Rect
    from repro.space import IndoorLocationMatrix, IndoorSpaceLocationGraph

    plan = FloorPlan()
    room = plan.add_partition(Rect(0, 0, 6, 6), PartitionKind.ROOM, name="room")
    hall = plan.add_partition(Rect(0, 6, 12, 10), PartitionKind.HALLWAY, name="hall")
    door = plan.add_door(Point(3.0, 6.0), (room, hall))
    door_ploc = plan.add_partitioning_plocation(Point(3.0, 6.0), door)
    room_ploc = plan.add_presence_plocation(Point(3.0, 3.0), room)
    hall_ploc = plan.add_presence_plocation(Point(9.0, 8.0), hall)
    for partition in (room, hall):
        plan.add_slocation_for_partition(partition)
    plan.freeze()
    graph = IndoorSpaceLocationGraph.from_floorplan(plan)
    matrix = IndoorLocationMatrix.from_graph(graph).merged(graph)
    engine = QueryEngine(graph, matrix)

    iupt = IUPT(store=store) if store is not None else IUPT.sharded(shard_seconds=10.0)
    for t in range(0, 30, 2):
        ploc = room_ploc if (t // 10) % 2 == 0 else hall_ploc
        iupt.report(1, SampleSet.from_pairs([(ploc, 0.7), (door_ploc, 0.3)]), float(t))
    return iupt, engine


class TestShardGranularInvalidation:
    """Regression: one ingest_batch invalidates at most the overlapping entries."""

    def test_ingest_preserves_cache_hits_for_non_overlapping_windows(self):
        iupt, engine = _figure_like_table()
        early, late = (0.0, 9.0), (20.0, 29.0)

        engine.flow(iupt, 0, *early)
        engine.flow(iupt, 0, *late)
        warm_baseline = engine.store.stats.hits
        engine.flow(iupt, 0, *early)
        assert engine.store.stats.hits > warm_baseline  # cache is warm

        # Stream a batch into the late shard only.
        iupt.ingest_batch(
            [_record(1, 1, 25.0)]
        )

        hits_before = engine.store.stats.hits
        misses_before = engine.store.stats.misses
        early_again = engine.flow(iupt, 0, *early)
        assert engine.store.stats.hits > hits_before, (
            "a batch touching only the late shard must not invalidate the "
            "early window's cached presences"
        )
        assert engine.store.stats.misses == misses_before
        del early_again

        # The overlapping window, by contrast, must recompute.
        misses_before = engine.store.stats.misses
        engine.flow(iupt, 0, *late)
        assert engine.store.stats.misses > misses_before


class TestEngineEquivalenceOnScenario:
    """Many-shard, one-shard and default scenarios answer TkPLQ bit-identically."""

    def test_rankings_bit_identical_across_stores(self, small_real_scenario):
        scenario = small_real_scenario
        reference = IUPT.sharded(shard_seconds=ONE_SHARD_SECONDS)
        reference.ingest_batch(scenario.iupt.records)
        sharded_iupt = IUPT.sharded(shard_seconds=60.0)
        sharded_iupt.ingest_batch(scenario.iupt.records)
        assert reference.store.shard_count == 1 and sharded_iupt.store.shard_count > 3
        tables = (scenario.iupt, sharded_iupt)

        slocs = scenario.slocation_ids()
        # Windows chosen to straddle the 60-second shard boundaries.
        windows = [(30.0, 90.0), (0.0, 240.0), (59.0, 61.0)]
        for window in windows:
            expected = scenario.system.flows(reference, slocs, *window)
            for table in tables:
                assert scenario.system.flows(table, slocs, *window) == expected

        for algorithm in ("naive", "nested-loop", "best-first"):
            expected = scenario.system.top_k(
                reference, slocs, k=3, start=30.0, end=90.0, algorithm=algorithm
            )
            for table in tables:
                result = scenario.system.top_k(
                    table, slocs, k=3, start=30.0, end=90.0, algorithm=algorithm
                )
                assert result.top_k_ids() == expected.top_k_ids()
                assert [e.flow for e in result.ranking] == [
                    e.flow for e in expected.ranking
                ]
