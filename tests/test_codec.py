"""The packed binary codec and the engine's one accumulation.

Three contracts under test:

* **round-trip bit-identity** — record → packed bytes → record preserves
  every object id, timestamp and probability bit-exactly (hypothesis sweeps
  duplicate-ploc merging, ``normalise=True`` rescaling, sample-set
  truncation and float edge values through the same path);
* **the engine's answer is a direct fold** — flows, rankings and
  ``flow_evaluations`` of the batch, ``flows``, continuous and
  single-query paths equal, *bitwise* (``struct``-compared), one
  left-to-right sum per S-location over the window's artefacts in fetch
  order, on as-built, sharded and continuous tables; so does the
  :class:`~repro.codec.kernels.PresenceMatrix` that ``bench/`` still times;
* **durable-store codec compatibility** — binary WAL segments and
  snapshots recover bit-identically (including through the fault-injection
  crash harness), directories holding the JSON record frames of older builds
  (``tests/json_era_store.py`` writes them by hand) stay recoverable, and a
  segment they started keeps growing with binary frames.
"""

from __future__ import annotations

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IUPT, SampleSet
from repro.codec import (
    PackedRecordBatch,
    PresenceMatrix,
    codec_info,
    decode_batch,
    encode_batch,
)
from repro.data.records import PositioningRecord, Sample
from repro.engine import BatchPlanner, QueryEngine
from repro.engine.batch import score_query_over_entries
from repro.engine.stages import accumulate_flows_over_entries
from repro.core.query import SearchStats, TkPLQuery, rank_top_k
from repro.experiments.runner import overlapping_queries
from repro.storage.durable import (
    DurabilityConfig,
    DurableRecordStore,
    SimulatedCrashError,
)
from repro.storage.wal import (
    decode_wal_frames,
    _legacy_json_records,
    encode_segment_frame,
    encode_wal_frame,
)
from tests.json_era_store import json_payloads, write_json_era_directory
from tests.test_codec_oracle import ARRAY_ID


def bits(value: float) -> bytes:
    """The raw IEEE-754 representation — equality means *bit* equality."""
    return struct.pack("<d", value)


def records_equal_bitwise(left, right) -> bool:
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if a.object_id != b.object_id or bits(a.timestamp) != bits(b.timestamp):
            return False
        if len(a.sample_set) != len(b.sample_set):
            return False
        for sa, sb in zip(a.sample_set, b.sample_set):
            if sa.ploc_id != sb.ploc_id or bits(sa.prob) != bits(sb.prob):
                return False
    return True


def make_records(count: int = 10):
    records = []
    for i in range(count):
        pairs = [(j, 1.0 / (2 + i % 3)) for j in range(2 + i % 3)]
        records.append(
            PositioningRecord(
                i % 4,
                SampleSet.from_pairs(pairs, normalise=True),
                0.5 + i * 1.25,
            )
        )
    return records


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestPackedRoundTrip:
    @ARRAY_ID
    def test_round_trip_bit_identical(self, _container):
        records = make_records(25)
        assert records_equal_bitwise(records, decode_batch(encode_batch(records)))

    @ARRAY_ID
    def test_empty_batch(self, _container):
        batch = PackedRecordBatch.decode(encode_batch([]))
        assert len(batch) == 0
        assert batch.to_records() == []

    def test_reencode_is_byte_stable(self):
        records = make_records(15)
        blob = encode_batch(records)
        assert encode_batch(decode_batch(blob)) == blob

    def test_decode_rejects_corruption(self):
        blob = encode_batch(make_records(5))
        with pytest.raises(ValueError):
            PackedRecordBatch.decode(blob[: len(blob) - 3])
        with pytest.raises(ValueError):
            PackedRecordBatch.decode(b"XXXX" + blob[4:])
        with pytest.raises(ValueError):
            PackedRecordBatch.decode(blob[:4] + b"\x09" + blob[5:])

    def test_timestamps_list_matches_records(self):
        records = make_records(9)
        batch = PackedRecordBatch.from_records(records)
        assert batch.timestamps_list() == [r.timestamp for r in records]

    def test_codec_info_shape(self):
        assert codec_info() == {"codec_version": 1}


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
probs = st.one_of(
    st.floats(min_value=1e-9, max_value=1.0, allow_nan=False, width=64),
    st.sampled_from([5e-324, 1e-300, 0.25, 1.0 / 3.0, 0.9999999999999999]),
)


@st.composite
def record_batches(draw):
    size = draw(st.integers(min_value=0, max_value=12))
    records = []
    for _ in range(size):
        count = draw(st.integers(min_value=1, max_value=6))
        # Non-unique on purpose: SampleSet merges duplicate p-locations.
        plocs = draw(
            st.lists(
                st.integers(min_value=0, max_value=8), min_size=count, max_size=count
            )
        )
        weights = draw(st.lists(probs, min_size=count, max_size=count))
        sample_set = SampleSet.from_pairs(list(zip(plocs, weights)), normalise=True)
        truncate = draw(st.integers(min_value=0, max_value=3))
        if truncate:
            sample_set = sample_set.truncated(truncate)
        records.append(
            PositioningRecord(
                draw(st.integers(min_value=0, max_value=2**40)),
                sample_set,
                draw(finite_floats),
            )
        )
    return records


class TestPackedProperties:
    @ARRAY_ID
    @given(records=record_batches())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, records, _container):
        assert records_equal_bitwise(decode_batch(encode_batch(records)), records)

    @given(records=record_batches())
    @settings(max_examples=40, deadline=None)
    def test_packed_matches_json_payload_semantics(self, records):
        # The codec and the reader of JSON-era WAL payloads must rebuild the
        # exact same records: both go through Sample(int, float) into SampleSet.
        via_json = _legacy_json_records(json.loads(json.dumps(json_payloads(records))))
        via_packed = decode_batch(encode_batch(records))
        assert records_equal_bitwise(via_json, via_packed)


# ----------------------------------------------------------------------
# The engine's accumulation: every answer equals a direct fold
# ----------------------------------------------------------------------
def flows_bitwise_equal(left, right) -> bool:
    if set(left) != set(right):
        return False
    return all(bits(left[sloc]) == bits(right[sloc]) for sloc in left)


def window_entries(engine, iupt, slocs, start, end):
    """One window's per-object artefacts and what a fold reads beside them."""
    pipeline = engine.pipeline
    ctx = pipeline.context((start, end), frozenset(slocs))
    sequences = pipeline.fetch.run(ctx, iupt)
    graph = pipeline.flow_computer.graph
    parent_cells = {sloc: graph.parent_cell(sloc) for sloc in slocs}
    return pipeline.presences(ctx, sequences), parent_cells, len(sequences)


def direct_fold(entries, slocs, parent_cells):
    """Equation 2 as written: per S-location, one left-to-right sum of the
    presences of the objects that may have visited it, in fetch order.

    Location-major where the engine is object-major, so this is another loop
    nest over the same additions.
    """
    flows, evaluations = {}, 0
    for sloc in slocs:
        total = 0.0
        for _object_id, entry in entries:
            if entry.pruned or sloc not in entry.psls:
                continue
            evaluations += 1
            total += entry.computation.presence_in_cell(parent_cells[sloc])
        flows[sloc] = total
    return flows, evaluations


def assert_flows_are_the_fold(entries, slocs, parent_cells, expected=None):
    """``accumulate_flows_over_entries``, the matrix ``bench/`` times and the
    direct fold: same bits, same evaluations; ``expected`` is the engine's."""
    folded, evaluations = direct_fold(entries, slocs, parent_cells)
    stats = SearchStats()
    flows = accumulate_flows_over_entries(entries, slocs, parent_cells, stats)
    assert flows_bitwise_equal(flows, folded)
    assert stats.flow_evaluations == evaluations
    matrix_flows, matrix_evaluations = PresenceMatrix(
        entries, slocs, parent_cells
    ).accumulate_flows(slocs)
    assert flows_bitwise_equal(matrix_flows, folded)
    assert matrix_evaluations == evaluations
    if expected is not None:
        assert flows_bitwise_equal(expected, folded)


def assert_query_is_the_fold(query, entries, parent_cells, objects_total, expected):
    """``score_query_over_entries`` and the engine's own answer (``expected``)
    against the direct fold: flows, ranking, ``flow_evaluations`` and the
    window's ``objects_total``."""
    folded, evaluations = direct_fold(entries, query.query_slocations, parent_cells)
    ranking = [ranked.sloc_id for ranked in rank_top_k(folded, query.k)]
    scored = score_query_over_entries(query, entries, parent_cells)
    for result in (scored, expected):
        assert flows_bitwise_equal(result.flows, folded)
        assert result.top_k_ids() == ranking
        assert result.stats.flow_evaluations == evaluations
        assert result.stats.objects_total == objects_total


def scenario_engine(scenario) -> QueryEngine:
    return QueryEngine(scenario.system.graph, scenario.system.matrix)


class TestVectorizedKernels:
    """The engine has one accumulation and no kernel to pick (the class keeps
    the name it had while there were two): each test compares what the
    engine answered with :func:`direct_fold` over the same window."""

    @ARRAY_ID
    def test_matrix_kernels_match_scalar_on_figure1(
        self, figure1, figure1_iupt, _container
    ):
        engine = QueryEngine(figure1["graph"], figure1["matrix"])
        slocs = sorted(figure1["slocs"].values())
        entries, parent_cells, _ = window_entries(engine, figure1_iupt, slocs, 1.0, 8.0)
        for subset in (slocs, slocs[:3], slocs[2:5]):
            assert_flows_are_the_fold(entries, subset, parent_cells)
        # A matrix answers for the rows it was built with, any order or subset.
        matrix = PresenceMatrix(entries, slocs, parent_cells)
        folded, evaluations = direct_fold(entries, slocs[4:1:-1], parent_cells)
        flows, counted = matrix.accumulate_flows(slocs[4:1:-1])
        assert flows_bitwise_equal(flows, folded) and counted == evaluations

    def test_the_kernel_keyword_selects_nothing(self, figure1, figure1_iupt):
        engine = QueryEngine(figure1["graph"], figure1["matrix"])
        slocs = sorted(figure1["slocs"].values())
        entries, parent_cells, _ = window_entries(engine, figure1_iupt, slocs, 1.0, 8.0)
        kernel = engine.config.resolved_scoring_kernel
        assert kernel == "scalar"
        spelled = accumulate_flows_over_entries(
            entries, slocs, parent_cells, SearchStats(), kernel=kernel
        )
        plain = accumulate_flows_over_entries(entries, slocs, parent_cells, SearchStats())
        assert flows_bitwise_equal(spelled, plain)
        with pytest.raises(ValueError, match="scoring kernel"):
            accumulate_flows_over_entries(
                entries, slocs, parent_cells, SearchStats(), kernel="matrix"
            )

    def test_batched_queries_bit_identical_across_kernels(self, small_real_scenario):
        scenario = small_real_scenario
        queries = overlapping_queries(
            scenario, count=6, k=3, q_fraction=0.5, delta_seconds=120.0, seed=7
        )
        report = scenario_engine(scenario).batch(scenario.iupt, queries)
        assert report.groups == 1
        union = sorted({sloc for query in queries for sloc in query.query_slocations})
        entries, parent_cells, objects_total = window_entries(
            scenario_engine(scenario), scenario.iupt, union, *queries[0].interval
        )
        for query, batched in zip(queries, report.results):
            assert_query_is_the_fold(
                query, entries, parent_cells, objects_total, batched
            )

    @pytest.mark.parametrize("table", ["as-built", "sharded"])
    def test_flows_for_all_bit_identical_across_kernels(
        self, small_real_scenario, table
    ):
        scenario = small_real_scenario
        if table == "sharded":
            iupt = IUPT.sharded(shard_seconds=60.0)
            iupt.ingest_batch(scenario.iupt.records)
        else:
            iupt = scenario.iupt
        slocs = scenario.slocation_ids()
        start, end = scenario.query_interval(delta_seconds=180.0)
        entries, parent_cells, _ = window_entries(
            scenario_engine(scenario), iupt, slocs, start, end
        )
        stats = SearchStats()
        expected = scenario_engine(scenario).pipeline.flows_for_all(
            iupt, slocs, start, end, stats=stats
        )
        assert_flows_are_the_fold(entries, slocs, parent_cells, expected=expected)
        assert stats.flow_evaluations == direct_fold(entries, slocs, parent_cells)[1]

    def test_continuous_results_bit_identical_across_kernels(
        self, small_real_scenario
    ):
        scenario = small_real_scenario
        records = sorted(scenario.iupt.records, key=lambda r: r.timestamp)
        half = len(records) // 2
        slocs = scenario.slocation_ids()
        start, end = records[0].timestamp, records[-1].timestamp
        iupt = IUPT.sharded(shard_seconds=60.0)
        iupt.ingest_batch(records[:half])
        continuous = scenario_engine(scenario).continuous(iupt)
        top = continuous.register_top_k(slocs, 3, start, end)
        flo = continuous.register_flows(slocs[:4], start, end)
        iupt.ingest_batch(records[half:])
        continuous.close()

        entries, parent_cells, objects_total = window_entries(
            scenario_engine(scenario), iupt, slocs, start, end
        )
        assert_query_is_the_fold(
            top.query, entries, parent_cells, objects_total, top.result
        )
        entries, parent_cells, _ = window_entries(
            scenario_engine(scenario), iupt, slocs[:4], start, end
        )
        assert_flows_are_the_fold(entries, slocs[:4], parent_cells, flo.result)

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=15, deadline=None)
    def test_property_random_queries_bit_identical(
        self, figure1, figure1_iupt, seed
    ):
        import random

        rng = random.Random(seed)
        slocs = sorted(figure1["slocs"].values())
        chosen = rng.sample(slocs, rng.randint(1, len(slocs)))
        k = rng.randint(1, len(chosen))
        start = rng.uniform(0.0, 4.0)
        end = start + rng.uniform(0.5, 6.0)
        query = TkPLQuery(tuple(chosen), k, start, end)
        engine = QueryEngine(figure1["graph"], figure1["matrix"])
        report = BatchPlanner(engine.pipeline).execute(figure1_iupt, [query])
        entries, parent_cells, objects_total = window_entries(
            engine, figure1_iupt, chosen, start, end
        )
        assert_query_is_the_fold(
            query, entries, parent_cells, objects_total, report.results[0]
        )


# ----------------------------------------------------------------------
# Durable store: binary WAL + snapshots, mixed-codec recovery, crash harness
# ----------------------------------------------------------------------
def _stream(num_objects=6, ticks=40, period=7.5):
    records = []
    for tick in range(ticks):
        for obj in range(num_objects):
            t = tick * period + obj * 0.01
            pairs = [(obj % 5, 0.25), ((obj + tick) % 5 + 5, 0.75)]
            records.append(
                PositioningRecord(obj, SampleSet.from_pairs(pairs), t)
            )
    return records


def _batches(records, size=30):
    return [records[i : i + size] for i in range(0, len(records), size)]


class TestDurableBinaryCodec:
    def test_binary_segments_and_snapshots_recover_bit_identically(self, tmp_path):
        records = _stream()
        oracle = IUPT.sharded(shard_seconds=120.0)
        store = DurableRecordStore(tmp_path / "t", shard_seconds=120.0)
        for batch in _batches(records):
            store.ingest_batch(batch)
            oracle.ingest_batch(batch)
        store.checkpoint()  # binary snapshots
        store.ingest_batch(records[-1:])  # plus one binary segment frame
        oracle.ingest_batch(records[-1:])
        tokens = store.version_token()
        store.close()

        recovered = DurableRecordStore(tmp_path / "t")
        assert records_equal_bitwise(
            recovered.records_in_time_order(), oracle.store.records_in_time_order()
        )
        assert recovered.version_token() == tokens
        recovered.close()

    def test_snapshot_recovery_is_lazy_until_queried(self, tmp_path):
        records = _stream()
        with DurableRecordStore(tmp_path / "t", shard_seconds=120.0) as store:
            store.ingest_batch(records)
            store.checkpoint()
            span = store.time_span()
            total = len(store)
            tokens = store.version_token()

        recovered = DurableRecordStore(tmp_path / "t")
        report = recovered.recovery_report
        assert report["shards_loaded_lazily"] == recovered.shard_count > 0
        # Introspection that needs no record objects keeps shards packed.
        assert len(recovered) == total
        assert recovered.time_span() == span
        assert recovered.unmaterialised_shard_count() == recovered.shard_count
        assert recovered.describe()["records_materialised"] == 0
        # A window probe builds exactly the records it returns...
        first = recovered.range_query(0.0, 59.0)
        in_shard = sum(1 for r in records if r.timestamp < 120.0)
        assert records_equal_bitwise(first, [r for r in records if r.timestamp <= 59.0])
        summary = recovered.describe()
        assert summary["records_materialised"] == len(first) < in_shard
        assert summary["shards_unmaterialised"] == recovered.shard_count
        # ...once: the same probe again returns the same objects and builds none.
        again = recovered.range_query(0.0, 59.0)
        assert len(again) == len(first) and all(a is b for a, b in zip(first, again))
        assert recovered.describe()["records_materialised"] == len(first)
        assert recovered.version_token() == tokens
        # A wider window fills only what is missing; a shard with no record
        # left packed-only stops counting as unmaterialised.
        results = recovered.range_query(0.0, 119.0)
        assert [r.timestamp for r in results] == [
            r.timestamp for r in records if r.timestamp <= 119.0
        ]
        assert all(a is b for a, b in zip(first, results))
        assert recovered.describe()["records_materialised"] == in_shard
        assert recovered.unmaterialised_shard_count() == recovered.shard_count - 1
        # A later full read equals the table that was written, bit for bit.
        assert records_equal_bitwise(recovered.records_in_time_order(), records)
        assert recovered.describe()["records_materialised"] == total
        assert recovered.unmaterialised_shard_count() == 0
        recovered.close()

    def test_old_json_directory_recovers_under_binary_default(self, tmp_path):
        records = _stream()
        batches = _batches(records)
        # The stream as this build writes it: the expected rows, versions, tokens.
        with DurableRecordStore(tmp_path / "new", shard_seconds=120.0) as store:
            for batch in batches:
                store.ingest_batch(batch)
            store.checkpoint()
            store.ingest_batch(records[-2:])
            expected = store.records_in_time_order()
            versions, tokens = store.shard_versions(), store.version_token()
            uid = store.uid
        # ... and as an older build left it: JSON snapshots plus a JSON tail.
        write_json_era_directory(
            tmp_path / "t", 120.0, batches + [records[-2:]], len(batches), uid=uid
        )

        recovered = DurableRecordStore(tmp_path / "t")
        report = recovered.recovery_report
        assert report["shards_from_snapshot"] == len(versions)
        assert report["frames_replayed"] == 1 and report["shards_loaded_lazily"] < len(versions)
        assert records_equal_bitwise(recovered.records_in_time_order(), expected)
        assert recovered.shard_versions() == versions
        assert recovered.version_token() == tokens
        # A checkpoint rewrites the shard the tail touched, and writes it
        # binary; the untouched JSON snapshots stay as they are, and readable.
        recovered.checkpoint()
        recovered.close()
        forms = {}
        for snapshot in (tmp_path / "t" / "snapshots").glob("shard-*.snap"):
            (frame,), _ = decode_wal_frames(snapshot.read_bytes())
            forms[frame["shard"]] = "packed" if "packed" in frame else "json"
        tail_shard = max(versions)
        assert forms == {key: "packed" if key == tail_shard else "json" for key in versions}
        with DurableRecordStore(tmp_path / "t") as reopened:
            assert records_equal_bitwise(reopened.records_in_time_order(), expected)
            assert reopened.version_token() == tokens

    def test_mixed_codec_segments_recover(self, tmp_path):
        """A JSON-era directory with segments opens to the same table and is
        canonicalised by that open: its JSON frames are folded into binary
        snapshots, so the ``RSG1`` frames appended next never share a segment
        with them — no ``.wal`` file is left holding a JSON frame."""
        records = _stream(num_objects=4, ticks=20)
        half = len(records) // 2
        wal = tmp_path / "t" / "wal"
        # One shard: the older build's frame and ours would share one segment.
        write_json_era_directory(tmp_path / "t", 1e9, [records[:half]])
        (frame,), _ = decode_wal_frames(next(wal.glob("segment-*.wal")).read_bytes())
        assert "records" in frame and "packed" not in frame  # JSON era
        store = DurableRecordStore(tmp_path / "t")
        assert store.recovery_report["frames_replayed"] == 1
        assert records_equal_bitwise(
            store.records_in_time_order(),
            sorted(records[:half], key=lambda r: r.timestamp),
        )
        assert not list(wal.glob("segment-*.wal"))  # folded into a snapshot ...
        snapshot = tmp_path / "t" / "snapshots" / "shard-0.snap"
        (frame,), _ = decode_wal_frames(snapshot.read_bytes())
        assert "packed" in frame and frame["version"] == 1  # ... a binary one
        store.ingest_batch(records[half:])
        expected = store.records_in_time_order()
        assert records_equal_bitwise(expected, sorted(records, key=lambda r: r.timestamp))
        assert store.shard_versions() == {0: 2}
        store.close()

        frames, _ = decode_wal_frames(next(wal.glob("segment-*.wal")).read_bytes())
        assert ["packed" in frame for frame in frames] == [True]  # RSG1 only

        recovered = DurableRecordStore(tmp_path / "t")
        assert records_equal_bitwise(recovered.records_in_time_order(), expected)
        assert recovered.shard_versions() == {0: 2}
        recovered.close()

    def test_binary_frame_torn_tail_is_truncated(self, tmp_path):
        records = _stream(num_objects=3, ticks=6)
        frame = encode_segment_frame(1, records)
        good = encode_wal_frame({"kind": "noop"})
        data = frame + frame[: len(frame) // 2]
        frames, valid = decode_wal_frames(data)
        assert len(frames) == 1
        assert valid == len(frame)
        # A corrupt binary body (CRC valid, magic mangled) stops the parse.
        body_start = 8  # >II header
        mangled = bytearray(frame)
        mangled[body_start : body_start + 4] = b"RSGX"
        import zlib as _zlib

        mangled[4:8] = struct.pack(
            ">I", _zlib.crc32(bytes(mangled[body_start:]))
        )
        frames, valid = decode_wal_frames(bytes(mangled) + good)
        assert frames == []
        assert valid == 0

    def test_crash_harness_sweep_on_binary_wal(self, tmp_path):
        """The fault-injection sweep of tests/test_durable.py, aimed at the
        binary codec: at every write budget the recovered store equals an
        oracle that applied exactly the committed batches."""
        records = _stream(num_objects=4, ticks=12, period=33.0)
        batches = _batches(records, size=16)
        budget = 0
        sweep_saw_partial = False
        while True:
            directory = tmp_path / f"crash-{budget}"
            store = DurableRecordStore(
                directory,
                shard_seconds=120.0,
                config=DurabilityConfig(fail_after_writes=budget),
            )
            applied = []
            crashed = False
            for batch in batches:
                try:
                    store.ingest_batch(batch)
                    applied.append(batch)
                except SimulatedCrashError:
                    crashed = True
                    break
            if not crashed:
                store.close()

            recovered = DurableRecordStore(directory)
            oracle = IUPT.sharded(shard_seconds=120.0)
            for batch in applied:
                oracle.ingest_batch(batch)
            assert records_equal_bitwise(
                recovered.records_in_time_order(),
                oracle.store.records_in_time_order(),
            )
            recovered.close()
            if crashed and applied:
                sweep_saw_partial = True
            if not crashed:
                break
            budget += 1
        assert sweep_saw_partial  # the sweep actually exercised mid-stream crashes
