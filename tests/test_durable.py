"""Durable storage: WAL framing, snapshots, recovery, and the crash harness.

The centrepiece is the **differential crash-recovery harness**
(:class:`TestCrashRecoveryDifferential`): a seeded random workload of
``ingest_batch`` / ``evict_before`` / ``checkpoint`` operations runs against
a :class:`~repro.storage.durable.DurableRecordStore` whose fault-injection
hook kills it at an arbitrary WAL frame boundary, while an in-memory
:class:`~repro.storage.sharded.ShardedRecordStore` oracle mirrors exactly
the operations that *returned successfully*.  Recovering the directory must
reproduce the oracle bit-for-bit: records, ``range_query`` answers,
per-shard versions (and therefore ``version_token`` values), the retention
watermark, and TkPLQ rankings computed through a real engine.  The service
layer's restart path (subscription-manifest restore + ``resume``) is covered
at the bottom.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FloorPlan,
    IUPT,
    PartitionKind,
    Point,
    QueryEngine,
    QueryService,
    Rect,
    SampleSet,
    ServiceClient,
    ServiceError,
)
from repro.data.records import PositioningRecord
from repro.service import protocol
from repro.space import IndoorLocationMatrix, IndoorSpaceLocationGraph
from repro.storage import (
    DurabilityConfig,
    DurableRecordStore,
    EvictedRangeError,
    ShardedRecordStore,
    SimulatedCrashError,
    decode_wal_frames,
    encode_wal_frame,
)
from repro.storage.wal import encode_segment_frame, encode_snapshot_frame

SHARD_SECONDS = 10.0


def _record(object_id: int, ploc: int, timestamp: float) -> PositioningRecord:
    return PositioningRecord(
        object_id,
        SampleSet.from_pairs([(ploc, 0.625), (ploc + 1, 0.375)]),
        timestamp,
    )


# ----------------------------------------------------------------------
# WAL framing
# ----------------------------------------------------------------------
class TestWalFraming:
    def test_round_trip(self):
        payloads = [{"seq": 1, "records": [[1, 2.5, [[3, 1.0]]]]}, {"kind": "commit"}]
        data = b"".join(encode_wal_frame(p) for p in payloads)
        frames, valid = decode_wal_frames(data)
        assert frames == payloads
        assert valid == len(data)

    def test_torn_tail_is_detected_at_frame_boundary(self):
        good = encode_wal_frame({"seq": 1})
        torn = encode_wal_frame({"seq": 2, "records": [[1, 2.0, [[3, 1.0]]]]})
        for cut in (1, 5, len(torn) - 1):
            frames, valid = decode_wal_frames(good + torn[:cut])
            assert frames == [{"seq": 1}]
            assert valid == len(good)

    def test_corrupt_body_stops_parsing(self):
        good = encode_wal_frame({"seq": 1})
        bad = bytearray(encode_wal_frame({"seq": 2}))
        bad[-1] ^= 0xFF  # flip a payload byte: CRC mismatch
        frames, valid = decode_wal_frames(good + bytes(bad))
        assert frames == [{"seq": 1}]
        assert valid == len(good)

    def test_float_payloads_round_trip_bit_exactly(self):
        timestamp = 0.1 + 0.2  # not representable prettily
        frames, _ = decode_wal_frames(encode_wal_frame({"t": timestamp}))
        assert frames[0]["t"] == timestamp


def _comparable(frame: dict) -> dict:
    """A decoded frame with its packed batch spelled as the records it holds."""
    if "packed" not in frame:
        return frame
    return {**frame, "packed": frame["packed"].to_records()}


_control_frames = st.one_of(
    st.builds(lambda seq: {"kind": "commit", "seq": seq}, st.integers(0, 2**40)),
    st.builds(
        lambda mark: {"kind": "watermark", "watermark": mark},
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.builds(
        lambda seq: {"kind": "base", "next_seq": seq, "watermark": None},
        st.integers(1, 2**40),
    ),
)
_record_lists = st.lists(
    st.builds(
        _record, st.integers(0, 50), st.integers(0, 8), st.floats(0.0, 1e6)
    ),
    max_size=4,
)
#: ``(bytes on disk, the frame decode_wal_frames must hand back)`` pairs.
_log_frames = st.one_of(
    _control_frames.map(lambda frame: (encode_wal_frame(frame), frame)),
    st.builds(
        lambda seq, records: (
            encode_segment_frame(seq, records),
            {"seq": seq, "packed": records},
        ),
        st.integers(0, 2**40),
        _record_lists,
    ),
    st.builds(
        lambda key, version, through, records: (
            encode_snapshot_frame(key, version, through, records),
            {"shard": key, "version": version, "through": through, "packed": records},
        ),
        st.integers(-5, 5000),
        st.integers(1, 2**30),
        st.integers(0, 2**40),
        _record_lists,
    ),
)


class TestDecodeWalFramesFuzz:
    @given(data=st.binary(max_size=256))
    def test_arbitrary_bytes_never_raise(self, data):
        frames, valid = decode_wal_frames(data)
        assert 0 <= valid <= len(data)
        # What it read is exactly what the clean prefix holds.
        again, valid_again = decode_wal_frames(data[:valid])
        assert valid_again == valid and len(again) == len(frames)

    @given(stream=st.lists(_log_frames, min_size=1, max_size=5), data=st.data())
    @settings(deadline=None)
    def test_a_damaged_stream_decodes_to_a_prefix_of_what_was_written(
        self, stream, data
    ):
        """Truncated at any byte, bit-flipped, or with a length field
        overwritten: never an exception, ``valid`` is a frame boundary, and
        the frames returned are the originals up to it — nothing past the
        first damaged frame, and nothing nobody wrote."""
        blob = bytearray(b"".join(encoded for encoded, _frame in stream))
        boundaries = [0]
        for encoded, _frame in stream:
            boundaries.append(boundaries[-1] + len(encoded))
        damage = data.draw(st.sampled_from(["none", "truncate", "flip", "length"]))
        damaged_at = len(blob)
        if damage == "truncate":
            damaged_at = data.draw(st.integers(0, len(blob)))
            del blob[damaged_at:]
        elif damage == "flip":
            damaged_at = data.draw(st.integers(0, len(blob) - 1))
            blob[damaged_at] ^= 1 << data.draw(st.integers(0, 7))
        elif damage == "length":
            damaged_at = boundaries[data.draw(st.integers(0, len(stream) - 1))]
            declared = struct.unpack_from(">I", blob, damaged_at)[0]
            lie = data.draw(st.integers(0, 2**32 - 1).filter(lambda n: n != declared))
            struct.pack_into(">I", blob, damaged_at, lie)
        frames, valid = decode_wal_frames(bytes(blob))
        assert valid in boundaries and valid <= len(blob)
        count = boundaries.index(valid)
        # Whole frames before the damage are all read; the damaged one is not.
        assert count == max(i for i, edge in enumerate(boundaries) if edge <= damaged_at)
        assert [_comparable(frame) for frame in frames] == [
            frame for _encoded, frame in stream[:count]
        ]


class TestDurabilityConfig:
    def test_validates_fsync_kind(self):
        with pytest.raises(ValueError):
            DurabilityConfig(fsync="sometimes")

    def test_validates_cadence_and_fault_budget(self):
        with pytest.raises(ValueError):
            DurabilityConfig(snapshot_every_batches=0)
        with pytest.raises(ValueError):
            DurabilityConfig(fail_after_writes=-1)


# ----------------------------------------------------------------------
# Plain persistence
# ----------------------------------------------------------------------
def _batches(count: int = 8, objects: int = 4):
    batches = []
    for index in range(count):
        base = index * 7.0
        batches.append(
            [_record(oid, (oid + index) % 5, base + oid * 0.25) for oid in range(objects)]
        )
    return batches


class TestDurableRoundTrip:
    def test_recovery_reproduces_records_and_tokens(self, tmp_path):
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        oracle = ShardedRecordStore(shard_seconds=SHARD_SECONDS)
        for batch in _batches():
            store.ingest_batch(batch)
            oracle.ingest_batch(batch)
        token = store.version_token()
        window_token = store.version_token(5.0, 25.0)
        store.close()

        recovered = DurableRecordStore(tmp_path)
        assert recovered.shard_seconds == SHARD_SECONDS  # manifest wins
        assert list(recovered.records_in_time_order()) == list(
            oracle.records_in_time_order()
        )
        assert recovered.shard_versions() == oracle.shard_versions()
        # Tokens are bit-identical across the restart: the persisted store
        # identity makes the recovered store the SAME logical store.
        assert recovered.version_token() == token
        assert recovered.version_token(5.0, 25.0) == window_token
        assert recovered.range_query(3.0, 33.0) == oracle.range_query(3.0, 33.0)
        recovered.close()

    def test_manifest_index_kind_of_older_directories_is_ignored(self, tmp_path):
        # Every directory written before the sharded store lost its index
        # choice carries an "index_kind" manifest key; new ones do not.
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        batches = _batches()
        for batch in batches[:-1]:
            store.ingest_batch(batch)
        store.checkpoint()  # snapshots...
        store.ingest_batch(batches[-1])  # ...plus a WAL frame to replay
        rows = list(store.records_in_time_order())
        versions = store.shard_versions()
        tokens = (store.version_token(), store.version_token(5.0, 25.0))
        store.close()
        path = tmp_path / "MANIFEST.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(manifest) == ["format", "shard_seconds", "uid"]

        for old_kind in ("1dr-tree", "bplus-tree", "packed"):
            path.write_text(json.dumps({**manifest, "index_kind": old_kind}))
            recovered = DurableRecordStore(tmp_path)
            assert list(recovered.records_in_time_order()) == rows
            assert recovered.shard_versions() == versions
            assert (
                recovered.version_token(),
                recovered.version_token(5.0, 25.0),
            ) == tokens
            assert recovered.index_kind == "timestamp-column"
            assert recovered.describe()["index_kind"] == "timestamp-column"
            recovered.close()

    def test_closed_store_refuses_mutations(self, tmp_path):
        store = DurableRecordStore(tmp_path)
        store.close()
        with pytest.raises(ValueError):
            store.ingest_batch([_record(1, 1, 0.0)])

    def test_empty_batch_leaves_no_wal_trace(self, tmp_path):
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        store.ingest_batch([_record(1, 1, 0.0)])
        wal_bytes = sum(
            p.stat().st_size for p in (tmp_path / "wal").glob("segment-*.wal")
        )
        token = store.version_token()
        receipt = store.ingest_batch([])
        assert receipt.records_ingested == 0
        assert store.version_token() == token
        assert (
            sum(p.stat().st_size for p in (tmp_path / "wal").glob("segment-*.wal"))
            == wal_bytes
        )
        store.close()

    def test_iupt_durable_facade(self, tmp_path):
        iupt = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        iupt.ingest_batch([_record(1, 2, 3.0), _record(2, 4, 17.0)])
        key = iupt.version_token(0.0, 5.0)
        iupt.close()
        reopened = DurableRecordStore(tmp_path)
        assert reopened.kind == "durable"
        assert len(reopened) == 2
        assert reopened.version_token(0.0, 5.0) == key
        # Derived tables of a durable table are volatile sharded clones.
        derived = reopened.with_max_sample_set_size(1)
        assert derived.kind == "sharded"
        assert len(derived) == 2
        assert reopened.index_kind == derived.index_kind == "timestamp-column"
        reopened.close()


class TestSnapshots:
    def test_checkpoint_compacts_segments(self, tmp_path):
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        for batch in _batches():
            store.ingest_batch(batch)
        assert list((tmp_path / "wal").glob("segment-*.wal"))
        summary = store.checkpoint()
        assert summary["snapshots_written"] == store.shard_count > 0
        assert not list((tmp_path / "wal").glob("segment-*.wal"))
        store.close()

        recovered = DurableRecordStore(tmp_path)
        report = recovered.recovery_report
        assert report["shards_from_snapshot"] == recovered.shard_count
        assert report["frames_replayed"] == 0
        recovered.close()

    def test_recovery_replays_only_post_snapshot_frames(self, tmp_path):
        batches = _batches(10)
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        oracle = ShardedRecordStore(shard_seconds=SHARD_SECONDS)
        for batch in batches[:6]:
            store.ingest_batch(batch)
            oracle.ingest_batch(batch)
        store.checkpoint()
        for batch in batches[6:]:
            store.ingest_batch(batch)
            oracle.ingest_batch(batch)
        store.close()
        recovered = DurableRecordStore(tmp_path)
        assert recovered.recovery_report["shards_from_snapshot"] > 0
        assert 0 < recovered.recovery_report["frames_replayed"] < len(batches)
        assert list(recovered.records_in_time_order()) == list(
            oracle.records_in_time_order()
        )
        assert recovered.shard_versions() == oracle.shard_versions()
        recovered.close()

    def test_automatic_snapshot_cadence(self, tmp_path):
        config = DurabilityConfig(snapshot_every_batches=3)
        store = DurableRecordStore(
            tmp_path, shard_seconds=SHARD_SECONDS, config=config
        )
        for batch in _batches(6):
            store.ingest_batch(batch)
        assert list((tmp_path / "snapshots").glob("shard-*.snap"))
        assert not list((tmp_path / "wal").glob("segment-*.wal"))
        store.close()


class TestDurableEviction:
    def test_watermark_survives_restart_and_boundary_semantics(self, tmp_path):
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        store.ingest_batch([_record(1, 1, float(t)) for t in range(0, 40)])
        dropped = store.evict_before(20.0)
        assert dropped == 20
        store.close()

        recovered = DurableRecordStore(tmp_path)
        assert recovered.eviction_watermark == 20.0
        # A window starting exactly at the recovered watermark answers …
        assert len(recovered.range_query(20.0, 39.0)) == 20
        # … and one below raises, exactly as before the restart.
        with pytest.raises(EvictedRangeError):
            recovered.range_query(19.5, 39.0)
        with pytest.raises(ValueError):
            recovered.ingest_batch([_record(1, 1, 5.0)])
        # The evicted shards' files are gone.
        assert not any(
            int(p.stem.split("-", 1)[1]) < 2
            for p in (tmp_path / "snapshots").glob("shard-*.snap")
        )
        recovered.close()

    def test_crashed_store_stays_dead(self, tmp_path):
        config = DurabilityConfig(fail_after_writes=2)
        store = DurableRecordStore(
            tmp_path, shard_seconds=SHARD_SECONDS, config=config
        )
        store.ingest_batch([_record(1, 1, 0.0)])  # 2 writes: frame + commit
        handles = list(store._handles.values())
        assert handles
        with pytest.raises(SimulatedCrashError):
            store.ingest_batch([_record(1, 1, 1.0)])
        # The crash released the log handles, as process death would.
        assert all(handle.closed for handle in handles) and not store._handles
        with pytest.raises(SimulatedCrashError):
            store.ingest_batch([_record(1, 1, 2.0)])
        with pytest.raises(SimulatedCrashError):
            store.checkpoint()


class TestTheLogComesFirst:
    """A mutation is logged before it is applied and announced after its
    files are settled: a simulated crash inside one fires no event, and a
    crash before its commit record leaves memory as it was."""

    @pytest.mark.parametrize("fail_after", [2, 3, 4])
    def test_a_crash_inside_an_ingest_applies_and_announces_nothing(
        self, tmp_path, fail_after
    ):
        """Writes 3-5 are the two-shard batch's frames and its commit record."""
        store = DurableRecordStore(
            tmp_path,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(fail_after_writes=fail_after),
        )
        store.ingest_batch([_record(1, 1, 1.0)])  # writes 1-2
        events = []
        store.subscribe(events.append)
        versions = store.shard_versions()
        with pytest.raises(SimulatedCrashError):
            store.ingest_batch([_record(1, 1, 2.0), _record(2, 1, 15.0)])
        assert events == []
        assert store.shard_versions() == versions and len(store) == 1

    @pytest.mark.parametrize("fail_after", [6, 7, 8])
    def test_a_crash_inside_an_eviction_announces_nothing(self, tmp_path, fail_after):
        """Write 7 is the watermark record, writes 8-9 delete two segments."""
        store = DurableRecordStore(
            tmp_path,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(fail_after_writes=fail_after),
        )
        for shard in range(3):  # writes 1-6
            store.ingest_batch([_record(1, 1, shard * SHARD_SECONDS + 1.0)])
        events = []
        store.subscribe(events.append)
        with pytest.raises(SimulatedCrashError):
            store.evict_before(2 * SHARD_SECONDS)
        assert events == []
        if fail_after == 6:  # no watermark record: nothing was dropped
            assert len(store) == 3 and store.eviction_watermark == float("-inf")


# ----------------------------------------------------------------------
# The differential crash-recovery harness
# ----------------------------------------------------------------------
def _mini_space():
    """A tiny room+hall space whose engine ranks the workload's P-locations."""
    plan = FloorPlan()
    room = plan.add_partition(Rect(0, 0, 6, 6), PartitionKind.ROOM, name="room")
    hall = plan.add_partition(Rect(0, 6, 12, 10), PartitionKind.HALLWAY, name="hall")
    door = plan.add_door(Point(3.0, 6.0), (room, hall))
    plan.add_partitioning_plocation(Point(3.0, 6.0), door)
    plan.add_presence_plocation(Point(3.0, 3.0), room)
    plan.add_presence_plocation(Point(9.0, 8.0), hall)
    for partition in (room, hall):
        plan.add_slocation_for_partition(partition)
    plan.freeze()
    graph = IndoorSpaceLocationGraph.from_floorplan(plan)
    matrix = IndoorLocationMatrix.from_graph(graph).merged(graph)
    return graph, matrix


def _workload_record(rng: random.Random, object_id: int, timestamp: float):
    ploc = rng.randrange(0, 3)  # the mini space has P-locations 0..2
    others = [p for p in range(3) if p != ploc]
    second = rng.choice(others)
    weight = rng.choice([0.5, 0.625, 0.75, 1.0])
    if weight == 1.0:
        pairs = [(ploc, 1.0)]
    else:
        pairs = [(ploc, weight), (second, 1.0 - weight)]
    return PositioningRecord(object_id, SampleSet.from_pairs(pairs), timestamp)


def _random_ops(rng: random.Random, horizon: float = 120.0):
    """A seeded op tape: mostly ingests, some shard-aligned evictions, a
    checkpoint or two, timestamps dense enough for timestamp ties."""
    ops = []
    frontier = 0.0
    for _step in range(rng.randint(14, 22)):
        roll = rng.random()
        if roll < 0.72 or frontier < SHARD_SECONDS:
            batch = []
            width = rng.uniform(4.0, 18.0)
            for oid in range(rng.randint(1, 5)):
                for _ in range(rng.randint(1, 3)):
                    t = round(frontier + rng.uniform(0.0, width), 1)
                    batch.append(_workload_record(rng, oid, min(t, horizon)))
            frontier = min(frontier + width * 0.6, horizon)
            ops.append(("ingest", batch))
        elif roll < 0.9:
            cut = rng.randrange(1, max(2, int(frontier / SHARD_SECONDS)))
            ops.append(("evict", cut * SHARD_SECONDS))
        else:
            ops.append(("checkpoint", None))
    return ops


SEEDS = (11, 23, 37, 41, 59, 73)  # the fixed CI seed matrix


def _build_oracle(tape) -> ShardedRecordStore:
    """Apply an op tape to a fresh volatile sharded store."""
    oracle = ShardedRecordStore(shard_seconds=SHARD_SECONDS)
    for op, arg in tape:
        if op == "ingest":
            oracle.ingest_batch(arg)
        elif op == "evict":
            oracle.evict_before(arg)
    return oracle


def _state_matches(recovered: DurableRecordStore, oracle: ShardedRecordStore) -> bool:
    return (
        list(recovered.records_in_time_order()) == list(oracle.records_in_time_order())
        and recovered.shard_versions() == oracle.shard_versions()
        and recovered.eviction_watermark == oracle.eviction_watermark
    )


class TestCrashRecoveryDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_recovered_state_is_bit_identical_to_oracle(self, seed, tmp_path):
        rng = random.Random(seed)
        ops = _random_ops(rng)
        fail_after = rng.randint(2, 45)
        fsync = rng.choice(["never", "batch", "always"])
        cadence = rng.choice([None, 2, 4])
        store = DurableRecordStore(
            tmp_path,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(
                fsync=fsync,
                snapshot_every_batches=cadence,
                fail_after_writes=fail_after,
            ),
        )

        applied = []
        crashed_op = None
        last_token = store.version_token()
        for op, arg in ops:
            try:
                if op == "ingest":
                    store.ingest_batch(arg)
                elif op == "evict":
                    store.evict_before(arg)
                else:
                    store.checkpoint()
            except SimulatedCrashError:
                crashed_op = (op, arg)
                break
            applied.append((op, arg))
            last_token = store.version_token()

        recovered = DurableRecordStore(tmp_path)
        # The op in flight at the crash is allowed to land on either side of
        # its commit point (e.g. the crash may hit the auto-checkpoint right
        # AFTER the batch's commit record became durable) — but the recovered
        # state must be bit-identical to exactly one of the two legal states.
        candidates = [("rolled-back", _build_oracle(applied))]
        if crashed_op is not None and crashed_op[0] in ("ingest", "evict"):
            candidates.append(("committed", _build_oracle(applied + [crashed_op])))
        matches = [
            (label, oracle)
            for label, oracle in candidates
            if _state_matches(recovered, oracle)
        ]
        assert matches, (
            f"recovered state matches neither the rolled-back nor the "
            f"committed oracle (seed {seed}, crashed op: "
            f"{crashed_op and crashed_op[0]})"
        )
        label, oracle = matches[0]
        if label == "rolled-back":
            # No partially-committed op: the recovered whole-table token is
            # bit-identical to the last token the pre-crash store reported.
            assert recovered.version_token() == last_token
        else:
            # The in-flight op committed: the persisted identity still makes
            # the token line up with the matching oracle's shard versions.
            assert recovered.version_token()[0] == last_token[0]
            assert recovered.version_token()[1] == oracle.version_token()[1]

        watermark = max(0.0, oracle.eviction_watermark)
        for lo, hi in ((watermark, 120.0), (watermark + 3.3, watermark + 41.0)):
            assert recovered.range_query(lo, hi) == oracle.range_query(lo, hi)
            assert (
                recovered.version_token(lo, hi)[1] == oracle.version_token(lo, hi)[1]
            )
        if oracle.eviction_watermark > 0.0:
            with pytest.raises(EvictedRangeError):
                recovered.range_query(oracle.eviction_watermark - 1e-6, 120.0)

        # Top-k through a real engine: recovered table ≡ oracle table.
        graph, matrix = _mini_space()
        slocs = sorted(graph.slocation_to_cell)
        window = (watermark, 120.0)
        ranking_recovered = QueryEngine(graph, matrix).top_k(recovered, slocs, 2, *window)
        ranking_oracle = QueryEngine(graph, matrix).top_k(oracle, slocs, 2, *window)
        assert [
            (entry.sloc_id, entry.flow) for entry in ranking_recovered.ranking
        ] == [(entry.sloc_id, entry.flow) for entry in ranking_oracle.ranking]
        assert ranking_recovered.flows == ranking_oracle.flows

        # The recovered store keeps working: ingest once more on both sides,
        # then recover a SECOND time — sequence-number reuse after the first
        # recovery (e.g. a regressed counter colliding with compacted
        # sequences) only materialises on the next replay.
        tail = [_workload_record(rng, 9, 123.0 + i) for i in range(3)]
        recovered.ingest_batch(tail)
        oracle.ingest_batch(tail)
        assert recovered.shard_versions() == oracle.shard_versions()
        recovered.close()
        second = DurableRecordStore(tmp_path)
        assert list(second.records_in_time_order()) == list(
            oracle.records_in_time_order()
        )
        assert second.shard_versions() == oracle.shard_versions()
        second.close()

    def test_crash_mid_multi_shard_batch_rolls_back_whole_batch(self, tmp_path):
        """A batch spanning 3 shards dies after 2 segment frames: recovery
        must not resurrect the half-written batch (commit never landed)."""
        store = DurableRecordStore(
            tmp_path,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(fail_after_writes=4),
        )
        oracle = ShardedRecordStore(shard_seconds=SHARD_SECONDS)
        first = [_record(1, 1, 2.0)]
        store.ingest_batch(first)  # writes 2: one frame + one commit
        oracle.ingest_batch(first)
        spanning = [_record(2, 1, 5.0), _record(2, 2, 15.0), _record(2, 0, 25.0)]
        with pytest.raises(SimulatedCrashError):
            store.ingest_batch(spanning)  # dies on its 3rd frame
        recovered = DurableRecordStore(tmp_path)
        assert recovered.recovery_report["frames_skipped_uncommitted"] == 2
        assert list(recovered.records_in_time_order()) == list(
            oracle.records_in_time_order()
        )
        assert recovered.shard_versions() == oracle.shard_versions()
        recovered.close()

    @pytest.mark.parametrize("fail_after,evicted", [(6, False), (7, True)])
    def test_crash_straddling_the_eviction_commit_point(
        self, tmp_path, fail_after, evicted
    ):
        """The watermark record is the eviction's commit: a crash before it
        rolls the eviction back entirely; a crash after it (mid file
        deletion) must recover with the eviction fully applied."""
        store = DurableRecordStore(
            tmp_path,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(fail_after_writes=fail_after),
        )
        for shard in range(3):  # 2 writes each: one frame + one commit
            store.ingest_batch([_record(1, 1, shard * SHARD_SECONDS + 1.0)])
        with pytest.raises(SimulatedCrashError):
            store.evict_before(2 * SHARD_SECONDS)  # write 7 is the watermark
        recovered = DurableRecordStore(tmp_path)
        if evicted:
            assert recovered.eviction_watermark == 2 * SHARD_SECONDS
            assert len(recovered) == 1
            with pytest.raises(EvictedRangeError):
                recovered.range_query(1.0, 30.0)
        else:
            assert recovered.eviction_watermark == float("-inf")
            assert len(recovered) == 3
            assert len(recovered.range_query(0.0, 30.0)) == 3
        recovered.close()

    def test_crash_mid_checkpoint_does_not_regress_the_sequence_counter(
        self, tmp_path
    ):
        """Regression: a crash after checkpoint deleted the segments but
        before it wrote the compacted control log leaves the snapshots'
        ``through`` values as the only witnesses of the highest committed
        sequence.  Recovery must resume above them — resuming below would
        hand an acknowledged batch a recycled sequence that the NEXT
        recovery skips as already-compacted, silently losing the batch."""
        store = DurableRecordStore(
            tmp_path,
            shard_seconds=SHARD_SECONDS,
            # 2 ingests cost 4 writes; checkpoint then spends 1 (snapshot)
            # + 1 (segment delete) and dies on the control-log rewrite.
            config=DurabilityConfig(fail_after_writes=6),
        )
        store.ingest_batch([_record(1, 1, 1.0)])
        store.ingest_batch([_record(1, 2, 2.0)])
        with pytest.raises(SimulatedCrashError):
            store.checkpoint()

        recovered = DurableRecordStore(tmp_path)
        acknowledged = [_record(2, 1, 3.0)]
        recovered.ingest_batch(acknowledged)  # must NOT reuse sequence 1 or 2
        recovered.close()
        final = DurableRecordStore(tmp_path)
        assert len(final) == 3
        assert [r.object_id for r in final.records_in_time_order()] == [1, 1, 2]
        final.close()

    def test_checkpoint_on_recover_purges_uncommitted_orphan_segments(
        self, tmp_path
    ):
        """Regression: a segment whose only frames are uncommitted crash
        garbage (the shard never loaded) must be purged by the recovery
        checkpoint, not re-scanned by every future recovery."""
        store = DurableRecordStore(
            tmp_path,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(fail_after_writes=1),
        )
        with pytest.raises(SimulatedCrashError):
            store.ingest_batch([_record(1, 1, 1.0)])  # frame lands, commit doesn't
        recovered = DurableRecordStore(tmp_path)
        assert recovered.recovery_report["frames_skipped_uncommitted"] == 1
        assert not list((tmp_path / "wal").glob("segment-*.wal"))
        recovered.close()
        clean = DurableRecordStore(tmp_path)
        assert clean.recovery_report["segments_seen"] == 0
        clean.close()

    def test_torn_tail_truncation(self, tmp_path):
        """Bytes of a half-written frame at a segment tail are discarded."""
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        store.ingest_batch([_record(1, 1, 2.0)])
        store.close()
        segment = next((tmp_path / "wal").glob("segment-*.wal"))
        with open(segment, "ab") as handle:
            handle.write(encode_wal_frame({"seq": 99, "records": []})[:-3])
        recovered = DurableRecordStore(tmp_path)
        assert recovered.recovery_report["torn_tails_truncated"] == 1
        assert len(recovered) == 1
        recovered.close()


# ----------------------------------------------------------------------
# Damage that is not a torn tail: refused by name, never opened smaller
# ----------------------------------------------------------------------
def _tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _flip_a_snapshot_bit(root):
    path = root / "snapshots" / "shard-1.snap"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))
    return path


def _write(relative, frame, committed=False):
    """A damage function: one file becomes one hand-written CRC-valid frame
    (``committed``: under a commit record for sequence 1, so that recovery
    reaches a segment frame instead of skipping it as uncommitted)."""

    def damage(root):
        if committed:
            commit = encode_wal_frame({"kind": "commit", "seq": 1})
            (root / "control.wal").write_bytes(commit)
        (root / relative).write_bytes(encode_wal_frame(frame))
        return root / relative

    return damage


def _rewrite_snapshot(version, holds_records):
    """A damage function: shard 1's snapshot becomes a CRC-valid ``RSN1``
    frame no checkpoint writes — at ``version``, holding shard 1's ten
    records or none.  A checkpoint only snapshots a shard a batch reached."""

    def damage(root):
        path = root / "snapshots" / "shard-1.snap"
        records = [_record(1, 1, float(t)) for t in range(10, 20)] if holds_records else []
        path.write_bytes(encode_snapshot_frame(1, version, 1, records))
        return path

    return damage


class TestCorruptionIsLoud:
    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(_flip_a_snapshot_bit, id="snapshot-bit-flipped"),
            pytest.param(_write("control.wal", {"kind": "commit"}), id="commit-without-seq"),
            pytest.param(_write("control.wal", {"kind": "base"}), id="base-without-next_seq"),
            pytest.param(
                _write("control.wal", {"kind": "watermark", "watermark": "x"}),
                id="watermark-not-a-number",
            ),
            pytest.param(
                _write("wal/segment-5.wal", {"seq": 1}, committed=True),
                id="segment-frame-without-records",
            ),
            pytest.param(
                _write("wal/segment-5.wal", {"records": []}, committed=True),
                id="segment-frame-without-seq",
            ),
            pytest.param(
                _write("wal/segment-5.wal", {"seq": 1, "records": [[1, 2.0]]}, True),
                id="json-era-triple-of-wrong-arity",
            ),
            pytest.param(
                _write("snapshots/shard-1.snap", {"version": 1, "through": 1, "records": []}),
                id="snapshot-without-shard",
            ),
            pytest.param(
                _write(
                    "snapshots/shard-1.snap",
                    {"shard": 2, "version": 1, "through": 1, "records": []},
                ),
                id="snapshot-of-another-shard",
            ),
            pytest.param(_rewrite_snapshot(0, holds_records=True), id="snapshot-at-version-0"),
            pytest.param(
                _rewrite_snapshot(1, holds_records=False), id="snapshot-holding-no-record"
            ),
        ],
    )
    def test_uninterpretable_files_refuse_the_open_by_name(self, damage, tmp_path):
        """Thirty records in three shards, checkpointed; then one file the
        store did not write that way.  The open raises a ``ValueError`` naming
        the file — not a ``KeyError``, and above all not a store that opens
        with fewer records — and leaves every byte where it was."""
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        store.ingest_batch([_record(1, 1, float(t)) for t in range(30)])
        store.checkpoint()
        store.close()
        damaged = damage(tmp_path)
        before = _tree(tmp_path)
        with pytest.raises(ValueError) as excinfo:
            DurableRecordStore(tmp_path)
        assert str(damaged) in str(excinfo.value)
        assert _tree(tmp_path) == before


# ----------------------------------------------------------------------
# Service restart: manifest restore + resume
# ----------------------------------------------------------------------
class TestServiceRestart:
    def test_restarted_service_resumes_subscriptions_with_correct_pushes(
        self, small_real_scenario, tmp_path
    ):
        scenario = small_real_scenario
        records = sorted(scenario.iupt.records_in_time_order(), key=lambda r: r.timestamp)
        history = [r for r in records if r.timestamp < 120.0]
        live = [r for r in records if r.timestamp >= 120.0]
        midpoint = 120.0 + (240.0 - 120.0) / 2
        first = [r for r in live if r.timestamp < midpoint]
        second = [r for r in live if r.timestamp >= midpoint]
        slocs = scenario.slocation_ids()

        def make_engine():
            return QueryEngine(scenario.system.graph, scenario.system.matrix)

        state = {}

        async def phase_one():
            iupt = DurableRecordStore(tmp_path, shard_seconds=60.0)
            service = QueryService(make_engine(), iupt)
            host, port = await service.start()
            loader = await ServiceClient.connect(host, port)
            subscriber = await ServiceClient.connect(host, port)
            await loader.ingest_batch(history)
            subscription = await subscriber.subscribe_top_k(slocs, 3, 120.0, 240.0)
            await loader.ingest_batch(first)
            push = await subscription.next_update(timeout=10.0)
            assert push["seq"] == 1
            state["sub_id"] = subscription.sub_id
            state["last_result"] = subscription.result
            # Stop while the subscriber is still connected: the drain closes
            # the connection server-side and must DETACH the standing query
            # (keeping it in the manifest), not unregister it.
            await service.stop()  # flush-on-drain
            await subscriber.close()
            await loader.close()
            iupt.close()
            # The manifest survived the drain (connections were closed by
            # the server, so the standing query was detached, not dropped).
            manifest = json.loads(
                (tmp_path / "subscriptions.json").read_text()
            )
            assert [entry["id"] for entry in manifest] == [subscription.sub_id]

        async def phase_two():
            iupt = DurableRecordStore(tmp_path)
            service = QueryService(make_engine(), iupt)
            host, port = await service.start()
            # The standing query was restored before any client connected.
            assert [s.sub_id for s in service.continuous.subscriptions] == [
                state["sub_id"]
            ]
            subscriber = await ServiceClient.connect(host, port)
            loader = await ServiceClient.connect(host, port)
            resumed = await subscriber.resume_subscription(state["sub_id"])
            # The resumed snapshot is bit-identical to the pre-restart one.
            assert resumed.result == state["last_result"]
            # Resuming an attached subscription is refused.
            with pytest.raises(ServiceError) as excinfo:
                await loader.resume_subscription(state["sub_id"])
            assert excinfo.value.kind == "bad_request"

            await loader.ingest_batch(second)
            push = await resumed.next_update(timeout=10.0)
            # Per-connection sequences restart at 1 and stay contiguous.
            assert push["seq"] == 1
            # The pushed result is bit-identical to a fresh in-process
            # continuous registration over the same recovered table.
            fresh = make_engine().continuous(service.iupt)
            expected = fresh.register_top_k(slocs, 3, 120.0, 240.0)
            assert push["result"] == protocol.result_to_wire(expected.result)
            fresh.close()
            # checkpoint over the wire (durable stores only).
            summary = await loader.checkpoint()
            assert summary["shards"] >= 1
            await subscriber.close()
            await loader.close()
            await service.stop()
            iupt.close()

        asyncio.run(phase_one())
        asyncio.run(phase_two())

    def test_an_empty_durable_table_still_persists_its_subscriptions(
        self, small_real_scenario, tmp_path
    ):
        """Regression: an empty store is falsy (``__len__``), so "is this
        table durable?" must never be asked with a truth test."""
        scenario = small_real_scenario

        async def run():
            iupt = DurableRecordStore(tmp_path, shard_seconds=60.0)
            assert not iupt  # empty, hence falsy — and durable all the same
            service = QueryService(
                QueryEngine(scenario.system.graph, scenario.system.matrix), iupt
            )
            host, port = await service.start()
            async with await ServiceClient.connect(host, port) as client:
                subscription = await client.subscribe_top_k(
                    scenario.slocation_ids(), 3, 0.0, 240.0
                )
                manifest = json.loads((tmp_path / "subscriptions.json").read_text())
                assert [entry["id"] for entry in manifest] == [subscription.sub_id]
                assert (await client.replica_status())["last_seq"] == 0
            await service.stop()
            iupt.close()

        asyncio.run(run())

    def test_checkpoint_op_rejected_on_volatile_store(self, small_real_scenario):
        scenario = small_real_scenario

        async def run():
            iupt = IUPT(shard_seconds=60.0)
            service = QueryService(
                QueryEngine(scenario.system.graph, scenario.system.matrix), iupt
            )
            host, port = await service.start()
            async with await ServiceClient.connect(host, port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    await client.checkpoint()
                assert excinfo.value.kind == "bad_request"
            await service.stop()

        asyncio.run(run())


# ----------------------------------------------------------------------
# The subscription manifest: the store's atomic-write rule, refused by name
# ----------------------------------------------------------------------
def _inode(path):
    stat = os.stat(path)
    return stat.st_dev, stat.st_ino


def _then_damaged(**fields):
    """The manifest's one valid flows entry, followed by a copy of it with
    ``fields`` overwritten: the damage sits behind an entry that restores."""

    def damage(text):
        [entry] = json.loads(text)
        return json.dumps([entry, {**entry, "id": entry["id"] + 1, **fields}])

    return damage


class TestSubscriptionManifest:
    @pytest.mark.parametrize("fsync", ["always", "batch", "never"])
    def test_the_manifest_follows_the_stores_fsync_policy(
        self, tmp_path, monkeypatch, fsync
    ):
        """A ``subscribe`` fsyncs the manifest before its rename and the
        directory after it, unless the store's policy is ``"never"`` — the
        same rule as a snapshot's, so an acknowledged subscription survives
        an OS crash whenever an acknowledged ingest does."""
        store = DurableRecordStore(
            tmp_path, shard_seconds=SHARD_SECONDS, config=DurabilityConfig(fsync=fsync)
        )
        store.ingest_batch([_record(1, 0, 1.0), _record(2, 1, 12.0)])
        graph, matrix = _mini_space()
        manifest = store.subscription_manifest_path
        continuous = QueryEngine(graph, matrix).continuous(
            store, manifest_path=manifest
        )
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            stat = os.fstat(fd)
            synced.append((stat.st_dev, stat.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        subscription = continuous.register_flows(
            sorted(graph.slocation_to_cell), 0.0, 20.0
        )
        monkeypatch.undo()
        expected = [] if fsync == "never" else [_inode(manifest), _inode(tmp_path)]
        assert synced == expected
        entries = json.loads(manifest.read_text(encoding="utf-8"))
        assert [entry["id"] for entry in entries] == [subscription.sub_id]
        assert not list(tmp_path.glob("*.tmp"))
        continuous.close()
        store.close()

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda text: text[: len(text) // 2], id="truncated"),
            pytest.param(
                lambda text: json.dumps({"entries": json.loads(text)}), id="not-a-list"
            ),
            pytest.param(
                lambda text: json.dumps(
                    [
                        {key: value for key, value in entry.items() if key != "window"}
                        for entry in json.loads(text)
                    ]
                ),
                id="entry-without-window",
            ),
            pytest.param(
                lambda text: json.dumps(
                    [{**entry, "kind": "bogus"} for entry in json.loads(text)]
                ),
                id="unknown-kind",
            ),
            pytest.param(_then_damaged(slocs=[0, 0]), id="repeated-location"),
            pytest.param(_then_damaged(slocs=[]), id="no-location"),
            pytest.param(_then_damaged(window=[50.0, 10.0]), id="inverted-window"),
            pytest.param(
                _then_damaged(kind="top_k", k=1, slocs=[99999]),
                id="location-unknown-to-the-plan",
            ),
        ],
    )
    def test_a_damaged_manifest_refuses_the_start_by_name(
        self, small_real_scenario, tmp_path, damage
    ):
        scenario = small_real_scenario

        def make_engine():
            return QueryEngine(scenario.system.graph, scenario.system.matrix)

        store = DurableRecordStore(tmp_path, shard_seconds=60.0)
        path = store.subscription_manifest_path
        continuous = make_engine().continuous(store, manifest_path=path)
        continuous.register_flows(scenario.slocation_ids()[:3], 0.0, 120.0)
        continuous.close()
        store.close()
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")

        async def run():
            iupt = DurableRecordStore(tmp_path)
            service = QueryService(make_engine(), iupt)
            with pytest.raises(ValueError) as excinfo:
                await service.start()
            assert str(path) in str(excinfo.value)
            # The service did not start: nothing listens, no worker is left.
            with pytest.raises(RuntimeError):
                service.address
            assert not any(worker.is_alive() for worker in service._pool._workers)
            assert iupt.listener_count == 0
            iupt.close()

        asyncio.run(run())

    def test_a_legacy_top_k_entry_restores_as_a_fresh_registration(
        self, small_real_scenario, tmp_path
    ):
        """Builds before 12.0 spelled the kind ``"top-k"``; such an entry
        restores a top-k subscription equal to a fresh registration, and the
        rewritten manifest spells the kind as the wire does, with the same
        fields."""
        scenario = small_real_scenario
        slocs = scenario.slocation_ids()[:6]
        store = DurableRecordStore(tmp_path, shard_seconds=60.0)
        store.ingest_batch(list(scenario.iupt.records_in_time_order()))
        path = store.subscription_manifest_path
        legacy = {
            "id": 7, "kind": "top-k", "slocs": slocs, "window": [0.0, 120.0], "k": 2
        }
        path.write_text(json.dumps([legacy], indent=2), encoding="utf-8")

        def make_engine():
            return QueryEngine(scenario.system.graph, scenario.system.matrix)

        with make_engine().continuous(store, manifest_path=path) as restoring:
            [restored] = restoring.restore_subscriptions()
            with make_engine().continuous(store) as fresh_engine:
                fresh = fresh_engine.register_top_k(slocs, 2, 0.0, 120.0)
            assert (restored.sub_id, restored.kind) == (7, "top_k")
            assert restored.top_k_ids() == fresh.top_k_ids()
            assert restored.result.flows == fresh.result.flows
            assert [entry.flow for entry in restored.result.ranking] == [
                entry.flow for entry in fresh.result.ranking
            ]
            assert sum(restored.result.flows.values()) > 0.0
            [entry] = json.loads(path.read_text(encoding="utf-8"))
            assert entry == {**legacy, "kind": "top_k"}
        store.close()
