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
layer's restart path (standing queries restored from the control log +
``resume``) is covered at the bottom.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import random
import signal
import struct
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
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
from repro.codec.packed import PackedRecordBatch
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
from json_era_store import write_json_era_directory

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
            encode_segment_frame(seq, PackedRecordBatch.from_records(records)),
            {"seq": seq, "packed": records},
        ),
        st.integers(0, 2**40),
        _record_lists,
    ),
    st.builds(
        lambda key, version, through, records: (
            encode_snapshot_frame(
                key, version, through, PackedRecordBatch.from_records(records)
            ),
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


def _control_log(root):
    """``(inode, frames)`` of a directory's control log, every byte decoded."""
    path = root / "control.wal"
    data = path.read_bytes()
    frames, valid = decode_wal_frames(data)
    assert valid == len(data)
    return path.stat().st_ino, frames


def _base_frame(next_seq, watermark=None):
    return {"kind": "base", "next_seq": next_seq, "watermark": watermark}


class TestControlLog:
    """A checkpoint appends its base frame to the control log; the log is
    replaced by that one frame (and the live standing queries,
    ``TestStandingQueryLog``) only once it holds more bytes than the segments
    the checkpoint folds away, the recovery's own checkpoint included."""

    def test_a_cadence_checkpoint_appends_one_base_frame(self, tmp_path):
        store = DurableRecordStore(
            tmp_path,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(snapshot_every_batches=4),
        )
        batches = _batches(4)
        for batch in batches[:3]:
            store.ingest_batch(batch)
        inode, before = _control_log(tmp_path)
        store.ingest_batch(batches[3])  # the fourth batch checkpoints
        assert not list((tmp_path / "wal").glob("segment-*.wal"))
        assert _control_log(tmp_path) == (
            inode,
            before + [{"kind": "commit", "seq": 4, "shards": [2]}, _base_frame(5)],
        )
        store.close()

    def test_the_log_never_outgrows_one_interval_of_wal(self, tmp_path):
        """At ``snapshot_every_batches=1`` each checkpoint folds one batch's
        segment frame (each batch fills a shard of its own); after it the log
        holds at most those bytes plus the base frame, so some checkpoints
        must rewrite it."""
        store = DurableRecordStore(
            tmp_path,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(fsync="never", snapshot_every_batches=1),
        )
        rng = random.Random(5)
        control = tmp_path / "control.wal"
        inode = None
        appends = rewrites = 0
        for step in range(300):
            batch = [
                _workload_record(rng, oid, step * SHARD_SECONDS + oid * 0.5)
                for oid in range(rng.randint(4, 12))
            ]
            store.ingest_batch(batch)
            seq = store.last_committed_seq
            folded = len(encode_segment_frame(seq, PackedRecordBatch.from_records(batch)))
            base = len(encode_wal_frame(_base_frame(seq + 1)))
            stat = control.stat()
            assert stat.st_size <= folded + base, step
            if inode is not None:
                if stat.st_ino == inode:
                    appends += 1
                else:
                    rewrites += 1
                    assert stat.st_size == base
            inode = stat.st_ino
        assert appends > rewrites > 0
        store.close()

    def test_reopening_a_long_log_recovers_and_leaves_one_frame(self, tmp_path):
        store = DurableRecordStore(
            tmp_path,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(snapshot_every_batches=3),
        )
        oracle = ShardedRecordStore(shard_seconds=SHARD_SECONDS)
        for batch in _batches(14):
            store.ingest_batch(batch)
            oracle.ingest_batch(batch)
            if len(oracle) == 40:
                store.evict_before(2 * SHARD_SECONDS)
                oracle.evict_before(2 * SHARD_SECONDS)
        _inode, frames = _control_log(tmp_path)
        kinds = [frame["kind"] for frame in frames]
        assert kinds.count("base") > 1 and kinds.count("commit") > 3
        assert "watermark" in kinds
        assert list((tmp_path / "wal").glob("segment-*.wal"))  # 2 trailing batches
        store.close()

        recovered = DurableRecordStore(tmp_path)
        assert _state_matches(recovered, oracle)
        assert recovered.recovery_report["frames_replayed"] > 0
        assert _control_log(tmp_path)[1] == [_base_frame(15, 2 * SHARD_SECONDS)]
        assert recovered.last_committed_seq == 14
        recovered.close()


def _snapshot_file(root, key):
    """``(inode, bytes, frames)`` of one shard's snapshot, every byte decoded."""
    path = root / "snapshots" / f"shard-{key}.snap"
    data = path.read_bytes()
    frames, valid = decode_wal_frames(data)
    assert valid == len(data)
    return path.stat().st_ino, data, frames


def _filling_batches(count):
    """``count`` batches that fill shard 0 in time order, each starting on
    the previous one's last timestamp (an in-order absorb keeps a tie after
    the records already held)."""
    return [
        [_record(oid, (oid + step) % 5, 1.5 * step + oid * 0.375) for oid in range(5)]
        for step in range(count)
    ]


def _run_tape(store, tape):
    """Apply ``tape`` until it ends or the store's injected crash:
    ``(the ops that returned, the op in flight or None)``."""
    applied = []
    for op, arg in tape:
        try:
            if op == "ingest":
                store.ingest_batch(arg)
            elif op == "evict":
                store.evict_before(arg)
            else:
                store.checkpoint()
        except SimulatedCrashError:
            return applied, (op, arg)
        applied.append((op, arg))
    return applied, None


#: One op tape whose checkpoints at ``snapshot_every_batches=1`` write a
#: base frame, append a delta, rewrite the snapshot an out-of-order batch
#: re-sorted, append to the rewritten file beside a new shard's base frame,
#: and meet an eviction.
DELTA_TAPE = [
    ("ingest", [_record(1, 0, 1.0), _record(2, 1, 2.0)]),
    ("ingest", [_record(2, 2, 3.0)]),
    ("ingest", [_record(3, 1, 2.5)]),
    ("ingest", [_record(3, 0, 5.0), _record(1, 0, 12.0)]),
    ("evict", 10.0),
]


class TestSnapshotFile:
    """A snapshot file is a base frame plus in-order delta frames: a
    checkpoint appends a still-filling shard's new records to its file, and
    replaces the file only after an out-of-order absorb re-sorted the shard."""

    @staticmethod
    def _store(root, **config):
        return DurableRecordStore(
            root,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(snapshot_every_batches=1, **config),
        )

    def test_a_cadence_checkpoint_of_a_filling_shard_appends_one_frame(self, tmp_path):
        store = self._store(tmp_path)
        batches = _filling_batches(4)
        store.ingest_batch(batches[0])
        inode, data, frames = _snapshot_file(tmp_path, 0)
        assert len(frames) == 1
        for step, batch in enumerate(batches[1:], start=2):
            store.ingest_batch(batch)
            now_inode, now_data, now_frames = _snapshot_file(tmp_path, 0)
            assert now_inode == inode
            assert now_data.startswith(data) and len(now_frames) == len(frames) + 1
            delta = _comparable(now_frames[-1])
            assert delta == {
                "shard": 0, "version": step, "through": step, "packed": batch
            }
            data, frames = now_data, now_frames
        store.close()

    def test_the_file_stores_no_record_twice(self, tmp_path):
        store = self._store(tmp_path, fsync="never")
        for batch in _filling_batches(6):
            store.ingest_batch(batch)
        _inode, data, frames = _snapshot_file(tmp_path, 0)
        [(key, version, records)] = store.shard_states()
        pack = PackedRecordBatch.from_records
        one_frame = encode_snapshot_frame(key, version, version, pack(records))
        overhead = len(encode_snapshot_frame(key, version, version, pack([])))
        assert len(frames) == 6
        assert len(data) == len(one_frame) + (len(frames) - 1) * overhead
        store.close()

    def test_an_out_of_order_batch_rewrites_the_file_as_one_frame(self, tmp_path):
        store = self._store(tmp_path)
        oracle = ShardedRecordStore(shard_seconds=SHARD_SECONDS)
        batches = _filling_batches(3)
        for batch in batches[:2]:
            store.ingest_batch(batch)
            oracle.ingest_batch(batch)
        before = _snapshot_file(tmp_path, 0)[0]
        late = [_record(7, 3, 1.25)]
        store.ingest_batch(late)
        oracle.ingest_batch(late)
        inode, _data, frames = _snapshot_file(tmp_path, 0)
        assert inode != before
        [(_key, version, records)] = oracle.shard_states()
        assert [_comparable(frame) for frame in frames] == [
            {"shard": 0, "version": version, "through": 3, "packed": list(records)}
        ]
        # The rewritten file takes deltas again.
        store.ingest_batch(batches[2])
        assert _snapshot_file(tmp_path, 0)[0] == inode
        assert len(_snapshot_file(tmp_path, 0)[2]) == 2
        store.close()

    def test_a_reopened_multi_frame_shard_loads_lazily_and_equals_the_oracle(
        self, tmp_path
    ):
        store = self._store(tmp_path)
        oracle = ShardedRecordStore(shard_seconds=SHARD_SECONDS)
        for batch in _filling_batches(5) + [[_record(1, 1, 14.0)]]:
            store.ingest_batch(batch)
            oracle.ingest_batch(batch)
        store.close()
        assert len(_snapshot_file(tmp_path, 0)[2]) == 5

        recovered = DurableRecordStore(tmp_path)
        assert recovered.recovery_report["shards_loaded_lazily"] == 2
        assert recovered.records_materialised == 0
        assert _state_matches(recovered, oracle)
        # A recovered shard's file still takes a delta, and recovers again.
        tail = [_record(4, 2, 8.0)]
        recovered.ingest_batch(tail)
        oracle.ingest_batch(tail)
        recovered.checkpoint()
        recovered.close()
        assert len(_snapshot_file(tmp_path, 0)[2]) == 6
        with DurableRecordStore(tmp_path) as again:
            assert _state_matches(again, oracle)

    @staticmethod
    def _reopen_after_replay(root, batches):
        """``batches[0]`` checkpointed, the rest left in the segment, then
        reopened: ``(inode before, bytes before, the oracle)``; the recovery
        replays the rest and its checkpoint brings the file up to date."""
        store = DurableRecordStore(root, shard_seconds=SHARD_SECONDS)
        oracle = ShardedRecordStore(shard_seconds=SHARD_SECONDS)
        for batch in batches:
            store.ingest_batch(batch)
            oracle.ingest_batch(batch)
            if batch is batches[0]:
                store.checkpoint()
        store.close()
        inode, data, _frames = _snapshot_file(root, 0)
        with DurableRecordStore(root) as recovered:
            assert recovered.recovery_report["frames_replayed"] == len(batches) - 1
            assert _state_matches(recovered, oracle)
        with DurableRecordStore(root) as again:
            assert _state_matches(again, oracle)
        return inode, data, oracle

    def test_a_recovery_replaying_in_order_frames_appends_one_delta(self, tmp_path):
        """Recovery absorbs each frame as its ingest did, so the snapshot
        keeps its delta rule across the restart: the same file, the base
        frame untouched, one delta holding every replayed record once."""
        batches = _filling_batches(4)
        inode, base, _oracle = self._reopen_after_replay(tmp_path, batches)
        now_inode, data, frames = _snapshot_file(tmp_path, 0)
        assert now_inode == inode and data.startswith(base)
        replayed = [record for batch in batches[1:] for record in batch]
        assert [_comparable(frame) for frame in frames] == [
            {"shard": 0, "version": 1, "through": 1, "packed": batches[0]},
            {"shard": 0, "version": 4, "through": 4, "packed": replayed},
        ]

    def test_an_out_of_order_replayed_frame_makes_the_recovery_replace_the_file(
        self, tmp_path
    ):
        batches = _filling_batches(3)
        batches.insert(2, [_record(7, 3, 1.25)])  # below the records held
        inode, _base, oracle = self._reopen_after_replay(tmp_path, batches)
        now_inode, _data, frames = _snapshot_file(tmp_path, 0)
        assert now_inode != inode
        [(_key, version, records)] = oracle.shard_states()
        assert [_comparable(frame) for frame in frames] == [
            {"shard": 0, "version": version, "through": 4, "packed": list(records)}
        ]

    def test_a_failed_append_is_replaced_by_the_next_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """An append that raises (here its fsync) may have left bytes behind:
        the next checkpoint replaces the file instead of appending to it."""
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        oracle = ShardedRecordStore(shard_seconds=SHARD_SECONDS)
        first, second = _filling_batches(2)
        store.ingest_batch(first)
        oracle.ingest_batch(first)
        store.checkpoint()
        store.ingest_batch(second)
        oracle.ingest_batch(second)

        def failing_fsync(fd):
            raise OSError("injected fsync failure")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", failing_fsync)
            with pytest.raises(OSError):
                store.checkpoint()
        assert len(_snapshot_file(tmp_path, 0)[2]) == 2  # the append landed
        store.checkpoint()
        [(_key, version, records)] = oracle.shard_states()
        assert [_comparable(frame) for frame in _snapshot_file(tmp_path, 0)[2]] == [
            {"shard": 0, "version": version, "through": 2, "packed": list(records)}
        ]
        store.close()
        with DurableRecordStore(tmp_path) as reopened:
            assert _state_matches(reopened, oracle)

    @pytest.mark.parametrize("fsync", ["never", "batch", "always"])
    def test_a_crash_at_every_write_of_the_delta_tape(self, fsync, tmp_path):
        """``DELTA_TAPE`` at cadence 1, crashed before each of its writes in
        turn (and not at all): the recovered state is the rolled-back or the
        committed oracle of the op in flight, and a batch ingested after the
        recovery survives the next one."""
        with self._store(tmp_path / "dry", fsync=fsync) as dry:
            _run_tape(dry, DELTA_TAPE)
            writes = dry._writes_done
        for budget in range(writes + 1):
            root = tmp_path / str(budget)
            store = self._store(root, fsync=fsync, fail_after_writes=budget)
            applied, crashed_op = _run_tape(store, DELTA_TAPE)
            assert (crashed_op is None) == (budget == writes)
            store.close()

            # The policy shaped what the crash left; recovery needs no fsync.
            recovered = self._store(root, fsync="never")
            candidates = [_build_oracle(applied)]
            if crashed_op is not None and crashed_op[0] != "checkpoint":
                candidates.append(_build_oracle(applied + [crashed_op]))
            matches = [oracle for oracle in candidates if _state_matches(recovered, oracle)]
            assert matches, f"budget {budget}: neither legal state (crashed op {crashed_op})"
            oracle = matches[0]
            tail = [_record(5, 1, 19.0)]
            recovered.ingest_batch(tail)
            oracle.ingest_batch(tail)
            recovered.close()
            with DurableRecordStore(root) as again:
                assert _state_matches(again, oracle), budget

    def test_a_torn_last_frame_is_cut_while_its_segment_holds_the_records(
        self, tmp_path
    ):
        """A crash mid-append leaves a delta frame cut short; the checkpoint
        writing it had deleted no segment, so the open cuts the frame and
        replays the segment: the state before that checkpoint.  The replay
        was in time order, so the checkpoint ending the recovery appends the
        segment's records to the same file as one delta frame."""
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        oracle = ShardedRecordStore(shard_seconds=SHARD_SECONDS)
        first, second = _filling_batches(2)
        for batch in (first, second):
            store.ingest_batch(batch)
            oracle.ingest_batch(batch)
            if batch is first:
                store.checkpoint()
        store.close()
        path = tmp_path / "snapshots" / "shard-0.snap"
        inode, base, _frames = _snapshot_file(tmp_path, 0)
        with open(path, "ab") as handle:
            handle.write(
                encode_snapshot_frame(0, 2, 2, PackedRecordBatch.from_records(second))[:-5]
            )

        recovered = DurableRecordStore(tmp_path)
        assert recovered.recovery_report["torn_tails_truncated"] == 1
        assert recovered.recovery_report["frames_replayed"] == 1
        assert _state_matches(recovered, oracle)
        recovered.close()
        now_inode, data, frames = _snapshot_file(tmp_path, 0)
        assert now_inode == inode and data.startswith(base)  # the base frame untouched
        assert [_comparable(frame) for frame in frames] == [
            {"shard": 0, "version": 1, "through": 1, "packed": first},
            {"shard": 0, "version": 2, "through": 2, "packed": second},
        ]  # one delta, and no record twice


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



def _kill_batches(count):
    """``count`` time-ordered batches of three records over four shards."""
    return [
        [_record(oid, (oid + step) % 5, 4.0 * step + oid * 0.5) for oid in range(3)]
        for step in range(count)
    ]


def _ingest_and_ack(directory, fsync, count):
    """The child of :class:`TestProcessKill`: ingest ``_kill_batches(count)``
    at checkpoint cadence 4, print one line once each batch returned, then
    sleep until killed."""
    store = DurableRecordStore(
        directory,
        shard_seconds=SHARD_SECONDS,
        config=DurabilityConfig(fsync=fsync, snapshot_every_batches=4),
    )
    for step, batch in enumerate(_kill_batches(count)):
        store.ingest_batch(batch)
        print("ack", step, flush=True)
    time.sleep(600)


class TestProcessKill:
    """A kill -9 never loses an acknowledged write, under every fsync policy:
    each append, snapshot write and rename reaches the OS before the call
    returns, and the OS keeps it once the process is gone.  (Only
    ``"always"`` is meant to survive an OS crash; nothing here can cause
    one.)"""

    @pytest.mark.parametrize("fsync", ["always", "batch", "never"])
    def test_a_sigkilled_process_keeps_every_acknowledged_batch(self, tmp_path, fsync):
        count = 10
        code = (
            f"import test_durable; "
            f"test_durable._ingest_and_ack({str(tmp_path)!r}, {fsync!r}, {count})"
        )
        path = [pathlib.Path(repro.__file__).parents[1], pathlib.Path(__file__).parent]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)))
        with subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=env
        ) as child:
            hung = threading.Timer(60.0, child.kill)  # a hung child ends the reads
            hung.start()
            acks = [child.stdout.readline() for _ in range(count)]
            hung.cancel()
            child.kill()  # SIGKILL, while it sleeps
        assert child.returncode == -signal.SIGKILL
        assert acks == [f"ack {step}\n" for step in range(count)]
        oracle = ShardedRecordStore(shard_seconds=SHARD_SECONDS)
        for batch in _kill_batches(count):
            oracle.ingest_batch(batch)
        with DurableRecordStore(tmp_path) as recovered:
            assert recovered.recovery_report["frames_replayed"] > 0
            assert _state_matches(recovered, oracle)

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
            # + 1 (segment delete) and dies on writing the base frame.
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



# ----------------------------------------------------------------------
# Service restart: standing queries restored from the log + resume
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
            # (keeping it in the table's log), not unregister it.
            await service.stop()  # flush-on-drain
            await subscriber.close()
            await loader.close()
            iupt.close()
            # The registration survived the drain (connections were closed by
            # the server, so the standing query was detached, not dropped).
            assert _kept_ids(tmp_path) == [subscription.sub_id]

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
            # continuous registration over a volatile copy of the recovered
            # records (one over the table itself would enter its log).
            copy = IUPT(shard_seconds=60.0)
            copy.ingest_batch(service.iupt.records_in_time_order())
            fresh = make_engine().continuous(copy)
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
                assert _kept_ids(tmp_path) == [subscription.sub_id]
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
# Standing queries: control-log records, a damaged entry refused by its id
# ----------------------------------------------------------------------
def _inode(path):
    stat = os.stat(path)
    return stat.st_dev, stat.st_ino


def _kept_ids(root):
    """The ids of the standing queries a directory's control log keeps."""
    kept = {}
    for frame in _control_log(root)[1]:
        if frame["kind"] == "subscribe":
            kept[frame["query"]["id"]] = frame["query"]
        elif frame["kind"] == "unsubscribe":
            kept.pop(frame["id"], None)
    return list(kept)


def _answer(subscription):
    """What a standing query answers: its ranking and flows, or its flows."""
    result = subscription.result
    if subscription.kind == "top_k":
        return result.top_k_ids(), result.flows
    return result


def _damaged(**fields):
    """The kept flows entry under the next id, ``fields`` overwritten."""
    return lambda entry: {**entry, "id": entry["id"] + 1, **fields}


class TestStandingQueryLog:
    """A registration and a removal are each one frame appended to the
    control log under the fsync policy; recovery collects the live set, the
    size rule's rewrite keeps it, and an older build's ``subscriptions.json``
    is folded into the log once."""

    @pytest.mark.parametrize("fsync", ["always", "batch", "never"])
    def test_a_subscribe_and_an_unsubscribe_each_append_one_frame(
        self, tmp_path, monkeypatch, fsync
    ):
        """Each is synced once, unless the policy is ``"never"`` — the rule of
        a watermark record, so an acknowledged subscription survives an OS
        crash whenever an acknowledged ingest does — and no file is
        replaced."""
        store = DurableRecordStore(
            tmp_path, shard_seconds=SHARD_SECONDS, config=DurabilityConfig(fsync=fsync)
        )
        store.ingest_batch([_record(1, 0, 1.0), _record(2, 1, 12.0)])
        graph, matrix = _mini_space()
        continuous = QueryEngine(graph, matrix).continuous(store)
        inode, before = _control_log(tmp_path)
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
        registered = list(synced)
        continuous.unregister(subscription)
        monkeypatch.undo()
        once = [] if fsync == "never" else [_inode(tmp_path / "control.wal")]
        assert (registered, synced) == (once, once * 2)
        entry = {
            "id": subscription.sub_id,
            "kind": "flows",
            "slocs": list(subscription.sloc_ids),
            "window": [0.0, 20.0],
        }
        assert _control_log(tmp_path) == (
            inode,
            before
            + [
                {"kind": "subscribe", "query": entry},
                {"kind": "unsubscribe", "id": subscription.sub_id},
            ],
        )
        assert store.standing_queries() == []
        assert not list(tmp_path.rglob("*.tmp"))
        continuous.close()
        store.close()

    def test_a_torn_subscribe_frame_is_cut_and_not_restored(self, tmp_path):
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        store.ingest_batch([_record(1, 0, 1.0)])
        graph, matrix = _mini_space()
        slocs = sorted(graph.slocation_to_cell)
        with QueryEngine(graph, matrix).continuous(store) as continuous:
            kept = continuous.register_flows(slocs, 0.0, 20.0)
            continuous.register_top_k(slocs, 1, 0.0, 20.0)
        store.close()
        control = tmp_path / "control.wal"
        os.truncate(control, control.stat().st_size - 3)  # a crash mid-append

        recovered = DurableRecordStore(tmp_path)
        assert recovered.recovery_report["torn_tails_truncated"] == 1
        with QueryEngine(graph, matrix).continuous(recovered) as continuous:
            restored = continuous.restore_subscriptions()
        assert [subscription.sub_id for subscription in restored] == [kept.sub_id]
        assert _answer(restored[0]) == _answer(kept)
        assert _kept_ids(tmp_path) == [kept.sub_id]
        recovered.close()

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(_damaged(window=[0.0]), id="truncated-window"),
            pytest.param(_damaged(slocs=3), id="locations-not-a-list"),
            pytest.param(
                lambda entry: {
                    key: value
                    for key, value in _damaged()(entry).items()
                    if key != "window"
                },
                id="entry-without-window",
            ),
            pytest.param(_damaged(kind="bogus"), id="unknown-kind"),
            pytest.param(_damaged(slocs=[0, 0]), id="repeated-location"),
            pytest.param(_damaged(slocs=[]), id="no-location"),
            pytest.param(_damaged(window=[50.0, 10.0]), id="inverted-window"),
            pytest.param(
                _damaged(kind="top_k", k=1, slocs=[99999]),
                id="location-unknown-to-the-plan",
            ),
        ],
    )
    def test_a_damaged_entry_refuses_the_start_by_its_id(
        self, small_real_scenario, tmp_path, damage
    ):
        """The damaged entry sits behind one that restores."""
        scenario = small_real_scenario

        def make_engine():
            return QueryEngine(scenario.system.graph, scenario.system.matrix)

        store = DurableRecordStore(tmp_path, shard_seconds=60.0)
        with make_engine().continuous(store) as continuous:
            continuous.register_flows(scenario.slocation_ids()[:3], 0.0, 120.0)
        [entry] = store.standing_queries()
        store.close()
        damaged = damage(entry)
        with open(tmp_path / "control.wal", "ab") as handle:
            handle.write(encode_wal_frame({"kind": "subscribe", "query": damaged}))

        async def run():
            iupt = DurableRecordStore(tmp_path)
            service = QueryService(make_engine(), iupt)
            with pytest.raises(ValueError) as excinfo:
                await service.start()
            assert f"standing query {damaged['id']}:" in str(excinfo.value)
            # The service did not start: nothing listens, no worker is left.
            with pytest.raises(RuntimeError):
                service.address
            assert not any(worker.is_alive() for worker in service._pool._workers)
            assert iupt.listener_count == 0
            iupt.close()

        asyncio.run(run())

    def test_a_reopen_after_a_size_rule_rewrite_restores_the_same_queries(
        self, tmp_path
    ):
        """The rewrite keeps the live registrations behind the base frame and
        drops the removed one; the reopened table restores the same ids, and
        each recomputed result equals the maintained one."""
        store = DurableRecordStore(
            tmp_path,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(fsync="never", snapshot_every_batches=1),
        )
        graph, matrix = _mini_space()
        slocs = sorted(graph.slocation_to_cell)
        continuous = QueryEngine(graph, matrix).continuous(store)
        kept = [
            continuous.register_flows(slocs, 0.0, 40.0),
            continuous.register_top_k(slocs, 1, 20.0, 60.0),
        ]
        continuous.unregister(continuous.register_flows(slocs[:1], 0.0, 10.0))
        control = tmp_path / "control.wal"
        inode = control.stat().st_ino
        rng = random.Random(5)
        for step in range(300):
            store.ingest_batch(
                [
                    _workload_record(rng, oid, step * SHARD_SECONDS + oid * 0.5)
                    for oid in range(rng.randint(4, 12))
                ]
            )
            if control.stat().st_ino != inode:
                break
        else:
            pytest.fail("no checkpoint rewrote the control log")
        kinds = [frame["kind"] for frame in _control_log(tmp_path)[1]]
        assert kinds == ["base", "subscribe", "subscribe"]
        answers = {subscription.sub_id: _answer(subscription) for subscription in kept}
        continuous.close()
        store.close()

        recovered = DurableRecordStore(tmp_path)
        with QueryEngine(graph, matrix).continuous(recovered) as restoring:
            restored = restoring.restore_subscriptions()
        assert {s.sub_id: _answer(s) for s in restored} == answers
        assert any(flow > 0.0 for flow in _answer(restored[0]).values())
        recovered.close()

    def test_a_second_engine_mints_ids_above_every_kept_one(self, tmp_path):
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        graph, matrix = _mini_space()
        slocs = sorted(graph.slocation_to_cell)
        with QueryEngine(graph, matrix).continuous(store) as first:
            ids = [first.register_flows(slocs, 0.0, 20.0).sub_id for _ in range(3)]
            first.unregister(first.subscription(ids[0]))
        with QueryEngine(graph, matrix).continuous(store) as second:
            assert second.register_flows(slocs, 0.0, 20.0).sub_id == ids[-1] + 1
        store.close()
        recovered = DurableRecordStore(tmp_path)
        with QueryEngine(graph, matrix).continuous(recovered) as third:
            assert third.register_flows(slocs, 0.0, 20.0).sub_id == ids[-1] + 2
        recovered.close()
        assert _kept_ids(tmp_path) == [*ids[1:], ids[-1] + 1, ids[-1] + 2]

    @pytest.mark.parametrize("rewrite", [False, True], ids=["reopen", "after-a-rewrite"])
    def test_a_removed_id_is_never_handed_out_again(self, tmp_path, rewrite):
        """Ids 1 and 2 registered, 2 removed, the table reopened: the next
        registration gets 3, so a client resuming the old id 2 finds no
        query rather than someone else's.  A size-rule rewrite drops the
        frames naming 2, and its base frame carries the floor instead."""
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        graph, matrix = _mini_space()
        slocs = sorted(graph.slocation_to_cell)
        with QueryEngine(graph, matrix).continuous(store) as first:
            ids = [first.register_flows(slocs, 0.0, 20.0).sub_id for _ in range(2)]
            first.unregister(first.subscription(ids[1]))
        assert ids == [1, 2]
        if rewrite:
            store.checkpoint()  # no segment folded: the log outgrows one query
            frames = _control_log(tmp_path)[1]
            assert [frame["kind"] for frame in frames] == ["base", "subscribe"]
            assert frames[0]["next_query"] == 3
        store.close()
        recovered = DurableRecordStore(tmp_path)
        with QueryEngine(graph, matrix).continuous(recovered) as second:
            assert [s.sub_id for s in second.restore_subscriptions()] == [1]
            assert second.register_flows(slocs, 0.0, 20.0).sub_id == 3
        recovered.close()
        assert _kept_ids(tmp_path) == [1, 3]

    def test_a_subscribe_whose_append_fails_is_registered_nowhere(self, tmp_path):
        store = DurableRecordStore(
            tmp_path,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(fail_after_writes=2),
        )
        store.ingest_batch([_record(1, 0, 1.0)])  # a segment frame and a commit
        graph, matrix = _mini_space()
        continuous = QueryEngine(graph, matrix).continuous(store)
        with pytest.raises(SimulatedCrashError):
            continuous.register_flows(sorted(graph.slocation_to_cell), 0.0, 20.0)
        assert continuous.subscriptions == [] and store.standing_queries() == []
        continuous.close()
        store.close()
        assert _kept_ids(tmp_path) == []
        recovered = DurableRecordStore(tmp_path)
        assert recovered.standing_queries() == []
        recovered.close()

    def test_an_older_builds_subscriptions_file_is_folded_into_the_log(
        self, small_real_scenario, tmp_path
    ):
        """A JSON-era directory beside a ``subscriptions.json`` whose top-k
        entry spells the kind as builds before 12.0 did: the open folds the
        file into the log and deletes it, and each entry restores under its
        id, equal to a fresh registration."""
        scenario = small_real_scenario
        slocs = scenario.slocation_ids()[:6]
        write_json_era_directory(
            tmp_path, 60.0, [list(scenario.iupt.records_in_time_order())]
        )
        legacy = [
            {"id": 7, "kind": "top-k", "slocs": slocs, "window": [0.0, 120.0], "k": 2},
            {"id": 9, "kind": "flows", "slocs": slocs[:3], "window": [60.0, 180.0]},
        ]
        path = tmp_path / "subscriptions.json"
        path.write_text(json.dumps(legacy, indent=2), encoding="utf-8")

        def make_engine():
            return QueryEngine(scenario.system.graph, scenario.system.matrix)

        recovered = DurableRecordStore(tmp_path)
        assert not path.exists()
        assert recovered.standing_queries() == legacy
        copy = IUPT(shard_seconds=60.0)
        copy.ingest_batch(recovered.records_in_time_order())
        with make_engine().continuous(copy) as fresh_engine:
            fresh = [
                fresh_engine.register_top_k(slocs, 2, 0.0, 120.0),
                fresh_engine.register_flows(slocs[:3], 60.0, 180.0),
            ]
        with make_engine().continuous(recovered) as restoring:
            restored = restoring.restore_subscriptions()
            assert restoring.register_flows(slocs, 0.0, 60.0).sub_id == 10
        assert [(s.sub_id, s.kind) for s in restored] == [(7, "top_k"), (9, "flows")]
        assert [_answer(s) for s in restored] == [_answer(s) for s in fresh]
        assert [entry.flow for entry in restored[0].result.ranking] == [
            entry.flow for entry in fresh[0].result.ranking
        ]
        assert sum(restored[0].result.flows.values()) > 0.0
        recovered.close()
        assert _kept_ids(tmp_path) == [7, 9, 10]
