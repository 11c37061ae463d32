"""Replication: WAL cursors, binary frames, replicas, and the router.

Four layers, each asserted **bit-identical** against a non-replicated
oracle:

* the durable store's replication cursor API (``committed_frames_after``
  must reproduce exactly the ingested batches, as the bytes the segments
  hold; the replay floor moves with checkpoints and evictions; store
  listeners see each commit with its sequence and the frames it appended)
  and the primary's followers (one ``wal_tail`` attaches, lag in frames
  lives on the tailing connection),
* the binary wire framing (``"bin"``-length-prefixed RPK1 payloads through
  :class:`~repro.service.stream.FrameDecoder`, the decoder every role runs),
* the :class:`~repro.service.replica.ReadReplica` catch-up-then-tail loop
  (live replay, snapshot catch-up, fault-injected primary crash + restart,
  JSON-era directories; a damaged payload is a row of
  ``tests/test_damage.py``), and
* the :class:`~repro.service.router.PartitionRouter` (routed reads equal
  primary reads, read-your-writes, fallback when a replica dies).
"""

from __future__ import annotations

import asyncio
import json
import random
import threading

import pytest

from repro import (
    QueryEngine,
    QueryService,
    SampleSet,
    ServiceClient,
    ServiceError,
    TkPLQuery,
)
from repro.codec.packed import PackedRecordBatch
from repro.data.records import PositioningRecord
from repro.service import protocol
from repro.service.client import ReconnectPolicy
from repro.service.protocol import ProtocolError
from repro.service.replica import ReadReplica
from repro.service.router import PartitionRouter
from repro.storage import (
    DurabilityConfig,
    DurableRecordStore,
    EvictedRangeError,
    EvictionEvent,
    IngestEvent,
    ShardedRecordStore,
    SimulatedCrashError,
)
from repro.storage.wal import decode_wal_frames
from tests.frame_feed import read_all
from tests.json_era_store import write_json_era_directory

SHARD_SECONDS = 10.0


def _record(object_id: int, ploc: int, timestamp: float) -> PositioningRecord:
    return PositioningRecord(
        object_id,
        SampleSet.from_pairs([(ploc, 0.625), (ploc + 1, 0.375)]),
        timestamp,
    )


def _batch(base_time: float, count: int = 4) -> list:
    return sorted(
        (
            _record(100 + i, i % 3, base_time + i * 2.5)
            for i in range(count)
        ),
        key=lambda r: r.timestamp,
    )


def _records_of(frames: bytes) -> list:
    """The records whole log frames hold, in frame order."""
    decoded, valid = decode_wal_frames(frames)
    assert valid == len(frames)
    return [record for frame in decoded for record in frame["packed"].to_records()]


def _frames_by_seq(path) -> dict:
    """``seq -> the raw bytes of its frame`` in one segment file."""
    data, offset, frames = path.read_bytes(), 0, {}
    while offset < len(data):
        end = offset + 8 + int.from_bytes(data[offset : offset + 4], "big")
        [frame], _valid = decode_wal_frames(data[offset:end])
        frames[frame["seq"]] = data[offset:end]
        offset = end
    return frames


# ----------------------------------------------------------------------
# The durable store's replication cursor API
# ----------------------------------------------------------------------
class TestWalCursorApi:
    def test_committed_batches_replay_bit_identically(self, tmp_path):
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        batches = [_batch(i * 20.0) for i in range(5)]
        for batch in batches:
            store.ingest_batch(batch)
        replayed = store.committed_frames_after(0)
        assert [seq for seq, _ in replayed] == [1, 2, 3, 4, 5]
        for (seq, frames), original in zip(replayed, batches):
            assert _records_of(frames) == original
        # Partial cursors replay exactly the suffix.
        suffix = store.committed_frames_after(3)
        assert [seq for seq, _ in suffix] == [4, 5]
        assert _records_of(suffix[0][1]) == batches[3]
        assert store.committed_frames_after(5) == []
        store.close()

    def test_committed_frames_are_the_bytes_the_segments_hold(self, tmp_path):
        """Each sequence's frames, re-encoded from their packed columns, are
        byte for byte the frames its segments hold, in ascending shard key."""
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        for base in (5.0, 25.0, 95.0, 0.0):  # 2, 10 and 0 sort apart by name
            store.ingest_batch(_batch(base, count=3) + _batch(base + 100.0, count=2))
        held = {
            key: _frames_by_seq(tmp_path / "wal" / f"segment-{key}.wal")
            for key in sorted(store.shard_versions())
        }
        expected = [
            (seq, b"".join(frames[seq] for frames in held.values() if seq in frames))
            for seq in (2, 3, 4)
        ]
        assert store.committed_frames_after(1) == expected
        store.close()

    def test_a_batch_over_shards_2_and_10_replays_in_time_order(self, tmp_path):
        """Regression: a sequence's slices concatenate in ascending *integer*
        shard key — file names sort ``segment-10`` before ``segment-2``."""
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        batch = _batch(25.0, count=2) + _batch(105.0, count=2)
        store.ingest_batch(batch)
        assert set(store.shard_versions()) == {2, 10}
        [(seq, frames)] = store.committed_frames_after(0)
        assert seq == 1 and _records_of(frames) == batch
        store.close()

    def test_checkpoint_advances_the_replay_floor(self, tmp_path):
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        store.ingest_batch(_batch(0.0))
        store.ingest_batch(_batch(20.0))
        assert store.can_replay_from(0)
        store.checkpoint()
        assert store.wal_base_seq == store.last_committed_seq == 2
        assert not store.can_replay_from(0)
        assert store.can_replay_from(2)
        with pytest.raises(ValueError):
            store.committed_frames_after(0)
        # Frames committed after the checkpoint replay from the floor.
        store.ingest_batch(_batch(40.0))
        assert [seq for seq, _ in store.committed_frames_after(2)] == [3]
        store.close()

    def test_eviction_advances_the_replay_floor(self, tmp_path):
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        store.ingest_batch(_batch(0.0))
        store.ingest_batch(_batch(50.0))
        store.evict_before(30.0)
        assert store.wal_base_seq == store.last_committed_seq
        assert not store.can_replay_from(0)
        store.close()

    def test_wal_inventory_reports_segments_and_bytes(self, tmp_path):
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        store.ingest_batch(_batch(0.0) + _batch(20.0))
        inventory = store.wal_inventory()
        assert inventory["segments"] >= 2
        assert inventory["segment_bytes"] > 0
        assert inventory["control_bytes"] > 0
        assert inventory["base_seq"] == 0
        assert inventory["last_seq"] == 1
        per_shard = inventory["per_shard_bytes"]
        assert sum(per_shard.values()) == inventory["segment_bytes"]
        store.close()

    def test_store_listeners_see_commits_and_evictions_in_order(self, tmp_path):
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        events = []
        token = store.subscribe(events.append)
        first = _batch(0.0)
        store.ingest_batch(first)
        store.ingest_batch(_batch(50.0))
        store.evict_before(15.0)  # dooms whole shard 0 ([0, 10))
        assert isinstance(events[0], IngestEvent)
        assert events[0].seq == 1 and _records_of(events[0].frames) == first
        assert events[0].receipt.records_ingested == len(first)
        assert isinstance(events[1], IngestEvent) and events[1].seq == 2
        assert isinstance(events[2], EvictionEvent)
        assert events[2].watermark == 10.0  # shard-aligned, not the request
        assert events[2].records_dropped == len(first)
        # One listener table: the durable store is a sharded store, not a
        # wrapper around a second one with a table of its own.
        assert isinstance(store, ShardedRecordStore)
        assert store.listener_count == 1
        assert store.unsubscribe(token)
        store.ingest_batch(_batch(80.0))
        assert len(events) == 3  # removed listeners stay silent
        store.close()
        # A volatile store's event carries no sequence and no frame.
        volatile = ShardedRecordStore(shard_seconds=SHARD_SECONDS)
        volatile.subscribe(events.append)
        volatile.ingest_batch(first)
        assert events[3].seq is None and events[3].frames is None

    def test_an_ingest_event_carries_the_bytes_its_commit_appended(self, tmp_path):
        """The frames a live push ships are the segment bytes themselves:
        what each segment file grew by, in ascending shard key."""
        store = DurableRecordStore(tmp_path, shard_seconds=SHARD_SECONDS)
        store.ingest_batch(_batch(25.0) + _batch(105.0))
        segments = [tmp_path / "wal" / f"segment-{key}.wal" for key in (2, 3, 10, 11)]
        sizes = [path.stat().st_size for path in segments]
        events = []
        store.subscribe(events.append)
        store.ingest_batch(_batch(28.0) + _batch(107.0))
        [event] = events
        assert event.frames == b"".join(
            path.read_bytes()[size:] for path, size in zip(segments, sizes)
        )
        store.close()

    def test_a_snapshot_section_holding_no_record_is_refused_before_the_reset(self):
        """A shard exists only once a batch reached it, so an empty shard of
        a ``wal_tail`` snapshot payload is damage: the reset refuses it and
        leaves the table as it was, rather than adopting a phantom shard whose
        ``time_span()`` cannot be read."""
        table = ShardedRecordStore(shard_seconds=SHARD_SECONDS)
        table.ingest_batch(_batch(0.0))

        def state():
            return (
                table.records_in_time_order(), table.version_token(),
                table.time_span(), table.eviction_watermark,
            )  # fmt: skip

        before = state()
        shards = [
            (0, 3, PackedRecordBatch.from_records(_batch(0.0, count=3))),
            (2, 1, PackedRecordBatch.from_records([])),
        ]
        with pytest.raises(ValueError, match="shard 2 holds no record"):
            table.reset_to_packed_shards(shards, watermark=5.0)
        assert state() == before


# ----------------------------------------------------------------------
# Binary wire frames
# ----------------------------------------------------------------------
class TestBinaryFrames:
    def test_encode_frame_emits_length_prefixed_payload(self):
        payload = b"\x00\x01binary\nbytes\xff"
        wire = protocol.encode_frame(
            {"id": 7, "op": "ingest_batch", protocol.BIN_PAYLOAD: payload}
        )
        header, rest = wire.split(b"\n", 1)
        assert rest == payload  # payload is raw, no trailing newline
        frame = protocol.decode_frame(header)
        assert frame[protocol.BIN_LENGTH] == len(payload)
        assert protocol.BIN_PAYLOAD not in frame  # never JSON-encoded

    def test_assembler_reassembles_binary_frames_across_chunks(self):
        payload = bytes(range(256)) * 3
        wire = protocol.encode_frame(
            {"push": "wal", "seq": 4, protocol.BIN_PAYLOAD: payload}
        ) + protocol.encode_frame({"id": 1, "ok": True, "result": {"pong": True}})
        # Drip-feed 7 bytes at a time.
        frames = read_all(wire[i : i + 7] for i in range(0, len(wire), 7))
        assert len(frames) == 2
        assert frames[0]["seq"] == 4
        assert frames[0][protocol.BIN_PAYLOAD] == payload
        assert frames[1]["result"] == {"pong": True}

    def test_assembler_rejects_oversized_declared_payloads(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        wire = b'{"id": 1, "bin": 65}\n' + b"p" * 65 + b'{"id": 2}\n'
        (error,) = read_all([wire], limit=64)
        assert isinstance(error, ProtocolError)
        assert error.fatal  # the bytes behind a refused length are never read
        assert read_all([b'{"id": 1, "bin": 64}\n' + b"p" * 64], limit=64) == [
            {"id": 1, "bin": 64, protocol.BIN_PAYLOAD: b"p" * 64}
        ]

    def test_record_payload_round_trip_is_bit_exact(self):
        records = _batch(0.0, count=9)
        payload = protocol.records_to_payload(records)
        assert protocol.records_from_payload(payload) == records


# ----------------------------------------------------------------------
# Service-level fixtures (mirrors test_service's conventions)
# ----------------------------------------------------------------------
HISTORY = 120.0
DURATION = 240.0
SERVICE_SHARD_SECONDS = 60.0


def _split_stream(scenario):
    records = sorted(scenario.iupt.records_in_time_order(), key=lambda r: r.timestamp)
    history = [r for r in records if r.timestamp < HISTORY]
    live = [r for r in records if r.timestamp >= HISTORY]
    return history, live


def _make_engine(scenario) -> QueryEngine:
    return QueryEngine(scenario.system.graph, scenario.system.matrix)


async def _start_primary(scenario, tmp_path, preload=None, config=None, port=0):
    iupt = DurableRecordStore(
        tmp_path, shard_seconds=SERVICE_SHARD_SECONDS, config=config
    )
    service = QueryService(
        _make_engine(scenario), iupt, port=port, query_workers=2
    )
    host, bound_port = await service.start()
    if preload:
        async with await ServiceClient.connect(host, bound_port) as client:
            await client.ingest_batch(preload)
    return service, host, bound_port


async def _assert_reads_match(primary_client, replica_client, slocs):
    for start, end in ((0.0, DURATION), (0.0, HISTORY), (30.0, 200.0)):
        assert await replica_client.top_k(slocs, 3, start, end) == \
            await primary_client.top_k(slocs, 3, start, end)
    assert await replica_client.flows(slocs[:4], 0.0, DURATION) == \
        await primary_client.flows(slocs[:4], 0.0, DURATION)


# ----------------------------------------------------------------------
# Read replicas
# ----------------------------------------------------------------------
class TestReplicaConvergence:
    def test_live_tail_converges_bit_identically(
        self, small_real_scenario, tmp_path
    ):
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_primary(
                scenario, tmp_path, preload=history
            )
            replica = ReadReplica(_make_engine(scenario), host, port, name="r0")
            rhost, rport = await replica.start()
            assert replica.snapshot_catchups == 0  # cursor 0 was replayable
            seq = None
            async with await ServiceClient.connect(host, port) as primary:
                step = max(1, len(live) // 4)
                for i in range(0, len(live), step):
                    seq = (await primary.ingest_batch(live[i : i + step]))["seq"]
                await replica.wait_applied(seq)
                async with await ServiceClient.connect(rhost, rport) as rc:
                    await _assert_reads_match(primary, rc, slocs)
                    status = await rc.replica_status()
                    assert status["role"] == "replica"
                    assert status["read_only"] is True
                    assert status["applied_seq"] == seq
                    with pytest.raises(ServiceError) as excinfo:
                        await rc.evict_before(1.0)
                    assert excinfo.value.kind == "bad_request"
            # Same commit prefix, same store uid: equal version tokens.
            assert replica.iupt.shard_versions() == \
                service.iupt.shard_versions()
            assert replica.iupt.version_token() == \
                service.iupt.version_token()
            await replica.stop()
            await service.stop()

        asyncio.run(run())

    def test_handshake_neither_sends_nor_needs_an_index_kind(
        self, small_real_scenario, tmp_path
    ):
        scenario = small_real_scenario
        history, live = _split_stream(scenario)

        class OldPrimaryReplica(ReadReplica):
            """Hears what a primary from before the key was dropped sent."""

            async def _handshake(self) -> dict:
                return {**await super()._handshake(), "index_kind": "bplus-tree"}

        async def run():
            service, host, port = await _start_primary(
                scenario, tmp_path, preload=history
            )
            replica = OldPrimaryReplica(_make_engine(scenario), host, port, name="r0")
            await replica.start()
            async with await ServiceClient.connect(host, port) as primary:
                assert "index_kind" not in await primary.wal_tail(0)
                seq = (await primary.ingest_batch(live))["seq"]
                await replica.wait_applied(seq)
            assert replica.iupt.index_kind == "timestamp-column"
            assert replica.iupt.version_token() == \
                service.iupt.version_token()
            await replica.stop()
            await service.stop()

        asyncio.run(run())

    def test_snapshot_catch_up_when_the_floor_moved(
        self, small_real_scenario, tmp_path
    ):
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            # Aggressive checkpointing: the replay floor chases the head, so
            # a replica joining from cursor 0 must catch up via snapshot.
            service, host, port = await _start_primary(
                scenario,
                tmp_path,
                preload=history,
                config=DurabilityConfig(snapshot_every_batches=1),
            )
            async with await ServiceClient.connect(host, port) as primary:
                seq = (await primary.ingest_batch(live))["seq"]
                replica = ReadReplica(
                    _make_engine(scenario), host, port, name="late"
                )
                rhost, rport = await replica.start()
                assert replica.snapshot_catchups == 1
                await replica.wait_applied(seq)
                async with await ServiceClient.connect(rhost, rport) as rc:
                    await _assert_reads_match(primary, rc, slocs)
                assert replica.iupt.version_token() == \
                    service.iupt.version_token()
                await replica.stop()
            await service.stop()

        asyncio.run(run())

    def test_a_snapshot_catch_up_resyncs_standing_subscriptions(
        self, small_real_scenario, tmp_path
    ):
        """A reset fires no store events, so the replica's ``resync`` is the
        only thing that moves its standing results onto an adopted snapshot:
        a window the snapshot changed is recomputed and pushed once, equal to
        a fresh registration over the adopted table, and a window below the
        adopted watermark gets exactly one ``evicted`` push."""
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        class PausedReplica(ReadReplica):
            """Drops the live tail while paused: only a snapshot catches up."""

            paused = False

            async def _apply_commit(self, frame) -> None:
                if not self.paused:
                    await super()._apply_commit(frame)

        async def run():
            service, host, port = await _start_primary(
                scenario,
                tmp_path,
                preload=history,
                config=DurabilityConfig(snapshot_every_batches=1),
            )
            replica = PausedReplica(_make_engine(scenario), host, port, name="late")
            rhost, rport = await replica.start()
            assert replica.snapshot_catchups == 1
            async with await ServiceClient.connect(rhost, rport) as rc:
                standing = await rc.subscribe_top_k(slocs, 3, 90.0, DURATION)
                doomed = await rc.subscribe_flows(slocs[:4], 0.0, HISTORY)
                before = standing.result
                replica.paused = True
                async with await ServiceClient.connect(host, port) as primary:
                    await primary.ingest_batch(live)
                service.iupt.restore_watermark(80.0)
                replica.applied_seq = 0
                resync, resynced_on = replica.service.continuous.resync, []

                def recorded_resync():
                    resynced_on.append(threading.current_thread().name)
                    return resync()

                replica.service.continuous.resync = recorded_resync
                await replica._reattach()
                assert replica.snapshot_catchups == 2
                assert replica.resubscribes == 1
                # Adopted and recomputed on the replica service's pool, not
                # on the loop that serves the replica's connections.
                assert [name.split("_")[0] for name in resynced_on] == ["repro-query"]

                update = await standing.next_update(timeout=5.0)
                with _make_engine(scenario).continuous(replica.iupt) as fresh:
                    expected = protocol.subscription_result_to_wire(
                        "top_k", fresh.register_top_k(slocs, 3, 90.0, DURATION).result
                    )
                assert update["push"] == "update"
                assert update["result"] == json.loads(json.dumps(expected))
                assert update["result"] != before
                evicted = await doomed.next_update(timeout=5.0)
                assert evicted["push"] == "evicted"
                assert evicted["error"]["watermark"] == 80.0

                # Nothing further is pending for either subscription: a
                # second resync finds every window current or already dead.
                assert replica.service.continuous.resync() == 0
                await rc.ping()
                assert standing.updates.empty() and doomed.updates.empty()
            await replica.stop()
            await service.stop()

        asyncio.run(run())

    def test_a_snapshot_catch_up_that_moves_retention_refuses_warmed_windows(
        self, small_real_scenario, tmp_path
    ):
        """A snapshot carries the primary's watermark beside shard versions.

        The version token leaves the watermark out (same shards, same
        versions: same token), so after the catch-up the replica's engine
        still holds a valid key for a window that now reaches below
        retention — every read of it must raise like a cold one would.
        """
        scenario = small_real_scenario
        records = sorted(scenario.iupt.records_in_time_order(), key=lambda r: r.timestamp)
        slocs = scenario.slocation_ids()[:6]
        start, end = 70.0, 110.0  # inside shard [60, 120) alone

        def reads(engine, iupt):
            yield from (
                lambda a=algorithm: engine.top_k(iupt, slocs, 2, start, end, a)
                for algorithm in ("naive", "nested-loop", "best-first")
            )
            yield lambda: engine.flows(iupt, slocs, start, end)
            yield lambda: engine.flow(iupt, slocs[0], start, end)
            yield lambda: engine.batch_top_k(
                iupt, [TkPLQuery.build(slocs, 2, start, end)]
            )

        async def run():
            service, host, port = await _start_primary(
                scenario,
                tmp_path,
                preload=records,
                config=DurabilityConfig(snapshot_every_batches=1),
            )
            replica = ReadReplica(_make_engine(scenario), host, port, name="late")
            await replica.start()
            assert replica.snapshot_catchups == 1
            for read in reads(replica.engine, replica.iupt):
                read()
                hits = replica.engine.cache_stats()["hits"]
                read()
                assert replica.engine.cache_stats()["hits"] > hits

            # What a durable reopen of the primary adopts from its control
            # log; the replica then falls below the floor and re-catches-up.
            token = replica.iupt.version_token(start, end)
            service.iupt.restore_watermark(80.0)
            replica.applied_seq = 0
            await replica._reattach()
            assert replica.snapshot_catchups == 2
            assert replica.iupt.eviction_watermark == 80.0
            assert replica.iupt.version_token(start, end) == token
            for read in reads(replica.engine, replica.iupt):
                with pytest.raises(EvictedRangeError) as refused:
                    read()
                assert refused.value.watermark == 80.0
            async with await ServiceClient.connect(*replica.service.address) as rc:
                with pytest.raises(ServiceError) as excinfo:
                    await rc.top_k(slocs, 2, start, end)
                assert excinfo.value.kind == "evicted_range"
                async with await ServiceClient.connect(host, port) as primary:
                    assert await rc.top_k(slocs, 2, 80.0, end) == \
                        await primary.top_k(slocs, 2, 80.0, end)
            await replica.stop()
            await service.stop()

        asyncio.run(run())

    def test_eviction_ships_to_the_replica(self, small_real_scenario, tmp_path):
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_primary(
                scenario, tmp_path, preload=history
            )
            replica = ReadReplica(_make_engine(scenario), host, port, name="r0")
            rhost, rport = await replica.start()
            async with await ServiceClient.connect(host, port) as primary:
                seq = (await primary.ingest_batch(live))["seq"]
                await replica.wait_applied(seq)
                await primary.evict_before(HISTORY)
                deadline = asyncio.get_running_loop().time() + 10.0
                while replica.applied_evictions < 1:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                assert replica.iupt.eviction_watermark == \
                    service.iupt.eviction_watermark
                async with await ServiceClient.connect(rhost, rport) as rc:
                    assert await rc.top_k(slocs, 3, HISTORY, DURATION) == \
                        await primary.top_k(slocs, 3, HISTORY, DURATION)
            await replica.stop()
            await service.stop()

        asyncio.run(run())

    def test_mixed_codec_wal_tails_to_a_replica(
        self, small_real_scenario, tmp_path
    ):
        """A JSON-era directory ships identically: opening it folds the JSON
        segment frames into binary snapshots (no segment mixes the eras), so
        a replica attaching afterwards adopts those and then tails RPK1."""
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            # First epoch: an older build's JSON record frames, written by hand.
            write_json_era_directory(tmp_path, SERVICE_SHARD_SECONDS, [history])
            # Second epoch: the directory opened by this build — the open
            # replays the JSON frames, then checkpoints them away.
            iupt = DurableRecordStore(tmp_path)
            assert iupt.recovery_report["frames_replayed"] > 0
            assert not list((tmp_path / "wal").glob("segment-*.wal"))
            assert not iupt.can_replay_from(0)
            service = QueryService(
                _make_engine(scenario), iupt, query_workers=2
            )
            host, port = await service.start()
            async with await ServiceClient.connect(host, port) as primary:
                step = max(1, len(live) // 2)
                await primary.ingest_batch(live[:step])
                replica = ReadReplica(
                    _make_engine(scenario), host, port, name="mixed"
                )
                rhost, rport = await replica.start()
                assert replica.snapshot_catchups == 1  # the floor is the open
                seq = (await primary.ingest_batch(live[step:]))["seq"]
                await replica.wait_applied(seq)
                async with await ServiceClient.connect(rhost, rport) as rc:
                    await _assert_reads_match(primary, rc, slocs)
                assert replica.iupt.version_token() == \
                    service.iupt.version_token()
                await replica.stop()
            await service.stop()

        asyncio.run(run())


async def _eventually(condition, what, timeout=10.0):
    """Poll ``condition()`` (a bool, or a coroutine of one) until it holds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        held = condition()
        if asyncio.iscoroutine(held):
            held = await held
        if held:
            return
        assert asyncio.get_running_loop().time() < deadline, what
        await asyncio.sleep(0.01)


class TestFollowersLiveOnTheirConnections:
    """A follower attaches with one ``wal_tail``, and the primary's follower
    ledger is its live tailing connections — there is no other to leak."""

    def test_replicas_attach_to_a_busy_primary_in_one_request(
        self, small_real_scenario, tmp_path
    ):
        """The primary checkpoints after every batch while a client ingests
        without pause, so its replay floor moves all the time: every replica
        still attaches, each with exactly one ``wal_tail``."""
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        starts = 30

        async def run():
            service, host, port = await _start_primary(
                scenario, tmp_path, preload=history,
                config=DurabilityConfig(snapshot_every_batches=1),
            )
            ingesting = True

            async def ingest():
                async with await ServiceClient.connect(host, port) as loader:
                    index = 0
                    while ingesting:
                        await loader.ingest_batch(
                            [_record(7, index % 3, 300.0 + (index + i) * 0.25)
                             for i in range(3)]
                        )
                        index += 3

            loading = asyncio.ensure_future(ingest())
            await _eventually(
                lambda: service.iupt.last_committed_seq > 3,
                "the loader never started",
            )
            catchups = 0
            for index in range(starts):
                replica = ReadReplica(
                    _make_engine(scenario), host, port, name=f"r{index}",
                    query_workers=1,
                )
                await replica.start()  # raised ReplicaError when the floor moved
                catchups += replica.snapshot_catchups
                if index == starts - 1:
                    ingesting = False
                    await loading
                    await replica.wait_applied(service.iupt.last_committed_seq)
                    assert replica.iupt.version_token() == \
                        service.iupt.version_token()
                await replica.stop()
            assert catchups == starts  # every cursor 0 was below the floor
            assert service.metrics.requests_by_op["wal_tail"] == starts
            async with await ServiceClient.connect(host, port) as primary:
                await _eventually(
                    lambda: _no_followers(primary), "a stopped replica stayed"
                )
            await service.stop()
            service.iupt.close()

        asyncio.run(run())

    def test_follower_lag_tracking(self, small_real_scenario, tmp_path):
        scenario = small_real_scenario
        history, live = _split_stream(scenario)

        async def run():
            service, host, port = await _start_primary(scenario, tmp_path)
            async with await ServiceClient.connect(host, port) as primary:
                step = len(live) // 4
                for i in range(4):
                    await primary.ingest_batch(live[i * step : (i + 1) * step])

                async def followers():
                    return (await primary.replica_status())["followers"]

                with pytest.raises(ServiceError) as excinfo:
                    await primary.wal_ack(4)  # this connection is no follower
                assert excinfo.value.kind == "bad_request"
                async with await ServiceClient.connect(host, port) as follower:
                    tail = await follower.wal_tail(1, follower="r0")
                    assert (tail["mode"], tail["caught_up"]) == ("replay", 3)
                    assert await followers() == {
                        "r0": {"cursor": 1, "frames_behind": 3}
                    }
                    await follower.wal_ack(4)
                    assert (await followers())["r0"]["frames_behind"] == 0
                    await follower.wal_ack(2)  # never backwards
                    assert (await followers())["r0"]["cursor"] == 4
                await _eventually(
                    lambda: _no_followers(primary), "the closed tail stayed"
                )
            await service.stop()
            service.iupt.close()

        asyncio.run(run())

    def test_a_handshake_from_a_connection_that_closes_leaves_no_follower(
        self, small_real_scenario, tmp_path
    ):
        """Closed after its answer, or before the worker attached it: either
        way the follower leaves ``followers`` and its listener leaves the
        store (the continuous engine's is the one that stays)."""
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)

        async def run():
            service, host, port = await _start_primary(
                scenario, tmp_path, preload=history
            )
            store = service.iupt
            async with await ServiceClient.connect(host, port) as primary:
                for read_the_answer in (True, False):
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(protocol.encode_frame(
                        {"id": 1, "op": "wal_tail", "cursor": 0, "follower": "ghost"}
                    ))
                    await writer.drain()
                    if read_the_answer:
                        await _eventually(
                            lambda: store.listener_count == 2,
                            "the tail never attached",
                        )
                        assert "ghost" in (await primary.replica_status())["followers"]
                    writer.close()
                    await _eventually(
                        lambda: _no_followers(primary), "the ghost stayed"
                    )
                    await _eventually(
                        lambda: store.listener_count == 1,
                        "the ghost's listener stayed",
                    )
            await service.stop()
            service.iupt.close()

        asyncio.run(run())

    def test_two_tails_under_one_name_leave_one_at_a_time(
        self, small_real_scenario, tmp_path
    ):
        scenario = small_real_scenario
        history, live = _split_stream(scenario)

        async def run():
            service, host, port = await _start_primary(
                scenario, tmp_path, preload=history
            )
            async with await ServiceClient.connect(host, port) as primary:
                first = await ServiceClient.connect(host, port)
                second = await ServiceClient.connect(host, port)
                for tail in (first, second):
                    await tail.wal_tail(1, follower="r0")
                assert list((await primary.replica_status())["followers"]) == ["r0"]
                await first.close()
                await _eventually(
                    lambda: len(service._connections) == 2,
                    "the first tail never left",
                )
                assert list((await primary.replica_status())["followers"]) == ["r0"]
                seq = (await primary.ingest_batch(live))["seq"]
                frame = await asyncio.wait_for(second.wal_frames.get(), 10.0)
                assert (frame["push"], frame["seq"]) == ("wal", seq)
                await second.close()
                await _eventually(
                    lambda: _no_followers(primary), "the second tail stayed"
                )
            await service.stop()
            service.iupt.close()

        asyncio.run(run())


    def test_concurrent_ingests_reach_a_raw_follower_in_seq_order(
        self, small_real_scenario, tmp_path
    ):
        """Two workers commit two clients' batches at once; each commit's
        ``wal`` push leaves after its acknowledgement, and the follower still
        sees every seq once, in order."""
        scenario = small_real_scenario
        rounds = 12

        async def run():
            service, host, port = await _start_primary(scenario, tmp_path)
            clients = [await ServiceClient.connect(host, port) for _ in range(2)]
            follower = await ServiceClient.connect(host, port)
            tail = await follower.wal_tail(0, follower="raw")
            assert (tail["mode"], tail["cursor"]) == ("replay", 0)
            acked = []
            for index in range(rounds):
                replies = await asyncio.gather(*(
                    client.ingest_batch(_batch(10.0 * (2 * index + side)))
                    for side, client in enumerate(clients)
                ))
                acked += [reply["seq"] for reply in replies]
            assert sorted(acked) == list(range(1, 2 * rounds + 1))
            pushed = [
                await asyncio.wait_for(follower.wal_frames.get(), 10.0)
                for _ in acked
            ]
            assert [(frame["push"], frame["seq"]) for frame in pushed] == [
                ("wal", seq) for seq in range(1, 2 * rounds + 1)
            ]
            assert follower.wal_frames.empty()
            for client in (*clients, follower):
                await client.close()
            await service.stop()
            service.iupt.close()

        asyncio.run(run())

async def _no_followers(client) -> bool:
    return (await client.replica_status())["followers"] == {}


class TestFaultInjectedCatchUpThenTail:
    def test_replica_survives_a_primary_crash_and_restart(
        self, small_real_scenario, tmp_path
    ):
        """Kill the primary mid-stream with the WAL fault hook, restart it
        from its directory on the same port, and require the replica to
        reconnect, re-handshake, and reconverge bit-identically."""
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()
        step = max(1, len(live) // 8)

        async def run():
            # Crash after a bounded number of WAL writes, mid-stream.
            iupt = DurableRecordStore(
                tmp_path,
                shard_seconds=SERVICE_SHARD_SECONDS,
                config=DurabilityConfig(fail_after_writes=16),
            )
            iupt.ingest_batch(history)  # commit seq 1
            service = QueryService(
                _make_engine(scenario), iupt, query_workers=2
            )
            host, port = await service.start()
            replica = ReadReplica(
                _make_engine(scenario),
                host,
                port,
                name="survivor",
                reconnect=ReconnectPolicy(
                    max_retries=40, initial_backoff=0.05, max_backoff=0.25
                ),
            )
            rhost, rport = await replica.start()

            crashed = False
            async with await ServiceClient.connect(host, port) as primary:
                for i in range(0, len(live), step):
                    try:
                        await primary.ingest_batch(live[i : i + step])
                    except ServiceError as error:
                        assert error.kind == "internal"
                        crashed = True
                        break
            assert crashed, "the fault hook never fired"
            await service.stop()

            # Restart from the directory on the SAME port — recovery
            # truncates the torn tail; the replica applied only committed
            # batches, so its cursor is exactly the recovered head.
            iupt = DurableRecordStore(tmp_path, shard_seconds=SERVICE_SHARD_SECONDS)
            service = QueryService(
                _make_engine(scenario), iupt, port=port, query_workers=2
            )
            await service.start()
            async with await ServiceClient.connect(host, port) as primary:
                # Resume the stream exactly after the last *committed* live
                # batch (batch k covered live[(k-1)*step : k*step]).
                status = await primary.replica_status()
                committed_live = int(status["last_seq"]) - 1
                remaining = live[committed_live * step :]
                assert remaining, "the crash left nothing to resume"
                seq = (await primary.ingest_batch(remaining))["seq"]
                await replica.wait_applied(seq, timeout=30.0)
                assert replica.healthy
                async with await ServiceClient.connect(rhost, rport) as rc:
                    await _assert_reads_match(primary, rc, slocs)
            assert replica.iupt.version_token() == \
                service.iupt.version_token()
            await replica.stop()
            await service.stop()

        asyncio.run(run())

    @pytest.mark.parametrize("fresh_batches", [3, 7])
    def test_a_replica_of_a_replaced_primary_adopts_the_new_table(
        self, small_real_scenario, tmp_path, fresh_batches
    ):
        """A primary on a fresh directory takes over the port of the one the
        replica tailed to seq 5.  Whether the new log is shorter than the
        replica's cursor (3 batches) or longer (7), replaying it onto the old
        table is wrong: the replica must re-attach by snapshot, hold the new
        table's identity and records, and then tail it."""
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()
        half = len(live) // 2

        def chunks(records, count):
            step = -(-len(records) // count)
            return [records[at : at + step] for at in range(0, len(records), step)]

        async def run():
            service, host, port = await _start_primary(scenario, tmp_path / "a")
            replica = ReadReplica(
                _make_engine(scenario),
                host,
                port,
                name="r0",
                reconnect=ReconnectPolicy(
                    max_retries=40, initial_backoff=0.05, max_backoff=0.25
                ),
            )
            rhost, rport = await replica.start()
            async with await ServiceClient.connect(host, port) as primary:
                for batch in chunks(history, 5):
                    seq = (await primary.ingest_batch(batch))["seq"]
            assert seq == 5
            await replica.wait_applied(seq)
            await service.stop()
            service.iupt.close()

            fresh = DurableRecordStore(tmp_path / "b", shard_seconds=SERVICE_SHARD_SECONDS)
            batches = chunks(history + live[:half], fresh_batches)
            assert len(batches) == fresh_batches
            for batch in batches:
                fresh.ingest_batch(batch)
            service = QueryService(_make_engine(scenario), fresh, port=port, query_workers=2)
            await service.start()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 10.0
            while replica.snapshot_catchups == 0:
                assert loop.time() < deadline, (
                    f"the replica re-attached without a snapshot at seq {replica.applied_seq}"
                )
                await asyncio.sleep(0.02)
            async with await ServiceClient.connect(host, port) as primary:
                seq = (await primary.ingest_batch(live[half:]))["seq"]
                assert seq == fresh_batches + 1
                await replica.wait_applied(seq)
                assert replica.healthy and replica.applied_seq == seq
                assert replica.iupt.uid == fresh.uid
                assert len(replica.iupt) == len(fresh)
                assert replica.iupt.version_token() == fresh.version_token()
                async with await ServiceClient.connect(rhost, rport) as rc:
                    await _assert_reads_match(primary, rc, slocs)
            await replica.stop()
            await service.stop()
            fresh.close()

        asyncio.run(run())


# ----------------------------------------------------------------------
# The partition router
# ----------------------------------------------------------------------
class TestPartitionRouter:
    def test_routed_reads_are_bit_identical_and_spread(
        self, small_real_scenario, tmp_path
    ):
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_primary(
                scenario, tmp_path, preload=history
            )
            replicas = []
            for i in range(2):
                replica = ReadReplica(
                    _make_engine(scenario), host, port, name=f"r{i}"
                )
                address = await replica.start()
                replicas.append((replica, address))
            router = PartitionRouter(
                (host, port), [address for _, address in replicas]
            )
            rhost, rport = await router.start()
            async with await ServiceClient.connect(rhost, rport) as routed, \
                    await ServiceClient.connect(host, port) as primary:
                # Writes route to the primary and set the freshness bound.
                seq = (await routed.ingest_batch(live))["seq"]
                assert router.last_write_seq == seq
                windows = [
                    (0.0, 60.0), (60.0, 120.0), (120.0, 180.0),
                    (0.0, DURATION), (90.0, 210.0),
                ]
                for start, end in windows:
                    assert await routed.top_k(slocs, 3, start, end) == \
                        await primary.top_k(slocs, 3, start, end)
                assert await routed.flows(slocs[:4], 0.0, DURATION) == \
                    await primary.flows(slocs[:4], 0.0, DURATION)
                batch = [
                    {"q": slocs, "k": 2, "start": 0.0, "end": DURATION},
                    {"q": slocs[:5], "k": 1, "start": 30.0, "end": 90.0},
                ]
                assert await routed.batch(batch) == await primary.batch(batch)
                status = await routed.request("replica_status")
                spread = status["router"]["reads_by_backend"]
                # Partition affinity used both replicas; nothing fell back.
                assert spread[0] == 0 and spread[1] > 0 and spread[2] > 0
                assert status["router"]["primary_fallbacks"] == 0
            await router.stop()
            for replica, _ in replicas:
                await replica.stop()
            await service.stop()

        asyncio.run(run())

    def test_router_relays_subscription_pushes(
        self, small_real_scenario, tmp_path
    ):
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_primary(
                scenario, tmp_path, preload=history
            )
            replica = ReadReplica(_make_engine(scenario), host, port, name="r0")
            address = await replica.start()
            router = PartitionRouter((host, port), [address])
            rhost, rport = await router.start()
            async with await ServiceClient.connect(rhost, rport) as routed:
                subscription = await routed.subscribe_top_k(
                    slocs, 3, 0.0, DURATION
                )
                await routed.ingest_batch(live)
                update = await subscription.next_update(timeout=15.0)
                assert update["push"] == "update"
                assert update["subscription"] == subscription.sub_id
                assert await routed.unsubscribe(subscription)
            await router.stop()
            await replica.stop()
            await service.stop()

        asyncio.run(run())

    def test_router_falls_back_to_the_primary_when_a_replica_dies(
        self, small_real_scenario, tmp_path
    ):
        scenario = small_real_scenario
        history, _ = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_primary(
                scenario, tmp_path, preload=history
            )
            replica = ReadReplica(_make_engine(scenario), host, port, name="r0")
            address = await replica.start()
            router = PartitionRouter(
                (host, port), [address], freshness_timeout=0.5
            )
            rhost, rport = await router.start()
            async with await ServiceClient.connect(rhost, rport) as routed, \
                    await ServiceClient.connect(host, port) as primary:
                expected = await primary.top_k(slocs, 3, 0.0, HISTORY)
                assert await routed.top_k(slocs, 3, 0.0, HISTORY) == expected
                await replica.stop()  # the only replica goes dark
                assert await routed.top_k(slocs, 3, 0.0, HISTORY) == expected
                status = await routed.request("replica_status")
                assert status["router"]["primary_fallbacks"] >= 1
            await router.stop()
            await service.stop()

        asyncio.run(run())


    def test_a_read_does_not_wait_on_a_replica_whose_apply_loop_stopped(
        self, small_real_scenario, tmp_path
    ):
        """A replica reporting ``healthy: false`` will never catch up: the
        first status that says so sends the read to the primary, instead of
        polling until the freshness timeout runs out."""
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        class StoppingReplica(ReadReplica):
            stopping = False

            async def _apply_commit(self, frame) -> None:
                if self.stopping:
                    raise RuntimeError("the apply loop stops")
                await super()._apply_commit(frame)

        async def run():
            service, host, port = await _start_primary(scenario, tmp_path, preload=history)
            replica = StoppingReplica(_make_engine(scenario), host, port)
            address = await replica.start()
            await replica.wait_applied(service.iupt.last_committed_seq)
            router = PartitionRouter((host, port), [address], freshness_timeout=5.0)
            rhost, rport = await router.start()
            replica.stopping = True
            async with await ServiceClient.connect(rhost, rport) as routed, \
                    await ServiceClient.connect(host, port) as primary:
                await routed.ingest_batch(live)
                clock = asyncio.get_running_loop().time
                started = clock()
                answer = await routed.top_k(slocs, 3, 0.0, DURATION)
                assert clock() - started < 1.0
                assert answer == await primary.top_k(slocs, 3, 0.0, DURATION)
                assert not replica.healthy
                status = await routed.request("replica_status")
                assert status["router"]["primary_fallbacks"] == 1
            await router.stop()
            await replica.stop()
            await service.stop()

        asyncio.run(run())

    def test_fresh_routed_reads_take_no_task_and_relay_the_replica_bytes(
        self, small_real_scenario, tmp_path
    ):
        """A read whose replica is known fresh is written to the replica at
        once and answered from its reply: a pipelined burst starts no router
        task, and every answer is the replica's own response, byte for byte."""
        scenario = small_real_scenario
        history, _ = _split_stream(scenario)
        slocs = scenario.slocation_ids()
        windows = [(0.0, 60.0), (30.0, 90.0), (0.0, HISTORY), (60.0, 120.0)] * 8
        wire = b"".join(
            protocol.encode_frame(
                {"id": i, "op": "top_k", "q": slocs, "k": 3, "start": s, "end": e}
            )
            for i, (s, e) in enumerate(windows)
        )

        async def burst(address):
            reader, writer = await asyncio.open_connection(*address)
            writer.write(wire)
            lines = [
                await asyncio.wait_for(reader.readline(), timeout=10.0)
                for _ in windows
            ]
            return sorted(lines, key=lambda line: json.loads(line)["id"]), writer

        async def run():
            service, host, port = await _start_primary(
                scenario, tmp_path, preload=history
            )
            replica = ReadReplica(_make_engine(scenario), host, port, name="r0")
            address = await replica.start()
            router = PartitionRouter((host, port), [address])
            rhost, rport = await router.start()
            async with await ServiceClient.connect(rhost, rport) as routed:
                await routed.top_k(slocs, 3, 0.0, HISTORY)  # learns it is fresh
            direct, direct_writer = await burst(address)
            spawned = []
            spawn = router._spawn
            router._spawn = lambda coroutine, *rest: (
                spawned.append(coroutine.__qualname__), spawn(coroutine, *rest)
            )
            answered, routed_writer = await burst((rhost, rport))
            assert spawned == [] and not router._request_tasks
            assert answered == direct
            assert all(json.loads(line)["ok"] for line in answered)
            assert router.stats["reads_by_backend"] == [0, len(windows) + 1]
            for writer in (direct_writer, routed_writer):
                writer.close()
                await writer.wait_closed()
            await router.stop()
            await replica.stop()
            await service.stop()

        asyncio.run(run())

    def test_an_error_the_primary_would_repeat_is_the_answer(
        self, small_real_scenario, tmp_path
    ):
        """A replica's ``bad_request`` is relayed as it is: the read is not
        sent again to the primary, and no fallback is counted."""
        scenario = small_real_scenario
        history, _ = _split_stream(scenario)
        unknown = max(scenario.slocation_ids()) + 1000

        async def run():
            service, host, port = await _start_primary(
                scenario, tmp_path, preload=history
            )
            replica = ReadReplica(_make_engine(scenario), host, port, name="r0")
            address = await replica.start()
            router = PartitionRouter((host, port), [address])
            rhost, rport = await router.start()
            asked = service.metrics.requests_by_op.get("top_k", 0)
            async with await ServiceClient.connect(rhost, rport) as routed:
                with pytest.raises(ServiceError) as refused:
                    await routed.top_k([unknown], 1, 0.0, HISTORY)
                assert refused.value.kind == "bad_request"
                status = await routed.request("replica_status")
            assert status["router"]["primary_fallbacks"] == 0
            assert service.metrics.requests_by_op.get("top_k", 0) == asked
            await router.stop()
            await replica.stop()
            await service.stop()

        asyncio.run(run())


# ----------------------------------------------------------------------
# Client reconnection
# ----------------------------------------------------------------------
    @pytest.mark.parametrize("through", ["server", "router"])
    def test_a_refused_bin_declaration_ends_the_connection(
        self, small_real_scenario, tmp_path, through
    ):
        """The bytes behind a lying length prefix are payload, not frames: one
        ``bad_frame`` reply, then EOF — the ``evict_before`` smuggled behind
        the refused header must never run, on the server or through the router."""
        scenario = small_real_scenario
        history, _ = _split_stream(scenario)
        smuggled = (
            b'{"id":1,"op":"ingest_batch","bin":1000000000000000}\n'
            b'{"id":2,"op":"evict_before","timestamp":1e18}\n'
        )

        async def run():
            service, host, port = await _start_primary(
                scenario, tmp_path, preload=history
            )
            router, address = None, (host, port)
            if through == "router":
                router = PartitionRouter((host, port), [])
                address = await router.start()
            reader, writer = await asyncio.open_connection(*address)
            writer.write(smuggled)
            await writer.drain()
            replies = await asyncio.wait_for(reader.read(), timeout=10.0)  # to EOF
            writer.close()
            assert len(service.iupt) == len(history) > 0
            if router is not None:
                await router.stop()
            await service.stop()
            return replies

        frames = read_all([asyncio.run(run())])
        assert [frame["error"]["kind"] for frame in frames] == ["bad_frame"]


# ----------------------------------------------------------------------
# Hostile lines: the server and the router are one reader, so they answer alike
# ----------------------------------------------------------------------
async def _hostile_exchange(
    scenario, tmp_path, through, wire, replies_wanted, replica=False
):
    """Send ``wire`` raw to a primary (``through="server"``) or to a router in
    front of it (and of one replica, with ``replica``); returns ``(replies,
    primary service)`` once the peer has sent ``replies_wanted`` lines
    (``None``: everything up to EOF)."""
    history, _ = _split_stream(scenario)
    service, host, port = await _start_primary(scenario, tmp_path, preload=history)
    router, address, replicas = None, (host, port), []
    if through == "router":
        if replica:
            replicas.append(
                ReadReplica(_make_engine(scenario), host, port, name="r0")
            )
        router = PartitionRouter(
            (host, port), [await each.start() for each in replicas]
        )
        address = await router.start()
    reader, writer = await asyncio.open_connection(*address)
    writer.write(wire)
    await writer.drain()
    if replies_wanted is None:
        raw = await asyncio.wait_for(reader.read(), timeout=10.0)
    else:
        raw = b"".join(
            [
                await asyncio.wait_for(reader.readline(), timeout=10.0)
                for _ in range(replies_wanted)
            ]
        )
    writer.close()
    assert len(service.iupt) == len(history) > 0  # nothing ingested, nothing evicted
    if router is not None:
        await router.stop()
    for each in replicas:
        await each.stop()
    await service.stop()
    return raw, service


@pytest.mark.parametrize("through", ["server", "router"])
class TestHostileLinesAnswerAlike:
    def test_an_oversized_line_gets_one_bad_frame_then_eof(
        self, small_real_scenario, tmp_path, monkeypatch, through
    ):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1 << 16)
        skeleton = b'{"id":1,"op":"ping","pad":""}'
        pad = b"x" * (protocol.MAX_FRAME_BYTES + 1 - len(skeleton))
        line = skeleton[:-2] + pad + skeleton[-2:]
        assert len(line) == protocol.MAX_FRAME_BYTES + 1
        raw, service = asyncio.run(
            _hostile_exchange(
                small_real_scenario, tmp_path, through, line + b"\n", None
            )
        )
        (reply,) = read_all([raw])  # exactly one reply, then EOF
        assert reply["id"] is None
        assert reply["error"]["kind"] == "bad_frame"
        assert "limit" in reply["error"]["message"]
        # The line the server itself refused shows in its stats, once.
        refused = service.metrics.errors_by_kind.get("bad_frame", 0)
        assert refused == (1 if through == "server" else 0)

    def test_a_header_spelling_the_payload_key_is_refused_and_the_stream_survives(
        self, small_real_scenario, tmp_path, through
    ):
        """``_bin`` is the in-memory payload key: spelled on a header line it
        would be a second wire form for records.  It is refused whatever its
        JSON type, nothing is ingested or forwarded, and — the line (and any
        payload it declared) having been consumed whole — the same connection
        still answers."""
        payload = protocol.records_to_payload(_batch(500.0, count=5))
        as_ints = json.dumps(list(payload)).encode()
        as_text = json.dumps(payload.decode("latin-1")).encode()
        wire = (
            b'{"id":1,"op":"ingest_batch","_bin":' + as_ints + b"}\n"
            b'{"id":2,"op":"ingest_batch","_bin":' + as_text + b"}\n"
            b'{"id":3,"op":"ingest_batch","_bin":' + as_ints
            + b',"bin":' + str(len(payload)).encode() + b"}\n" + payload
            + b'{"id":4,"op":"ping"}\n'
        )
        raw, service = asyncio.run(
            _hostile_exchange(small_real_scenario, tmp_path, through, wire, 4)
        )
        *refusals, pong = read_all([raw])
        assert [reply["error"]["kind"] for reply in refusals] == ["bad_frame"] * 3
        assert all("reserved" in reply["error"]["message"] for reply in refusals)
        assert pong["id"] == 4 and pong["result"]["pong"] is True
        refused = service.metrics.errors_by_kind.get("bad_frame", 0)
        assert refused == (3 if through == "server" else 0)

    def test_an_op_that_is_no_op_is_an_unknown_op(
        self, small_real_scenario, tmp_path, through
    ):
        wire = b'{"id":3,"op":5}\n{"id":4,"op":"teleport"}\n{"id":5}\n'
        raw, _service = asyncio.run(
            _hostile_exchange(small_real_scenario, tmp_path, through, wire, 3)
        )
        replies = sorted(read_all([raw]), key=lambda reply: reply["id"])
        assert [reply["id"] for reply in replies] == [3, 4, 5]
        assert [reply["error"]["kind"] for reply in replies] == ["unknown_op"] * 3

    def test_a_start_that_is_no_number_is_answered_and_the_stream_survives(
        self, small_real_scenario, tmp_path, through
    ):
        """``json.loads`` admits ``NaN`` and ``1e999`` (infinity), and
        ``float()`` admits ``"nan"``: such a window start owns no partition,
        so a router in front of a replica hands the read to the primary,
        which answers it as it does directly — and the connection survives."""
        q = json.dumps(small_real_scenario.slocation_ids()).encode()
        wire = b"".join(
            b'{"id":%d,"op":"top_k","q":%s,"k":1,"start":%s,"end":60}\n'
            % (request_id, q, start)
            for request_id, start in enumerate((b"NaN", b"1e999", b'"nan"'), 1)
        ) + b'{"id":4,"op":"ping"}\n'
        raw, _service = asyncio.run(
            _hostile_exchange(
                small_real_scenario, tmp_path, through, wire, 4, replica=True
            )
        )
        replies = sorted(read_all([raw]), key=lambda reply: reply["id"])
        assert [reply["id"] for reply in replies] == [1, 2, 3, 4]
        kinds = [reply["error"]["kind"] for reply in replies[:3]]
        assert kinds == ["bad_request"] * 3
        assert replies[3]["result"]["pong"] is True


class TestClientReconnect:
    def test_bounded_reconnect_with_backoff(self, small_real_scenario, tmp_path):
        scenario = small_real_scenario

        async def run():
            service, host, port = await _start_primary(scenario, tmp_path)
            client = await ServiceClient.connect(
                host,
                port,
                reconnect=ReconnectPolicy(
                    max_retries=10, initial_backoff=0.05, max_backoff=0.25
                ),
            )
            assert (await client.ping())["pong"] is True
            await service.stop()
            # Restart on the same port while the client retries.
            service = QueryService(
                _make_engine(scenario),
                DurableRecordStore(tmp_path, shard_seconds=SERVICE_SHARD_SECONDS),
                port=port,
                query_workers=2,
            )
            await service.start()
            assert (await client.ping())["pong"] is True
            assert client.reconnects >= 1
            await client.close()
            await service.stop()

        asyncio.run(run())

    def test_a_refused_dial_spends_one_attempt_not_all_of_them(
        self, small_real_scenario, tmp_path
    ):
        """The peer stays down across several re-dials: each refusal is one
        attempt, and the request lands once the peer is back."""
        scenario = small_real_scenario

        async def run():
            service, host, port = await _start_primary(scenario, tmp_path)
            client = await ServiceClient.connect(
                host,
                port,
                reconnect=ReconnectPolicy(
                    max_retries=40, initial_backoff=0.05, max_backoff=0.05
                ),
            )
            assert (await client.ping())["pong"] is True
            await service.stop()
            ping = asyncio.ensure_future(client.ping())
            await asyncio.sleep(0.3)  # several dials are refused meanwhile
            assert not ping.done()
            service = QueryService(
                _make_engine(scenario),
                DurableRecordStore(tmp_path, shard_seconds=SERVICE_SHARD_SECONDS),
                port=port,
                query_workers=2,
            )
            await service.start()
            assert (await asyncio.wait_for(ping, timeout=10.0))["pong"] is True
            await client.close()
            await service.stop()

        asyncio.run(run())

    def test_without_a_policy_a_dead_connection_raises(
        self, small_real_scenario, tmp_path
    ):
        scenario = small_real_scenario

        async def run():
            service, host, port = await _start_primary(scenario, tmp_path)
            client = await ServiceClient.connect(host, port)
            await service.stop()
            with pytest.raises(ConnectionError):
                await client.ping()
            await client.close()

        asyncio.run(run())

    def test_a_refused_bin_declaration_stops_the_read_loop(self):
        """The client's side of the same rule: what follows a length
        declaration it refuses is payload, never a reply to hand out."""

        async def lying_server(reader, writer):
            await reader.readline()
            writer.write(
                b'{"id":1,"ok":true,"bin":1000000000000000}\n'
                b'{"id":1,"ok":true,"result":"smuggled"}\n'
            )
            await writer.drain()
            writer.close()

        async def run():
            server = await asyncio.start_server(lying_server, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = await ServiceClient.connect(host, port)
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(client.ping(), timeout=10.0)
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())
