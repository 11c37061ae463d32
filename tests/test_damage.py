"""Every damage rule of the durable store and of its followers, stated once:
``DAMAGE`` has one row per (artefact, damage) and the one outcome it has.

The rule: crash residue — a last frame cut short, a commit record never
written — is cut and counted; anything else is refused by name, never opened
as a smaller table.  A disk row damages one file of the same table
(``tables``) and reopens it, under each fsync policy; a wire row damages one
payload on its way to a read replica or to the primary.  The outcomes:

* ``REFUSED``: the open raises a ``ValueError`` naming the damaged file (and
  the frame, where the row says which) and leaves every byte in place;
* ``opens(kept, **counted)``: crash residue — the table opens equal to an
  oracle that applied the first ``kept`` batches, and ``recovery_report``
  counts the cut (a count the row does not name is 0);
* ``NEW_IDENTITY``: the table opens whole under another uid, so a follower
  re-attaches by snapshot;
* ``REPLICA_ERROR``: the replica raises ``ReplicaError``; its table, version
  token and ``applied_seq`` do not move, and ``replica_status`` reports
  ``healthy: false`` (a damaged catch-up payload also fails a replica's
  start and leaves its new table empty);
* ``BAD_REQUEST``: the primary answers a structured ``bad_request``; its
  table and files do not move, and the connection's next batch commits.

A row is ``(artefact, damage, outcome, hit)``.  A disk row's ``hit`` damages
the table's directory and returns what the refusal must name (a list of hits
is walked one by one); a wire row's is an edit of the payload's bytes, the
edits a disk hit applies to a file.  To state a new rule, add its row.

Damages with no row: a flipped bit in an ``RPK1`` payload's columns is
another valid batch (the payload carries no CRC; TCP checks the stream); a
``wal`` push or catch-up payload that lost a whole frame is applied smaller,
and a lost ``control.wal`` opens with every segment frame uncommitted
(ROADMAP item 22).
"""

from __future__ import annotations

import asyncio
import json
import math
import struct

import pytest

from repro import QueryEngine, QueryService, ServiceClient, ServiceError
from repro.codec import PackedRecordBatch, encode_batch
from repro.data.records import PositioningRecord, SampleSet
from repro.service import protocol
from repro.service.replica import ReadReplica, ReplicaError
from repro.storage import DurabilityConfig, DurableRecordStore, ShardedRecordStore
from repro.storage import decode_wal_frames, encode_wal_frame
from repro.storage.durable import FSYNC_KINDS
from repro.storage.wal import encode_segment_frame, encode_snapshot_frame

SHARD_SECONDS = 10.0
UID = "durable-0123456789abcdef"
#: Five batches of one record in each of shards 0, 1 and 2.
BATCHES = [
    [PositioningRecord(i, SampleSet.from_pairs([(1, 0.625), (2, 0.375)]), t) for t in (i, 10.0 + i, 20.0 + i)]
    for i in range(5)
]  # fmt: skip
MANIFEST = json.dumps({"format": 1, "uid": UID, "shard_seconds": SHARD_SECONDS}, indent=2)


def _tree(root):
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*"))
            if path.is_file()}  # fmt: skip


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """The table each disk row damages, as its files, per fsync policy: the
    five batches, a checkpoint after each of the first two — so a snapshot
    is a base frame and a delta — and the last three in the segments, one
    frame each; its manifest states ``UID``."""

    def table(fsync):
        root = tmp_path_factory.mktemp(fsync)
        store = DurableRecordStore(root, SHARD_SECONDS, DurabilityConfig(fsync=fsync))
        for index, batch in enumerate(BATCHES):
            store.ingest_batch(batch)
            if index < 2:
                store.checkpoint()
        store.close()
        (root / "MANIFEST.json").write_text(MANIFEST)
        return _tree(root)

    return {fsync: table(fsync) for fsync in FSYNC_KINDS}


# ----------------------------------------------------------------------
# Damages: an edit of a file's or a payload's bytes (None: it is gone)
# ----------------------------------------------------------------------
def _starts(data):
    """The offset of each whole frame in ``data``, and its end."""
    starts = [0]
    while starts[-1] < len(data):
        starts.append(starts[-1] + 8 + struct.unpack_from(">I", data, starts[-1])[0])
    return starts


def _flip(frame, bit=0x10, at=None):
    """A bit flips in the middle of frame ``frame`` (``at``: that byte of it)."""

    def edit(data):
        start, end = list(zip(_starts(data), _starts(data)[1:]))[frame]
        data[(start + 8 + end) // 2 if at is None else start + at] ^= bit
        return data

    return edit


HIT_LENGTH = _flip(0, 0x80, at=0)  # the top bit of the first frame's length field
CUT_INSIDE = lambda data: data[:-3]  # noqa: E731
CUT_AT_BOUNDARY = lambda data: data[: _starts(data)[-2]]  # noqa: E731
GONE = lambda data: None  # noqa: E731


def _with(frame, replacing_last=False):
    """The bytes gain ``frame`` (a dict: a JSON one) at the end, or in place
    of their last frame."""
    encoded = encode_wal_frame(frame) if isinstance(frame, dict) else frame
    return lambda data: (CUT_AT_BOUNDARY(data) if replacing_last else data) + encoded


def _as(data):
    return lambda _old: data


def _seg(seq, records):
    return encode_segment_frame(seq, PackedRecordBatch.from_records(records))


def _snap(shard, version, through, records):
    return encode_snapshot_frame(shard, version, through, PackedRecordBatch.from_records(records))


def _on(file, edit, frame=None):
    """A hit: ``edit`` applied to one file; the refusal names it (and
    ``frame``, the index of the frame at fault)."""

    def hit(root):
        path = root / file
        data = edit(bytearray(path.read_bytes() if path.exists() else b""))
        if data is None:
            path.unlink()
        else:
            path.write_bytes(bytes(data))
        return str(path) + ("" if frame is None else f": frame {frame}:")

    return hit


def _crash_mid_batch(root):
    """What a crash leaves while a batch appends its frames to segments 0-2:
    two whole, the third cut short, and no commit record."""
    for key in range(3):
        frame = _seg(6, BATCHES[4][key : key + 1])
        _on(f"wal/segment-{key}.wal", _with(frame if key < 2 else frame[:-3]))(root)


def _older_commits(data):
    """The control log as builds before commit records named their shards wrote it."""
    return b"".join(encode_wal_frame({k: v for k, v in frame.items() if k != "shards"})
                    for frame in decode_wal_frames(bytes(data))[0])  # fmt: skip


def _manifest_flips(renaming):
    """A hit per flip of one manifest bit: those that leave a manifest equal
    but for another uid (``renaming``), or every other one."""
    hits = []
    for at in range(len(MANIFEST) * 8):
        data = bytearray(MANIFEST.encode())
        data[at // 8] ^= 1 << at % 8
        try:
            parsed = json.loads(data.decode())
        except ValueError:
            parsed = {}
        if renaming == (parsed.get("uid", UID) != UID and {**parsed, "uid": UID} == json.loads(MANIFEST)):
            hits.append(_on("MANIFEST.json", _as(bytes(data))))
    return hits


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
def REFUSED(hit, root, _engine):
    named = hit(root)
    before = _tree(root)
    with pytest.raises(ValueError) as excinfo:
        DurableRecordStore(root)
    assert named in str(excinfo.value)
    assert _tree(root) == before


def _state(store):
    return list(store.records_in_time_order()), store.shard_versions()


def _oracle(batches):
    oracle = ShardedRecordStore(SHARD_SECONDS)
    for batch in batches:
        oracle.ingest_batch(batch)
    return _state(oracle)


def opens(kept, **counted):
    def outcome(hit, root, _engine):
        hit(root)
        with DurableRecordStore(root) as store:
            assert _state(store) == _oracle(BATCHES[:kept])
            report = store.recovery_report
            for key in ("torn_tails_truncated", "frames_skipped_uncommitted"):
                assert report[key] == counted.get(key, 0), key

    return outcome


def NEW_IDENTITY(hit, root, engine):
    opens(5)(hit, root, engine)
    with DurableRecordStore(root) as store:
        assert store.uid != UID


class _HitReplica(ReadReplica):
    """A replica whose ``wal`` pushes (``kind`` "push"), or whose handshakes
    presenting another table's uid and so answered by snapshot
    ("catch-up"), pass through ``edit``."""

    kind = edit = None

    def _edited(self, frame, kind):
        if kind != self.kind:
            return frame
        rest = {key: value for key, value in frame.items() if key != protocol.BIN_PAYLOAD}
        payload = self.edit(bytearray(frame[protocol.BIN_PAYLOAD]))
        return rest if payload is None else {**rest, protocol.BIN_PAYLOAD: bytes(payload)}

    async def _handshake(self) -> dict:
        if self.kind != "catch-up":
            return await super()._handshake()
        return self._edited(await self._client.wal_tail(self.applied_seq, self.name, "another"), "catch-up")

    async def _apply_commit(self, frame) -> None:
        await super()._apply_commit(self._edited(frame, "push"))


async def _primary(root, engine):
    table = DurableRecordStore(root, SHARD_SECONDS)
    table.ingest_batch(BATCHES[0])
    service = QueryService(engine(), table)
    return table, service, *(await service.start())


def REPLICA_ERROR(hit, root, engine):
    kind, edit = hit

    async def run():
        primary, service, host, port = await _primary(root, engine)
        if kind == "catch-up":  # at the start, the new table stays empty
            failed = _HitReplica(engine(), host, port)
            failed.kind, failed.edit = kind, edit
            with pytest.raises(ReplicaError, match="damaged payload|no binary payload"):
                await failed.start()
            empty = ShardedRecordStore(SHARD_SECONDS)
            empty.restore_identity(primary.uid)
            assert failed.iupt.records_in_time_order() == () and failed.snapshot_catchups == 0
            assert (failed.iupt.version_token(), failed.applied_seq) == (empty.version_token(), 0)
            await failed.stop()
        replica = _HitReplica(engine(), host, port)
        address = await replica.start()
        await replica.wait_applied(primary.last_committed_seq)
        state = lambda: (replica.iupt.records_in_time_order(), replica.iupt.version_token(),  # noqa: E731
                         replica.applied_seq)  # fmt: skip
        before = state()
        replica.kind, replica.edit = kind, edit
        if kind == "push":
            async with await ServiceClient.connect(host, port) as client:
                await client.ingest_batch(BATCHES[1])
        else:  # what the client queues when its tail connection drops
            replica._client.wal_frames.put_nowait(dict(protocol.WAL_CLOSED_FRAME))
        with pytest.raises(ReplicaError) as excinfo:
            await replica.wait_applied(primary.last_committed_seq + 1)
        assert isinstance(excinfo.value.__cause__, ReplicaError)
        async with await ServiceClient.connect(*address) as client:
            assert (await client.replica_status())["healthy"] is False
        assert state() == before
        await replica.stop()
        await service.stop()
        primary.close()

    asyncio.run(run())


def BAD_REQUEST(edit, root, engine):
    async def run():
        table, service, host, port = await _primary(root, engine)
        state = lambda: (table.records_in_time_order(), table.version_token(), _tree(root))  # noqa: E731
        before = state()
        payload = edit(bytearray(encode_batch(BATCHES[1])))
        fields = ({"records": [[1, 5.0, [[1, 1.0]]], [1, 6.0, [[3, math.nan]]]]} if payload is None
                  else {protocol.BIN_PAYLOAD: bytes(payload)})  # fmt: skip
        async with await ServiceClient.connect(host, port) as client:
            with pytest.raises(ServiceError) as excinfo:
                await client.request("ingest_batch", **fields)
            assert excinfo.value.kind == "bad_request"
            assert payload is not None or "RPK1" in excinfo.value.message
            assert state() == before
            await client.ingest_batch(BATCHES[1])
        await service.stop()
        table.close()
        with DurableRecordStore(root) as recovered:
            assert _state(recovered) == _oracle(BATCHES[:2])

    asyncio.run(run())


def _rpk1(offset, value):
    """``value`` written at ``offset`` of an ``RPK1`` payload of three records
    and six samples: a 24-byte header (the record count at 8), timestamps
    from 24, counts from 72, probabilities from 144."""
    return lambda data: data[:offset] + value + data[offset + len(value) :]


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
SEG, CTL, SNAP, SUBS = "wal/segment-1.wal", "control.wal", "snapshots/shard-1.snap", "subscriptions.json"
SHARD_1, SHARD_2 = [batch[1] for batch in BATCHES], [batch[2] for batch in BATCHES]
NAN, INF = struct.pack("<d", math.nan), struct.pack("<d", math.inf)

DAMAGE = [
    ("segment", "flip-in-a-middle-frame", REFUSED, _on(SEG, _flip(1))),
    ("segment", "flip-in-the-last-frame", REFUSED, _on(SEG, _flip(-1))),
    ("segment", "hit-length-field", REFUSED, _on(SEG, HIT_LENGTH)),
    ("segment", "cut-inside-the-last-frame", REFUSED, _on(SEG, CUT_INSIDE)),
    ("segment", "cut-at-a-frame-boundary", REFUSED, _on(SEG, CUT_AT_BOUNDARY)),
    ("segment", "missing", REFUSED, _on(SEG, GONE)),
    ("segment", "json-frame-without-records", REFUSED, _on(SEG, _with({"seq": 5}, True), 2)),
    ("segment", "json-frame-without-seq", REFUSED, _on(SEG, _with({"records": []}, True), 2)),
    ("segment", "json-era-triple-of-wrong-arity", REFUSED, _on(SEG, _with({"seq": 5, "records": [[1, 2.0]]}, True), 2)),
    ("segment", "frame-of-another-shard", REFUSED, _on(SEG, _with(_seg(5, SHARD_2[4:]), True))),
    ("segment", "hit-length-field-of-an-uncommitted-last-frame", REFUSED,
     _on(SEG, _with(HIT_LENGTH(bytearray(_seg(6, SHARD_1[:1])))))),
    ("segment", "frames-of-a-batch-a-crash-left-uncommitted", opens(5, torn_tails_truncated=1,
     frames_skipped_uncommitted=2), _crash_mid_batch),
    ("control.wal", "flip-in-a-middle-frame", REFUSED, _on(CTL, _flip(3))),
    ("control.wal", "flip-in-the-last-frame", opens(4, torn_tails_truncated=1, frames_skipped_uncommitted=3),
     _on(CTL, _flip(-1))),
    ("control.wal", "hit-length-field", REFUSED, _on(CTL, HIT_LENGTH)),
    ("control.wal", "cut-inside-the-last-frame", opens(4, torn_tails_truncated=1, frames_skipped_uncommitted=3),
     _on(CTL, CUT_INSIDE)),
    ("control.wal", "cut-at-a-frame-boundary", opens(4, frames_skipped_uncommitted=3), _on(CTL, CUT_AT_BOUNDARY)),
    ("control.wal", "commit-without-seq", REFUSED, _on(CTL, _with({"kind": "commit"}), 7)),
    ("control.wal", "commit-naming-no-shard-keys", REFUSED, _on(CTL, _with({"kind": "commit", "seq": 6, "shards": "a"}), 7)),
    ("control.wal", "base-without-next_seq", REFUSED, _on(CTL, _with({"kind": "base"}), 7)),
    ("control.wal", "watermark-not-a-number", REFUSED, _on(CTL, _with({"kind": "watermark", "watermark": "x"}), 7)),
    ("control.wal", "subscribe-query-not-an-object", REFUSED, _on(CTL, _with({"kind": "subscribe", "query": "f"}), 7)),
    ("control.wal", "subscribe-query-without-id", REFUSED, _on(CTL, _with({"kind": "subscribe", "query": {}}), 7)),
    ("control.wal", "unsubscribe-id-not-a-number", REFUSED, _on(CTL, _with({"kind": "unsubscribe", "id": "one"}), 7)),
    ("control.wal", "commits-of-an-older-build-naming-no-shard", opens(5), _on(CTL, _older_commits)),
    ("snapshot", "flip-in-a-middle-frame", REFUSED, _on(SNAP, _flip(0))),
    ("snapshot", "flip-in-the-last-frame", REFUSED, _on(SNAP, _flip(-1))),
    ("snapshot", "hit-length-field", REFUSED, _on(SNAP, HIT_LENGTH)),
    ("snapshot", "cut-inside-the-last-frame", REFUSED, _on(SNAP, CUT_INSIDE)),
    ("snapshot", "cut-inside-the-last-frame-its-segment-folded", REFUSED,
     lambda root: (DurableRecordStore(root).close(), _on(SNAP, CUT_INSIDE)(root))[1]),
    ("snapshot", "cut-inside-a-delta-its-segment-holds", opens(5, torn_tails_truncated=1),
     _on(SNAP, _with(_snap(1, 5, 5, SHARD_1[2:])[:-5]))),
    ("snapshot", "cut-at-a-frame-boundary", REFUSED, _on(SNAP, CUT_AT_BOUNDARY)),
    ("snapshot", "missing", REFUSED, _on(SNAP, GONE)),
    ("snapshot", "json-frame-without-shard", REFUSED,
     _on(SNAP, _as(encode_wal_frame({"version": 1, "through": 1, "records": []})), 0)),
    ("snapshot", "frame-of-another-shard", REFUSED, _on(SNAP, _as(_snap(2, 2, 2, SHARD_2[:2])))),
    ("snapshot", "records-outside-the-shard", REFUSED, _on(SNAP, _as(_snap(1, 2, 2, SHARD_2[:2])))),
    ("snapshot", "frame-at-version-0", REFUSED, _on(SNAP, _as(_snap(1, 0, 2, SHARD_1[:2])))),
    ("snapshot", "frame-holding-no-record", REFUSED, _on(SNAP, _as(_snap(1, 2, 2, [])))),
    ("snapshot", "delta-of-another-shard", REFUSED, _on(SNAP, _with(_snap(2, 3, 3, SHARD_2[2:3])))),
    ("snapshot", "delta-version-not-advancing", REFUSED, _on(SNAP, _with(_snap(1, 2, 3, SHARD_1[2:3])))),
    ("snapshot", "delta-through-not-advancing", REFUSED, _on(SNAP, _with(_snap(1, 3, 2, SHARD_1[2:3])))),
    ("MANIFEST.json", "flip-leaving-another-uid", NEW_IDENTITY, _manifest_flips(renaming=True)),
    ("MANIFEST.json", "any-other-flip", REFUSED, _manifest_flips(renaming=False)),
    ("MANIFEST.json", "cut", REFUSED, _on("MANIFEST.json", CUT_INSIDE)),
    ("MANIFEST.json", "missing", REFUSED, _on("MANIFEST.json", GONE)),
    ("MANIFEST.json", "json-of-the-wrong-shape", REFUSED, _on("MANIFEST.json", _as(MANIFEST.replace("10.0", '"a"').encode()))),
    ("subscriptions.json", "cut", REFUSED, _on(SUBS, _as(b'[{"id": 7, "kind": "flows"'))),
    ("subscriptions.json", "not-a-list", REFUSED, _on(SUBS, _as(b'{"entries": []}'))),
    ("subscriptions.json", "entry-not-an-object", REFUSED, _on(SUBS, _as(b'[["id", 7]]'))),
    ("subscriptions.json", "entry-without-id", REFUSED, _on(SUBS, _as(b'[{"kind": "flows", "slocs": [1]}]'))),
    ("wal-push", "flip-in-a-middle-frame", REPLICA_ERROR, ("push", _flip(1))),
    ("wal-push", "flip-in-the-last-frame", REPLICA_ERROR, ("push", _flip(-1))),
    ("wal-push", "hit-length-field", REPLICA_ERROR, ("push", HIT_LENGTH)),
    ("wal-push", "cut-inside-the-last-frame", REPLICA_ERROR, ("push", CUT_INSIDE)),
    ("wal-push", "no-frame", REPLICA_ERROR, ("push", _as(b""))),
    ("wal-push", "snapshot-frame", REPLICA_ERROR, ("push", _with(_snap(1, 2, 2, SHARD_1[1:2]), True))),
    ("wal-push", "frame-of-another-seq", REPLICA_ERROR, ("push", _with(_seg(9, SHARD_2[1:2]), True))),
    ("snapshot-payload", "flip-in-a-middle-frame", REPLICA_ERROR, ("catch-up", _flip(1))),
    ("snapshot-payload", "flip-in-the-last-frame", REPLICA_ERROR, ("catch-up", _flip(-1))),
    ("snapshot-payload", "hit-length-field", REPLICA_ERROR, ("catch-up", HIT_LENGTH)),
    ("snapshot-payload", "cut-inside-the-last-frame", REPLICA_ERROR, ("catch-up", CUT_INSIDE)),
    ("snapshot-payload", "missing", REPLICA_ERROR, ("catch-up", GONE)),
    ("snapshot-payload", "segment-frame", REPLICA_ERROR, ("catch-up", _with(_seg(1, SHARD_2[:1]), True))),
    ("rpk1-ingest", "hit-record-count", BAD_REQUEST, _rpk1(15, b"\x80")),
    ("rpk1-ingest", "cut", BAD_REQUEST, CUT_INSIDE),
    ("rpk1-ingest", "json-records-instead", BAD_REQUEST, GONE),
    ("rpk1-ingest", "wrong-magic", BAD_REQUEST, _rpk1(0, b"XXXX")),
    ("rpk1-ingest", "wrong-version", BAD_REQUEST, _rpk1(4, b"\x09")),
    ("rpk1-ingest", "counts-disagree", BAD_REQUEST, _rpk1(72, struct.pack("<3q", 3, -1, 4))),
    ("rpk1-ingest", "nan-first-probability", BAD_REQUEST, _rpk1(144, NAN)),
    ("rpk1-ingest", "nan-last-probability", BAD_REQUEST, _rpk1(184, NAN)),
    ("rpk1-ingest", "nan-timestamp", BAD_REQUEST, _rpk1(24, NAN)),
    ("rpk1-ingest", "infinite-timestamp", BAD_REQUEST, _rpk1(40, INF)),
]  # fmt: skip
WIRE = ("wal-push", "snapshot-payload", "rpk1-ingest")
WALK = [pytest.param(*row, fsync, id="-".join(filter(None, (*row[:2], fsync))))
        for row in DAMAGE for fsync in ((None,) if row[0] in WIRE else FSYNC_KINDS)]  # fmt: skip


@pytest.mark.parametrize("artefact, damage, outcome, hit, fsync", WALK)
def test_damage(artefact, damage, outcome, hit, fsync, tables, figure1, tmp_path):
    engine = lambda: QueryEngine(figure1["graph"], figure1["matrix"])  # noqa: E731
    for index, one in enumerate(hit if isinstance(hit, list) else [hit]):
        root = tmp_path / str(index)
        for name, data in (tables[fsync] if fsync else {}).items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
        outcome(one, root, engine)
