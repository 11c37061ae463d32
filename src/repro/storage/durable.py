"""Durable storage: the sharded store plus a write-ahead log and snapshots.

Every layer above the storage backend — the execution engine, continuous
queries, the network service — assumed the table lives forever; in reality a
process restart silently lost every ingested record.  This module adds the
classic persistence design for a time-partitioned store, where the partition
structure maps one-to-one onto log segments and snapshot files.
:class:`DurableRecordStore` *is* a
:class:`~repro.storage.sharded.ShardedRecordStore` — the same shards, lock,
listeners and watermark — that writes the log before it applies a mutation:

* **write-ahead log** — an ingest is sorted, checked against the watermark
  and sliced per shard once, by the sharded store; :meth:`DurableRecordStore._log_batch`
  then appends each slice as one length-prefixed, CRC-checked frame to its
  shard's segment (``wal/segment-<key>.wal``) before the shards absorb it.  A
  batch spanning several shards is made atomic by a **commit record** in the
  control log (``control.wal``): recovery replays only frames whose batch
  sequence number was committed, so a crash mid-batch rolls the whole batch
  back instead of resurrecting half of it;
* **fsync policy** — every append, snapshot write and rename reaches the OS
  before the call that made it returns, so under every policy an
  acknowledged write survives a process crash (a kill -9;
  ``tests/test_durable.py::TestProcessKill``).  :class:`DurabilityConfig`
  picks what an OS crash keeps: only ``"always"``, which fsyncs every
  segment append and every control-log record, is meant to survive one;
  ``"batch"`` (the default) fsyncs the control log's records and the
  snapshot writes but no segment append, so after an OS crash a committed
  batch can lack segment frames; ``"never"`` leaves flushing to the OS
  (fastest);
* **snapshots** — :meth:`DurableRecordStore.checkpoint` brings each dirty
  shard's ``snapshots/shard-<key>.snap`` up to its records *and version*,
  then deletes the now-redundant segments and records a ``base`` frame (the
  next sequence and the watermark) in the control log, so recovery loads the
  snapshot and replays only the frames appended after it.  A snapshot file
  is one base ``RSN1`` frame followed by zero or more *delta* frames, each
  holding only the records the shard gained since the frame before it, at
  the shard's new version and ``through``; recovery concatenates their
  packed columns.  A checkpoint appends a delta (fsynced unless the policy is
  ``"never"``) while the file's records are still the shard's first ones —
  every absorb since was in time order — and replaces the file with one base
  frame (:func:`atomic_write`: a temp file and ``os.replace``) when it has
  none yet, after an out-of-order absorb re-sorted the shard, or when it is
  JSON-era.  So the file never holds a record twice.  The base frame of the
  control log is *appended* to it too.  One size rule rewrites the log: a
  checkpoint at which it holds more bytes than the segments the checkpoint
  folds away plus the live standing queries replaces it with the base frame
  followed by one ``subscribe`` frame per live standing query.  So the log
  never outgrows one checkpoint interval's WAL plus one base frame and the
  live registrations, and most checkpoints free no blocks: replacing or
  deleting a synced file costs 40–70 ms on an ext4 filesystem mounted with
  ``discard``, and stalls concurrent fsyncs, against 0.01 ms for an append.
  ``DurabilityConfig.snapshot_every_batches`` is the one automatic trigger;
* **standing queries** — the continuous engine hands every registration and
  removal to :meth:`DurableRecordStore.log_standing_query`, which appends a
  ``subscribe`` (the query's entry) or ``unsubscribe`` (its id) frame to the
  control log under the fsync policy, as a watermark record is; recovery
  collects the live set and :meth:`DurableRecordStore.standing_queries`
  hands it back.  :meth:`DurableRecordStore.next_standing_query_id` is one
  above every id a ``subscribe`` frame ever named, removed ones too (a
  rewrite that drops their frames keeps it in its base frame's
  ``next_query``), so no id is handed out twice across a restart.  A
  ``subscriptions.json`` an older build kept beside the log is folded into
  it once at recovery and then deleted;
* **eviction** — :meth:`~repro.storage.sharded.ShardedRecordStore.evict_before`
  first persists a watermark record (the logical commit of the eviction),
  then drops the shards in memory and deletes their segment and snapshot
  files, and only then announces the eviction.  A crash between those steps
  only leaves files that recovery discards, because the watermark already
  says their history is gone;
* **recovery** — constructing a :class:`DurableRecordStore` over an existing
  directory rebuilds the exact pre-crash state: per-shard records in the
  same order, the same per-shard versions (so
  :meth:`~repro.storage.sharded.ShardedRecordStore.version_token` values
  compare equal to pre-crash tokens), and the same retention watermark.  It
  repeats history: each shard's snapshot is adopted packed (lazily decoded,
  a JSON-era one packed first), then every committed frame past the
  snapshot's ``through`` is absorbed through
  :meth:`~repro.storage.sharded.ShardedRecordStore._absorb`, the call an
  ingest applies a slice with, so the absorb counts the version and the
  shard alone decides whether it stayed in time order — and the delta rule
  holds across a recovery: a snapshot whose replayed frames all came in
  order takes one delta at the checkpoint ending the recovery.  Torn frames
  at a file tail (a crash mid-write) are detected by the length/CRC framing
  and truncated away.  The differential crash-recovery harness in
  ``tests/test_durable.py`` kills the store at arbitrary WAL frame
  boundaries (via :attr:`DurabilityConfig.fail_after_writes`) and asserts
  the recovered store is bit-identical to an in-memory oracle that applied
  exactly the committed batches.

A follower replays :meth:`DurableRecordStore.committed_batches_after` its
cursor while :meth:`DurableRecordStore.can_replay_from` allows, then listens
like any store listener (an :class:`~repro.storage.base.IngestEvent` carries
its commit ``seq``); the store keeps no record of who follows it.

The log has **one reader**, :meth:`DurableRecordStore._scan_log`: recovery and
the replication replay (:meth:`DurableRecordStore.committed_batches_after`)
learn which sequences are committed and which frames each segment holds from
it, and only recovery lets it cut a torn tail off a file — the one damage a
crash can cause.  Recovery cuts a snapshot file's torn last frame too, but
only while the shard's segment is on disk: a checkpoint deletes segments only
after every snapshot write, so the segment still holds the cut frame's
records.  Anything else it cannot interpret is refused with a ``ValueError``
naming the file: a CRC-valid frame of the wrong shape, a snapshot file that
is not whole frames for the shard its name states (one base frame, then
binary deltas each advancing version and ``through``), a torn last frame
whose segment is gone, and a snapshot frame no checkpoint writes (at version
0, or holding no record: a shard exists only once a batch reached it) — a
base frame replaces its file atomically, a delta is synced before any
segment is deleted, so a damaged file is never crash residue, and falling
back to the log would silently open a smaller table.

The frames themselves — binary ``RSG1`` segment and ``RSN1`` snapshot frames
carrying packed ``RPK1`` batches, the JSON control log, and the reader of the
JSON record frames builds before 5.0 wrote — are :mod:`repro.storage.wal`'s;
the checkpoint that ends every recovery which saw a segment folds JSON-era
frames into binary snapshots, so a segment never mixes the two eras.
"""

from __future__ import annotations

import json
import os
import pathlib
import uuid
from dataclasses import dataclass
from typing import (
    BinaryIO,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..codec.packed import PackedRecordBatch
from ..data.records import PositioningRecord
from .base import IngestReceipt
from .sharded import DEFAULT_SHARD_SECONDS, ShardedRecordStore
from .wal import (
    _field,
    decode_wal_frames,
    encode_segment_frame,
    encode_snapshot_frame,
    encode_wal_frame,
    frame_records,
    torn_snapshot_frame,
)

FORMAT_VERSION = 1

MANIFEST_NAME = "MANIFEST.json"
CONTROL_NAME = "control.wal"
WAL_DIR_NAME = "wal"
SNAPSHOT_DIR_NAME = "snapshots"
SUBSCRIPTIONS_NAME = "subscriptions.json"

FSYNC_KINDS = ("always", "batch", "never")


class SimulatedCrashError(RuntimeError):
    """The store hit its injected fault point and 'crashed'.

    Raised by every subsequent operation too: a crashed store is dead until
    a new :class:`DurableRecordStore` recovers its directory.
    """


@dataclass(frozen=True)
class DurabilityConfig:
    """Durability/latency knobs of one :class:`DurableRecordStore`.

    ``fsync``
        Every policy flushes each write to the OS before the call returns,
        so each survives a process crash; they differ in what an OS crash
        keeps.  ``"always"``: fsync every segment append and every
        control-log record — the one policy meant to survive an OS crash
        once an ingest returned.  ``"batch"`` (default): fsync the control
        log's records and the snapshot writes, no segment append — after
        an OS crash a committed batch can lack segment frames (syncing
        ``control.wal`` orders nothing in the segment files).  ``"never"``:
        never fsync — fastest.
    ``snapshot_every_batches``
        Automatic checkpoint cadence; ``None`` = only explicit
        :meth:`DurableRecordStore.checkpoint` calls (and the one that ends a
        recovery which found segments).  Frequent snapshots shorten recovery
        and bound the log's size; each one pauses the ingest that triggers it
        for its snapshot writes, which append a delta frame to a still-filling
        shard's file and replace only the others, while the control log only
        gains an appended base frame (module docstring: what a file
        replacement costs, and when a file is rewritten).
    ``fail_after_writes``
        Fault injection for the crash-recovery harness: the store performs
        exactly this many WAL file operations (frame appends, snapshot
        writes, file deletions), then raises :class:`SimulatedCrashError`
        immediately *before* the next one — i.e. it dies at a frame
        boundary, leaving whole frames on disk.  ``None`` disables.
    """

    fsync: str = "batch"
    snapshot_every_batches: Optional[int] = None
    fail_after_writes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_KINDS:
            raise ValueError(
                f"unknown fsync policy {self.fsync!r}; expected one of {FSYNC_KINDS}"
            )
        if self.snapshot_every_batches is not None and self.snapshot_every_batches < 1:
            raise ValueError("snapshot_every_batches must be at least 1 (or None)")
        if self.fail_after_writes is not None and self.fail_after_writes < 0:
            raise ValueError("fail_after_writes must be non-negative (or None)")


# ----------------------------------------------------------------------
# File plumbing
# ----------------------------------------------------------------------
def fsync_dir(path: pathlib.Path) -> None:
    """Persist a directory entry (file creation / rename) itself.

    fsyncing a file's contents does not persist its *name*: after a power
    failure a freshly created segment (or a replaced snapshot) can vanish
    from the directory even though its bytes were synced.  Best effort —
    platforms without directory fds just skip it.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: pathlib.Path, data: bytes, fsync: str) -> None:
    """Replace ``path`` with ``data`` in one step — the one atomic-write rule.

    The bytes go to a temp file beside ``path`` that ``os.replace`` renames
    over it.  Unless the :class:`DurabilityConfig` ``fsync`` policy is
    ``"never"``, the file is fsynced before the rename and its directory
    after it: without the first, a power loss can keep the rename and lose
    the bytes; without the second, recovery can see the pre-replace file (or
    none at all).  A snapshot's base frame (a new file, or one an
    out-of-order absorb or the JSON era keeps from taking a delta), the
    manifest and a control log rewritten by the size rule are all written
    here.
    """
    sync = fsync != "never"
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        if sync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if sync:
        fsync_dir(path.parent)


def _subscribe_frame(entry: dict) -> bytes:
    """The control-log frame that keeps one standing query."""
    return encode_wal_frame({"kind": "subscribe", "query": entry})


class DurableRecordStore(ShardedRecordStore):
    """A :class:`~repro.storage.sharded.ShardedRecordStore` that survives
    restarts.

    Pass a fresh directory to create a new table, or an existing one to
    recover it — the persisted manifest then decides ``shard_seconds`` (the
    constructor argument only seeds a brand-new store).  Queries and
    introspection are the sharded store's own; a mutation is logged first
    (the hooks :meth:`_log_batch`, :meth:`_log_eviction` and
    :meth:`_evicted`), applied second, then announced to the listeners, and
    the standing queries live in the control log (:meth:`log_standing_query`,
    :meth:`standing_queries`; see the module docstring).
    """

    kind = "durable"

    def __init__(
        self,
        directory: "os.PathLike[str] | str",
        shard_seconds: float = DEFAULT_SHARD_SECONDS,
        config: Optional[DurabilityConfig] = None,
    ):
        self.config = config or DurabilityConfig()
        self._dir = pathlib.Path(directory)
        self._wal_dir = self._dir / WAL_DIR_NAME
        self._snap_dir = self._dir / SNAPSHOT_DIR_NAME
        self._writes_done = 0
        self._crashed = False
        self._closed = False
        #: Open append handles: shard key -> its segment, CONTROL_NAME -> the
        #: control log.
        self._handles: Dict[object, BinaryIO] = {}
        self._next_seq = 1
        #: Per shard: the last committed batch sequence applied to it.
        self._shard_last_seq: Dict[int, int] = {}
        #: Per shard: the version its current snapshot file holds (0 = none).
        self._snapshotted_version: Dict[int, int] = {}
        #: Per shard: how many records its snapshot file holds, kept only
        #: while they are still the shard's first records (binary, and every
        #: absorb since was in time order) — the next checkpoint appends the
        #: rest as a delta frame instead of replacing the file.
        self._snapshot_held: Dict[int, int] = {}
        self._batches_since_snapshot = 0
        #: Replication state: the highest committed batch sequence, and the
        #: sequence at/below which segment frames no longer exist on disk
        #: (checkpoint compaction folded them into snapshots).
        self._last_committed_seq = 0
        self._wal_base_seq = 0
        #: The live standing queries: id -> the entry its subscribe frame holds.
        self._standing: Dict[int, dict] = {}
        #: One above the highest id any subscribe frame named, live or not.
        self._next_query = 1
        manifest = self._load_or_create_manifest(float(shard_seconds))
        super().__init__(shard_seconds=manifest["shard_seconds"])
        # A store recovered from its directory IS the same logical store:
        # the persisted uid makes its version tokens equal the pre-crash ones.
        self._uid = manifest["uid"]
        self.recovery_report: Dict[str, object] = {}
        self._recover()
        if self.recovery_report["segments_seen"]:
            # Leave no segment behind: the next recovery replays nothing,
            # crash garbage — uncommitted or already-compacted frames — is
            # purged, and a pre-5.0 directory's JSON frames never share a
            # segment with ours.
            with self._lock:
                self._checkpoint_locked()

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _load_or_create_manifest(self, shard_seconds: float) -> dict:
        self._dir.mkdir(parents=True, exist_ok=True)
        self._wal_dir.mkdir(exist_ok=True)
        self._snap_dir.mkdir(exist_ok=True)
        path = self._dir / MANIFEST_NAME
        if path.exists():
            manifest = json.loads(path.read_text(encoding="utf-8"))
            if manifest.get("format") != FORMAT_VERSION:
                raise ValueError(
                    f"unsupported durable-store format {manifest.get('format')!r} "
                    f"in {path} (this build reads format {FORMAT_VERSION})"
                )
            # Older directories also carry an "index_kind" key; it is ignored.
            return manifest
        manifest = {
            "format": FORMAT_VERSION,
            "uid": f"durable-{uuid.uuid4().hex[:16]}",
            "shard_seconds": shard_seconds,
        }
        data = json.dumps(manifest, indent=2).encode("utf-8")
        atomic_write(path, data, self.config.fsync)
        return manifest

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        # Snapshots and an older build's subscriptions file first: a damaged
        # one refuses the open before the log scan has repaired (rewritten)
        # anything.
        snapshots, torn_snapshots = self._read_snapshots()
        older = self._read_subscriptions_file()
        scan = self._scan_log(repair=True)
        committed, watermark, base_next, segments, torn = scan[:5]
        self._standing, self._next_query = scan[5:]
        max_seq = max(
            (seq for frames in segments.values() for seq, _frame in frames), default=0
        )

        replayed = 0
        skipped_uncommitted = 0
        loaded_from_snapshot = 0
        max_through = 0
        for key in sorted(set(snapshots) | set(segments)):
            if (key + 1) * self.shard_seconds <= watermark:
                # The eviction was committed (watermark record) but the crash
                # interrupted the file deletions: finish them now.
                self._remove_shard_files(key, count_write=False)
                continue
            version, through, snapshot = snapshots.get(key, (0, 0, None))
            self._snapshotted_version[key] = version
            if snapshot is not None:
                # Adopted packed, so the shard decodes lazily on first query:
                # a cold recovery is one blob read per shard.  A JSON-era
                # file is packed once here and replaced at the next
                # checkpoint; a binary one takes deltas while absorbs stay
                # in time order.
                packed = snapshot.get("packed")
                if packed is not None:
                    self._snapshot_held[key] = len(packed)
                else:
                    records = frame_records(snapshot, self._snapshot_path(key), 0)
                    packed = PackedRecordBatch.from_records(records)
                self.load_shard_packed(key, packed, version)
                loaded_from_snapshot += 1
            # Repeating history: each committed frame past the snapshot is
            # absorbed as its ingest absorbed it, bumping the version once.
            for index, (seq, frame) in enumerate(segments.get(key, ())):
                if seq <= through:
                    continue  # already folded into the snapshot
                if seq not in committed:
                    skipped_uncommitted += 1
                    continue
                records = frame_records(frame, self._segment_path(key), index)
                self._absorb(key, records, [record.timestamp for record in records])
                through = seq
                replayed += 1
            self._shard_last_seq[key] = through
            max_through = max(max_through, through)
        if watermark > float("-inf"):
            self.restore_watermark(watermark)
        # The sequence counter must clear every sequence any surviving file
        # knows about.  Snapshot "through" values matter independently of the
        # other two sources: a crash during checkpoint can land after the
        # segments were deleted but before the checkpoint's base record was
        # written, leaving the snapshots as the only witnesses of the highest
        # committed sequence — resuming below it would reuse sequence numbers
        # that a later recovery then skips as already-compacted (data loss).
        self._next_seq = max(base_next, max_seq + 1, max_through + 1)
        # Replication bookkeeping: the highest committed sequence any source
        # witnessed.  It is also the replay floor: the checkpoint that ends a
        # recovery which saw a segment folds every frame away, so a follower
        # whose cursor is below it must re-catch-up from snapshots.
        self._last_committed_seq = max(max_through, base_next - 1, *committed)
        self._wal_base_seq = self._last_committed_seq
        if older is not None:
            # Folded into the log before the file goes: a crash in between
            # folds it again, and a repeated subscribe frame changes nothing.
            for entry in older:
                self.log_standing_query(int(entry["id"]), entry)
            self._remove_file(self._dir / SUBSCRIPTIONS_NAME)
            if self.config.fsync != "never":
                fsync_dir(self._dir)
        self.recovery_report = {
            "shards": self.shard_count,
            "records": len(self),
            "shards_from_snapshot": loaded_from_snapshot,
            "shards_loaded_lazily": self.unmaterialised_shard_count(),
            "segments_seen": sum(1 for frames in segments.values() if frames),
            "frames_replayed": replayed,
            "frames_skipped_uncommitted": skipped_uncommitted,
            "torn_tails_truncated": torn + torn_snapshots,
            "watermark": watermark,
        }

    def _read_snapshots(self) -> Tuple[Dict[int, Tuple[int, int, dict]], int]:
        """``shard key -> (version, through, frame)`` of every snapshot file,
        and how many torn last frames were cut.

        A file is a base frame and zero or more delta frames, every one for
        the shard its name states, one a checkpoint writes (at version 1 or
        above, holding a record) and, after the base, binary and advancing
        version and ``through``; the returned frame carries the packed
        batches concatenated, so the shard still loads lazily.  A torn last
        frame is cut while the shard's segment is on disk: a checkpoint
        deletes segments only once every snapshot write is done, so the
        segment still holds the cut frame's records.  Anything else raises
        before any file is cut (module docstring: it is damage, never crash
        residue).
        """
        snapshots: Dict[int, Tuple[int, int, dict]] = {}
        cuts: List[Tuple[pathlib.Path, int]] = []
        for path in sorted(self._snap_dir.glob("shard-*.snap")):
            data = path.read_bytes()
            frames, valid = decode_wal_frames(data)
            if not frames or not (
                valid == len(data) or torn_snapshot_frame(data, valid)
            ):
                raise ValueError(
                    f"{path}: not whole snapshot frames ({len(frames)} "
                    f"decodable, {valid} of {len(data)} bytes valid)"
                )
            key = _field(frames[0], "shard", int, path, 0)
            if path != self._snapshot_path(key):
                raise ValueError(f"{path}: holds the snapshot of shard {key}")
            if valid < len(data):
                if not self._segment_path(key).exists():
                    raise ValueError(
                        f"{path}: a torn last frame, and the segment that held "
                        f"its records is gone"
                    )
                cuts.append((path, valid))
            version = through = 0
            batches = []
            for index, frame in enumerate(frames):
                if _field(frame, "shard", int, path, index) != key:
                    raise ValueError(f"{path}: frame {index} holds another shard")
                frame_version = _field(frame, "version", int, path, index)
                frame_through = _field(frame, "through", int, path, index)
                packed = frame.get("packed")
                if packed is None:  # a JSON-era snapshot
                    if len(frames) > 1:
                        raise ValueError(f"{path}: a JSON-era frame beside delta frames")
                    held = _field(frame, "records", len, path, index)
                else:
                    held = len(packed)
                if frame_version < 1 or not held:
                    raise ValueError(
                        f"{path}: frame {index} at version {frame_version} holding "
                        f"{held} records, which no checkpoint writes"
                    )
                if index and (frame_version <= version or frame_through <= through):
                    raise ValueError(
                        f"{path}: frame {index} at version {frame_version} through "
                        f"{frame_through} does not advance on {version} through {through}"
                    )
                version, through = frame_version, frame_through
                batches.append(packed)
            if len(frames) > 1:
                frames[0] = {"packed": PackedRecordBatch.concatenate(batches)}
            snapshots[key] = (version, through, frames[0])
        for path, valid in cuts:
            os.truncate(path, valid)
        return snapshots, len(cuts)

    def _read_subscriptions_file(self) -> Optional[List[dict]]:
        """The standing queries a ``subscriptions.json`` of an older build
        holds (``None`` without the file): a JSON list of objects, each with
        an integer ``id``.  Anything else raises a ``ValueError`` naming the
        file, which stays on disk."""
        path = self._dir / SUBSCRIPTIONS_NAME
        if not path.exists():
            return None
        try:
            entries = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(entries, list):
                raise TypeError(f"a list of entries, not {type(entries).__name__}")
            for entry in entries:
                int(entry["id"])  # a TypeError for anything but an object
        except (ValueError, KeyError, TypeError) as error:
            raise ValueError(f"{path}: damaged subscriptions file: {error!r}") from error
        return entries

    def _segment_files(self) -> List[Tuple[int, pathlib.Path]]:
        """``(shard key, path)`` of every segment on disk, by *integer* key:
        a batch's slices concatenate in ascending shard key, and file names
        sort ``segment-10`` before ``segment-2``."""
        return sorted(
            (int(path.stem.split("-", 1)[1]), path)
            for path in self._wal_dir.glob("segment-*.wal")
        )

    def _read_frames(self, path: pathlib.Path, repair: bool) -> Tuple[List[dict], int]:
        """The decodable frames of one log file, and 1 if a torn tail was cut."""
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return [], 0
        frames, valid = decode_wal_frames(data)
        torn = repair and valid < len(data)
        if torn:
            os.truncate(path, valid)
        return frames, int(torn)

    def _scan_log(self, repair: bool) -> Tuple[
        Set[int], float, int, Dict[int, List[Tuple[int, dict]]], int, Dict[int, dict], int
    ]:
        """The one reader of the control log and the segments.

        Returns ``(committed, watermark, base_next, segments, torn,
        standing, next_query)``: the committed sequences, the highest
        retention watermark, the base record's ``next_seq`` (1 without one),
        each segment's ``(seq, frame)`` list by ascending shard key, how many
        torn tails it met, the live standing queries (id -> entry, each
        ``subscribe`` not followed by an ``unsubscribe`` of its id), and one
        above the highest standing-query id any ``subscribe`` frame named or
        a rewritten base frame's ``next_query`` carries (1 without either).
        Only recovery passes ``repair`` (truncate them): a live store's
        replay never rewrites a file it is appending to.
        """
        path = self._dir / CONTROL_NAME
        committed: Set[int] = set()
        watermarks = [float("-inf")]
        base_next = next_query = 1
        standing: Dict[int, dict] = {}
        frames, torn = self._read_frames(path, repair)
        for index, frame in enumerate(frames):
            kind, mark = frame.get("kind"), frame.get("watermark")
            if kind == "commit":
                committed.add(_field(frame, "seq", int, path, index))
            elif kind == "base":
                base_next = max(base_next, _field(frame, "next_seq", int, path, index))
                if "next_query" in frame:
                    next_query = max(
                        next_query, _field(frame, "next_query", int, path, index)
                    )
            elif kind == "subscribe":
                entry = _field(frame, "query", dict, path, index)
                sub_id = _field(entry, "id", int, path, index)
                standing[sub_id] = entry
                next_query = max(next_query, sub_id + 1)
            elif kind == "unsubscribe":
                standing.pop(_field(frame, "id", int, path, index), None)
            if kind == "watermark" or (kind == "base" and mark is not None):
                watermarks.append(_field(frame, "watermark", float, path, index))
        segments: Dict[int, List[Tuple[int, dict]]] = {}
        for key, path in self._segment_files():
            frames, torn_here = self._read_frames(path, repair)
            torn += torn_here
            segments[key] = [
                (_field(frame, "seq", int, path, index), frame)
                for index, frame in enumerate(frames)
            ]
        return committed, max(watermarks), base_next, segments, torn, standing, next_query

    # ------------------------------------------------------------------
    # Fault injection and file plumbing
    # ------------------------------------------------------------------
    def _fault_point(self) -> None:
        """Crash (once) when the injected write budget is exhausted.

        Called immediately before every WAL file operation, so a simulated
        crash always lands exactly on a frame boundary — whole frames are
        on disk, the next one never started.  The crash releases the log
        handles the way process death would (every append was flushed
        already, so closing writes nothing).
        """
        if self._crashed:
            raise SimulatedCrashError("the store already crashed")
        limit = self.config.fail_after_writes
        if limit is not None and self._writes_done >= limit:
            self._crashed = True
            self._close_handles()
            raise SimulatedCrashError(
                f"simulated crash after {self._writes_done} WAL writes"
            )
        self._writes_done += 1

    def _ensure_usable(self) -> None:
        if self._crashed:
            raise SimulatedCrashError("the store crashed; recover its directory")
        if self._closed:
            raise ValueError("the durable store is closed")

    def _segment_path(self, key: int) -> pathlib.Path:
        return self._wal_dir / f"segment-{key}.wal"

    def _snapshot_path(self, key: int) -> pathlib.Path:
        return self._snap_dir / f"shard-{key}.snap"

    def _append_frame(self, file: object, frame: bytes, fsync: bool) -> None:
        """Append one whole frame to a log file — the one append path.

        ``file`` is a shard key (that shard's segment) or ``CONTROL_NAME``;
        it keys the handle table directly, so an append builds no path.
        """
        self._fault_point()
        handle = self._handles.get(file)
        if handle is None:
            control = file == CONTROL_NAME
            path = self._dir / file if control else self._segment_path(file)
            created = not path.exists()
            handle = self._handles[file] = open(path, "ab")
            if created and self.config.fsync == "always":
                # The "survives OS crashes" promise covers the directory
                # entry of a brand-new log file too.
                fsync_dir(path.parent)
        handle.write(frame)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())

    def _close_handle(self, file: object) -> None:
        handle = self._handles.pop(file, None)
        if handle is not None:
            handle.close()

    def _close_handles(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    def _remove_shard_files(self, key: int, count_write: bool = True) -> None:
        """Delete one shard's segment and snapshot (whichever exist)."""
        self._close_handle(key)
        for path in (self._segment_path(key), self._snapshot_path(key)):
            self._remove_file(path, count_write)

    def _remove_file(self, path: pathlib.Path, count_write: bool = True) -> None:
        if path.exists():
            if count_write:
                self._fault_point()
            path.unlink()

    # ------------------------------------------------------------------
    # Ingestion: the sharded store sorts, refuses and slices a batch once;
    # here it is logged, and the snapshot cadence runs after the event
    # ------------------------------------------------------------------
    def ingest_batch(self, records: Iterable[PositioningRecord]) -> IngestReceipt:
        with self._lock:
            receipt = super().ingest_batch(records)
            cadence = self.config.snapshot_every_batches
            if cadence is not None and self._batches_since_snapshot >= cadence:
                self._checkpoint_locked()
            return receipt

    def _log_batch(self, slices: List[Tuple[int, List[PositioningRecord]]]) -> int:
        """Append one frame per shard slice, then the commit record."""
        self._ensure_usable()
        # Reserve the sequence number BEFORE touching any file: if an
        # append fails with a real I/O error (disk full, EIO) the store
        # object stays alive but this sequence is burned — a later batch
        # must never reuse it, or the aborted batch's orphan frames
        # would ride the new batch's commit record into recovery.
        seq = self._next_seq
        self._next_seq = seq + 1
        policy = self.config.fsync
        for key, slice_records in slices:
            self._append_frame(
                key, encode_segment_frame(seq, slice_records), policy == "always"
            )
        # The commit record makes the whole multi-shard batch atomic:
        # recovery ignores every frame of an uncommitted sequence.
        self._append_frame(
            CONTROL_NAME,
            encode_wal_frame({"kind": "commit", "seq": seq}),
            policy != "never",
        )
        for key, _records in slices:
            self._shard_last_seq[key] = seq
        self._last_committed_seq = seq
        self._batches_since_snapshot += 1
        return seq

    def _absorb(
        self, key: int, records: List[PositioningRecord], times: Sequence[float]
    ) -> bool:
        in_order = super()._absorb(key, records, times)
        if not in_order:
            # The absorb re-sorted the shard: its snapshot file's records are
            # no longer its first ones, so the file takes no delta.
            self._snapshot_held.pop(key, None)
        return in_order

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, int]:
        """Snapshot dirty shards, drop their segments, record a base frame.

        After a checkpoint the directory holds one snapshot file per shard
        (a base frame plus in-order deltas, module docstring) and a control
        log no longer than one checkpoint interval's WAL — recovery
        cost becomes proportional to table size, not to ingestion history.
        Returns a small summary dict.
        """
        with self._lock:
            self._ensure_usable()
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> Dict[str, int]:
        snapshots_written = 0
        held = self._snapshot_held
        # Only the dirty shards' records their snapshot files lack are copied
        # out: checkpoint cost is proportional to what changed, not table size.
        starts = {
            key: held.get(key, 0)
            for key, version in self.shard_versions().items()
            if self._snapshotted_version.get(key, 0) != version
        }
        for key, version, records in self.shard_states(starts):
            frame = encode_snapshot_frame(
                key, version, self._shard_last_seq.get(key, 0), records
            )
            self._fault_point()
            # Out of ``held`` until the write is whole: after a failed append
            # the next checkpoint replaces the file, never appends behind a
            # torn frame.
            if held.pop(key, None) is not None:
                # The file holds the shard's first records: append the rest
                # as a delta frame, freeing no block (module docstring).
                with open(self._snapshot_path(key), "ab") as handle:
                    handle.write(frame)
                    handle.flush()
                    if self.config.fsync != "never":
                        os.fsync(handle.fileno())
            else:
                atomic_write(self._snapshot_path(key), frame, self.config.fsync)
            held[key] = starts[key] + len(records)
            self._snapshotted_version[key] = version
            snapshots_written += 1
        # Every committed frame is folded into a snapshot now; uncommitted
        # ones are dead.  Drop every segment — including orphans whose only
        # frames were uncommitted crash garbage (their shard never loaded),
        # or every future recovery re-sees them and re-runs this checkpoint.
        folded = 0
        for key, path in self._segment_files():
            folded += path.stat().st_size
            self._close_handle(key)
            self._remove_file(path)
        self._write_base(folded)
        self._batches_since_snapshot = 0
        # Every pre-checkpoint frame is gone: followers behind this point
        # must re-catch-up from snapshots instead of replaying.
        self._wal_base_seq = self._last_committed_seq
        return {
            "snapshots_written": snapshots_written,
            "shards": self.shard_count,
            "records": len(self),
        }

    def _write_base(self, folded: int) -> None:
        """Record the checkpoint's ``base`` frame (``next_seq``, watermark).

        Appended to the open control log under the fsync policy, like a
        commit record — unless the log already holds more bytes than the
        ``folded`` segment bytes plus the live standing queries' frames: the
        one size rule, under which the base frame and one ``subscribe``
        frame per live standing query replace the log (:func:`atomic_write`).
        One file replacement is amortised over many checkpoints, and the log
        is never longer than one interval's WAL plus one base frame and the
        registrations.  :meth:`_scan_log` takes the largest ``next_seq`` and
        watermark wherever the frames sit, and a rewrite keeps every live
        registration and, in the base frame's ``next_query``, the id floor
        the dropped ``subscribe`` frames set when it lies above every live
        id, so both leave the same state to recover.
        """
        watermark = self._watermark
        base = {
            "kind": "base",
            "next_seq": self._next_seq,
            "watermark": watermark if watermark > float("-inf") else None,
        }
        kept = b"".join(map(_subscribe_frame, self._standing.values()))
        control = self._dir / CONTROL_NAME
        held = control.stat().st_size if control.exists() else 0
        if held <= folded + len(kept):
            self._append_frame(
                CONTROL_NAME, encode_wal_frame(base), self.config.fsync != "never"
            )
            return
        if self._next_query > 1 + max(self._standing, default=0):
            base["next_query"] = self._next_query
        self._close_handle(CONTROL_NAME)
        self._fault_point()
        atomic_write(control, encode_wal_frame(base) + kept, self.config.fsync)

    # ------------------------------------------------------------------
    # Replication: the WAL cursor (live followers subscribe like any listener)
    # ------------------------------------------------------------------
    @property
    def last_committed_seq(self) -> int:
        """The sequence number of the most recently committed batch."""
        with self._lock:
            return self._last_committed_seq

    @property
    def wal_base_seq(self) -> int:
        """The replay floor: no committed frame with ``seq <= base`` survives.

        Checkpoint compaction and shard eviction both advance it; a follower
        cursor at or above the floor can replay, anything below must
        re-catch-up from snapshots (see :meth:`can_replay_from`).
        """
        with self._lock:
            return self._wal_base_seq

    def can_replay_from(self, cursor: int) -> bool:
        """Whether every committed batch with ``seq > cursor`` is replayable."""
        with self._lock:
            return int(cursor) >= self._wal_base_seq

    def committed_batches_after(
        self, cursor: int
    ) -> List[Tuple[int, List[PositioningRecord]]]:
        """Committed batches with ``seq > cursor``, in commit order.

        Each batch is reconstructed exactly as it was ingested:
        :meth:`~repro.storage.sharded.ShardedRecordStore.slice_batch` yields
        strictly increasing shard keys over a time-sorted batch, so
        concatenating a sequence's per-shard slices in shard-key order
        reproduces the original time-sorted batch — re-ingesting it into an
        identical store reproduces the primary's per-shard versions exactly.
        This is the same decoded-frame path recovery replays.
        """
        with self._lock:
            self._ensure_usable()
            cursor = int(cursor)
            if not self.can_replay_from(cursor):
                raise ValueError(
                    f"cursor {cursor} is below the WAL replay floor "
                    f"{self._wal_base_seq}; re-catch-up from a snapshot"
                )
            scan = self._scan_log(repair=False)
            committed, segments = scan[0], scan[3]
            # Segments arrive in ascending integer shard key, so each
            # sequence's slices concatenate in the order they were cut.
            per_seq: Dict[int, List[PositioningRecord]] = {}
            for key, frames in segments.items():
                for index, (seq, frame) in enumerate(frames):
                    if seq > cursor and seq in committed:
                        per_seq.setdefault(seq, []).extend(
                            frame_records(frame, self._segment_path(key), index)
                        )
            return sorted(per_seq.items())

    def wal_inventory(self) -> Dict[str, object]:
        """Segment count/bytes per shard plus the replayable sequence range.

        Sizes are ``stat``-ed, not tallied: every append is flushed before it
        returns, so the file sizes are exact.
        """
        with self._lock:
            control = self._dir / CONTROL_NAME
            sizes = {
                str(key): path.stat().st_size for key, path in self._segment_files()
            }
            return {
                "segments": len(sizes),
                "segment_bytes": sum(sizes.values()),
                "per_shard_bytes": sizes,
                "control_bytes": control.stat().st_size if control.exists() else 0,
                "base_seq": self._wal_base_seq,
                "last_seq": self._last_committed_seq,
            }

    # ------------------------------------------------------------------
    # Retention: the watermark record commits the eviction, and the event
    # waits for the file deletions
    # ------------------------------------------------------------------
    def _log_eviction(self, watermark: float) -> None:
        self._ensure_usable()
        self._append_frame(
            CONTROL_NAME,
            encode_wal_frame({"kind": "watermark", "watermark": watermark}),
            self.config.fsync != "never",
        )

    def _evicted(self, keys: List[int]) -> None:
        for key in keys:
            self._remove_shard_files(key)
            self._shard_last_seq.pop(key, None)
            self._snapshotted_version.pop(key, None)
            self._snapshot_held.pop(key, None)
        # The dropped shards' committed frames are gone, and evictions
        # themselves are not in the replayable stream: a follower whose
        # cursor predates this point can no longer replay its way to the
        # primary's state — it must re-catch-up from snapshots.  Live
        # tailing followers receive the eviction as an EvictionEvent
        # instead and apply it themselves.
        self._wal_base_seq = self._last_committed_seq

    # ------------------------------------------------------------------
    # Standing queries: control-log records, like a watermark
    # ------------------------------------------------------------------
    def standing_queries(self) -> List[dict]:
        with self._lock:
            return list(self._standing.values())

    def next_standing_query_id(self) -> int:
        with self._lock:
            return self._next_query

    def log_standing_query(self, sub_id: int, entry: Optional[dict]) -> None:
        """Append the ``subscribe`` / ``unsubscribe`` frame under the fsync
        policy; the live set changes only once the frame is written."""
        with self._lock:
            self._ensure_usable()
            frame = _subscribe_frame(entry) if entry is not None else encode_wal_frame(
                {"kind": "unsubscribe", "id": sub_id}
            )
            self._append_frame(CONTROL_NAME, frame, self.config.fsync != "never")
            if entry is None:
                self._standing.pop(sub_id, None)
            else:
                self._standing[sub_id] = entry
                self._next_query = max(self._next_query, sub_id + 1)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Flush and fsync every open log handle (drain/shutdown hook)."""
        with self._lock:
            for handle in self._handles.values():
                handle.flush()
                os.fsync(handle.fileno())

    def close(self) -> None:
        """Flush and close the log handles; further mutations raise."""
        with self._lock:
            if self._closed:
                return
            if not self._crashed:
                self.flush()
            self._close_handles()
            self._closed = True

    def __enter__(self) -> "DurableRecordStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> pathlib.Path:
        return self._dir

    @property
    def uid(self) -> str:
        """The persisted store identity (embedded in version tokens).

        Replicas adopt it via
        :meth:`~repro.storage.sharded.ShardedRecordStore.restore_identity`
        so their version tokens compare equal to the primary's.
        """
        return self._uid

    def describe(self) -> dict:
        summary = super().describe()
        summary.update(
            {
                "directory": str(self._dir),
                "fsync": self.config.fsync,
                "snapshot_every_batches": self.config.snapshot_every_batches,
                "next_seq": self._next_seq,
                "last_committed_seq": self._last_committed_seq,
                "wal_base_seq": self._wal_base_seq,
                "recovery": dict(self.recovery_report),
            }
        )
        return summary
