"""The IUPT: the time-partitioned sharded record store.

Records are partitioned into fixed-duration time shards (shard key
``floor(timestamp / shard_seconds)``).  Each shard owns its records in time
order — that order, read through the shard's sorted timestamp column, is its
only index — and carries its own version counter:

* **window queries prune to overlapping shards** — a query first selects the
  shards whose time range intersects the window (two bisections over the
  sorted shard keys), serves fully-covered shards straight from their sorted
  record lists, and answers the (at most two) partially-covered boundary
  shards by two bisections over the timestamp column and a list slice;
* **batch ingestion costs what the batch costs** — the batch is sorted once
  and its timestamp column taken once; the column is cut into per-shard runs
  by bisection, each run's records are appended to its shard's record list
  (merged by a stable sort only when they arrive out of time order) and its
  timestamps to the shard's column, and the receipt's per-object spans come
  from two dict builds over the sorted batch; there is no index to rebuild;
* **lazily loaded shards materialise per slice** — a shard adopted in the
  codec's packed form builds only the records a caller asks for, each at
  most once (:attr:`ShardedRecordStore.records_materialised` counts them);
* **versions advance per shard** — :meth:`ShardedRecordStore.version_token`
  over a window only covers the overlapping shards, so the engine's cached
  presences die exactly when a batch touches the shards their windows read;
* **retention drops whole shards** — :meth:`ShardedRecordStore.evict_before`
  removes shards ending at or before the cut-off and records a watermark;
  later queries reaching below the watermark raise
  :class:`~repro.storage.base.EvictedRangeError` instead of silently
  answering from partial history.
"""

from __future__ import annotations

import itertools
import math
import threading
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..codec.packed import PackedRecordBatch
from ..data.records import PositioningRecord, SampleSet
from .base import (
    EvictionEvent,
    IngestEvent,
    IngestReceipt,
    STORE_UIDS,
    StoreListener,
    VersionToken,
    check_not_evicted,
)

DEFAULT_SHARD_SECONDS = 600.0

_BY_TIME = attrgetter("timestamp")
_BY_OBJECT = attrgetter("object_id")


class _Shard:
    """One time partition: its records in time order, one slot per position.

    A shard adopted in *packed* form (the codec's columnar batch, as
    recovered from a binary snapshot) starts with every slot empty and fills
    only the positions a caller asks for, each at most once — ``_gaps`` lists
    the still-empty ``[lo, hi)`` runs, ``built`` counts the slots filled — so
    recovering a large table never pays per-record object construction for
    records no query returns.  Its record count, time bounds and version are
    available without decoding anything.
    """

    __slots__ = ("key", "version", "built", "_records", "_gaps", "_packed", "_timestamps")

    def __init__(
        self, key: int, version: int = 0, packed: Optional[PackedRecordBatch] = None
    ):
        self.key = key
        self.version = version
        self.built = 0
        count = 0 if packed is None else len(packed)
        self._gaps: List[Tuple[int, int]] = [(0, count)] if count else []
        self._records: List[PositioningRecord] = [None] * count
        self._packed = packed
        # The sorted timestamp column, kept in step by in-order absorbs and
        # rebuilt on demand (see timestamps()) after anything else.
        self._timestamps: Optional[List[float]] = None if count else []

    def _fill(self, lo: int, hi: int) -> None:
        """Build the still-packed records of ``[lo:hi]`` into their slots."""
        gaps: List[Tuple[int, int]] = []
        for gap_lo, gap_hi in self._gaps:
            fill_lo, fill_hi = max(gap_lo, lo), min(gap_hi, hi)
            if fill_lo >= fill_hi:
                gaps.append((gap_lo, gap_hi))
                continue
            self._records[fill_lo:fill_hi] = self._packed.to_records(fill_lo, fill_hi)
            self.built += fill_hi - fill_lo
            if gap_lo < fill_lo:
                gaps.append((gap_lo, fill_lo))
            if fill_hi < gap_hi:
                gaps.append((fill_hi, gap_hi))
        self._gaps = gaps

    def slice(self, lo: int, hi: int) -> List[PositioningRecord]:
        """Records ``[lo:hi]``, building those of them that are still packed."""
        if self._gaps:
            self._fill(lo, hi)
        return self._records[lo:hi]

    @property
    def records(self) -> List[PositioningRecord]:
        """The shard's own record list, every slot filled."""
        if self._gaps:
            self._fill(0, len(self._records))
        return self._records

    @property
    def materialised(self) -> bool:
        """Whether no record of the shard is packed-only any more."""
        return not self._gaps

    @property
    def record_count(self) -> int:
        return len(self._records)

    def absorb(self, incoming: List[PositioningRecord], times: Sequence[float]) -> bool:
        """Merge a time-sorted batch slice, whose timestamp column is
        ``times``, into this shard and bump its version; returns whether the
        shard's earlier records are still its first ones.

        ``list.sort`` is stable, so records already present keep preceding
        newly ingested ones on timestamp ties — the arrival-order tie rule of
        :meth:`ShardedRecordStore.range_query`.  A slice that starts
        at or after the shard's last record (a stream arriving in time order)
        is the sorted result as appended, so an ingest costs what the batch
        costs, not what the shard has grown to; any other slice re-sorts the
        shard, and the answer is ``False``.
        """
        records = self.records
        in_order = not records or records[-1].timestamp <= times[0]
        records.extend(incoming)
        if not in_order:
            records.sort(key=_BY_TIME)
            self._timestamps = None
        elif self._timestamps is not None:
            self._timestamps.extend(times)
        self._packed = None
        self.version += 1
        return in_order

    def packed(self) -> PackedRecordBatch:
        """The shard's records in the codec's columnar layout (cached)."""
        if self._packed is None:
            self._packed = PackedRecordBatch.from_records(self._records)
        return self._packed

    def timestamps(self) -> List[float]:
        """The sorted timestamp column — the shard's index; served from the
        packed form while the shard has one, so reading it builds no record."""
        if self._timestamps is None:
            if self._packed is not None:
                self._timestamps = self._packed.timestamps_list()
            else:
                self._timestamps = list(map(_BY_TIME, self._records))
        return self._timestamps


def _object_spans(
    batch: Sequence[PositioningRecord], times: Sequence[float]
) -> Tuple[Tuple[int, float, float], ...]:
    """Per-object ``(id, earliest_ts, latest_ts)`` triples of one batch, in
    ascending id order.

    ``batch`` must be sorted by time and ``times`` be its timestamp column,
    as :meth:`ShardedRecordStore.ingest_batch` hands them over: then an
    object's first record carries its earliest timestamp and its last record
    its latest, so a dict built over the batch (later records overwrite
    earlier ones) holds the latest, and one built over the reversed batch
    the earliest.
    """
    object_ids = list(map(_BY_OBJECT, batch))
    latest = dict(zip(object_ids, times))
    earliest = dict(zip(reversed(object_ids), reversed(times)))
    ordered = sorted(latest)
    return tuple(zip(ordered, map(earliest.get, ordered), map(latest.get, ordered)))


def _check_restorable(shard: _Shard, shards: Dict[int, _Shard]) -> None:
    """Refuse a persisted shard no store could have written, or one already in
    ``shards``: a shard exists only once a batch reached it, so it is at
    version 1 or above and holds a record."""
    if shard.version < 1:
        raise ValueError("a restored shard's version must be at least 1")
    if not shard.record_count:
        raise ValueError(f"restored shard {shard.key} holds no record")
    if shard.key in shards:
        raise ValueError(f"shard {shard.key} is already loaded")


class ShardedRecordStore:
    """The Indoor Uncertain Positioning Table (IUPT): a time-partitioned store.

    The IUPT holds the historical positioning records of all indoor moving
    objects (Table 2 of the paper).  Following Section 3.3 it is indexed on
    its time attribute, so that the flow and TkPLQ algorithms fetch exactly
    the records of a query window (:meth:`range_query`, grouped per object by
    :meth:`sequences_in`); ``repro.IUPT`` is a second name for this class.
    The index is each shard's sorted timestamp column, not the paper's 1D
    R-tree or B+-tree (README, *Storage*, deviation note).

    Streaming callers ingest through :meth:`ingest_batch`, which costs one
    version bump per touched shard, and the engine keys its cross-query
    presence cache on the *window-scoped* :meth:`version_token`, so a new
    batch only invalidates cached presences whose windows overlap the touched
    shards.  :meth:`subscribe` is the table's one event stream: the
    continuous engine and, on a durable table, the replication tail both
    listen there.  Rows keep global time order with ties in arrival order —
    the deterministic order every flow computation downstream relies on.

    Parameters
    ----------
    shard_seconds:
        Duration of one time shard.  Shorter shards prune harder and
        invalidate less on ingestion but carry more per-shard overhead;
        the default suits report streams spanning minutes to hours.

    A mutation calls a logging hook before it changes a shard
    (:meth:`_log_batch`, :meth:`_log_eviction`) and :meth:`_evicted` before
    it announces an eviction, and the continuous engine hands each standing
    query to :meth:`log_standing_query`, restores from
    :meth:`standing_queries` and starts its ids at
    :meth:`next_standing_query_id`; here they do nothing, and
    :class:`~repro.storage.durable.DurableRecordStore` overrides them to
    write its log.  A shard gains records only through :meth:`_absorb`,
    which the durable store's recovery calls too.
    """

    #: Short backend identifier (``"sharded"`` / ``"durable"``).
    kind = "sharded"

    #: Label of the time index answering :meth:`range_query`: each shard's
    #: sorted timestamp column.
    index_kind = "timestamp-column"

    def __init__(self, shard_seconds: float = DEFAULT_SHARD_SECONDS):
        if shard_seconds <= 0:
            raise ValueError("shard_seconds must be positive")
        self._listeners: Dict[int, StoreListener] = {}
        self._listener_tokens = itertools.count(1)
        self._lock = threading.RLock()
        self._shard_seconds = float(shard_seconds)
        self._shards: Dict[int, _Shard] = {}
        self._shard_keys: List[int] = []  # sorted view of self._shards
        self._uid = next(STORE_UIDS)
        self._count = 0
        self._watermark = float("-inf")
        self._built_dropped = 0  # records built by shards since evicted / reset
        self.shards_probed = 0
        self.shards_pruned = 0

    @staticmethod
    def sharded(shard_seconds: float = DEFAULT_SHARD_SECONDS) -> "ShardedRecordStore":
        """``ShardedRecordStore(shard_seconds)``; kept only because ``bench/``
        spells ``IUPT.sharded``."""
        return ShardedRecordStore(shard_seconds)

    @staticmethod
    def durable(
        path, shard_seconds: float = DEFAULT_SHARD_SECONDS, config=None
    ) -> "ShardedRecordStore":
        """``DurableRecordStore(path, shard_seconds, config)``; kept only
        because ``bench/`` spells ``IUPT.durable``."""
        from .durable import DurableRecordStore

        return DurableRecordStore(path, shard_seconds=shard_seconds, config=config)

    @property
    def store(self) -> "ShardedRecordStore":
        """The table itself; kept only because ``bench/`` reads a table's
        ``.store``."""
        return self

    @property
    def lock(self) -> threading.RLock:
        """The store's single re-entrant mutation/read lock.

        Every mutation (``ingest_batch`` / ``append`` / ``evict_before``) and
        every structural read (``range_query``, ``version_token``, …) runs
        under this lock, so concurrent threads — the query service executes
        requests on a worker pool — see each batch (including the listener
        notifications it triggers) as one atomic step.  The lock is
        re-entrant and *shared*: the continuous-query engine synchronises its
        subscription state on the same object, which rules out the AB-BA
        deadlock a second lock would invite (ingest holds the store lock and
        enters the maintenance engine; registration enters the maintenance
        engine and reads the store).
        """
        return self._lock

    @property
    def shard_seconds(self) -> float:
        return self._shard_seconds

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_key(self, timestamp: float) -> int:
        if not math.isfinite(timestamp):
            raise ValueError(f"timestamp {timestamp} is not finite")
        return math.floor(timestamp / self._shard_seconds)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, listener: StoreListener) -> int:
        """Register a listener for :class:`~repro.storage.base.IngestEvent` /
        :class:`~repro.storage.base.EvictionEvent`.

        Listeners are invoked synchronously, in registration order, after the
        mutation has fully completed — the store is consistent and queryable
        from inside a listener.  Returns a token for :meth:`unsubscribe`.
        """
        token = next(self._listener_tokens)
        self._listeners[token] = listener
        return token

    def unsubscribe(self, token: int) -> bool:
        """Remove a listener by its token; returns whether it was registered."""
        return self._listeners.pop(token, None) is not None

    @property
    def listener_count(self) -> int:
        return len(self._listeners)

    def _notify(self, event: object) -> None:
        for listener in list(self._listeners.values()):
            listener(event)

    # ------------------------------------------------------------------
    # Standing queries: kept by the table that outlives its process
    # ------------------------------------------------------------------
    def standing_queries(self) -> List[dict]:
        """The standing queries this table keeps, oldest first, each the
        entry :meth:`log_standing_query` was handed; a volatile table keeps
        none."""
        return []

    def log_standing_query(self, sub_id: int, entry: Optional[dict]) -> None:
        """Keep standing query ``sub_id`` (its ``entry``: ``id``, ``kind``,
        ``slocs``, ``window`` and a top-k query's ``k``) or, with ``None``,
        drop it.  A volatile table keeps nothing; a durable one logs it."""

    def next_standing_query_id(self) -> int:
        """The lowest standing-query id this table never kept: one above every
        id :meth:`log_standing_query` was handed, removed ones included, so
        no id is handed out twice across a restart.  1 on a volatile table."""
        return 1

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append(self, record: PositioningRecord) -> None:
        """Ingest a single record (bumps the owning shard's version once)."""
        self.ingest_batch((record,))

    def report(self, object_id: int, sample_set: SampleSet, timestamp: float) -> None:
        """:meth:`append` building the record in place."""
        self.append(PositioningRecord(object_id, sample_set, timestamp))

    def slice_batch(
        self, batch: Sequence[PositioningRecord], times: Sequence[float]
    ) -> List[Tuple[int, List[PositioningRecord]]]:
        """Slice a time-sorted batch, whose timestamp column is ``times``,
        into per-shard ``(key, records)`` runs.

        The single source of truth for how a batch maps onto shards: an
        ingest slices once and hands the same runs to :meth:`_log_batch` and
        to the shards, so a durable store's logged frames can never diverge
        from the in-memory shards.  A run starts at the first timestamp not
        yet sliced and ends where bisecting the rest of the column on
        ``floor(t / shard_seconds)`` passes that timestamp's key.  A batch
        holding a NaN or an infinity raises :meth:`shard_key`'s
        ``ValueError`` for the first such timestamp.
        """
        # A NaN or an infinity makes the sum non-finite; so can finite
        # timestamps that overflow it, and those pass the loop.
        if not math.isfinite(sum(times)):
            for timestamp in times:
                self.shard_key(timestamp)
        slices: List[Tuple[int, List[PositioningRecord]]] = []
        lo, count = 0, len(times)
        while lo < count:
            key = self.shard_key(times[lo])
            hi = bisect_right(times, key, lo + 1, count, key=self.shard_key)
            slices.append((key, batch[lo:hi]))
            lo = hi
        return slices

    def ingest_batch(self, records: Iterable[PositioningRecord]) -> IngestReceipt:
        """Bulk-insert a batch and report what it touched.

        The batch is sliced per time shard and each touched shard appends its
        slice and bumps its version once, so cached query results for
        non-overlapping windows stay valid.  A batch carrying any record below
        the :attr:`eviction_watermark` is refused with ``ValueError``: evicted
        history cannot be refilled.
        """
        batch = sorted(records, key=_BY_TIME)
        if not batch:
            # Empty-batch parity: no lock, no log growth, no version bump.
            return IngestReceipt()
        times = list(map(_BY_TIME, batch))
        with self._lock:
            if times[0] < self._watermark:
                # Refused before logging: a doomed batch leaves no frames.
                raise ValueError(
                    f"batch contains records before the retention watermark "
                    f"t={self._watermark}; evicted shards cannot be refilled"
                )
            slices = self.slice_batch(batch, times)
            seq = self._log_batch(slices)

            lo = 0
            for key, slice_records in slices:
                hi = lo + len(slice_records)
                self._absorb(key, slice_records, times[lo:hi])
                lo = hi

            receipt = IngestReceipt(
                records_ingested=len(batch),
                shards_touched=tuple(key for key, _records in slices),
                object_spans=_object_spans(batch, times),
            )
            self._notify(IngestEvent(receipt, batch, seq))
            return receipt

    def _absorb(
        self, key: int, records: List[PositioningRecord], times: Sequence[float]
    ) -> bool:
        """Apply one time-sorted slice of shard ``key``, whose timestamp
        column is ``times`` — the one place a shard gains records.

        An ingest absorbs each slice it cut, and a durable store's recovery
        each committed segment frame, in commit order, so a recovered shard
        is built by the same steps as the one that was lost.  Creates the
        shard on its first slice and counts the records; returns
        :meth:`_Shard.absorb`'s answer, whether the shard's earlier records
        are still its first ones.
        """
        shard = self._shards.get(key)
        if shard is None:
            shard = self._shards[key] = _Shard(key)
            insort(self._shard_keys, key)
        self._count += len(records)
        return shard.absorb(records, times)

    def _log_batch(
        self, slices: List[Tuple[int, List[PositioningRecord]]]
    ) -> Optional[int]:
        """Make a batch durable before it is applied; returns its commit
        sequence.  A volatile store logs nothing (``None``)."""
        return None

    # ------------------------------------------------------------------
    # Shard selection
    # ------------------------------------------------------------------
    def overlapping_shard_keys(self, start: float, end: float) -> List[int]:
        """The existing shard keys whose time range intersects ``[start, end]``."""
        if start > end:
            raise ValueError("query interval start must not exceed its end")
        first = self.shard_key(start)
        last = self.shard_key(end)
        lo = bisect_left(self._shard_keys, first)
        hi = bisect_right(self._shard_keys, last)
        return self._shard_keys[lo:hi]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(self, start: float, end: float) -> List[PositioningRecord]:
        """Records with timestamps in ``[start, end]``, in time order.

        The ``tree.RangeQuery([ts, te])`` of Algorithms 2-4: both endpoints
        are **inclusive**.  Raises
        :class:`~repro.storage.base.EvictedRangeError` when ``start`` lies
        strictly below the :attr:`eviction_watermark`; a window starting
        exactly at the watermark is fully answerable.
        """
        with self._lock:
            check_not_evicted(self, start, end)
            overlapping = self.overlapping_shard_keys(start, end)
            self.shards_probed += len(overlapping)
            self.shards_pruned += len(self._shard_keys) - len(overlapping)

            results: List[PositioningRecord] = []
            for key in overlapping:
                shard = self._shards[key]
                shard_start = key * self._shard_seconds
                shard_end = (key + 1) * self._shard_seconds
                if start <= shard_start and shard_end <= end:
                    # Fully covered: the sorted record list IS the answer.
                    results.extend(shard.records)
                else:
                    stamps = shard.timestamps()
                    lo = bisect_left(stamps, start)
                    hi = bisect_right(stamps, end)
                    if lo < hi:
                        results.extend(shard.slice(lo, hi))
            return results

    def sequences_in(self, start: float, end: float) -> Dict[int, List[SampleSet]]:
        """Group the records of a window into per-object positioning sequences.

        Corresponds to the hash table ``HO : {oid} -> {X}`` construction at
        the top of Algorithms 2-4.  The sequences preserve the row order of
        :meth:`range_query` (time order, arrival order on ties), and the
        returned mapping iterates in ascending object-id order — the
        deterministic iteration order every flow computation and search
        algorithm relies on (callers must not re-sort).
        """
        grouped: Dict[int, List[SampleSet]] = defaultdict(list)
        for record in self.range_query(start, end):
            grouped[record.object_id].append(record.sample_set)
        return dict(sorted(grouped.items()))

    def version_token(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> VersionToken:
        """A hashable token pinning the state of the records in ``[start, end]``.

        With no window, the token covers the whole table.  Two calls return
        equal tokens exactly when every record visible to the window (and the
        set of shards that could hold such records) is unchanged between
        them; tokens from different store instances never compare equal.
        The engine pins each query to its window's token, so a cached window
        survives ingestion into shards it does not overlap.
        """
        # The eviction watermark is deliberately NOT part of the token:
        # evicting shards strictly below a window leaves the window's
        # visible records unchanged (its cached artefacts stay valid), a
        # window that loses an overlapping shard changes token through the
        # shard list itself, and a window reaching into evicted history
        # raises EvictedRangeError before any cache read.
        with self._lock:
            if start is None or end is None:
                shard_part = tuple(
                    (key, self._shards[key].version) for key in self._shard_keys
                )
            else:
                shard_part = tuple(
                    (key, self._shards[key].version)
                    for key in self.overlapping_shard_keys(start, end)
                )
            return (self._uid, shard_part)

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def evict_before(self, timestamp: float) -> int:
        """Drop every shard whose time range ends at or before ``timestamp``;
        returns how many records were dropped.

        **The retention boundary contract** (exercised by the
        eviction-boundary tests in ``tests/test_storage.py``):

        * the cut-off is **exclusive**: only records with
          ``record.timestamp < timestamp`` may be dropped; a record with
          ``timestamp == cutoff`` is *always* retained;
        * only whole shards are dropped, so records of a partially covered
          trailing shard survive.  When the cut-off falls exactly on a shard
          boundary it drops exactly the records strictly below it;
        * after an eviction that dropped records, :attr:`eviction_watermark`
          advances to ``w`` such that every record with ``timestamp < w`` is
          gone and no record with ``timestamp >= w`` was dropped.  An
          eviction that dropped nothing leaves the watermark unchanged (so
          an empty store never grows an artificial dead zone);
        * window queries treat the watermark as an **inclusive lower bound
          on queryable time**: ``range_query(start, end)`` raises
          :class:`~repro.storage.base.EvictedRangeError` exactly when
          ``start < watermark`` (see
          :func:`~repro.storage.base.check_not_evicted`);
        * a later :meth:`ingest_batch` carrying any record with
          ``timestamp < watermark`` is rejected with :class:`ValueError`.

        The eviction is logged (:meth:`_log_eviction`) before any shard is
        dropped, and announced only once :meth:`_evicted` has run, so a
        durable store's listeners never hear of an eviction whose files are
        still on disk.
        """
        with self._lock:
            # Shard keys are sorted, so the doomed shards are a prefix.
            doomed = [
                key
                for key in self._shard_keys
                if (key + 1) * self._shard_seconds <= timestamp
            ]
            if not doomed:
                return 0
            shard_end = (doomed[-1] + 1) * self._shard_seconds
            self._log_eviction(shard_end)
            dropped = 0
            for key in doomed:
                shard = self._shards.pop(key)
                dropped += shard.record_count
                self._built_dropped += shard.built
            self._shard_keys = self._shard_keys[len(doomed) :]
            self._count -= dropped
            self._watermark = max(self._watermark, shard_end)
            self._evicted(doomed)
            if dropped:
                self._notify(EvictionEvent(self._watermark, dropped))
            return dropped

    def _log_eviction(self, watermark: float) -> None:
        """Make an eviction up to ``watermark`` durable before it is applied
        (a volatile store logs nothing)."""

    def _evicted(self, keys: List[int]) -> None:
        """The shards ``keys`` were dropped from memory; a durable store
        deletes their files here, before the eviction is announced."""

    @property
    def eviction_watermark(self) -> float:
        """Timestamps strictly below this have been evicted (``-inf`` if none).

        Every surviving record satisfies ``timestamp >= eviction_watermark``,
        and a query window with ``start >= eviction_watermark`` is fully
        answerable (see the contract on :meth:`evict_before`).
        """
        return self._watermark

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def records_in_time_order(self) -> Sequence[PositioningRecord]:
        """Every stored record in global time order (arrival order on ties)."""
        with self._lock:
            ordered: List[PositioningRecord] = []
            for key in self._shard_keys:
                ordered.extend(self._shards[key].records)
            return tuple(ordered)

    @property
    def records(self) -> Sequence[PositioningRecord]:
        """:meth:`records_in_time_order`; kept only because ``bench/`` spells
        ``iupt.records``."""
        return self.records_in_time_order()

    def time_span(self) -> Tuple[float, float]:
        """``(earliest, latest)`` stored timestamps, ``(inf, -inf)`` if empty."""
        with self._lock:
            if not self._shard_keys:
                return (float("inf"), float("-inf"))
            # Shard keys order time, so the two end shards bound the table;
            # their timestamp columns build no record of a lazily loaded shard.
            earliest = self._shards[self._shard_keys[0]].timestamps()[0]
            latest = self._shards[self._shard_keys[-1]].timestamps()[-1]
            return (earliest, latest)

    def shard_versions(self) -> Dict[int, int]:
        """``shard key -> version`` snapshot (diagnostics and tests)."""
        with self._lock:
            return {key: self._shards[key].version for key in self._shard_keys}

    def shard_states(
        self, starts: Optional[Mapping[int, int]] = None
    ) -> List[Tuple[int, int, Tuple[PositioningRecord, ...]]]:
        """``(key, version, records)`` per shard in key order.

        The durable layer snapshots shards through this accessor; the record
        tuples are copies, safe to serialise outside the lock.  Pass
        ``starts`` (shard key -> first record) to copy only the named shards
        from those records on (a checkpoint only needs what its snapshot
        files lack — copying the whole table under the lock would stall
        readers for no reason); unknown keys are ignored.
        """
        with self._lock:
            if starts is None:
                starts = dict.fromkeys(self._shard_keys, 0)
            states = []
            for key in self._shard_keys:
                if key in starts:
                    shard = self._shards[key]
                    records = shard.slice(starts[key], shard.record_count)
                    states.append((key, shard.version, tuple(records)))
            return states

    def packed_shard_states(
        self,
    ) -> List[Tuple[int, int, PackedRecordBatch]]:
        """``(key, version, packed batch)`` per shard in key order.

        The replication layer's snapshot accessor: each shard's records in
        the codec's columnar layout (cached on the shard, so repeated
        snapshots of an untouched shard are free).  The batches are
        immutable blobs, safe to encode and ship outside the lock.
        """
        with self._lock:
            return [
                (key, self._shards[key].version, self._shards[key].packed())
                for key in self._shard_keys
            ]

    # ------------------------------------------------------------------
    # Recovery hooks (durable layer only)
    # ------------------------------------------------------------------
    def _install(self, shard: _Shard) -> None:
        """Add one persisted shard as it is: no event, no version bump."""
        with self._lock:
            _check_restorable(shard, self._shards)
            self._shards[shard.key] = shard
            insort(self._shard_keys, shard.key)
            self._count += shard.record_count

    def load_shard_packed(
        self, key: int, packed: PackedRecordBatch, version: int
    ) -> None:
        """Install one shard's snapshot as a packed batch (lazy; recovery-only).

        The columnar batch is adopted as-is, in time order with arrival-order
        ties as :meth:`shard_states` reported it, and only decoded into
        record objects when a query first touches the shard, so cold
        recovery costs one blob read per shard instead of per-record parsing.
        ``version`` is restored as-is, so recovered :meth:`version_token`
        values reproduce the pre-crash tokens; the frames logged after the
        snapshot are then replayed through :meth:`_absorb`.
        """
        self._install(_Shard(key=key, version=version, packed=packed))

    def unmaterialised_shard_count(self) -> int:
        """How many shards have at least one record still packed-only."""
        with self._lock:
            return sum(
                1 for shard in self._shards.values() if not shard.materialised
            )

    @property
    def records_materialised(self) -> int:
        """Records built from packed form since the store was opened."""
        with self._lock:
            return self._built_dropped + sum(
                shard.built for shard in self._shards.values()
            )

    def reset_to_packed_shards(
        self,
        shards: Iterable[Tuple[int, int, PackedRecordBatch]],
        watermark: float = float("-inf"),
    ) -> None:
        """Replace the whole table with a snapshot's packed shards.

        The replication layer's re-catch-up hook: when a follower's WAL
        cursor falls below the primary's replay floor (compaction or
        eviction dropped the frames it needs), it adopts the primary's
        current per-shard state wholesale.  Versions are restored verbatim —
        a shard at the same ``(key, version)`` holds bit-identical records
        on both sides (versions advance once per committed batch touching
        the shard, and both sides applied the same commit prefix), so
        engine caches keyed by version tokens stay valid across the reset.

        No store events fire: a reset is not an ingest.  Callers owning
        standing subscriptions must explicitly resync them afterwards:
        :meth:`repro.engine.continuous.ContinuousQueryEngine.resync` takes
        an ingest event's refresh steps with no receipt, so nothing cached
        for the old table is carried over.  Every shard passes the checks of
        :meth:`_install` before the table changes, so a refused snapshot
        leaves the table as it was.
        """
        with self._lock:
            adopted: Dict[int, _Shard] = {}
            for key, version, packed in shards:
                shard = _Shard(int(key), version=int(version), packed=packed)
                _check_restorable(shard, adopted)
                adopted[shard.key] = shard
            self._built_dropped = self.records_materialised
            self._shards = adopted
            self._shard_keys = sorted(adopted)
            self._count = sum(shard.record_count for shard in adopted.values())
            self._watermark = max(self._watermark, float(watermark))

    def restore_identity(self, uid: object) -> None:
        """Adopt a persisted store identity (recovery-only).

        Version tokens embed the store uid; a durable store recovered from
        the same directory IS the same logical store, so its tokens must
        compare equal to the pre-crash ones when the data matches.  The
        persisted uid is a string, so it can never collide with the integer
        uids the in-process :data:`~repro.storage.base.STORE_UIDS` counter
        hands to volatile stores.
        """
        with self._lock:
            self._uid = uid

    def restore_watermark(self, watermark: float) -> None:
        """Adopt a persisted retention watermark (recovery-only)."""
        with self._lock:
            self._watermark = max(self._watermark, watermark)

    def describe(self) -> dict:
        """Backend description for experiment logs."""
        return {
            "kind": self.kind,
            "records": len(self),
            "index_kind": self.index_kind,
            "shard_seconds": self._shard_seconds,
            "shards": len(self._shards),
            "shards_unmaterialised": self.unmaterialised_shard_count(),
            "records_materialised": self.records_materialised,
            "shards_probed": self.shards_probed,
            "shards_pruned": self.shards_pruned,
            "eviction_watermark": self._watermark,
        }

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_max_sample_set_size(self, mss: int) -> "ShardedRecordStore":
        """Return a copy whose records are truncated to ``mss`` samples each.

        Used by the uncertainty experiments (Table 5, Figure 7) which vary the
        maximum sample-set size of the same underlying data.  The copy is a
        volatile store with this table's shard duration, even when this table
        is durable: it is a transient experiment input, and silently logging
        it into a second directory would be more surprising than useful.
        """
        clone = ShardedRecordStore(shard_seconds=self._shard_seconds)
        clone.ingest_batch(record.truncated(mss) for record in self.records_in_time_order())
        return clone
