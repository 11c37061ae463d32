"""The record-store contract of the IUPT storage layer.

The paper treats the IUPT as a static table behind a single time index; a
production deployment instead receives positioning reports continuously and
serves window queries concurrently.  This module defines the contract between
the :class:`~repro.data.iupt.IUPT` facade (and through it the execution
engine) and the store that actually holds the records.  There is one
container and one subclass of it:

* :class:`~repro.storage.sharded.ShardedRecordStore` — time-partitioned
  shards, each indexed by its sorted timestamp column and carrying its own
  version, so window queries prune to overlapping shards, batch ingestion
  appends per touched shard, and retention can drop old shards;
* :class:`~repro.storage.durable.DurableRecordStore` — the same store
  writing a write-ahead log before each mutation and per-shard snapshots,
  so a process restart recovers the exact pre-crash state (see
  :mod:`repro.storage.durable`).

The key protocol addition over the historical ``IUPT`` internals is
**window-scoped versioning**: :meth:`RecordStore.version_token` describes the
state of the records *visible to one window* rather than of the whole table.
The engine keys its cross-query presence cache on that token, so ingesting a
batch only invalidates cached artefacts whose query windows overlap the
touched shards.

Stores are also **observable**: :meth:`RecordStore.subscribe` registers a
listener that receives an :class:`IngestEvent` after every ingestion and an
:class:`EvictionEvent` after every retention eviction that dropped records.
The continuous-query subsystem (:mod:`repro.engine.continuous`) maintains
standing query results through exactly this hook, using the
:attr:`IngestReceipt.object_spans` of each event to decide which objects'
presences a batch actually changed; the replication tail of
:mod:`repro.service.wal_tail` subscribes the same way.
"""

from __future__ import annotations

import itertools
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..codec.packed import encode_batch
from ..data.records import PositioningRecord

#: Process-wide identity counter shared by every store (and therefore every
#: IUPT facade): version tokens from different tables must never collide.
STORE_UIDS = itertools.count(1)

#: A hashable token pinning the state of (part of) a store; see
#: :meth:`RecordStore.version_token`.
VersionToken = Tuple


class EvictedRangeError(LookupError):
    """A window query reached into data dropped by retention eviction.

    Raised instead of silently answering from the surviving shards only:
    a partial flow looks exactly like a small real flow, which would corrupt
    rankings without any signal that retention truncated the input.
    """

    def __init__(self, start: float, end: float, watermark: float):
        super().__init__(
            f"window [{start}, {end}] overlaps evicted history: records before "
            f"t={watermark} were dropped by retention eviction; narrow the "
            f"window to start at or after the watermark"
        )
        self.start = start
        self.end = end
        self.watermark = watermark


@dataclass
class IngestReceipt:
    """What one :meth:`RecordStore.ingest_batch` call did.

    ``shards_touched`` lists the shard keys whose version advanced; streaming
    callers can use it to reason about which cached windows the batch
    invalidated.

    ``object_spans`` summarises *whose* records the batch carried: one
    ``(object_id, earliest_ts, latest_ts)`` triple per distinct object, in
    ascending object-id order.  A standing query over ``[start, end]`` only
    needs to recompute the presence of objects whose span overlaps the
    window; every other object's cached artefact is still valid (its visible
    sequence is unchanged) and can be re-keyed to the new version token.
    """

    records_ingested: int = 0
    shards_touched: Tuple = ()
    object_spans: Tuple[Tuple[int, float, float], ...] = ()

    def objects_overlapping(self, start: float, end: float) -> frozenset:
        """The ingested object ids whose new records may fall in ``[start, end]``.

        The test is conservative (span overlap, not per-record membership):
        an object reporting both before and after the window is counted even
        if no individual record landed inside, which can only cause an
        unnecessary — never a missing — recomputation downstream.
        """
        return frozenset(
            object_id
            for object_id, earliest, latest in self.object_spans
            if earliest <= end and latest >= start
        )


def summarise_object_spans(
    records: Sequence[PositioningRecord],
) -> Tuple[Tuple[int, float, float], ...]:
    """Per-object ``(id, earliest_ts, latest_ts)`` triples of one batch."""
    spans: Dict[int, Tuple[float, float]] = {}
    for record in records:
        span = spans.get(record.object_id)
        if span is None:
            spans[record.object_id] = (record.timestamp, record.timestamp)
        else:
            spans[record.object_id] = (
                min(span[0], record.timestamp),
                max(span[1], record.timestamp),
            )
    return tuple(
        (object_id, spans[object_id][0], spans[object_id][1])
        for object_id in sorted(spans)
    )


@dataclass(slots=True)
class IngestEvent:
    """Delivered to store listeners after one ingestion completed.

    ``records`` is the batch in its ingested (time-sorted) order — what the
    WAL tail ships — and ``seq`` its commit sequence on a durable store
    (``None`` on a volatile one).
    """

    receipt: IngestReceipt
    records: Sequence[PositioningRecord] = ()
    seq: Optional[int] = None
    _payload: Optional[bytes] = field(default=None, repr=False, compare=False)

    def payload(self) -> bytes:
        """The batch as one packed ``RPK1`` blob (encoded once, cached)."""
        if self._payload is None:
            self._payload = encode_batch(self.records)
        return self._payload


@dataclass(frozen=True)
class EvictionEvent:
    """Delivered to store listeners after retention dropped records."""

    watermark: float
    records_dropped: int


#: A store listener: called synchronously with each event, after the store
#: mutation has fully completed (the store is consistent and queryable).
StoreListener = Callable[[object], None]


class RecordStore(ABC):
    """Storage backend contract for uncertain positioning records.

    Implementations must keep :meth:`range_query` results in global time
    order with ties preserving arrival order — the deterministic ordering
    every flow computation downstream relies on.
    """

    #: Short backend identifier (``"sharded"`` / ``"durable"``).
    kind: str = "abstract"

    #: Label of the time index answering :meth:`range_query`: each shard's
    #: sorted timestamp column.  Read-only — the paper's two trees live in
    #: :mod:`repro.indexes` and are compared by the §3.3 index ablation.
    index_kind: str = "timestamp-column"

    def __init__(self) -> None:
        self._listeners: Dict[int, StoreListener] = {}
        self._listener_tokens = itertools.count(1)
        self._lock = threading.RLock()

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

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, listener: StoreListener) -> int:
        """Register a listener for :class:`IngestEvent` / :class:`EvictionEvent`.

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
    # Ingestion
    # ------------------------------------------------------------------
    @abstractmethod
    def append(self, record: PositioningRecord) -> None:
        """Ingest a single record (bumps the owning version once)."""

    @abstractmethod
    def ingest_batch(
        self, records: Iterable[PositioningRecord]
    ) -> IngestReceipt:
        """Ingest a batch of records with one version bump per touched shard."""

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @abstractmethod
    def range_query(self, start: float, end: float) -> List[PositioningRecord]:
        """Records with timestamps in ``[start, end]``, in time order.

        Both window endpoints are **inclusive** (the paper's
        ``RangeQuery([ts, te])``).  Raises :class:`EvictedRangeError` when
        ``start`` lies strictly below the :attr:`eviction_watermark`; a
        window starting exactly at the watermark is fully answerable.
        """

    @abstractmethod
    def version_token(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> VersionToken:
        """A hashable token pinning the state of the records in ``[start, end]``.

        With no window, the token covers the whole table.  Two calls return
        equal tokens exactly when every record visible to the window (and the
        set of shards that could hold such records) is unchanged between
        them; tokens from different store instances never compare equal.
        """

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    @abstractmethod
    def evict_before(self, timestamp: float) -> int:
        """Drop old records to enforce retention; returns how many were dropped.

        **The retention boundary contract** (exercised by the
        eviction-boundary tests in ``tests/test_storage.py``):

        * the cut-off is **exclusive**: only records with
          ``record.timestamp < timestamp`` may be dropped; a record with
          ``timestamp == cutoff`` is *always* retained;
        * a store may retain *more* than the contract requires — the
          sharded store only drops whole shards, so records of a partially
          covered trailing shard survive.  When the cut-off falls exactly on
          a shard boundary it drops exactly the records strictly below it;
        * after an eviction that dropped records, :attr:`eviction_watermark`
          advances to ``w`` such that every record with ``timestamp < w`` is
          gone and no record with ``timestamp >= w`` was dropped.  An
          eviction that dropped nothing leaves the watermark unchanged (so
          an empty store never grows an artificial dead zone);
        * window queries treat the watermark as an **inclusive lower bound
          on queryable time**: ``range_query(start, end)`` raises
          :class:`EvictedRangeError` exactly when ``start < watermark`` — a
          window starting *exactly at* the watermark is fully answerable
          and must not raise (see :func:`check_not_evicted`);
        * a later ``ingest_batch`` carrying any record with
          ``timestamp < watermark`` is rejected with :class:`ValueError`:
          evicted history cannot be refilled.
        """

    @property
    def eviction_watermark(self) -> float:
        """Timestamps strictly below this have been evicted (``-inf`` if none).

        Every surviving record satisfies ``timestamp >= eviction_watermark``,
        and a query window with ``start >= eviction_watermark`` is fully
        answerable (see the contract on :meth:`evict_before`).
        """
        return float("-inf")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @abstractmethod
    def __len__(self) -> int:
        ...

    @abstractmethod
    def records_in_time_order(self) -> Sequence[PositioningRecord]:
        """Every stored record in global time order (arrival order on ties)."""

    @abstractmethod
    def time_span(self) -> Tuple[float, float]:
        """``(earliest, latest)`` stored timestamps, ``(inf, -inf)`` if empty."""

    def describe(self) -> dict:
        """Backend description for experiment logs."""
        return {
            "kind": self.kind,
            "records": len(self),
            "index_kind": self.index_kind,
        }


def check_not_evicted(store: RecordStore, start: float, end: float) -> None:
    """Raise :class:`EvictedRangeError` when ``[start, end]`` reaches evicted data.

    The check is strict (``start < watermark``): the watermark itself is the
    first queryable instant, so a window starting exactly there never raises —
    every record at or above the watermark survived eviction (see the
    boundary contract on :meth:`RecordStore.evict_before`).
    """
    watermark = store.eviction_watermark
    if start < watermark:
        raise EvictedRangeError(start, end, watermark)
