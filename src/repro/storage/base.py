"""What the IUPT's store hands its callers: events, receipts and errors.

The table itself is :class:`~repro.storage.sharded.ShardedRecordStore` (the
IUPT of the paper's Table 2; :class:`~repro.storage.durable.DurableRecordStore`
is the same store plus a write-ahead log).  This module holds the types it
exchanges with the engine, the continuous queries and the replication tail:

* an :class:`IngestReceipt` per ingestion, whose
  :attr:`IngestReceipt.object_spans` tell a standing query which objects'
  presences a batch actually changed;
* the :class:`IngestEvent` / :class:`EvictionEvent` its listeners receive
  after every ingestion and every eviction that dropped records;
* :class:`EvictedRangeError` and :func:`check_not_evicted`, the one test of
  a window against the retention watermark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

from ..codec.packed import encode_batch
from ..data.records import PositioningRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sharded import ShardedRecordStore

#: Process-wide identity counter shared by every store: version tokens from
#: different tables must never collide.
STORE_UIDS = itertools.count(1)

#: A hashable token pinning the state of (part of) a store; see
#: :meth:`~repro.storage.sharded.ShardedRecordStore.version_token`.
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
    """What one ``ingest_batch`` call did.

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


def check_not_evicted(store: "ShardedRecordStore", start: float, end: float) -> None:
    """Raise :class:`EvictedRangeError` when ``[start, end]`` reaches evicted data.

    The check is strict (``start < watermark``): the watermark itself is the
    first queryable instant, so a window starting exactly there never raises —
    every record at or above the watermark survived eviction (see the
    boundary contract on
    :meth:`~repro.storage.sharded.ShardedRecordStore.evict_before`).
    """
    watermark = store.eviction_watermark
    if start < watermark:
        raise EvictedRangeError(start, end, watermark)
