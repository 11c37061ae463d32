"""The flat in-memory record store (the seed's IUPT internals).

One record list and two whole-table time indexes (the paper's 1D R-tree plus
the B+-tree of the index ablation), inserted into record by record.  The only
behavioural change from the seed is versioning: a batch ingested through
:meth:`InMemoryRecordStore.ingest_batch` bumps the table version once instead
of once per record, so a streamed-in batch no longer churns the engine's
cache key once per appended row.  The token still covers the whole table —
any ingestion invalidates every cached window — which is exactly the
granularity the sharded store improves on.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..data.records import PositioningRecord
from ..indexes import BPlusTree, OneDimensionalRTree
from .base import (
    EvictionEvent,
    IngestEvent,
    IngestReceipt,
    RecordStore,
    STORE_UIDS,
    VersionToken,
    check_not_evicted,
    summarise_object_spans,
)

#: The pseudo-shard identifier the flat store reports in receipts/tokens.
WHOLE_TABLE = "table"


class InMemoryRecordStore(RecordStore):
    """Flat record list behind whole-table time indexes.

    Parameters
    ----------
    index_kind:
        ``"1dr-tree"`` (the paper's choice) or ``"bplus-tree"``; selects the
        index answering :meth:`range_query`.  Both indexes are maintained so
        the index ablation can switch kinds over identical contents.
    """

    kind = "flat"

    VALID_INDEXES = ("1dr-tree", "bplus-tree")

    def __init__(self, index_kind: str = "1dr-tree"):
        super().__init__()
        if index_kind not in self.VALID_INDEXES:
            raise ValueError(
                f"unknown index kind {index_kind!r}; expected one of {self.VALID_INDEXES}"
            )
        self._index_kind = index_kind
        self._records: List[PositioningRecord] = []
        self._rtree: OneDimensionalRTree[PositioningRecord] = OneDimensionalRTree()
        self._bptree: BPlusTree[PositioningRecord] = BPlusTree()
        self._uid = next(STORE_UIDS)
        self._version = 0
        self._watermark = float("-inf")

    @property
    def index_kind(self) -> str:
        return self._index_kind

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _insert(self, record: PositioningRecord) -> None:
        self._records.append(record)
        self._rtree.insert(record.timestamp, record)
        self._bptree.insert(record.timestamp, record)

    def append(self, record: PositioningRecord) -> None:
        self.ingest_batch((record,))

    def ingest_batch(self, records: Iterable[PositioningRecord]) -> IngestReceipt:
        batch = list(records)
        if not batch:
            # Empty-batch parity with the sharded store: no lock, no version
            # bump, no listener events — an empty flush is a no-op everywhere.
            return IngestReceipt()
        with self._lock:
            earliest = min(record.timestamp for record in batch)
            if earliest < self._watermark:
                raise ValueError(
                    f"batch contains records before the retention watermark "
                    f"t={self._watermark}; evicted history cannot be refilled"
                )
            for record in batch:
                self._insert(record)
            self._version += 1
            receipt = IngestReceipt(
                records_ingested=len(batch),
                shards_touched=(WHOLE_TABLE,),
                object_spans=summarise_object_spans(batch),
            )
            self._notify(IngestEvent(receipt))
            return receipt

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(self, start: float, end: float) -> List[PositioningRecord]:
        with self._lock:
            check_not_evicted(self, start, end)
            if self._index_kind == "1dr-tree":
                return self._rtree.range_query(start, end)
            return self._bptree.range_query(start, end)

    def version_token(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> VersionToken:
        # Whole-table granularity regardless of the window: the flat store
        # cannot tell which part of the table an ingestion touched.
        with self._lock:
            return (self._uid, self._version)

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def evict_before(self, timestamp: float) -> int:
        """Drop every record with ``timestamp`` strictly below the cut-off.

        The flat store has no shard structure, so it can honour the
        exclusive-cutoff contract exactly: a record at ``timestamp ==
        cutoff`` always survives, and — matching a sharded store whose shard
        boundary falls exactly on the cut-off — the watermark advances to
        the cut-off itself when anything was dropped.  Both whole-table
        indexes are bulk-rebuilt from the surviving records (preserving
        arrival order on timestamp ties), and the table version bumps so
        cached artefacts derived from evicted history die with it.
        """
        with self._lock:
            kept_arrival = [r for r in self._records if r.timestamp >= timestamp]
            dropped = len(self._records) - len(kept_arrival)
            if dropped == 0:
                return 0
            self._records = kept_arrival
            pairs = [(ts, record) for ts, record in self._rtree if ts >= timestamp]
            self._rtree = OneDimensionalRTree.from_sorted(pairs)
            self._bptree = BPlusTree.bulk_load(pairs)
            self._watermark = max(self._watermark, float(timestamp))
            self._version += 1
            self._notify(EvictionEvent(self._watermark, dropped))
            return dropped

    @property
    def eviction_watermark(self) -> float:
        return self._watermark

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def records_in_time_order(self) -> Sequence[PositioningRecord]:
        # The R-tree keeps (timestamp, record) pairs sorted with arrival
        # order preserved on ties.
        with self._lock:
            return tuple(record for _, record in self._rtree)

    @property
    def records_in_arrival_order(self) -> Sequence[PositioningRecord]:
        """The records exactly as appended (the seed's ``IUPT.records``)."""
        with self._lock:
            return tuple(self._records)

    def time_span(self) -> Tuple[float, float]:
        with self._lock:
            if not self._records:
                return (float("inf"), float("-inf"))
            timestamps = [r.timestamp for r in self._records]
            return (min(timestamps), max(timestamps))

    def describe(self) -> dict:
        summary = super().describe()
        summary["version"] = self._version
        summary["eviction_watermark"] = self._watermark
        return summary
