"""The Indoor Uncertain Positioning Table (IUPT) — a facade over a record store.

The IUPT stores the historical positioning records of all indoor moving
objects (Table 2 of the paper).  Following Section 3.3, the table is indexed
on its time attribute so that the flow and TkPLQ algorithms can fetch exactly
the records of a query window.

The table itself is a thin facade over a
:class:`~repro.storage.base.RecordStore`.  There is one:
:class:`~repro.storage.sharded.ShardedRecordStore` — time-partitioned shards
whose sorted timestamp column is their only index (shard-pruned,
bisect-and-slice window queries, per-shard versioning, retention eviction) —
behind ``IUPT()`` / :meth:`IUPT.sharded`, and the same store plus a write-ahead
log and snapshots behind :meth:`IUPT.durable`.  The paper's own two time indexes (the
1D R-tree and the B+-tree) live in :mod:`repro.indexes`; the §3.3 index
ablation builds them directly over a table's records.

Streaming callers ingest through :meth:`IUPT.ingest_batch`, which costs one
version bump per touched shard instead of the historical one-bump-per-record,
and the engine keys its cross-query presence cache on the *window-scoped*
:meth:`IUPT.data_key_for`, so a new batch only invalidates cached presences
whose query windows overlap the touched shards.  :meth:`IUPT.subscribe` is the
table's one event stream: the continuous engine and, on a durable table, the
replication tail both listen there (on a durable table each ingest event
carries its commit sequence).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..storage import (
    DEFAULT_SHARD_SECONDS,
    DurabilityConfig,
    DurableRecordStore,
    IngestReceipt,
    RecordStore,
    ShardedRecordStore,
    StoreListener,
    VersionToken,
)
from .records import PositioningRecord, SampleSet


class IUPT:
    """The indoor uncertain positioning table.

    Parameters
    ----------
    store:
        The record store behind the table; defaults to a
        :class:`~repro.storage.sharded.ShardedRecordStore` with the default
        shard duration (``IUPT()`` ≡ ``IUPT.sharded()``).
    """

    def __init__(self, store: Optional[RecordStore] = None):
        self._store: RecordStore = ShardedRecordStore() if store is None else store

    @classmethod
    def sharded(cls, shard_seconds: float = DEFAULT_SHARD_SECONDS) -> "IUPT":
        """A table over the time-partitioned sharded store."""
        return cls(store=ShardedRecordStore(shard_seconds=shard_seconds))

    @classmethod
    def durable(
        cls,
        path,
        shard_seconds: float = DEFAULT_SHARD_SECONDS,
        config: Optional[DurabilityConfig] = None,
    ) -> "IUPT":
        """A table over the write-ahead-logged durable sharded store.

        Pass a fresh directory to create a new table, or an existing one to
        **recover** the table it holds — ingested batches, per-shard
        versions (and therefore :meth:`data_key_for` tokens) and the
        retention watermark all survive a process restart.  When the
        directory already exists its persisted manifest decides
        ``shard_seconds``; see
        :class:`~repro.storage.durable.DurableRecordStore`.
        """
        return cls(
            store=DurableRecordStore(path, shard_seconds=shard_seconds, config=config)
        )

    def _clone_empty(self) -> "IUPT":
        """An empty volatile table with this table's shard duration.

        Derived tables (:meth:`with_max_sample_set_size`,
        :meth:`filtered_to_objects`) of a *durable* table are volatile
        clones too: they are transient experiment inputs, and silently
        logging them into a second directory would be more surprising than
        useful.
        """
        return IUPT.sharded(shard_seconds=self._store.shard_seconds)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def append(self, record: PositioningRecord) -> None:
        """Append one positioning record."""
        self._store.append(record)

    def extend(self, records: Iterable[PositioningRecord]) -> None:
        """Append many records; one version bump per touched shard, not per record."""
        self._store.ingest_batch(records)

    def ingest_batch(self, records: Iterable[PositioningRecord]) -> IngestReceipt:
        """Streaming ingestion: bulk-insert a batch and report what it touched.

        The batch is sliced per time shard and each touched shard appends
        its slice and bumps its version once, so cached query results for
        non-overlapping windows stay valid.
        """
        return self._store.ingest_batch(records)

    def report(self, object_id: int, sample_set: SampleSet, timestamp: float) -> None:
        """Convenience wrapper building the record in place."""
        self.append(PositioningRecord(object_id, sample_set, timestamp))

    def subscribe(self, listener: StoreListener) -> int:
        """Register a store listener (ingest / eviction events).

        Listeners receive :class:`~repro.storage.base.IngestEvent` after each
        ingestion and :class:`~repro.storage.base.EvictionEvent` after each
        eviction that dropped records, synchronously and after the table is
        consistent again.  The continuous-query subsystem
        (:mod:`repro.engine.continuous`) maintains its standing results
        through this hook.  Returns a token for :meth:`unsubscribe`.
        """
        return self._store.subscribe(listener)

    def unsubscribe(self, token: int) -> bool:
        """Remove a store listener by its :meth:`subscribe` token."""
        return self._store.unsubscribe(token)

    def evict_before(self, timestamp: float) -> int:
        """Drop records strictly below ``timestamp`` per the retention contract.

        The cut-off is exclusive — a record at ``timestamp == cutoff`` always
        survives (see the boundary contract on
        :meth:`~repro.storage.base.RecordStore.evict_before`).  Whole shards
        are dropped, so records of a partially covered trailing shard
        survive.  Returns the number of records dropped.
        Later window queries that reach below the eviction watermark raise
        :class:`~repro.storage.base.EvictedRangeError` rather than silently
        returning partial flows.
        """
        return self._store.evict_before(timestamp)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._store)

    @property
    def index_kind(self) -> str:
        """The store's time-index label (read-only: ``"timestamp-column"``)."""
        return self._store.index_kind

    @property
    def store(self) -> RecordStore:
        """The storage backend behind this table."""
        return self._store

    @property
    def data_key(self) -> VersionToken:
        """Identity-and-version token of the table's entire current contents.

        Changes whenever any record is ingested (and differs between table
        instances).  Prefer :meth:`data_key_for` for caching derived
        artefacts of one query window: the window-scoped token survives
        ingestion into shards the window does not touch.
        """
        return self._store.version_token()

    def data_key_for(self, start: float, end: float) -> VersionToken:
        """Identity-and-version token of the records visible to ``[start, end]``.

        The engine's :class:`~repro.engine.stages.FetchStage` pins each
        query context to this token, so the cross-query
        :class:`~repro.engine.cache.PresenceStore` serves cached presences
        until a batch actually touches a shard the window overlaps.
        """
        return self._store.version_token(start, end)

    @property
    def records(self) -> Sequence[PositioningRecord]:
        """Every record in time order (arrival order on ties)."""
        return self._store.records_in_time_order()

    def object_ids(self) -> List[int]:
        """The distinct object identifiers present in the table."""
        return sorted({record.object_id for record in self.records})

    def time_span(self) -> Tuple[float, float]:
        """The earliest and latest report timestamps (``(inf, -inf)`` if empty)."""
        return self._store.time_span()

    def summary(self) -> Dict[str, float]:
        """Basic statistics used in experiment logs."""
        records = self.records
        sizes = [len(r.sample_set) for r in records]
        start, end = self.time_span()
        return {
            "records": len(records),
            "objects": len({record.object_id for record in records}),
            "max_sample_set_size": max(sizes) if sizes else 0,
            "mean_sample_set_size": (sum(sizes) / len(sizes)) if sizes else 0.0,
            "time_start": start,
            "time_end": end,
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(self, start: float, end: float) -> List[PositioningRecord]:
        """Return the records whose timestamp falls into ``[start, end]``.

        This corresponds to the ``tree.RangeQuery([ts, te])`` call of
        Algorithms 2-4 and goes through the store's time index, after
        pruning to the shards overlapping the window.
        """
        return self._store.range_query(start, end)

    def sequences_in(self, start: float, end: float) -> Dict[int, List[SampleSet]]:
        """Group the records of a window into per-object positioning sequences.

        Corresponds to the hash table ``HO : {oid} -> {X}`` construction at
        the top of Algorithms 2-4.  The sequences preserve the store's row
        order (time order, arrival order on ties — the
        :class:`~repro.storage.base.RecordStore` contract), and the returned
        mapping iterates in ascending object-id order — the deterministic
        iteration order every flow computation and search algorithm relies
        on (callers must not re-sort).
        """
        grouped: Dict[int, List[SampleSet]] = defaultdict(list)
        for record in self._store.range_query(start, end):
            grouped[record.object_id].append(record.sample_set)
        return dict(sorted(grouped.items()))

    def records_of_object(self, object_id: int) -> List[PositioningRecord]:
        """All records of one object, in time order."""
        selected = [r for r in self.records if r.object_id == object_id]
        selected.sort(key=lambda r: r.timestamp)
        return selected

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_max_sample_set_size(self, mss: int) -> "IUPT":
        """Return a copy whose records are truncated to ``mss`` samples each.

        Used by the uncertainty experiments (Table 5, Figure 7) which vary the
        maximum sample-set size of the same underlying data.
        """
        clone = self._clone_empty()
        clone.extend(record.truncated(mss) for record in self.records)
        return clone

    def filtered_to_objects(self, object_ids: Iterable[int]) -> "IUPT":
        """Return a copy containing only the records of ``object_ids``."""
        wanted = set(object_ids)
        clone = self._clone_empty()
        clone.extend(r for r in self.records if r.object_id in wanted)
        return clone
