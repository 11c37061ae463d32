"""The IUPT storage layer: record-store backends behind the table facade.

See :mod:`repro.storage.base` for the backend contract,
:mod:`repro.storage.memory` for the seed's flat in-memory store,
:mod:`repro.storage.sharded` for the time-partitioned sharded store with
shard-pruned, timestamp-column-bisected window queries, per-shard
versioning, and retention eviction, and :mod:`repro.storage.durable` for the
write-ahead-logged, snapshot-recovered durable wrapper around it.
"""

from .base import (
    EvictedRangeError,
    EvictionEvent,
    IngestEvent,
    IngestReceipt,
    RecordStore,
    STORE_KINDS,
    StoreListener,
    VersionToken,
    summarise_object_spans,
)
from .durable import (
    DurabilityConfig,
    DurableRecordStore,
    SimulatedCrashError,
    decode_wal_frames,
    encode_wal_frame,
)
from .memory import InMemoryRecordStore
from .sharded import DEFAULT_SHARD_SECONDS, ShardedRecordStore

__all__ = [
    "DEFAULT_SHARD_SECONDS",
    "DurabilityConfig",
    "DurableRecordStore",
    "EvictedRangeError",
    "EvictionEvent",
    "IngestEvent",
    "IngestReceipt",
    "InMemoryRecordStore",
    "RecordStore",
    "STORE_KINDS",
    "SimulatedCrashError",
    "StoreListener",
    "ShardedRecordStore",
    "VersionToken",
    "decode_wal_frames",
    "encode_wal_frame",
    "summarise_object_spans",
]


def make_store(
    kind: str = "flat",
    index_kind: str = "1dr-tree",
    shard_seconds: float = DEFAULT_SHARD_SECONDS,
) -> RecordStore:
    """Build a record store by kind name (the scenario/experiment entry point).

    ``index_kind`` selects the flat store's tree; the sharded store has one
    index (its sorted timestamp columns) and ignores it.
    """
    if kind == "flat":
        return InMemoryRecordStore(index_kind=index_kind)
    if kind == "sharded":
        return ShardedRecordStore(shard_seconds=shard_seconds)
    raise ValueError(f"unknown store kind {kind!r}; expected one of {STORE_KINDS}")
