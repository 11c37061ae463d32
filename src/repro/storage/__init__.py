"""The IUPT storage layer: the record store behind the table facade.

See :mod:`repro.storage.base` for the store contract,
:mod:`repro.storage.sharded` for the one in-memory store — time-partitioned,
with shard-pruned, timestamp-column-bisected window queries, per-shard
versioning, and retention eviction — :mod:`repro.storage.durable` for its
write-ahead-logged, snapshot-recovered subclass, and
:mod:`repro.storage.wal` for the frames that subclass writes to disk.
"""

from .base import (
    EvictedRangeError,
    EvictionEvent,
    IngestEvent,
    IngestReceipt,
    RecordStore,
    StoreListener,
    VersionToken,
    summarise_object_spans,
)
from .durable import DurabilityConfig, DurableRecordStore, SimulatedCrashError
from .sharded import DEFAULT_SHARD_SECONDS, ShardedRecordStore
from .wal import decode_wal_frames, encode_wal_frame

__all__ = [
    "DEFAULT_SHARD_SECONDS",
    "DurabilityConfig",
    "DurableRecordStore",
    "EvictedRangeError",
    "EvictionEvent",
    "IngestEvent",
    "IngestReceipt",
    "RecordStore",
    "SimulatedCrashError",
    "StoreListener",
    "ShardedRecordStore",
    "VersionToken",
    "decode_wal_frames",
    "encode_wal_frame",
    "summarise_object_spans",
]
