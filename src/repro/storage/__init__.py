"""The IUPT storage layer: the table is the store.

See :mod:`repro.storage.sharded` for the table — ``repro.IUPT`` is its
:class:`~repro.storage.sharded.ShardedRecordStore`: time-partitioned, with
shard-pruned, timestamp-column-bisected window queries, per-shard
versioning, and retention eviction — :mod:`repro.storage.durable` for its
write-ahead-logged, snapshot-recovered subclass, :mod:`repro.storage.base`
for the events, receipts and errors they hand their callers, and
:mod:`repro.storage.wal` for the frames the durable store writes to disk.
"""

from .base import (
    EvictedRangeError,
    EvictionEvent,
    IngestEvent,
    IngestReceipt,
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
    "SimulatedCrashError",
    "StoreListener",
    "ShardedRecordStore",
    "VersionToken",
    "decode_wal_frames",
    "encode_wal_frame",
    "summarise_object_spans",
]
