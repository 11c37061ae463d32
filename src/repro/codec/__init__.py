"""The packed binary codec.

One binary layout for positioning records (``RPK1``, see
:mod:`repro.codec.packed`), shared by the durable store's write-ahead log and
snapshots (:mod:`repro.storage.durable`), the sharded store's lazy shard
representation (:mod:`repro.storage.sharded`), the replication stream and the
``ingest_batch`` wire payload.  Columns are standard-library ``array.array``
instances.  :class:`PresenceMatrix` is kept for ``bench/`` alone (see
:mod:`repro.codec.kernels`).
"""

from .kernels import PresenceMatrix
from .packed import (
    CODEC_MAGIC,
    CODEC_VERSION,
    PackedRecordBatch,
    codec_info,
    decode_batch,
    encode_batch,
)

__all__ = [
    "CODEC_MAGIC",
    "CODEC_VERSION",
    "PackedRecordBatch",
    "PresenceMatrix",
    "codec_info",
    "decode_batch",
    "encode_batch",
]
