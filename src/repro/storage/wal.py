"""The on-disk framing of the durable store's log and snapshots.

Every file the durable store writes is a sequence of frames: a big-endian
``>II`` header (body length, CRC32 of the body) and the body.  A body is one
of three things:

* a **segment frame** (``RSG1``): magic, batch sequence number, and the
  batch slice as one packed columnar ``RPK1`` blob of
  :mod:`repro.codec.packed`, every float bit-exact;
* a **snapshot frame** (``RSN1``): magic, shard key, shard version, the last
  sequence folded in, and as one ``RPK1`` blob the shard's records (a base
  frame) or the records it gained since the frame before it (a delta);
* compact **JSON** — the control log's commit / watermark / base records (a
  few dozen bytes each) and its subscribe / unsubscribe records of standing
  queries, and the record frames of a directory written before 5.0, which
  :func:`_legacy_json_records` still reads.

:func:`decode_wal_frames` is the one decoder: it stops at the first torn or
corrupt frame and reports how many bytes of clean prefix precede it, and
:func:`torn_snapshot_frame` tells a snapshot frame a crash cut short from
damage behind that prefix.
:func:`_field` is the one place a decoded frame's field is read, so a
CRC-valid frame of the wrong shape is a ``ValueError`` naming its file.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import List, Mapping, Optional, Sequence, Tuple

from ..codec.packed import PackedRecordBatch, encode_batch
from ..data.records import PositioningRecord, Sample, SampleSet

#: Frame header: payload byte length + CRC32 of the payload, big-endian.
_FRAME_HEADER = struct.Struct(">II")

#: Binary segment-frame body prefix: magic + batch sequence number.
SEGMENT_MAGIC = b"RSG1"
_SEGMENT_PREFIX = struct.Struct("<4sQ")

#: Binary snapshot-frame body prefix: magic + shard key + version + through.
SNAPSHOT_MAGIC = b"RSN1"
_SNAPSHOT_PREFIX = struct.Struct("<4sqQQ")


def _frame_bytes(body: bytes) -> bytes:
    """Wrap a frame body in the ``>II`` (length, CRC32) outer framing."""
    return _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def encode_wal_frame(payload: Mapping[str, object]) -> bytes:
    """One JSON log frame (the control log): length/CRC header + compact JSON."""
    return _frame_bytes(json.dumps(payload, separators=(",", ":")).encode("utf-8"))


def encode_segment_frame(seq: int, records: Sequence[PositioningRecord]) -> bytes:
    """One binary segment frame: magic + sequence + packed record batch."""
    return _frame_bytes(
        _SEGMENT_PREFIX.pack(SEGMENT_MAGIC, seq) + encode_batch(records)
    )


def encode_snapshot_frame(
    shard_key: int, version: int, through: int, records: Sequence[PositioningRecord]
) -> bytes:
    """One binary snapshot frame: magic + shard metadata + packed batch."""
    return _frame_bytes(
        _SNAPSHOT_PREFIX.pack(SNAPSHOT_MAGIC, shard_key, version, through)
        + encode_batch(records)
    )


def _parse_frame_body(body: bytes) -> Optional[dict]:
    """One frame body to its dict form; ``None`` when undecodable.

    Record frames announce themselves with a magic prefix and carry their
    records as a :class:`~repro.codec.packed.PackedRecordBatch` under the
    ``"packed"`` key; everything else is compact JSON — the control log, and
    the record frames of a directory written before 5.0.
    """
    prefix = body[:4]
    if prefix == SEGMENT_MAGIC:
        try:
            _magic, seq = _SEGMENT_PREFIX.unpack_from(body)
            packed = PackedRecordBatch.decode(body[_SEGMENT_PREFIX.size :])
        except (ValueError, struct.error):
            return None
        return {"seq": seq, "packed": packed}
    if prefix == SNAPSHOT_MAGIC:
        try:
            _magic, shard_key, version, through = _SNAPSHOT_PREFIX.unpack_from(body)
            packed = PackedRecordBatch.decode(body[_SNAPSHOT_PREFIX.size :])
        except (ValueError, struct.error):
            return None
        return {
            "shard": shard_key,
            "version": version,
            "through": through,
            "packed": packed,
        }
    try:
        frame = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError):  # bad UTF-8, bad JSON, absurd nesting
        return None
    if not isinstance(frame, dict):
        return None
    return frame


def decode_wal_frames(data: bytes) -> Tuple[List[dict], int]:
    """Parse ``data`` into frames; returns ``(frames, valid_byte_length)``.

    Stops at the first torn or corrupt tail — a truncated header, a body
    shorter than its declared length, a CRC mismatch, or an undecodable
    body — and reports how many bytes of clean prefix precede it, so the
    caller can truncate the file back to a frame boundary.
    """
    frames: List[dict] = []
    offset = 0
    size = len(data)
    while offset + _FRAME_HEADER.size <= size:
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > size:
            break
        body = data[start:end]
        if zlib.crc32(body) != crc:
            break
        frame = _parse_frame_body(body)
        if frame is None:
            break
        frames.append(frame)
        offset = end
    return frames, offset


def torn_snapshot_frame(data: bytes, valid: int) -> bool:
    """Whether the bytes behind :func:`decode_wal_frames`' clean prefix of a
    snapshot file's ``data`` are one snapshot frame cut short — all a crash
    mid-append leaves — and not damage.

    A whole frame that fails its CRC or its parse is damage.  So is a frame
    header whose length field was hit, though it too claims bytes past the
    end: once the snapshot prefix and the batch header are on disk, the size
    their record and sample counts state must be the length it declares.
    """
    rest = data[valid:]
    if len(rest) < _FRAME_HEADER.size:
        return True
    length, _crc = _FRAME_HEADER.unpack_from(rest)
    body = rest[_FRAME_HEADER.size :]
    if len(body) >= length or not SNAPSHOT_MAGIC.startswith(body[:4]):
        return False
    stated = PackedRecordBatch.declared_size(body[_SNAPSHOT_PREFIX.size :])
    return stated is None or length == _SNAPSHOT_PREFIX.size + stated


def _field(frame: Mapping[str, object], name: str, cast, path: object, index: int):
    """``cast(frame[name])`` — the one place a decoded frame's field is read.

    A CRC-valid frame that lacks the field, or holds something ``cast``
    refuses, was never written by this store: a ``ValueError`` that names the
    file and the frame's index in it, not a bare ``KeyError`` out of recovery.
    """
    try:
        return cast(frame[name])
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(
            f"{path}: frame {index}: field {name!r}: {error!r}"
        ) from error


def frame_records(
    frame: Mapping[str, object], path: object, index: int
) -> List[PositioningRecord]:
    """Materialise the records a decoded segment/snapshot frame carries."""
    packed = frame.get("packed")
    if packed is not None:
        return packed.to_records()
    return _field(frame, "records", _legacy_json_records, path, index)


def _legacy_json_records(payloads: Sequence[object]) -> List[PositioningRecord]:
    """The records of a JSON-era frame: ``[oid, t, [[ploc, prob], ...]]`` triples.

    Nothing writes this form any more; the reader stays because it is the
    only code that can open a directory an older build wrote.  Floats
    round-trip bit-exactly (``repr`` ↔ ``float``); a malformed triple raises
    ``TypeError`` / ``ValueError``.
    """
    return [
        PositioningRecord(
            int(object_id),
            SampleSet(Sample(int(ploc), float(prob)) for ploc, prob in samples),
            float(timestamp),
        )
        for object_id, timestamp, samples in payloads
    ]
