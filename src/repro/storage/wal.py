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

The same record frames are what a follower receives: a ``wal`` push carries
the segment frames its commit appended, and a snapshot catch-up one base
snapshot frame per shard.  :func:`decode_wal_frames` is the one decoder, on
disk and on the wire: it stops at the first torn or corrupt frame and reports
how many bytes of clean prefix precede it.  On the wire nothing is torn, so
a payload that is not whole frames is refused; on disk :func:`torn_tail`
tells a last frame a crash cut short from damage behind that prefix.
:func:`_field` is the one place a decoded frame's field is read, so a
CRC-valid frame of the wrong shape is a ``ValueError`` naming its file.
"""

from __future__ import annotations

import json
import re
import struct
import zlib
from typing import List, Mapping, Optional, Sequence, Tuple

from ..codec.packed import PackedRecordBatch
from ..data.records import PositioningRecord, Sample, SampleSet

#: Frame header: payload byte length + CRC32 of the payload, big-endian.
_FRAME_HEADER = struct.Struct(">II")

#: Binary segment-frame body prefix: magic + batch sequence number.
SEGMENT_MAGIC = b"RSG1"
_SEGMENT_PREFIX = struct.Struct("<4sQ")

#: Binary snapshot-frame body prefix: magic + shard key + version + through.
SNAPSHOT_MAGIC = b"RSN1"
_SNAPSHOT_PREFIX = struct.Struct("<4sqQQ")

#: How every frame body begins: a record magic, or a JSON object.
_BODY_START = re.compile(rb"RSG1|RSN1|\{")


def _frame_bytes(body: bytes) -> bytes:
    """Wrap a frame body in the ``>II`` (length, CRC32) outer framing."""
    return _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def encode_wal_frame(payload: Mapping[str, object]) -> bytes:
    """One JSON log frame (the control log): length/CRC header + compact JSON."""
    return _frame_bytes(json.dumps(payload, separators=(",", ":")).encode("utf-8"))


def encode_segment_frame(seq: int, batch: PackedRecordBatch) -> bytes:
    """One binary segment frame: magic + sequence + packed record batch."""
    return _frame_bytes(_SEGMENT_PREFIX.pack(SEGMENT_MAGIC, seq) + batch.encode())


def encode_snapshot_frame(
    shard_key: int, version: int, through: int, batch: PackedRecordBatch
) -> bytes:
    """One binary snapshot frame: magic + shard metadata + packed batch."""
    return _frame_bytes(
        _SNAPSHOT_PREFIX.pack(SNAPSHOT_MAGIC, shard_key, version, through)
        + batch.encode()
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


def _frame_at(data: bytes, offset: int) -> Optional[Tuple[dict, int]]:
    """The frame at ``offset`` of ``data`` and the offset behind it; ``None``
    unless the frame is whole, its CRC matches and its body decodes."""
    if offset + _FRAME_HEADER.size > len(data):
        return None
    length, crc = _FRAME_HEADER.unpack_from(data, offset)
    start = offset + _FRAME_HEADER.size
    end = start + length
    if end > len(data) or zlib.crc32(memoryview(data)[start:end]) != crc:
        return None
    frame = _parse_frame_body(data[start:end])
    return None if frame is None else (frame, end)


def decode_wal_frames(data: bytes) -> Tuple[List[dict], int]:
    """Parse ``data`` into frames; returns ``(frames, valid_byte_length)``.

    Stops at the first torn or corrupt tail — a truncated header, a body
    shorter than its declared length, a CRC mismatch, or an undecodable
    body — and reports how many bytes of clean prefix precede it, so the
    caller can truncate the file back to a frame boundary.
    """
    frames: List[dict] = []
    offset = 0
    while (found := _frame_at(data, offset)) is not None:
        frame, offset = found
        frames.append(frame)
    return frames, offset


def torn_tail(data: bytes, valid: int, snapshot: bool) -> bool:
    """Whether the bytes behind :func:`decode_wal_frames`' clean prefix of a
    file's ``data`` are one last frame a crash cut short — all a crash
    mid-append leaves — and not damage.

    A crash cuts only the last frame, so a bad frame behind which a whole
    frame decodes at any offset is damage: a flipped bit, or a length field
    that was hit, in a frame before the last.  (The offsets tried are those
    where a frame body could begin.)  A record frame's length must
    also be the size its magic prefix and its batch header's record and
    sample counts state, once they are on disk, though it claims bytes past
    the end as a cut frame does.  In a ``snapshot`` file every frame is an
    ``RSN1`` frame, and a whole one that fails its CRC or its parse is
    damage too: every snapshot write is synced before a segment goes.
    """
    rest = data[valid:]
    if len(rest) < _FRAME_HEADER.size:
        return True
    length, _crc = _FRAME_HEADER.unpack_from(rest)
    body = rest[_FRAME_HEADER.size :]
    magic, prefix = (
        (SNAPSHOT_MAGIC, _SNAPSHOT_PREFIX) if snapshot else (SEGMENT_MAGIC, _SEGMENT_PREFIX)
    )
    if snapshot and (len(body) >= length or not magic.startswith(body[:4])):
        return False
    if len(body) < length and body[:4] == magic:
        stated = PackedRecordBatch.declared_size(body[prefix.size :])
        if stated is not None and length != prefix.size + stated:
            return False
    behind = _BODY_START.finditer(data, valid + 1 + _FRAME_HEADER.size)
    return not any(_frame_at(data, found.start() - _FRAME_HEADER.size) for found in behind)


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
