"""The packed binary layout for positioning records.

A batch of records ``(oid, t, [(ploc_id, prob), ...])`` is laid out as one
length-prefixed header followed by five contiguous little-endian arrays —
a *columnar* encoding, so the durable store can write and recover whole
shards as single ``memcpy``-shaped blobs instead of one JSON object per
record::

    offset 0   magic      4s   b"RPK1"
           4   version    u8   CODEC_VERSION (currently 1)
           5   reserved   u8 + u16 (zero)
           8   n          u64  number of records
          16   m          u64  total number of samples
          24   timestamps n x f64   record timestamps
               object_ids n x i64   record object ids
               counts     n x i64   samples per record
               plocs      m x i64   sample ploc ids, record-concatenated
               probs      m x f64   sample probabilities, same order

Floats cross the boundary as raw IEEE-754 doubles, so every timestamp and
probability round-trips bit-exactly — the same guarantee the JSON payloads
gave via ``repr``/``float``, minus the text round-trip.

Every column is a standard-library ``array.array`` (``"d"`` / ``"q"``).  No
consumer does arithmetic on a column — they call ``tolist()`` / ``tobytes()``
— so ``array`` is all the codec needs, it runs wherever Python does, and
importing the codec costs nothing beyond the interpreter.  The bytes are the
ones every earlier build wrote, whichever container that build held them in.
"""

from __future__ import annotations

import struct
import sys
from array import array
from operator import lt
from typing import Dict, Iterable, List, Optional, Tuple

from ..data.records import MASS_TOLERANCE, PositioningRecord, Sample, SampleSet

CODEC_MAGIC = b"RPK1"
CODEC_VERSION = 1

#: magic, version, reserved u8, reserved u16, record count, sample count.
_HEADER = struct.Struct("<4sBBHQQ")

_SWAP = sys.byteorder == "big"


def codec_info() -> dict:
    """The codec version, for the ``stats`` op."""
    return {"codec_version": CODEC_VERSION}


def _column_bytes(column: array) -> bytes:
    if _SWAP:  # pragma: no cover - big-endian hosts only
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _parse_column(view: memoryview, offset: int, count: int, typecode: str):
    """One column of the blob and the offset behind it.

    ``view`` is sliced without a copy, so ``frombytes`` makes the only one.
    """
    end = offset + count * 8
    column = array(typecode)
    column.frombytes(view[offset:end])
    if _SWAP:  # pragma: no cover - big-endian hosts only
        column.byteswap()
    return column, end


class PackedRecordBatch:
    """A batch of positioning records in the packed columnar layout.

    Columns are ``array.array`` instances.  :meth:`to_records` returns the
    records the JSON payloads' constructor path (``Sample(int, float)`` into
    ``SampleSet``) would build, so decoded batches are bit-identical against
    JSON — without taking that path per sample (see :meth:`to_records`).
    """

    __slots__ = (
        "timestamps",
        "object_ids",
        "sample_counts",
        "sample_plocs",
        "sample_probs",
    )

    def __init__(
        self, timestamps, object_ids, sample_counts, sample_plocs, sample_probs
    ):
        self.timestamps = timestamps
        self.object_ids = object_ids
        self.sample_counts = sample_counts
        self.sample_plocs = sample_plocs
        self.sample_probs = sample_probs

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def sample_total(self) -> int:
        return len(self.sample_plocs)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls, records: Iterable[PositioningRecord]
    ) -> "PackedRecordBatch":
        timestamps: List[float] = []
        object_ids: List[int] = []
        counts: List[int] = []
        plocs: List[int] = []
        probs: List[float] = []
        for record in records:
            timestamps.append(record.timestamp)
            object_ids.append(record.object_id)
            sample_set = record.sample_set
            counts.append(len(sample_set.ploc_ids))
            plocs.extend(sample_set.ploc_ids)
            probs.extend(sample_set.probs)
        return cls(
            array("d", timestamps),
            array("q", object_ids),
            array("q", counts),
            array("q", plocs),
            array("d", probs),
        )

    @classmethod
    def concatenate(cls, batches: List["PackedRecordBatch"]) -> "PackedRecordBatch":
        """One batch holding ``batches``' records in order, column by column;
        no record is built."""
        columns = []
        for name in cls.__slots__:
            column = array(getattr(batches[0], name).typecode)
            for batch in batches:
                column.extend(getattr(batch, name))
            columns.append(column)
        return cls(*columns)

    @staticmethod
    def declared_size(data: bytes) -> Optional[int]:
        """The byte size of the batch whose encoding ``data`` starts with, as
        its header's record and sample counts state; ``None`` while ``data``
        is shorter than the header."""
        if len(data) < _HEADER.size:
            return None
        n, m = _HEADER.unpack_from(data)[4:]
        return _HEADER.size + n * 24 + m * 16

    @classmethod
    def decode(cls, data: bytes) -> "PackedRecordBatch":
        if len(data) < _HEADER.size:
            raise ValueError("packed batch truncated: missing header")
        magic, version, _r8, _r16, n, m = _HEADER.unpack_from(data)
        if magic != CODEC_MAGIC:
            raise ValueError(f"not a packed record batch (magic {magic!r})")
        if version != CODEC_VERSION:
            raise ValueError(
                f"unsupported packed-batch version {version} "
                f"(this build reads version {CODEC_VERSION})"
            )
        expected = cls.declared_size(data)
        if len(data) != expected:
            raise ValueError(
                f"packed batch size mismatch: {len(data)} bytes for "
                f"n={n}, m={m} (expected {expected})"
            )
        # The size check above is what bounds every column below.
        view = memoryview(data)
        offset = _HEADER.size
        timestamps, offset = _parse_column(view, offset, n, "d")
        object_ids, offset = _parse_column(view, offset, n, "q")
        counts, offset = _parse_column(view, offset, n, "q")
        plocs, offset = _parse_column(view, offset, m, "q")
        probs, offset = _parse_column(view, offset, m, "d")
        return cls(timestamps, object_ids, counts, plocs, probs)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        header = _HEADER.pack(
            CODEC_MAGIC, CODEC_VERSION, 0, 0, len(self), self.sample_total
        )
        return b"".join(
            (
                header,
                _column_bytes(self.timestamps),
                _column_bytes(self.object_ids),
                _column_bytes(self.sample_counts),
                _column_bytes(self.sample_plocs),
                _column_bytes(self.sample_probs),
            )
        )

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def timestamps_list(self) -> List[float]:
        """The timestamp column as plain Python floats (bit-exact)."""
        return self.timestamps.tolist()

    def to_records(
        self, lo: int = 0, hi: Optional[int] = None
    ) -> List[PositioningRecord]:
        """Records ``[lo:hi]`` of the batch (list-slice semantics; all by
        default), equal to building each through ``SampleSet``.

        Only the named records are built, but the sample counts of the
        *whole* batch are checked first, so a corrupt batch raises before
        any slice of it yields a record.

        Each record's slice of the ``plocs``/``probs`` columns is adopted as
        its sample set (``SampleSet._from_columns``) when it already
        satisfies the column contract of :mod:`repro.data.records` — ids
        strictly ascending, every probability positive, mass within
        ``MASS_TOLERANCE`` of one (a comparison no NaN or infinity passes) —
        because the public constructor would then merge nothing, reorder
        nothing and keep every float.  A slice that fails the check (a zero
        probability included: the constructor turns ``-0.0`` into ``0.0``)
        goes through the public constructor, which returns the same set or
        raises the same ``ValueError`` as ever.

        Positivity is tested once for the whole slice: ``min`` over the
        slice's probabilities is the least non-NaN one unless the first is
        NaN, and then it is NaN, which fails.  So a pass proves every non-NaN
        probability positive, a NaN still fails its record's mass test, and a
        failure falls back to the test per record.  Lone-sample records with
        the same ``(P-location, probability)`` share one adopted set (a set
        is never mutated, so sharing it is invisible), and the records are
        built by the trusted ``PositioningRecord._from_columns``.
        """
        counts = self.sample_counts.tolist()
        if (counts and min(counts) < 1) or sum(counts) != len(self.sample_plocs):
            raise ValueError("packed batch corrupt: sample counts disagree with data")
        first = sum(counts[:lo])  # sample offset of the slice's first record
        counts = counts[lo:hi]
        last = first + sum(counts)
        plocs = tuple(self.sample_plocs[first:last].tolist())
        probs = tuple(self.sample_probs[first:last].tolist())
        positive = not probs or min(probs) > 0.0
        adopt = SampleSet._from_columns
        # Adopted lone-sample sets by (P-location, probability); the key of a
        # record with more samples is None, which is never stored.
        lone: Dict[Optional[Tuple[int, float]], SampleSet] = {}
        sample_sets: List[SampleSet] = []
        append = sample_sets.append
        cursor = 0
        for count in counts:
            stop = cursor + count
            key = (plocs[cursor], probs[cursor]) if count == 1 else None
            sample_set = lone.get(key)
            if sample_set is None:
                ploc_ids = plocs[cursor:stop]
                weights = probs[cursor:stop]
                if (
                    (count == 1 or all(map(lt, ploc_ids, ploc_ids[1:])))
                    and (positive or min(weights) > 0.0)
                    and abs(sum(weights) - 1.0) <= MASS_TOLERANCE
                ):
                    sample_set = adopt(ploc_ids, weights)
                    if key:
                        lone[key] = sample_set
                else:
                    sample_set = SampleSet(map(Sample, ploc_ids, weights))
            append(sample_set)
            cursor = stop
        return PositioningRecord._from_columns(
            self.object_ids[lo:hi].tolist(),
            sample_sets,
            self.timestamps[lo:hi].tolist(),
        )


def encode_batch(records: Iterable[PositioningRecord]) -> bytes:
    """Serialise records to the packed layout."""
    return PackedRecordBatch.from_records(records).encode()


def decode_batch(data: bytes) -> List[PositioningRecord]:
    """Rebuild records from :func:`encode_batch` output, bit-exactly."""
    return PackedRecordBatch.decode(data).to_records()
