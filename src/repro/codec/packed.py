"""The packed binary layout for positioning records.

A batch of records ``(oid, t, [(ploc_id, prob), ...])`` is laid out as one
length-prefixed header followed by five contiguous little-endian arrays —
a *columnar* encoding, so the durable store can write and recover whole
shards as single ``memcpy``-shaped blobs instead of one JSON object per
record, and the engine's vectorized kernels can sum over the arrays
directly::

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

Two interchangeable array backends produce and parse **identical bytes**:
``numpy`` (used when importable) and the standard library's
``array``/``memoryview`` fallback.  ``REPRO_CODEC_BACKEND=array`` forces
the fallback even when numpy is present (the CI fallback leg sets it);
individual calls can also pass ``backend=`` explicitly, which the
cross-backend equality tests rely on.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from operator import lt
from typing import Iterable, List, Optional, Sequence

from ..data.records import MASS_TOLERANCE, PositioningRecord, Sample, SampleSet

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

CODEC_MAGIC = b"RPK1"
CODEC_VERSION = 1

BACKENDS = ("numpy", "array")

#: magic, version, reserved u8, reserved u16, record count, sample count.
_HEADER = struct.Struct("<4sBBHQQ")

_FORCED = os.environ.get("REPRO_CODEC_BACKEND", "").strip().lower()

_SWAP = sys.byteorder == "big"


def numpy_available() -> bool:
    return _np is not None


def active_backend() -> str:
    """The process-wide default backend (numpy when importable, else array)."""
    if _FORCED == "array" or _np is None:
        return "array"
    return "numpy"


def resolve_backend(backend: Optional[str]) -> str:
    """Validate an explicit backend choice, defaulting to the active one."""
    if backend is None:
        return active_backend()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown codec backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "numpy" and _np is None:
        raise ValueError("codec backend 'numpy' requested but numpy is not importable")
    return backend


def codec_info() -> dict:
    """The active codec/kernel backend, for stats and benchmark headers."""
    return {
        "codec_version": CODEC_VERSION,
        "backend": active_backend(),
        "numpy_available": _np is not None,
        "forced_backend": _FORCED or None,
    }


def _int_column(values: Sequence[int], backend: str):
    if backend == "numpy":
        return _np.asarray(values, dtype="<i8")
    return array("q", values)


def _float_column(values: Sequence[float], backend: str):
    if backend == "numpy":
        return _np.asarray(values, dtype="<f8")
    return array("d", values)


def _column_bytes(column) -> bytes:
    if _np is not None and isinstance(column, _np.ndarray):
        return column.astype(column.dtype.newbyteorder("<"), copy=False).tobytes()
    if _SWAP:  # pragma: no cover - big-endian hosts only
        swapped = array(column.typecode, column)
        swapped.byteswap()
        return swapped.tobytes()
    return column.tobytes()


def _parse_column(data: bytes, offset: int, count: int, typecode: str, backend: str):
    """One array column from the blob; numpy parses as a zero-copy view."""
    end = offset + count * 8
    if end > len(data):
        raise ValueError("packed batch truncated: column exceeds payload")
    if backend == "numpy":
        dtype = "<f8" if typecode == "d" else "<i8"
        return _np.frombuffer(data, dtype=dtype, count=count, offset=offset), end
    column = array(typecode)
    column.frombytes(data[offset:end])
    if _SWAP:  # pragma: no cover - big-endian hosts only
        column.byteswap()
    return column, end


class PackedRecordBatch:
    """A batch of positioning records in the packed columnar layout.

    Columns are numpy arrays or ``array.array`` instances depending on the
    backend; either way :meth:`encode` emits the same bytes and
    :meth:`to_records` returns the records the JSON payloads' constructor
    path (``Sample(int, float)`` into ``SampleSet``) would build, so decoded
    batches are bit-identical across backends and against JSON — without
    taking that path per sample (see :meth:`to_records`).
    """

    __slots__ = (
        "backend",
        "timestamps",
        "object_ids",
        "sample_counts",
        "sample_plocs",
        "sample_probs",
    )

    def __init__(
        self, backend, timestamps, object_ids, sample_counts, sample_plocs, sample_probs
    ):
        self.backend = backend
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
        cls,
        records: Iterable[PositioningRecord],
        backend: Optional[str] = None,
    ) -> "PackedRecordBatch":
        backend = resolve_backend(backend)
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
            backend,
            _float_column(timestamps, backend),
            _int_column(object_ids, backend),
            _int_column(counts, backend),
            _int_column(plocs, backend),
            _float_column(probs, backend),
        )

    @classmethod
    def decode(
        cls, data: bytes, backend: Optional[str] = None
    ) -> "PackedRecordBatch":
        resolved = resolve_backend(backend)
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
        expected = _HEADER.size + n * 24 + m * 16
        if len(data) != expected:
            raise ValueError(
                f"packed batch size mismatch: {len(data)} bytes for "
                f"n={n}, m={m} (expected {expected})"
            )
        offset = _HEADER.size
        timestamps, offset = _parse_column(data, offset, n, "d", resolved)
        object_ids, offset = _parse_column(data, offset, n, "q", resolved)
        counts, offset = _parse_column(data, offset, n, "q", resolved)
        plocs, offset = _parse_column(data, offset, m, "q", resolved)
        probs, offset = _parse_column(data, offset, m, "d", resolved)
        return cls(resolved, timestamps, object_ids, counts, plocs, probs)

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
        its sample set when it already satisfies the column contract of
        :mod:`repro.data.records` — ids strictly ascending, every probability
        positive, mass within ``MASS_TOLERANCE`` of one (a comparison no NaN
        or infinity passes) — because the public constructor would then merge
        nothing, reorder nothing and keep every float.  A slice that fails
        the check (a zero probability included: the constructor turns
        ``-0.0`` into ``0.0``) goes through the public constructor, which
        returns the same set or raises the same ``ValueError`` as ever.
        """
        counts = self.sample_counts.tolist()
        if (counts and min(counts) < 1) or sum(counts) != len(self.sample_plocs):
            raise ValueError("packed batch corrupt: sample counts disagree with data")
        first = sum(counts[:lo])  # sample offset of the slice's first record
        counts = counts[lo:hi]
        last = first + sum(counts)
        timestamps = self.timestamps[lo:hi].tolist()
        object_ids = self.object_ids[lo:hi].tolist()
        plocs = tuple(self.sample_plocs[first:last].tolist())
        probs = tuple(self.sample_probs[first:last].tolist())
        adopt = SampleSet._from_columns
        records: List[PositioningRecord] = []
        cursor = 0
        for object_id, timestamp, count in zip(object_ids, timestamps, counts):
            stop = cursor + count
            ploc_ids = plocs[cursor:stop]
            weights = probs[cursor:stop]
            if (
                (count == 1 or all(map(lt, ploc_ids, ploc_ids[1:])))
                and min(weights) > 0.0
                and abs(sum(weights) - 1.0) <= MASS_TOLERANCE
            ):
                sample_set = adopt(ploc_ids, weights)
            else:
                sample_set = SampleSet(map(Sample, ploc_ids, weights))
            records.append(PositioningRecord(object_id, sample_set, timestamp))
            cursor = stop
        return records


def encode_batch(
    records: Iterable[PositioningRecord], backend: Optional[str] = None
) -> bytes:
    """Serialise records to the packed layout (byte-identical per backend)."""
    return PackedRecordBatch.from_records(records, backend).encode()


def decode_batch(
    data: bytes, backend: Optional[str] = None
) -> List[PositioningRecord]:
    """Rebuild records from :func:`encode_batch` output, bit-exactly."""
    return PackedRecordBatch.decode(data, backend).to_records()
