"""The columnar ``to_records`` against the parent's public-constructor path.

``tests/codec_oracle.py`` holds the parent commit's ``to_records``.  The
property here feeds both the same column batches — valid sets and every kind
of set the ``SampleSet`` constructor repairs or rejects — and requires equal
records (bit-equal floats) or a ``ValueError`` from both.  The fuzz damages
real ``RPK1`` blobs and accepts only "``ValueError`` or a valid table".  Both
hold sliced calls (``to_records(lo, hi)``, what a lazily loaded shard makes)
to the same rows: ``ValueError``, or the oracle's rows for exactly ``[lo:hi]``
— never a short or shifted slice.  A damaged batch on the wire is a row of
``tests/test_damage.py``.
"""

from __future__ import annotations

import itertools
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import PackedRecordBatch, decode_batch, encode_batch
from repro.data.records import PositioningRecord, SampleSet
from repro.storage import ShardedRecordStore
from tests.codec_oracle import oracle_to_records

#: These tests ran once per column container while the codec had two.  The
#: surviving run keeps its ``[array]`` id, so a report from before the second
#: container went and one from after name the same tests.
ARRAY_ID = pytest.mark.parametrize("_container", ["array"])

_HEADER = struct.Struct("<4sBBHQQ")


def blob_of(rows, counts=None) -> bytes:
    """``RPK1`` bytes of ``(oid, t, [(ploc, prob), ...])`` rows, written by hand."""
    if counts is None:
        counts = [len(samples) for _oid, _t, samples in rows]
    plocs = [ploc for _oid, _t, samples in rows for ploc, _prob in samples]
    probs = [prob for _oid, _t, samples in rows for _ploc, prob in samples]
    n, m = len(rows), len(plocs)
    return b"".join(
        (
            _HEADER.pack(b"RPK1", 1, 0, 0, n, m),
            struct.pack(f"<{n}d", *(t for _oid, t, _samples in rows)),
            struct.pack(f"<{n}q", *(oid for oid, _t, _samples in rows)),
            struct.pack(f"<{n}q", *counts),
            struct.pack(f"<{m}q", *plocs),
            struct.pack(f"<{m}d", *probs),
        )
    )


def bit_image(records):
    """Records with every float as its IEEE-754 bytes (``-0.0`` is not ``0.0``)."""
    return [
        (
            record.object_id,
            struct.pack("<d", record.timestamp),
            record.sample_set.ploc_ids,
            struct.pack(f"<{len(record.sample_set)}d", *record.sample_set.probs),
        )
        for record in records
    ]


def outcome(materialise, blob):
    """``("records", bit image)``, or ``("ValueError", None)`` when rejected."""
    try:
        records = materialise(PackedRecordBatch.decode(blob))
    except ValueError:
        return ("ValueError", None)
    return ("records", bit_image(records))


def assert_slices_agree(blob: bytes, bounds=None) -> None:
    """Every ``to_records(lo, hi)``: ``ValueError``, or the oracle's ``[lo:hi]``.

    Where the oracle accepts the whole batch, so must every slice.  Where it
    rejects it for its sample counts, so must every slice (they are checked
    before any record is built).  Where it rejects it for a record, a slice
    clear of that record may still answer — with the rows the oracle builds
    from exactly those records' columns.
    """
    batch = PackedRecordBatch.decode(blob)
    counts = batch.sample_counts.tolist()
    sound = min(counts, default=1) >= 1 and sum(counts) == batch.sample_total
    # (The oracle walks unsound counts off the end of the columns.)
    whole = outcome(oracle_to_records, blob) if sound else None
    offsets = [0, *itertools.accumulate(counts)]
    if bounds is None:
        bounds = range(len(batch) + 1)
    for lo, hi in itertools.combinations_with_replacement(bounds, 2):
        sliced = outcome(lambda b: b.to_records(lo, hi), blob)
        if not sound:
            assert sliced == ("ValueError", None), (lo, hi)
        elif whole[0] == "records":
            assert sliced == ("records", whole[1][lo:hi]), (lo, hi)
        elif sliced[0] == "records":
            first, last = offsets[lo], offsets[hi]
            part = PackedRecordBatch(
                batch.timestamps[lo:hi],
                batch.object_ids[lo:hi],
                batch.sample_counts[lo:hi],
                batch.sample_plocs[first:last],
                batch.sample_probs[first:last],
            )
            assert sliced[1] == bit_image(oracle_to_records(part)), (lo, hi)


# ----------------------------------------------------------------------
# The property: new to_records == the parent's, or both raise ValueError
# ----------------------------------------------------------------------
_weights = st.one_of(
    st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
    st.sampled_from([5e-324, 1e-300, 0.25, 1.0 / 3.0, 0.9999999999999999]),
)

#: Factors that move a set's mass inside, onto and beyond the 1e-3 tolerance.
_MASS_FACTORS = [
    1.0 + 5e-4, 1.0 - 5e-4, 1.0 + 1e-3, 1.0 - 1e-3,
    1.0 + 1.001e-3, 1.0 - 1.001e-3, 1.0 + 2e-3, 1.0 - 2e-3, 1.1, 0.5,
]  # fmt: skip

#: Replacements for one probability of a set (the rest is left as it is).
_BAD_PROBS = [0.0, -0.0, -1e-7, -1e-3, -0.25, math.nan, math.inf, -math.inf]

KINDS = (
    "valid", "unsorted", "duplicate", "mass", "bad_prob",
    "zero_with_unit_mass", "empty",
)  # fmt: skip


@st.composite
def sample_columns(draw):
    """One record's ``[(ploc, prob), ...]`` and the kind of set it is."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "empty":
        return []
    size = draw(st.integers(min_value=1, max_value=6))
    ids = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=40),
                min_size=size, max_size=size, unique=True,
            )  # fmt: skip
        )
    )
    weights = draw(st.lists(_weights, min_size=size, max_size=size))
    total = sum(weights)
    probs = [weight / total for weight in weights]
    if kind == "unsorted":
        order = draw(st.permutations(range(size)))
        ids = [ids[i] for i in order]
        probs = [probs[i] for i in order]
    elif kind == "duplicate":
        # The constructor merges the repeated id, wherever it sits.
        where = draw(st.integers(min_value=0, max_value=size))
        ids.insert(where, draw(st.sampled_from(ids)))
        probs.insert(where, draw(st.sampled_from([0.0, 1e-4, 0.25])))
    elif kind == "mass":
        factor = draw(st.sampled_from(_MASS_FACTORS))
        probs = [prob * factor for prob in probs]
    elif kind == "bad_prob":
        probs[draw(st.integers(min_value=0, max_value=size - 1))] = draw(
            st.sampled_from(_BAD_PROBS)
        )
    elif kind == "zero_with_unit_mass":
        # A zero-probability sample (either sign, first or last) that leaves
        # the mass where it was.
        where = draw(st.sampled_from([0, size]))
        ids.insert(where, -1 if where == 0 else 41)
        probs.insert(where, draw(st.sampled_from([0.0, -0.0])))
    return list(zip(ids, probs))


_rows = st.lists(
    st.tuples(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=False, allow_infinity=False),
        sample_columns(),
    ),
    max_size=8,
)


class TestAgainstOracle:
    @ARRAY_ID
    @given(rows=_rows)
    @settings(max_examples=300, deadline=None)
    def test_equal_records_or_the_same_value_error(self, rows, _container):
        blob = blob_of(rows)
        assert outcome(PackedRecordBatch.to_records, blob) == outcome(
            oracle_to_records, blob
        )
        assert_slices_agree(blob)

    @ARRAY_ID
    def test_every_kind_of_set_one_by_one(self, _container):
        # The cases the property must reach, spelled out (no shrinking luck).
        cases = {
            "valid": ([(1, 0.25), (2, 0.75)], "records"),
            "lone": ([(7, 1.0)], "records"),
            "unsorted": ([(2, 0.75), (1, 0.25)], "records"),
            "duplicate merged": ([(1, 0.25), (1, 0.25), (2, 0.5)], "records"),
            "mass inside tolerance": ([(1, 0.5), (2, 0.5005)], "records"),
            "mass above tolerance": ([(1, 0.5), (2, 0.502)], "ValueError"),
            "mass below tolerance": ([(1, 0.5), (2, 0.498)], "ValueError"),
            "zero probability": ([(1, 0.0), (2, 1.0)], "records"),
            "negative zero": ([(1, -0.0), (2, 1.0)], "records"),
            "tolerated negative": ([(1, -1e-7), (2, 1.0)], "records"),
            "negative": ([(1, -0.25), (2, 1.25)], "ValueError"),
            "nan": ([(1, 0.5), (2, math.nan)], "ValueError"),
            "lone nan": ([(1, math.nan)], "ValueError"),
            "inf": ([(1, math.inf)], "ValueError"),
            "inf minus inf": ([(1, math.inf), (2, -math.inf)], "ValueError"),
            "empty": ([], "ValueError"),
        }
        for name, (samples, verdict) in cases.items():
            blob = blob_of([(3, 1.5, samples)])
            expected = outcome(oracle_to_records, blob)
            assert expected[0] == verdict, name
            assert outcome(PackedRecordBatch.to_records, blob) == expected, name

    @ARRAY_ID
    def test_the_per_slice_check_case_by_case(self, _container):
        # Positivity is tested once per slice, with ``min``: NaN, zeros and
        # negatives in either order must still give the oracle's answer, for
        # the whole batch, from just after the last bad record, and sliced.
        nan = math.nan
        cases = {  # name: (rows, index of the last record the oracle rejects)
            "nan first, zero later": (
                [(1, 0.0, [(1, nan)]), (2, 1.0, [(1, 0.0), (2, 1.0)]), (3, 2.0, [(4, 1.0)])], 0),
            "nan first in a pair, zero later": (
                [(1, 0.0, [(1, nan), (2, 0.5)]), (2, 1.0, [(1, 1.0), (2, 0.0)])], 0),
            "nan first, negative later": (
                [(1, 0.0, [(1, nan)]), (2, 1.0, [(1, -0.25), (2, 1.25)]), (3, 2.0, [(4, 1.0)])], 1),
            "zero first, nan later": (
                [(1, 0.0, [(1, 0.0), (2, 1.0)]), (2, 1.0, [(3, 0.5), (4, nan)]), (3, 2.0, [(4, 1.0)])], 1),
            "lone negative zero": (
                [(1, 0.0, [(2, 1.0)]), (2, 1.0, [(2, -0.0)]), (3, 2.0, [(2, 1.0)])], 1),
            "lone sets around a near-one lone": (
                [(oid, float(oid), [(5, 1.0005 if oid % 2 else 1.0)]) for oid in range(5)], None),
        }  # fmt: skip
        for name, (rows, bad) in cases.items():
            blob = blob_of(rows)
            expected = outcome(oracle_to_records, blob)
            assert expected[0] == ("records" if bad is None else "ValueError"), name
            assert outcome(PackedRecordBatch.to_records, blob) == expected, name
            after = 0 if bad is None else bad + 1
            tail = outcome(lambda batch: batch.to_records(after), blob)
            assert tail[0] == "records", name
            assert tail == outcome(oracle_to_records, blob_of(rows[after:])), name
            assert_slices_agree(blob)
        # Equal lone samples of one call share a set; equal is bit-equal here.
        records = decode_batch(blob_of(cases["lone sets around a near-one lone"][0]))
        sets = [record.sample_set for record in records]
        assert sets[0] is sets[2] is sets[4] and sets[1] is sets[3]
        assert sets[0] is not sets[1] and sets[1].probs == (1.0005,)

    def test_negative_zero_is_stored_as_the_constructor_stores_it(self):
        (record,) = decode_batch(blob_of([(3, 1.5, [(1, -0.0), (2, 1.0)])]))
        assert math.copysign(1.0, record.sample_set.probs[0]) == 1.0

    @pytest.mark.parametrize("golden", ["three_records", "edge_values"])
    def test_parent_blob_decodes_to_the_records_it_was_made_from(self, golden):
        # Bytes written by an earlier build's encoder (hex below), so a WAL or
        # snapshot written before this change recovers to equal records, and
        # this change's encoder still writes those bytes.
        records, blob_hex = GOLDEN_BLOBS[golden]
        assert encode_batch(records).hex() == blob_hex
        assert bit_image(decode_batch(bytes.fromhex(blob_hex))) == bit_image(records)


#: Pinned against the parent of the change that introduced the columnar
#: ``to_records`` (PR 16).
PARENT_BLOB_HEX = (
    "52504b310100000003000000000000000600000000000000000000000000e03f"
    "0000000000105e400000000065cdcd410400000000000000feffffffffffffff"
    "0700000000000000020000000000000001000000000000000300000000000000"
    "030000000000000009000000000000000b000000000000000100000000000000"
    "02000000000000000500000000000000000000000000d03f000000000000e83f"
    "000000000000f03f000000000000d03f000000000000e03f000000000000d03f"
)

#: Written by the numpy column container of the last build that had one (the
#: parent of PR 24): a four-sample record, an object id below ``-2**40``, a
#: subnormal probability and a subnormal timestamp.
NUMPY_LEG_BLOB_HEX = (
    "52504b31010000000200000000000000060000000000000000000000002031c0"
    "ac98c32da2490000fdfffffffffeffff09000000000000000400000000000000"
    "0200000000000000000000000000000007000000000000000c00000000000000"
    "2800000000000000020000000000000003000000000000000100000000000000"
    "000000000000e03f000000000000d03f000000000000d03f555555555555d53f"
    "555555555555e53f"
)

GOLDEN_BLOBS = {
    "three_records": (
        [
            PositioningRecord(4, SampleSet.from_pairs([(3, 0.25), (9, 0.75)]), 0.5),
            PositioningRecord(-2, SampleSet.certain(11), 120.25),
            PositioningRecord(
                7, SampleSet.from_pairs([(1, 1.0), (2, 2.0), (5, 1.0)], normalise=True), 1e9
            ),
        ],
        PARENT_BLOB_HEX,
    ),
    "edge_values": (
        [
            PositioningRecord(
                -(2**40) - 3,
                SampleSet.from_pairs([(0, 5e-324), (7, 0.5), (12, 0.25), (40, 0.25)]),
                -17.125,
            ),
            PositioningRecord(9, SampleSet.from_pairs([(2, 1.0 / 3.0), (3, 2.0 / 3.0)]), 4.0e-310),
        ],
        NUMPY_LEG_BLOB_HEX,
    ),
}


# ----------------------------------------------------------------------
# Decoder fuzz: ValueError or a valid table, never another exception
# ----------------------------------------------------------------------
def _seed_blob() -> bytes:
    rng = random.Random(5)
    rows = []
    for index in range(12):
        size = rng.randint(1, 4)
        ids = sorted(rng.sample(range(30), size))
        weights = [rng.random() + 0.01 for _ in range(size)]
        total = sum(weights)
        rows.append((index % 5, index * 2.5, [(i, w / total) for i, w in zip(ids, weights)]))
    return blob_of(rows)


SEED_BLOB = _seed_blob()


#: Slice bounds tried on every damaged copy of the 12-record seed blob.
SLICE_BOUNDS = (0, 1, 5, 11, 12)


def assert_value_error_or_valid_table(blob: bytes) -> None:
    try:
        batch = PackedRecordBatch.decode(blob)
    except ValueError:
        return
    if len(batch) <= max(SLICE_BOUNDS):  # a damaged header may claim any size
        assert_slices_agree(blob, SLICE_BOUNDS)
    try:
        records = batch.to_records()
    except ValueError:
        return
    for record in records:
        sample_set = record.sample_set
        ids, probs = sample_set.ploc_ids, sample_set.probs
        assert len(ids) == len(probs) >= 1
        assert all(a < b for a, b in zip(ids, ids[1:]))
        assert all(math.isfinite(prob) and prob >= -1e-6 for prob in probs)
        assert abs(sum(probs) - 1.0) <= 1e-3
        # ...and it is the set the public constructor builds from those samples.
        rebuilt = SampleSet(sample_set.samples)
        assert bit_image([PositioningRecord(0, rebuilt, 0.0)]) == bit_image(
            [PositioningRecord(0, sample_set, 0.0)]
        )
    try:
        expected = bit_image(oracle_to_records(PackedRecordBatch.decode(blob)))
    except IndexError:
        pytest.fail("the parent raised IndexError; the decoder must raise ValueError")
    assert bit_image(records) == expected


class TestDecoderFuzz:
    @ARRAY_ID
    def test_every_truncation(self, _container):
        for length in range(len(SEED_BLOB)):
            with pytest.raises(ValueError):
                decode_batch(SEED_BLOB[:length])

    @ARRAY_ID
    @given(extra=st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_over_long(self, extra, _container):
        with pytest.raises(ValueError):
            decode_batch(SEED_BLOB + extra)

    @ARRAY_ID
    def test_every_single_bit_flip(self, _container):
        for position in range(len(SEED_BLOB) * 8):
            damaged = bytearray(SEED_BLOB)
            damaged[position // 8] ^= 1 << (position % 8)
            assert_value_error_or_valid_table(bytes(damaged))

    @ARRAY_ID
    @given(
        edits=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(SEED_BLOB) - 8),
                st.binary(min_size=1, max_size=8),
            ),
            min_size=1, max_size=4,
        )  # fmt: skip
    )
    @settings(max_examples=300, deadline=None)
    def test_overwritten_bytes(self, edits, _container):
        damaged = bytearray(SEED_BLOB)
        for offset, patch in edits:
            damaged[offset : offset + len(patch)] = patch
        assert_value_error_or_valid_table(bytes(damaged))

    @ARRAY_ID
    @pytest.mark.parametrize(
        "counts", [[3, -1], [1, 2], [2, 1], [0, 2], [3, 0], [2**62, 2**62]]
    )
    def test_counts_that_disagree_with_the_data(self, counts, _container):
        rows = [(1, 0.0, [(1, 1.0)]), (2, 1.0, [(2, 1.0)])]
        with pytest.raises(ValueError, match="sample counts disagree"):
            decode_batch(blob_of(rows, counts=counts))
        assert_slices_agree(blob_of(rows, counts=counts))


# ----------------------------------------------------------------------
# Hostile input (every damaged RPK1 payload: tests/test_damage.py)
# ----------------------------------------------------------------------
class TestHostileInput:
    def test_sharded_store_rejects_non_finite_timestamps_before_mutating(self):
        store = ShardedRecordStore(shard_seconds=60.0)
        store.ingest_batch([PositioningRecord(1, SampleSet.certain(3), 10.0)])
        versions = store.shard_versions()
        for timestamp in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                store.ingest_batch(
                    [
                        PositioningRecord(1, SampleSet.certain(3), 70.0),
                        PositioningRecord(1, SampleSet.certain(3), timestamp),
                    ]
                )
        assert len(store) == 1 and store.shard_versions() == versions
