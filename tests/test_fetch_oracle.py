"""The bisect-and-slice window fetch against the parent's per-shard-tree fetch.

``tests/fetch_oracle.py`` holds the parent commit's ``range_query`` and
``sequences_in``.  One property drives random tables — timestamp ties inside
and across batches, late batches, several shards, an eviction — and random
windows (endpoints on record timestamps and shard edges, ``start == end``,
empty, one to four shards wide) through

(i)   a store fed by ``ingest_batch``,
(ii)  the same table adopted packed (``load_shard_packed``) and probed in
      random order with repeats, and
(iii) a packed prefix of the table, partly materialised by probes, that then
      absorbs the remaining batches,

and requires the oracle's rows in the oracle's order from each, the oracle's
``sequences_in`` dict with the same key order and the same ``SampleSet``
objects, version tokens no probe moves, and a lazily loaded store that builds
each record at most once and none that no probe covered.  Sliced
``to_records`` is held to ``tests/codec_oracle.py``'s whole-batch rows.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IUPT
from repro.codec import PackedRecordBatch
from repro.data.records import PositioningRecord, Sample, SampleSet
from repro.storage import EvictedRangeError, ShardedRecordStore
from tests.codec_oracle import oracle_to_records
from tests.fetch_oracle import oracle_range_query, oracle_sequences_in
from tests.test_codec_oracle import ARRAY_ID, bit_image, blob_of, sample_columns

SHARD = 10.0
EVICTED = "evicted"

#: A 2.5-s grid makes ties and hits shard edges (0, 10, 20, 30); the rest is off-grid.
_GRID = [step * 2.5 for step in range(16)]
_times = st.one_of(
    st.sampled_from(_GRID),
    st.floats(min_value=0.0, max_value=39.99).map(lambda t: round(t, 2)),
)
_record_specs = st.tuples(
    st.integers(min_value=0, max_value=4),  # object id
    _times,
    st.integers(min_value=0, max_value=8),  # first ploc
    st.sampled_from([1.0, 0.5, 1.0 / 3.0, 0.1]),  # its probability
)
_batches = st.lists(
    st.lists(_record_specs, min_size=1, max_size=12), min_size=1, max_size=6
)
_edges = st.one_of(
    st.sampled_from([step * 2.5 for step in range(-1, 18)]),
    st.floats(min_value=-1.0, max_value=45.0).map(lambda t: round(t, 2)),
)
_windows = st.lists(
    st.tuples(_edges, _edges).map(lambda pair: (min(pair), max(pair))),
    min_size=1,
    max_size=8,
)


def build(batch_specs):
    """Fresh record objects, one ``SampleSet`` each, batch by batch."""
    batches = []
    for specs in batch_specs:
        batch = []
        for object_id, timestamp, ploc, prob in specs:
            pairs = [(ploc, prob)] if prob == 1.0 else [(ploc, prob), (ploc + 9, 1.0 - prob)]
            batch.append(PositioningRecord(object_id, SampleSet.from_pairs(pairs), timestamp))
        batches.append(batch)
    return batches


def fed_store(batches) -> ShardedRecordStore:
    store = ShardedRecordStore(shard_seconds=SHARD)
    for batch in batches:
        store.ingest_batch(batch)
    return store


def adopt(source: ShardedRecordStore) -> ShardedRecordStore:
    """``source``'s table as a recovery would load it: packed, nothing built."""
    store = ShardedRecordStore(shard_seconds=SHARD)
    for key, version, packed in source.packed_shard_states():
        store.load_shard_packed(key, PackedRecordBatch.decode(packed.encode()), version)
    return store


def outcome(fetch, window):
    try:
        return fetch(*window)
    except EvictedRangeError:
        return EVICTED


def assert_rows(found, expected, window) -> None:
    if expected is EVICTED or found is EVICTED:
        assert found is expected, window
    else:
        assert bit_image(found) == bit_image(expected), window


def assert_same_sequences(table: IUPT, reference: IUPT, window) -> None:
    """The one-pass grouping against the parent's, on the same table and rows."""
    found = table.sequences_in(*window)
    expected = oracle_sequences_in(table, *window)
    assert list(found) == list(expected) == sorted(found), window
    for object_id, sequence in expected.items():
        assert len(found[object_id]) == len(sequence), window
        assert all(a is b for a, b in zip(found[object_id], sequence)), window
    assert found == oracle_sequences_in(reference, *window), window


class TestAgainstOracle:
    @ARRAY_ID
    @given(
        batch_specs=_batches,
        split=st.integers(min_value=0, max_value=6),
        evict_cut=st.none() | st.sampled_from([10.0, 12.5, 20.0, 30.0]),
        windows=_windows,
        probe_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_store_answers_like_the_oracle(
        self, batch_specs, split, evict_cut, windows, probe_seed, _container
    ):
        batches = build(batch_specs)
        split = min(split, len(batches))
        reference = fed_store(batches)  # read by the oracle only
        fed = fed_store(batches)  # (i)
        adopted = adopt(fed)  # (ii)
        prefix = fed_store(batches[:split])
        partial = adopt(prefix)  # (iii)

        # (iii) is probed while it holds the prefix, then absorbs the rest:
        # in-order slices are appended, late ones merge-sorted in.
        loaded_packed = len(partial)
        for window in windows[:3]:
            assert_rows(
                partial.range_query(*window), oracle_range_query(prefix, *window), window
            )
        for batch in batches[split:]:
            partial.ingest_batch(batch)
        assert partial.shard_versions() == fed.shard_versions()

        stores = (reference, fed, adopted, partial)
        if evict_cut is not None:
            assert len({store.evict_before(evict_cut) for store in stores}) == 1
        tokens = [store.version_token() for store in stores]
        assert len({token[1] for token in tokens}) == 1

        expected = {
            window: outcome(lambda *w: oracle_range_query(reference, *w), window)
            for window in windows
        }
        for window, rows in expected.items():
            found = outcome(fed.range_query, window)
            if rows is EVICTED:
                assert found is EVICTED, window
            else:  # the very objects that were ingested, in the oracle's order
                assert len(found) == len(rows), window
                assert all(a is b for a, b in zip(found, rows)), window
            assert_rows(outcome(partial.range_query, window), rows, window)

        # (ii): random order, every window at least twice.
        probes = list(windows) * 2
        random.Random(probe_seed).shuffle(probes)
        handed_out = []
        for window in probes:
            found = outcome(adopted.range_query, window)
            assert_rows(found, expected[window], window)
            if found is not EVICTED:
                handed_out.extend(found)
        covered = {
            id(record)
            for rows in expected.values()
            if rows is not EVICTED
            for record in rows
        }
        summary = adopted.describe()
        assert summary["records_materialised"] == len(covered) <= len(adopted)
        assert summary["shards_unmaterialised"] == sum(
            1
            for shard in reference._shards.values()
            if any(id(record) not in covered for record in shard.records)
        )

        table, reference_table = IUPT(store=adopted), IUPT(store=reference)
        for window, rows in expected.items():
            if rows is not EVICTED:
                assert_same_sequences(table, reference_table, window)
                assert_same_sequences(IUPT(store=fed), reference_table, window)
        assert adopted.describe()["records_materialised"] == len(covered)

        # A full read fills what is missing and keeps what was handed out.
        everything = adopted.records_in_time_order()
        assert bit_image(everything) == bit_image(reference.records_in_time_order())
        assert bit_image(partial.records_in_time_order()) == bit_image(everything)
        assert {id(record) for record in handed_out} <= {id(record) for record in everything}
        assert adopted.describe()["records_materialised"] == len(adopted)
        assert adopted.describe()["shards_unmaterialised"] == 0
        assert partial.records_materialised <= loaded_packed
        assert [store.version_token() for store in stores] == tokens

    def test_partly_built_shard_absorbs_in_order_and_late_batches(self):
        # The case (iii) must reach, spelled out: probe, append, merge.
        batches = build(
            [
                [(0, 1.0, 1, 0.5), (1, 2.5, 2, 1.0), (0, 2.5, 3, 0.1), (2, 7.5, 4, 1.0)],
                [(3, 7.5, 5, 0.5), (1, 9.0, 6, 1.0)],  # in order, ties the last record
                [(4, 2.5, 7, 1.0), (0, 0.5, 8, 0.5)],  # late, ties inside the shard
            ]
        )
        store = adopt(fed_store(batches[:1]))
        first = store.range_query(2.0, 3.0)
        assert [r.object_id for r in first] == [1, 0]
        assert store.records_materialised == 2
        store.ingest_batch(batches[1])
        store.ingest_batch(batches[2])
        assert store.records_materialised == 4  # the absorb filled the other two
        rows = store.range_query(0.0, 9.5)
        assert [(r.object_id, r.timestamp) for r in rows] == [
            (0, 0.5), (0, 1.0), (1, 2.5), (0, 2.5), (4, 2.5), (2, 7.5), (3, 7.5), (1, 9.0),
        ]  # fmt: skip
        assert rows[2] is first[0] and rows[3] is first[1]
        assert bit_image(rows) == bit_image(oracle_range_query(fed_store(batches), 0.0, 9.5))
        assert store.shard_versions() == {0: 3}


# ----------------------------------------------------------------------
# to_records(lo, hi) == the parent's to_records()[lo:hi]
# ----------------------------------------------------------------------
def _constructible(samples) -> bool:
    try:
        SampleSet(Sample(ploc, prob) for ploc, prob in samples)
    except ValueError:
        return False
    return True


_accepted_rows = st.lists(
    st.tuples(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=False, allow_infinity=False),
        sample_columns().filter(_constructible),
    ),
    max_size=8,
)


class TestSlicedMaterialisation:
    @ARRAY_ID
    @given(rows=_accepted_rows)
    @settings(max_examples=200, deadline=None)
    def test_every_slice_equals_the_oracles_slice(self, rows, _container):
        batch = PackedRecordBatch.decode(blob_of(rows))
        whole = bit_image(oracle_to_records(batch))
        assert bit_image(batch.to_records()) == whole
        for lo in range(len(rows) + 1):
            assert bit_image(batch.to_records(lo)) == whole[lo:]
            for hi in range(lo, len(rows) + 1):
                assert bit_image(batch.to_records(lo, hi)) == whole[lo:hi], (lo, hi)

    def test_counts_are_checked_before_any_slice_is_built(self):
        # Record 0 is sound on its own; the batch is not.
        rows = [(1, 0.0, [(1, 1.0)]), (2, 1.0, [(2, 1.0)])]
        batch = PackedRecordBatch.decode(blob_of(rows, counts=[1, 2]))
        for lo, hi in ((0, 0), (0, 1), (1, 2), (0, 2)):
            with pytest.raises(ValueError, match="sample counts disagree"):
                batch.to_records(lo, hi)
