"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.presence import PresenceComputation
from repro.data import SampleSet
from repro.eval.metrics import kendall_coefficient, recall_at_k
from repro.geometry import Point, Rect
from repro.indexes import BPlusTree, OneDimensionalRTree, RTree
from tests.presence_oracle import candidate_mass, valid_paths

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
coordinates = st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coordinates), draw(coordinates)))
    y1, y2 = sorted((draw(coordinates), draw(coordinates)))
    return Rect(x1, y1, x2, y2)


@st.composite
def sample_sets(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    locations = draw(
        st.lists(st.integers(min_value=0, max_value=30), min_size=size, max_size=size, unique=True)
    )
    weights = draw(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=size, max_size=size)
    )
    pairs = list(zip(locations, weights))
    return SampleSet.from_pairs(pairs, normalise=True)


# ----------------------------------------------------------------------
# Geometry invariants
# ----------------------------------------------------------------------
def contains(outer, inner) -> bool:
    """Whether ``inner`` lies entirely inside ``outer`` (same floor)."""
    return outer.floor == inner.floor and (
        outer.xmin <= inner.xmin
        and outer.ymin <= inner.ymin
        and outer.xmax >= inner.xmax
        and outer.ymax >= inner.ymax
    )


class TestRectProperties:
    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert contains(union, a)
        assert contains(union, b)

    @given(rects(), rects())
    def test_intersection_symmetric_and_contained(self, a, b):
        assert a.intersects(b) == b.intersects(a)
        overlap = a.intersection(b)
        if overlap is not None:
            assert contains(a, overlap)
            assert contains(b, overlap)
            assert overlap.area <= min(a.area, b.area) + 1e-6

    @given(rects())
    def test_expansion_monotone(self, rect):
        assert rect.expanded(1.0).area >= rect.area

    @given(rects(), coordinates, coordinates)
    def test_distance_zero_iff_contained(self, rect, x, y):
        point = Point(x, y)
        distance = rect.distance_to_point(point)
        assert (distance == 0.0) == rect.contains_point(point)


# ----------------------------------------------------------------------
# Index invariants: always agree with brute force
# ----------------------------------------------------------------------
class TestIndexProperties:
    @given(st.lists(rects(), min_size=1, max_size=60), rects())
    @settings(max_examples=40, deadline=None)
    def test_rtree_matches_brute_force(self, rect_list, window):
        items = [(rect, index) for index, rect in enumerate(rect_list)]
        tree = RTree.bulk_load(items)
        expected = sorted(index for rect, index in items if rect.intersects(window))
        assert sorted(tree.search(window)) == expected

    @given(
        st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=1, max_size=200),
        st.floats(min_value=0, max_value=1000),
        st.floats(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_time_indexes_agree(self, timestamps, a, b):
        start, end = min(a, b), max(a, b)
        pairs = sorted(
            ((ts, index) for index, ts in enumerate(timestamps)), key=lambda pair: pair[0]
        )
        rtree = OneDimensionalRTree.from_sorted(pairs, leaf_capacity=8, fanout=4)
        bptree = BPlusTree.bulk_load(pairs, order=8)
        expected = [i for ts, i in pairs if start <= ts <= end]
        assert rtree.range_query(start, end) == expected
        assert bptree.range_query(start, end) == expected


# ----------------------------------------------------------------------
# Data model and presence invariants
# ----------------------------------------------------------------------
class TestSampleSetProperties:
    @given(sample_sets())
    def test_probabilities_normalised(self, sample_set):
        assert sum(s.prob for s in sample_set) == pytest.approx(1.0)

    @given(sample_sets(), st.integers(min_value=1, max_value=4))
    def test_truncation_keeps_most_probable(self, sample_set, mss):
        truncated = sample_set.truncated(mss)
        assert len(truncated) <= mss
        assert sum(s.prob for s in truncated) == pytest.approx(1.0)
        dropped = sample_set.plocation_set() - truncated.plocation_set()
        if dropped:
            max_dropped = max(sample_set.probability_of(loc) for loc in dropped)
            min_kept = min(
                sample_set.probability_of(loc) for loc in truncated.plocation_set()
            )
            assert max_dropped <= min_kept + 1e-9


class TestPresenceProperties:
    @given(sequence=st.lists(sample_sets(), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_presence_always_in_unit_interval(self, figure1, sequence):
        matrix = figure1["matrix"]
        # Remap arbitrary P-location ids onto the Figure 1 ids so the matrix knows them.
        plocs = sorted(figure1["plocs"].values())
        remapped = []
        for sample_set in sequence:
            pairs = [
                (plocs[sample.ploc_id % len(plocs)], sample.prob) for sample in sample_set
            ]
            remapped.append(SampleSet.from_pairs(pairs, normalise=True))
        presence = PresenceComputation(remapped, matrix)
        for cell_id in figure1["graph"].cells:
            assert 0.0 <= presence.presence_in_cell(cell_id) <= 1.0

    @given(sequence=st.lists(sample_sets(), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_presence_never_exceeds_valid_path_mass_share(self, figure1, sequence):
        matrix = figure1["matrix"]
        plocs = sorted(figure1["plocs"].values())
        remapped = [
            SampleSet.from_pairs(
                [(plocs[s.ploc_id % len(plocs)], s.prob) for s in sample_set],
                normalise=True,
            )
            for sample_set in sequence
        ]
        valid_mass = sum(probability for _, probability, _ in valid_paths(remapped, matrix))
        total_mass = candidate_mass(remapped)
        assert valid_mass <= total_mass + 1e-9
        presence = PresenceComputation(remapped, matrix)
        for cell_id in figure1["graph"].cells:
            assert presence.presence_in_cell(cell_id) <= valid_mass / total_mass + 1e-12


# ----------------------------------------------------------------------
# Metric invariants
# ----------------------------------------------------------------------
class TestContinuousProperties:
    """Standing-query maintenance ≡ full recompute, under hypothesis seeds.

    Drives the differential harness of ``tests/test_continuous.py`` with
    hypothesis-chosen stream seeds: every interleaving of ``ingest_batch`` /
    ``evict_before`` / result reads must leave every standing TkPLQ / flow
    result bit-identical to a fresh engine's recompute (or both sides must
    raise ``EvictedRangeError``), on both shard geometries (six shards, one).
    """

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_incremental_matches_full_recompute_one_shard(self, seed):
        from tests.test_continuous import run_differential_interleaving

        run_differential_interleaving(seed, "one-shard")

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_incremental_matches_full_recompute_sharded(self, seed):
        from tests.test_continuous import run_differential_interleaving

        run_differential_interleaving(seed, "sharded")


class TestMetricProperties:
    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=8, unique=True))
    def test_kendall_identity_and_reverse(self, ranking):
        assert kendall_coefficient(ranking, ranking) == pytest.approx(1.0)
        if len(ranking) > 1:
            assert kendall_coefficient(list(reversed(ranking)), ranking) == pytest.approx(-1.0)

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=8, unique=True),
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=8, unique=True),
    )
    def test_kendall_bounded_and_symmetricish(self, a, b):
        value = kendall_coefficient(a, b)
        assert -1.0 <= value <= 1.0
        assert kendall_coefficient(b, a) == pytest.approx(value)

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=8, unique=True),
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=8, unique=True),
    )
    def test_recall_bounded(self, a, b):
        assert 0.0 <= recall_at_k(a, b) <= 1.0
