"""Unit tests for the index substrates (R-tree, aggregate R-tree, 1D R-tree, B+-tree)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.indexes import (
    BPlusTree,
    CountAggregateRTree,
    OneDimensionalRTree,
    RTree,
)


def _random_rects(count: int, seed: int = 3):
    rng = random.Random(seed)
    rects = []
    for index in range(count):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        rects.append((Rect(x, y, x + rng.uniform(0.5, 5), y + rng.uniform(0.5, 5)), index))
    return rects


class TestRTree:
    def test_insert_and_search(self):
        tree = RTree()
        items = _random_rects(200)
        for rect, key in items:
            tree.insert(rect, key)
        assert len(tree) == 200
        window = Rect(20, 20, 40, 40)
        expected = sorted(key for rect, key in items if rect.intersects(window))
        assert sorted(tree.search(window)) == expected

    def test_bulk_load_matches_brute_force(self):
        items = _random_rects(300, seed=9)
        tree = RTree.bulk_load(items)
        assert len(tree) == 300
        for window in (Rect(0, 0, 10, 10), Rect(50, 50, 80, 80), Rect(95, 95, 100, 100)):
            expected = sorted(key for rect, key in items if rect.intersects(window))
            assert sorted(tree.search(window)) == expected

    def test_search_point(self):
        tree = RTree.bulk_load([(Rect(0, 0, 10, 10), "a"), (Rect(5, 5, 15, 15), "b")])
        assert sorted(tree.search_point(Point(7, 7))) == ["a", "b"]
        assert tree.search_point(Point(20, 20)) == []

    def test_nearest(self):
        items = [(Rect.from_point(Point(float(i), 0.0)), i) for i in range(10)]
        tree = RTree.bulk_load(items)
        nearest = tree.nearest(Point(3.2, 0.0), count=2)
        assert [item for _, item in nearest] == [3, 4]

    def test_empty_tree(self):
        tree = RTree()
        assert tree.search(Rect(0, 0, 1, 1)) == []
        assert tree.nearest(Point(0, 0)) == []

    def test_height_grows_with_size(self):
        small = RTree.bulk_load(_random_rects(5))
        large = RTree.bulk_load(_random_rects(500))
        assert large.height > small.height

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=2)

    def test_entries_on_different_floors_do_not_mix(self):
        tree = RTree()
        tree.insert(Rect(0, 0, 10, 10, floor=0), "ground")
        tree.insert(Rect(0, 0, 10, 10, floor=1), "first")
        assert tree.search(Rect(1, 1, 2, 2, floor=0)) == ["ground"]
        assert tree.search(Rect(1, 1, 2, 2, floor=1)) == ["first"]


class TestCountAggregateRTree:
    def test_counts_match_subtrees(self):
        tree = CountAggregateRTree(max_entries=4)
        items = _random_rects(60, seed=4)
        tree.extend(items)
        tree.build()
        assert tree.total_count() == 60
        root_entries = tree.root_entries()
        assert sum(entry.count for entry in root_entries) == 60
        for entry in root_entries:
            assert len(tree.items_under(entry)) == entry.count

    def test_empty_tree(self):
        tree = CountAggregateRTree()
        assert tree.total_count() == 0
        assert tree.root_entries() == []

    def test_leaf_entries_have_count_one(self):
        tree = CountAggregateRTree(max_entries=4)
        tree.extend(_random_rects(3))
        tree.build()
        for entry in tree.root_entries():
            assert entry.count == 1
            assert entry.is_leaf_entry


class TestOneDimensionalRTree:
    def test_range_query_matches_filter(self):
        rng = random.Random(7)
        tree: OneDimensionalRTree[int] = OneDimensionalRTree(leaf_capacity=8, fanout=4)
        records = [(rng.uniform(0, 1000), i) for i in range(500)]
        for ts, value in records:
            tree.insert(ts, value)
        assert len(tree) == 500
        for start, end in ((0, 100), (250, 260), (990, 1000), (400, 400)):
            expected = [v for ts, v in sorted(records) if start <= ts <= end]
            assert tree.range_query(start, end) == expected

    def test_results_in_time_order(self):
        tree: OneDimensionalRTree[str] = OneDimensionalRTree(leaf_capacity=4)
        for ts, name in [(5.0, "e"), (1.0, "a"), (3.0, "c"), (2.0, "b"), (4.0, "d")]:
            tree.insert(ts, name)
        assert tree.range_query(0, 10) == ["a", "b", "c", "d", "e"]

    @given(
        stamps=st.lists(st.integers(min_value=0, max_value=12), max_size=60),
        later=st.lists(st.integers(min_value=0, max_value=12), max_size=10),
        leaf_capacity=st.sampled_from([2, 3, 64]),  # deep trees and a single leaf
        windows=st.lists(
            st.tuples(
                st.integers(min_value=-1, max_value=13),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=1, max_size=6,
        ),  # fmt: skip
    )
    @settings(max_examples=200, deadline=None)
    def test_traversal_answers_in_time_order_with_arrival_ties(
        self, stamps, later, leaf_capacity, windows
    ):
        # The traversal's own result is the answer (it used to be discarded
        # for a bisect over a rebuilt key list): same rows, same order as a
        # stable sort of the arrivals — ties, inserts after a query included.
        tree: OneDimensionalRTree[int] = OneDimensionalRTree(
            leaf_capacity=leaf_capacity, fanout=2
        )
        arrivals = []

        def check():
            for start, width in windows:
                end = start + width
                in_window = [pair for pair in arrivals if start <= pair[0] <= end]
                expected = [v for _, v in sorted(in_window, key=lambda pair: pair[0])]
                assert tree.range_query(start, end) == expected
                assert tree.count_in_range(start, end) == len(expected)

        for stamp in stamps:
            tree.insert(float(stamp), len(arrivals))
            arrivals.append((float(stamp), len(arrivals)))
        check()
        for stamp in later:  # the tree and its key column are stale now
            tree.insert(float(stamp), len(arrivals))
            arrivals.append((float(stamp), len(arrivals)))
        check()

    def test_invalid_interval(self):
        tree: OneDimensionalRTree[int] = OneDimensionalRTree()
        with pytest.raises(ValueError):
            tree.range_query(5, 1)

    def test_count_in_range(self):
        tree: OneDimensionalRTree[int] = OneDimensionalRTree()
        tree.bulk_load([(float(i), i) for i in range(100)])
        assert tree.count_in_range(10, 19) == 10

    def test_time_span(self):
        tree: OneDimensionalRTree[int] = OneDimensionalRTree()
        assert tree.time_span == (float("inf"), float("-inf"))
        tree.insert(4.0, 1)
        tree.insert(2.0, 2)
        assert tree.time_span == (2.0, 4.0)

    def test_from_sorted_matches_insert_built(self):
        rng = random.Random(3)
        pairs = sorted(
            ((round(rng.uniform(0, 100), 1), i) for i in range(300)),
            key=lambda pair: pair[0],
        )
        inserted: OneDimensionalRTree[int] = OneDimensionalRTree(
            leaf_capacity=8, fanout=4
        )
        for ts, value in pairs:
            inserted.insert(ts, value)
        bulk = OneDimensionalRTree.from_sorted(pairs, leaf_capacity=8, fanout=4)
        assert len(bulk) == len(inserted)
        assert bulk.height == inserted.height
        for window in ((0, 100), (25.5, 30.5), (99.9, 99.9)):
            assert bulk.range_query(*window) == inserted.range_query(*window)

    def test_from_sorted_empty(self):
        tree = OneDimensionalRTree.from_sorted([])
        assert len(tree) == 0
        assert tree.range_query(0, 10) == []


class TestBPlusTree:
    def test_range_query_matches_filter(self):
        rng = random.Random(13)
        tree: BPlusTree[int] = BPlusTree(order=8)
        records = [(round(rng.uniform(0, 100), 2), i) for i in range(400)]
        for key, value in records:
            tree.insert(key, value)
        assert len(tree) == 400
        for start, end in ((0, 10), (45.5, 55.5), (99, 100)):
            expected = sorted(
                (key, value) for key, value in records if start <= key <= end
            )
            assert tree.range_query(start, end) == [value for _, value in expected]

    def test_duplicate_keys(self):
        tree: BPlusTree[str] = BPlusTree()
        tree.insert(1.0, "a")
        tree.insert(1.0, "b")
        assert tree.get(1.0) == ["a", "b"]
        assert tree.get(2.0) == []

    def test_items_sorted(self):
        tree: BPlusTree[int] = BPlusTree(order=4)
        for key in (9.0, 1.0, 5.0, 3.0, 7.0):
            tree.insert(key, int(key))
        assert [key for key, _ in tree.items()] == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_height_grows(self):
        tree: BPlusTree[int] = BPlusTree(order=4)
        for i in range(200):
            tree.insert(float(i), i)
        assert tree.height >= 3

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_bulk_load_matches_insert_built(self):
        rng = random.Random(21)
        pairs = sorted(
            ((round(rng.uniform(0, 50), 1), i) for i in range(400)),
            key=lambda pair: pair[0],
        )
        inserted: BPlusTree[int] = BPlusTree(order=8)
        for key, value in pairs:
            inserted.insert(key, value)
        bulk = BPlusTree.bulk_load(pairs, order=8)
        assert len(bulk) == len(inserted)
        assert list(bulk.items()) == list(inserted.items())
        for window in ((0, 50), (12.5, 13.5), (49.9, 50.0), (7.0, 7.0)):
            assert bulk.range_query(*window) == inserted.range_query(*window)

    def test_bulk_load_groups_duplicates_in_order(self):
        bulk = BPlusTree.bulk_load([(1.0, "a"), (1.0, "b"), (2.0, "c")], order=4)
        assert bulk.get(1.0) == ["a", "b"]
        assert len(bulk) == 3

    def test_bulk_load_empty(self):
        bulk: BPlusTree[int] = BPlusTree.bulk_load([])
        assert len(bulk) == 0
        assert bulk.range_query(0, 10) == []

    def test_bulk_loaded_tree_accepts_further_inserts(self):
        bulk = BPlusTree.bulk_load(((float(i), i) for i in range(100)), order=8)
        bulk.insert(50.5, 999)
        assert 999 in bulk.range_query(50, 51)
        assert len(bulk) == 101
