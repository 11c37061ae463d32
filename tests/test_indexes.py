"""Unit tests for the index substrates (R-tree, COUNT-aggregate R-tree)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.indexes import CountAggregateRTree, RTree
from repro.indexes.aggregate_rtree import CHILDREN, COUNT, ITEM


def _random_rects(count: int, seed: int = 3):
    rng = random.Random(seed)
    rects = []
    for index in range(count):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        rects.append((Rect(x, y, x + rng.uniform(0.5, 5), y + rng.uniform(0.5, 5)), index))
    return rects


def _items_under(entry):
    """Every payload below one aggregate-tree entry (a leaf entry is its own)."""
    if entry[CHILDREN] is None:
        return [entry[ITEM]]
    return [item for child in entry[CHILDREN] for item in _items_under(child)]


def _bounds(rects):
    """``(Rect, item)`` pairs as the ``(xmin, ymin, xmax, ymax, floor, item)``
    bounds :meth:`CountAggregateRTree.build` packs."""
    return [(r.xmin, r.ymin, r.xmax, r.ymax, r.floor, item) for r, item in rects]


class TestRTree:
    def test_search_entries_pair_each_item_with_its_mbr(self):
        items = _random_rects(200)
        tree = RTree.bulk_load(items)
        assert len(tree) == 200
        window = Rect(20, 20, 40, 40)
        expected = sorted((key, rect) for rect, key in items if rect.intersects(window))
        assert sorted((key, rect) for rect, key in tree.search_entries(window)) == expected

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

    def test_nearest_equals_brute_force_on_a_multi_floor_plan(self):
        """The positioning fallback's query over a plan's P-locations: a node
        spanning floors (floor ``-1``) must be expanded by its planar distance,
        not popped after every farther entry."""
        from repro.synth import grid_building

        plan = grid_building(3, 2, 4)
        positions = {ploc.ploc_id: ploc.position for ploc in plan.plocations.values()}
        tree = RTree.bulk_load((Rect.from_point(p), ploc_id) for ploc_id, p in positions.items())
        assert tree.root.mbr.floor == -1
        rng = random.Random(11)
        for _ in range(300):
            point = Point(rng.uniform(-5.0, 70.0), rng.uniform(-5.0, 40.0), rng.randrange(3))
            [(distance, _)] = tree.nearest(point, count=1)
            assert distance == min(p.distance_to(point) for p in positions.values())

    def test_empty_tree(self):
        tree = RTree.bulk_load([])
        assert len(tree) == 0
        assert tree.search(Rect(0, 0, 1, 1)) == []
        assert tree.nearest(Point(0, 0)) == []

    def test_height_grows_with_size(self):
        small = RTree.bulk_load(_random_rects(5))
        large = RTree.bulk_load(_random_rects(500))
        assert large.height > small.height

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            RTree.bulk_load([], max_entries=2)

    def test_entries_on_different_floors_do_not_mix(self):
        tree = RTree.bulk_load(
            [(Rect(0, 0, 10, 10, floor=0), "ground"), (Rect(0, 0, 10, 10, floor=1), "first")]
        )
        assert tree.search(Rect(1, 1, 2, 2, floor=0)) == ["ground"]
        assert tree.search(Rect(1, 1, 2, 2, floor=1)) == ["first"]
        # Deeper, with node MBRs spanning both floors (floor -1).
        items = [
            (Rect(rect.xmin, rect.ymin, rect.xmax, rect.ymax, index % 2), index)
            for rect, index in _random_rects(60, seed=5)
        ]
        tree = RTree.bulk_load(items, max_entries=4)
        assert tree.height > 2 and tree.root.mbr.floor == -1
        for floor in (0, 1):
            window = Rect(10, 10, 90, 90, floor)
            expected = sorted(key for rect, key in items if rect.intersects(window))
            assert expected and all(key % 2 == floor for key in expected)
            assert sorted(tree.search(window)) == expected


class TestCountAggregateRTree:
    def test_counts_match_subtrees(self):
        tree = CountAggregateRTree.build(_bounds(_random_rects(60, seed=4)), max_entries=4)
        assert tree.count == 60
        root_entries = tree.root_entries
        assert sum(entry[COUNT] for entry in root_entries) == 60
        for entry in root_entries:
            assert len(_items_under(entry)) == entry[COUNT]
        assert sorted(item for e in root_entries for item in _items_under(e)) == list(range(60))

    def test_empty_tree(self):
        tree = CountAggregateRTree.build([])
        assert tree.count == 0
        assert tree.root_entries == ()

    def test_leaf_entries_have_count_one(self):
        tree = CountAggregateRTree.build(_bounds(_random_rects(3)), max_entries=4)
        for entry in tree.root_entries:
            assert entry[COUNT] == 1
            assert entry[CHILDREN] is None

    def test_fanout_below_four_is_refused(self):
        with pytest.raises(ValueError, match="at least 4"):
            CountAggregateRTree.build(_bounds(_random_rects(9)), max_entries=3)

    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(min_value=0, max_value=150),
        floors=st.integers(min_value=1, max_value=3),
        fanout=st.sampled_from((4, 8)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_packs_the_shape_rtree_bulk_load_packs(self, count, floors, fanout, seed):
        """Packed straight into count-annotated entries, the tree has the
        nodes, order and bounds (floor -1 on a node spanning floors) that
        ``RTree.bulk_load`` gives the same rectangles — Algorithm 4's heap
        order depends on it."""
        rng = random.Random(seed)
        items = []
        for index in range(count):
            x, y = rng.choice((0.0, 10.0, rng.uniform(0, 100))), rng.uniform(0, 100)
            rect = Rect(x, y, x + rng.choice((0.0, 10.0, rng.uniform(0.5, 30))), y + 5.0,
                        rng.randrange(floors))
            items.append((rect, index))

        def box(rect):
            return (rect.xmin, rect.ymin, rect.xmax, rect.ymax, rect.floor)

        def rtree_shape(node):
            if node.is_leaf:
                return [(box(entry.mbr), entry.item) for entry in node.entries]
            return [(box(child.mbr), rtree_shape(child)) for child in node.children]

        def aggregate_shape(entries):
            return [
                (entry[:5], aggregate_shape(entry[CHILDREN]) if entry[CHILDREN] else entry[ITEM])
                for entry in entries
            ]

        rtree = RTree.bulk_load(items, max_entries=fanout)
        tree = CountAggregateRTree.build(_bounds(items), max_entries=fanout)
        assert aggregate_shape(tree.root_entries) == rtree_shape(rtree.root)
        assert tree.count == count


def _predicate_walk(tree, window):
    """The search as a walk calling ``loose_intersects`` per node and
    ``Rect.intersects`` per entry: the order :meth:`RTree.search` keeps."""
    from repro.indexes.rtree import loose_intersects

    results, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        if not loose_intersects(node.mbr, window):
            continue
        if node.is_leaf:
            results.extend(e.item for e in node.entries if e.mbr.intersects(window))
        else:
            stack.extend(node.children)
    return results


def _plan_trees(plan):
    """The plan's three kinds of indexed geometry: partitions, S-locations
    and P-locations (as point MBRs, the positioning simulator's tree)."""
    return {
        "partitions": [(p.rect, p.partition_id) for p in plan.partitions.values()],
        "slocations": [(s.region, s.sloc_id) for s in plan.slocations.values()],
        "plocations": [(Rect.from_point(p.position), p.ploc_id) for p in plan.plocations.values()],
    }


def _probe_points(plan, rng, count):
    """Random points on and off the plan, plus every partition corner and
    door (points on shared borders, where two partitions contain a point)."""
    points = [
        Point(rng.uniform(-5.0, 70.0), rng.uniform(-5.0, 40.0), rng.randrange(-1, len(plan.floors)))
        for _ in range(count)
    ]
    for partition in plan.partitions.values():
        r = partition.rect
        points += [Point(x, y, r.floor) for x in (r.xmin, r.xmax) for y in (r.ymin, r.ymax)]
    return points + [door.position for door in plan.doors.values()]


@pytest.mark.parametrize("floors, fanout", [(2, 4), (2, 8), (3, 4), (3, 8)])
def test_search_equals_brute_force_on_grid_plans(floors, fanout):
    """Random windows and points on 2- and 3-floor plans, whose trees have
    nodes spanning floors (floor ``-1``): the one-loop search returns what a
    scan of every entry returns, in the predicate-per-node walk's order."""
    from repro.synth import grid_building

    plan = grid_building(floors, 2, 4)
    rng = random.Random(floors * 100 + fanout)
    for name, items in _plan_trees(plan).items():
        tree = RTree.bulk_load(items, max_entries=fanout)
        mbr_of = {item: rect for rect, item in items}
        assert tree.root.mbr.floor == -1, name
        for _ in range(200):
            x, y = rng.uniform(-5.0, 70.0), rng.uniform(-5.0, 40.0)
            window = Rect(x, y, x + rng.choice((0.0, rng.uniform(0.0, 30.0))),
                          y + rng.uniform(0.0, 15.0), rng.randrange(-1, floors))
            expected = [item for rect, item in items if rect.intersects(window)]
            found = tree.search(window)
            assert sorted(found) == sorted(expected)
            assert found == _predicate_walk(tree, window)
            assert tree.search_entries(window) == [(mbr_of[item], item) for item in found]
        for point in _probe_points(plan, rng, 200):
            assert tree.search_point(point) == _predicate_walk(tree, Rect.from_point(point))
            assert sorted(tree.search_point(point)) == sorted(
                item for rect, item in items if rect.contains_point(point)
            )


@pytest.mark.parametrize("floors", [2, 3])
def test_plan_lookups_equal_their_linear_scan_fallbacks(floors):
    """``partition_containing`` / ``slocations_containing`` through the
    frozen plan's trees answer what the unfrozen plan's scans answer."""
    from repro.synth import grid_building

    plan = grid_building(floors, 2, 4)
    for point in _probe_points(plan, random.Random(floors), 500):
        scanned = next(
            (p.partition_id for p in plan.partitions.values() if p.contains(point)), None
        )
        assert plan.partition_containing(point) == scanned
        assert plan.slocations_containing(point) == sorted(
            s.sloc_id for s in plan.slocations.values() if s.contains(point)
        )
