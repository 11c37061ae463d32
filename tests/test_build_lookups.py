"""The lookups that build and load a table equal the per-record rules they
replace: the positioning simulator's bucket grid the R-tree window search,
the movement simulator's kept partition ``partition_containing``, and the
store's bisected slices and sorted-batch spans the per-record loops."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.records import PositioningRecord, SampleSet
from repro.data.trajectory import Trajectory
from repro.geometry import Point, Rect
from repro.space import FloorPlan, PartitionKind
from repro.storage import ShardedRecordStore
from repro.storage.sharded import _object_spans
from repro.synth import (
    MovementConfig,
    PositioningConfig,
    RandomWaypointSimulator,
    WkNNPositioningSimulator,
    build_university_floorplan,
    grid_building,
)
from repro.synth.positioning import DISTANCE_EPSILON

PLANS = {  # the campus and stream tables' plans, and both small scales'
    "campus": lambda: grid_building(2, 1, 3),
    "stream": lambda: grid_building(2, 2, 5),
    "synth-small": lambda: grid_building(2, 2, 4),
    "real-small": build_university_floorplan,
}


# ----------------------------------------------------------------------
# Reference points: the bucket grid
# ----------------------------------------------------------------------
def _window_search(simulator, location):
    """The candidates as the R-tree window search and the distance filter
    found them, verbatim."""
    radius = simulator._config.candidate_radius
    plocations = simulator._plan.plocations
    hits = sorted(
        ploc_id
        for ploc_id in simulator._ploc_index.search(Rect.from_point(location, radius))
        if plocations[ploc_id].position.distance_to(location) <= radius
    )
    if not hits:
        hits = [item for _, item in simulator._ploc_index.nearest(location, count=1)]
    return [
        (max(plocations[ploc_id].position.distance_to(location), DISTANCE_EPSILON), ploc_id)
        for ploc_id in hits
    ]


def _probe_points(plan, radius, side, rng):
    """Seeded points over each floor's extent and beyond it, points at exactly
    the radius from reference points along each axis, and points on bucket
    edges and corners."""
    rects = [partition.rect for partition in plan.partitions.values()]
    points = []
    for floor in plan.floors:
        on_floor = [rect for rect in rects if rect.floor == floor]
        xmin, xmax = min(r.xmin for r in on_floor), max(r.xmax for r in on_floor)
        ymin, ymax = min(r.ymin for r in on_floor), max(r.ymax for r in on_floor)
        for _ in range(300):
            x = rng.uniform(xmin - 2 * radius, xmax + 2 * radius)
            y = rng.uniform(ymin - 2 * radius, ymax + 2 * radius)
            points.append(Point(x, y, floor))
        for column in range(math.floor(xmin / side) - 1, math.ceil(xmax / side) + 2):
            for row in range(math.floor(ymin / side) - 1, math.ceil(ymax / side) + 2):
                points.append(Point(column * side, row * side, floor))
                points.append(Point(column * side, rng.uniform(ymin, ymax), floor))
                points.append(Point(rng.uniform(xmin, xmax), row * side, floor))
    for ploc in plan.plocations.values():
        x, y, floor = ploc.position.x, ploc.position.y, ploc.position.floor
        points += [Point(x + dx, y + dy, floor) for dx, dy in
                   ((radius, 0.0), (-radius, 0.0), (0.0, radius), (0.0, -radius))]
    return points


@pytest.mark.parametrize("error", [1.0, 2.1, 2.5, 5.0])
@pytest.mark.parametrize("name", PLANS)
def test_grid_candidates_equal_the_window_search(name, error):
    plan = PLANS[name]()
    simulator = WkNNPositioningSimulator(plan, PositioningConfig(positioning_error=error), seed=1)
    radius = simulator._config.candidate_radius
    points = _probe_points(plan, radius, simulator._bucket_side, random.Random(error))
    at_radius = 0
    for point in points:
        expected = _window_search(simulator, point)
        assert simulator._candidate_plocations(point) == expected, point
        at_radius += any(distance == radius for distance, _ in expected)
    assert at_radius > 0  # the probes reach the radius itself


# ----------------------------------------------------------------------
# Partitions: the last one kept
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", PLANS)
def test_kept_partition_equals_partition_containing(name):
    plan = PLANS[name]()
    config = MovementConfig(dwell_min_seconds=2.0, dwell_max_seconds=20.0)
    store = RandomWaypointSimulator(plan, config, seed=5).simulate(6, 0.0, 900.0)
    on_a_wall = 0
    for trajectory in store:
        for point in trajectory.points:
            location = point.location
            assert point.partition_id == plan.partition_containing(location), location
            containing = [p for p in plan.partitions.values() if p.contains(location)]
            on_a_wall += len(containing) > 1
    assert on_a_wall > 0  # doors and shared walls were recorded


def test_a_point_on_a_shared_wall_asks_the_plan():
    """From inside the larger-id partition onto the wall it shares with a
    smaller-id one: the smaller id, as ``partition_containing`` says."""
    plan = grid_building(1, 1, 2)
    simulator = RandomWaypointSimulator(plan, seed=1)
    left, right = sorted(pid for pid, p in plan.partitions.items() if p.kind is PartitionKind.ROOM)
    wall_x = plan.partitions[right].rect.xmin
    trajectory = Trajectory(0)
    for tick, location in enumerate([Point(wall_x + 3.0, 6.0), Point(wall_x, 6.0),
                                     Point(wall_x + 3.0, 6.0), Point(wall_x, 0.0)]):
        simulator._record(trajectory, float(tick), location)
    assert [point.partition_id for point in trajectory.points] == [
        right, plan.partition_containing(Point(wall_x, 6.0)), right,
        plan.partition_containing(Point(wall_x, 0.0))]
    assert plan.partition_containing(Point(wall_x, 6.0)) == left


def test_overlapping_partitions_are_never_kept():
    plan = FloorPlan()
    first = plan.add_partition(Rect(0.0, 0.0, 10.0, 10.0), PartitionKind.ROOM)
    second = plan.add_partition(Rect(5.0, 0.0, 15.0, 10.0), PartitionKind.ROOM)
    third = plan.add_partition(Rect(15.0, 0.0, 25.0, 10.0), PartitionKind.ROOM)
    plan.freeze()
    simulator = RandomWaypointSimulator(plan, seed=1)
    assert set(simulator._interiors) == {third}
    trajectory = Trajectory(0)
    for tick, x in enumerate([2.0, 7.0, 12.0, 7.0, 20.0, 15.0]):
        simulator._record(trajectory, float(tick), Point(x, 5.0))
    assert [point.partition_id for point in trajectory.points] == [
        first, first, second, first, third, second]


# ----------------------------------------------------------------------
# Ingest: bisected slices and sorted-batch spans
# ----------------------------------------------------------------------
ONE = SampleSet._from_columns((1,), (1.0,))


def _per_record_slices(store, batch):
    """The shard runs as the per-record loop cut them, verbatim."""
    slices = []
    for record in batch:
        key = store.shard_key(record.timestamp)
        if slices and slices[-1][0] == key:
            slices[-1][1].append(record)
        else:
            slices.append((key, [record]))
    return slices


def _per_record_spans(batch):
    """The spans as the per-record running minimum and maximum found them."""
    spans = {}
    for record in batch:
        span = spans.get(record.object_id)
        if span is None:
            spans[record.object_id] = (record.timestamp, record.timestamp)
        else:
            spans[record.object_id] = (min(span[0], record.timestamp),
                                       max(span[1], record.timestamp))
    return tuple((object_id, *spans[object_id]) for object_id in sorted(spans))


@st.composite
def _batches(draw):
    """A shard width and a batch whose timestamps sit on and beside shard
    boundaries (negative ones too), repeat one another and fall anywhere."""
    width = draw(st.sampled_from([600.0, 60.0, 7.5, 1.0, 0.1, 0.3]))
    boundary = st.integers(-6, 6).map(lambda k: k * width)
    beside = boundary.flatmap(lambda t: st.sampled_from(
        [math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]))
    anywhere = st.floats(-6 * width, 6 * width, allow_nan=False)
    pool = draw(st.lists(st.one_of(boundary, beside, anywhere), min_size=1, max_size=8))
    stamps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    objects = draw(st.lists(st.integers(0, 5), min_size=len(stamps), max_size=len(stamps)))
    return width, [PositioningRecord(o, ONE, t) for o, t in zip(objects, stamps)]


@settings(max_examples=300, deadline=None)
@given(_batches())
def test_bisected_slices_and_spans_equal_the_per_record_rules(case):
    width, records = case
    store = ShardedRecordStore(width)
    batch = sorted(records, key=lambda record: record.timestamp)
    times = [record.timestamp for record in batch]
    assert store.slice_batch(batch, times) == _per_record_slices(store, batch)
    assert _object_spans(batch, times) == _per_record_spans(batch)
    receipt = store.ingest_batch(records)
    assert receipt.object_spans == _per_record_spans(batch)
    assert receipt.shards_touched == tuple(key for key, _ in _per_record_slices(store, batch))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_a_non_finite_timestamp_raises_the_per_record_error(bad, where):
    stamps = [0.0, 5.0, 700.0, 1300.0]
    stamps.insert(where, bad)
    records = [PositioningRecord(1, ONE, t) for t in stamps]
    store = ShardedRecordStore(600.0)
    batch = sorted(records, key=lambda record: record.timestamp)
    with pytest.raises(ValueError) as expected:
        _per_record_slices(store, batch)
    with pytest.raises(ValueError) as sliced:
        store.slice_batch(batch, [record.timestamp for record in batch])
    with pytest.raises(ValueError) as ingested:
        store.ingest_batch(records)
    assert str(sliced.value) == str(ingested.value) == str(expected.value)
    assert len(store) == 0 and store.shard_count == 0


def test_finite_timestamps_whose_sum_overflows_are_sliced():
    records = [PositioningRecord(1, ONE, t) for t in (1e308, 1.5e308, 1.7e308)]
    store = ShardedRecordStore(1e300)
    batch = sorted(records, key=lambda record: record.timestamp)
    times = [record.timestamp for record in batch]
    assert store.slice_batch(batch, times) == _per_record_slices(store, batch)
