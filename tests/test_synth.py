"""Tests for the synthetic data generators (building, movement, positioning, RFID)."""

from __future__ import annotations

import pytest

from repro.space import PartitionKind
from repro.synth import (
    BuildingConfig,
    GridBuildingGenerator,
    MovementConfig,
    PositioningConfig,
    RFIDSimulator,
    RandomWaypointSimulator,
    WkNNPositioningSimulator,
    build_university_floorplan,
    university_floor_statistics,
)


class TestBuildingGenerator:
    def test_single_floor_structure(self):
        building = GridBuildingGenerator(
            BuildingConfig(floors=1, room_rows=2, rooms_per_row=3)
        ).generate()
        plan = building.plan
        summary = plan.summary()
        # 6 rooms + 2 row hallways + 1 vertical hallway + 1 staircase.
        assert summary["partitions"] == 10
        assert summary["slocations"] == summary["partitions"]
        assert len(building.room_partitions) == 6
        assert len(building.staircase_partitions) == 1

    def test_multi_floor_staircases_connect_floors(self):
        building = GridBuildingGenerator(
            BuildingConfig(floors=3, room_rows=1, rooms_per_row=2)
        ).generate()
        plan = building.plan
        assert plan.floors == [0, 1, 2]
        cross_floor_doors = [
            door
            for door in plan.doors.values()
            if plan.partitions[door.partition_ids[0]].floor
            != plan.partitions[door.partition_ids[1]].floor
        ]
        assert len(cross_floor_doors) == 2

    def test_guard_fraction_zero_merges_rooms_into_hallway_cell(self):
        from repro.space import derive_cells

        guarded = GridBuildingGenerator(
            BuildingConfig(floors=1, room_rows=1, rooms_per_row=3, door_guard_fraction=1.0)
        ).generate()
        unguarded = GridBuildingGenerator(
            BuildingConfig(floors=1, room_rows=1, rooms_per_row=3, door_guard_fraction=0.0)
        ).generate()
        assert len(derive_cells(unguarded.plan)) < len(derive_cells(guarded.plan))

    def test_partitions_do_not_overlap(self):
        building = GridBuildingGenerator(
            BuildingConfig(floors=1, room_rows=2, rooms_per_row=3)
        ).generate()
        partitions = list(building.plan.partitions.values())
        for i, first in enumerate(partitions):
            for second in partitions[i + 1 :]:
                assert first.rect.intersection_area(second.rect) == pytest.approx(0.0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BuildingConfig(floors=0)
        with pytest.raises(ValueError):
            BuildingConfig(door_guard_fraction=1.5)

    def test_clamped_lattice_covers_thin_and_degenerate_rects(self):
        from repro.geometry import Rect
        from repro.synth.building import clamped_lattice

        thin = clamped_lattice(Rect(0, 28, 60, 32, 1), 6.0)  # 4 m hallway
        assert thin and all(28 < p.y < 32 for p in thin)
        degenerate = clamped_lattice(Rect(5, 5, 5, 9), 6.0)  # zero width
        assert degenerate == [Rect(5, 5, 5, 9).center]

    def test_every_partition_has_presence_plocations(self):
        """Thin hallways must get reference points despite the coarse lattice.

        The default grid step (6 m) exceeds the 4 m hallway width; the
        un-clamped lattice used to leave every hallway without a single
        presence P-location, which made hallway-transiting positioning
        sequences topologically inconsistent and zeroed every flow.
        """
        building = GridBuildingGenerator(
            BuildingConfig(floors=2, room_rows=2, rooms_per_row=5)
        ).generate()
        plan = building.plan
        covered = {
            ploc.partition_id
            for ploc in plan.plocations.values()
            if not ploc.is_partitioning
        }
        assert covered == set(plan.partitions)


class TestDefaultSyntheticFlows:
    """Regression for the ROADMAP open item: the default grid must produce flows.

    The default synthetic scenario used to yield all-zero flows (no presence
    P-locations in the hallways + uniform-random WkNN sampling at a 10 m
    radius made every object's path construction die), so ranking
    comparisons on it were tie-order only.
    """

    def test_default_grid_produces_non_trivial_flows(self):
        from repro.synth import build_synthetic_scenario

        scenario = build_synthetic_scenario(num_objects=8, duration_seconds=300.0)
        flows = scenario.system.flows(
            scenario.iupt,
            scenario.slocation_ids(),
            scenario.start_time,
            scenario.end_time,
        )
        positive = [value for value in flows.values() if value > 1e-6]
        assert len(positive) >= 5, f"expected several non-trivial flows, got {flows}"
        # The ranking must be a real ordering, not a tie-break artefact:
        # the top flows must be meaningfully large and not all identical.
        assert max(positive) > 0.05
        assert len({round(value, 9) for value in positive}) > 1


class TestUniversityFloor:
    def test_structure_matches_paper(self):
        plan = build_university_floorplan()
        summary = university_floor_statistics(plan)
        assert summary["partitions"] == 14  # 9 offices + 5 hallway segments
        assert summary["slocations"] == 14
        assert summary["partitioning_plocations"] == 13
        assert summary["plocations"] > 30

    def test_every_room_reachable(self):
        from repro.space import DoorGraphRouter

        plan = build_university_floorplan()
        router = DoorGraphRouter(plan)
        assert router.reachable_partitions(0) == sorted(plan.partitions)


class TestMovementSimulator:
    def test_trajectories_cover_lifespan_and_stay_indoors(self):
        plan = build_university_floorplan()
        simulator = RandomWaypointSimulator(
            plan, MovementConfig(dwell_min_seconds=5, dwell_max_seconds=20), seed=1
        )
        store = simulator.simulate(object_count=3, start_time=0.0, duration_seconds=120.0)
        assert len(store) == 3
        for trajectory in store:
            assert len(trajectory) > 10
            start, end = trajectory.time_span()
            assert 0.0 <= start < end <= 121.0 + 20.0
            for point in trajectory.points:
                assert point.partition_id is not None

    def test_deterministic_with_seed(self):
        plan = build_university_floorplan()
        config = MovementConfig(dwell_min_seconds=5, dwell_max_seconds=20)
        first = RandomWaypointSimulator(plan, config, seed=5).simulate(2, 0.0, 60.0)
        second = RandomWaypointSimulator(plan, config, seed=5).simulate(2, 0.0, 60.0)
        for a, b in zip(first, second):
            assert a.points == b.points

    def test_invalid_arguments(self):
        plan = build_university_floorplan()
        simulator = RandomWaypointSimulator(plan, seed=1)
        with pytest.raises(ValueError):
            simulator.simulate(0, 0.0, 10.0)
        with pytest.raises(ValueError):
            simulator.simulate(1, 0.0, -5.0)


class TestPositioningSimulator:
    @pytest.fixture(scope="class")
    def trajectories(self):
        plan = build_university_floorplan()
        simulator = RandomWaypointSimulator(
            plan, MovementConfig(dwell_min_seconds=5, dwell_max_seconds=30), seed=3
        )
        return plan, simulator.simulate(4, 0.0, 120.0)

    def test_reports_respect_mss_and_period(self, trajectories):
        plan, store = trajectories
        config = PositioningConfig(max_sample_set_size=3, max_period_seconds=4.0)
        simulator = WkNNPositioningSimulator(plan, config, seed=7)
        iupt = simulator.generate(store, shard_seconds=30.0)
        assert iupt.store.shard_seconds == 30.0
        assert len(iupt) > 0
        for record in iupt.records:
            assert 1 <= len(record.sample_set) <= 3
            assert sum(s.prob for s in record.sample_set) == pytest.approx(1.0)
        for object_id in iupt.object_ids():
            timestamps = [r.timestamp for r in iupt.records_of_object(object_id)]
            gaps = [b - a for a, b in zip(timestamps, timestamps[1:])]
            assert all(gap <= 4.0 + 1e-6 for gap in gaps)

    def test_samples_are_nearby_reference_points(self, trajectories):
        plan, store = trajectories
        config = PositioningConfig(positioning_error=2.0, candidate_radius_factor=1.5)
        simulator = WkNNPositioningSimulator(plan, config, seed=9)
        trajectory = next(iter(store))
        for timestamp, sample_set in simulator.reports_for(trajectory):
            true_location = trajectory.location_at(timestamp)
            for sample in sample_set:
                ploc = plan.plocations[sample.ploc_id]
                assert ploc.position.distance_to(true_location) <= config.candidate_radius + 3.5

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PositioningConfig(max_sample_set_size=0)
        with pytest.raises(ValueError):
            PositioningConfig(min_period_seconds=5.0, max_period_seconds=1.0)


class TestRFIDSimulator:
    def test_reader_ranges_do_not_overlap(self, small_synth_scenario):
        readers = list(small_synth_scenario.rfid.readers.values())
        for i, first in enumerate(readers):
            for second in readers[i + 1 :]:
                if first.position.floor != second.position.floor:
                    continue
                distance = first.position.distance_to(second.position)
                assert distance >= first.detection_range + second.detection_range - 1e-9

    def test_records_reference_known_readers_and_objects(self, small_synth_scenario):
        scenario = small_synth_scenario
        table = scenario.rfid
        object_ids = set(scenario.trajectories.object_ids())
        for record in table.records:
            assert record.reader_id in table.readers
            assert record.object_id in object_ids
            assert record.te >= record.ts

    def test_detection_matches_ground_truth(self, small_synth_scenario):
        """Whenever a record says the object was at a reader, the trajectory agrees."""
        scenario = small_synth_scenario
        table = scenario.rfid
        for record in list(table.records)[:50]:
            reader = table.readers[record.reader_id]
            trajectory = scenario.trajectories.get(record.object_id)
            midpoint = trajectory.location_at((record.ts + record.te) / 2.0)
            assert midpoint is not None
            assert reader.position.distance_to(midpoint) <= reader.detection_range + 2.0
