"""Unit tests for the mobility data models (samples, IUPT, trajectories, RFID)."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle

import pytest

from repro.codec import decode_batch, encode_batch
from repro.data import (
    IUPT,
    PositioningRecord,
    RFIDReader,
    RFIDRecord,
    RFIDTable,
    Sample,
    SampleSet,
    Trajectory,
    TrajectoryPoint,
    TrajectoryStore,
)
from repro.geometry import Point
from repro.storage.wal import _legacy_json_records


class TestSampleSet:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SampleSet.from_pairs([(1, 0.3), (2, 0.3)])

    def test_normalise_rescales(self):
        sample_set = SampleSet.from_pairs([(1, 2.0), (2, 2.0)], normalise=True)
        assert sample_set.probability_of(1) == pytest.approx(0.5)

    def test_duplicate_locations_are_merged(self):
        sample_set = SampleSet.from_pairs([(1, 0.4), (1, 0.2), (2, 0.4)])
        assert len(sample_set) == 2
        assert sample_set.probability_of(1) == pytest.approx(0.6)

    def test_most_probable(self):
        sample_set = SampleSet.from_pairs([(1, 0.2), (2, 0.5), (3, 0.3)])
        assert sample_set.most_probable().ploc_id == 2

    def test_above_threshold(self):
        sample_set = SampleSet.from_pairs([(1, 0.2), (2, 0.5), (3, 0.3)])
        assert [s.ploc_id for s in sample_set.above_threshold(0.25)] == [2, 3]

    def test_truncated_keeps_top_and_renormalises(self):
        sample_set = SampleSet.from_pairs([(1, 0.5), (2, 0.3), (3, 0.2)])
        truncated = sample_set.truncated(2)
        assert truncated.plocation_set() == {1, 2}
        assert sum(s.prob for s in truncated) == pytest.approx(1.0)
        assert truncated.probability_of(1) == pytest.approx(0.625)

    def test_truncated_noop_when_small_enough(self):
        sample_set = SampleSet.certain(4)
        assert sample_set.truncated(3) is sample_set

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SampleSet([])

    def test_equality_and_hash(self):
        a = SampleSet.from_pairs([(1, 0.5), (2, 0.5)])
        b = SampleSet.from_pairs([(2, 0.5), (1, 0.5)])
        assert a == b
        assert hash(a) == hash(b)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            Sample(1, -0.2)

    def test_columns_are_ascending_and_final(self):
        sample_set = SampleSet.from_pairs([(7, 1.0), (2, 2.0), (7, 1.0)], normalise=True)
        assert sample_set.ploc_ids == (2, 7)
        assert sample_set.probs == (0.5, 0.5)
        assert len(sample_set) == 2 and sample_set.plocation_set() == {2, 7}

    def test_samples_are_built_on_demand(self):
        sample_set = SampleSet.from_pairs([(2, 0.25), (1, 0.75)])
        assert sample_set.samples == (Sample(1, 0.75), Sample(2, 0.25))
        assert list(sample_set) == list(sample_set.samples)
        assert SampleSet(sample_set.samples) == sample_set
        assert repr(sample_set) == "SampleSet[(p1, 0.750), (p2, 0.250)]"

    def test_pickle_round_trip(self):
        sample_set = SampleSet.from_pairs([(1, 1.0 / 3.0), (5, 2.0 / 3.0)])
        restored = pickle.loads(pickle.dumps(sample_set))
        assert restored == sample_set and hash(restored) == hash(sample_set)
        assert restored.probs == sample_set.probs

    def test_merged_probability_below_tolerance_rejected(self):
        # Each sample is inside Sample's own tolerance; their sum is not.
        with pytest.raises(ValueError):
            SampleSet([Sample(1, -1e-6), Sample(1, -1e-6), Sample(2, 1.0)])

    def test_non_finite_probability_rejected(self):
        nan, inf = float("nan"), float("inf")
        for pairs in (
            [(1, nan)],
            [(1, 0.5), (2, nan)],
            [(1, inf)],
            [(1, inf), (2, 0.5)],
            [(1, 1e308), (2, 1e308)],  # finite samples, infinite mass
        ):
            for normalise in (False, True):
                with pytest.raises(ValueError):
                    SampleSet.from_pairs(pairs, normalise=normalise)

    def test_json_payload_round_trip(self):
        # Nothing writes the JSON record form any more; the reader of older
        # durable directories must still turn a hand-written payload into
        # the record it spelled.
        record = PositioningRecord(4, SampleSet.from_pairs([(3, 0.1), (9, 0.9)]), 12.5)
        payload = [4, 12.5, [[3, 0.1], [9, 0.9]]]
        assert _legacy_json_records(json.loads(json.dumps([payload]))) == [record]
        with pytest.raises(ValueError):
            _legacy_json_records([[4, 12.5, [[3, float("nan")]]]])


class TestPositioningRecord:
    """The record's contract as a frozen, slotted dataclass (3.10 to 3.12 differ there)."""

    def _record(self) -> PositioningRecord:
        return PositioningRecord(-7, SampleSet.from_pairs([(3, 0.25), (9, 0.75)]), 12.5)

    def test_pickle_and_deepcopy_round_trip(self):
        # The decoded twin is built by the codec's trusted constructor.
        for record in (self._record(), *decode_batch(encode_batch([self._record()]))):
            # Protocols 0 and 1 cannot pickle the slotted SampleSet, as ever.
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
                restored = pickle.loads(pickle.dumps(record, protocol))
                assert restored == record and type(restored) is PositioningRecord
            copied = copy.deepcopy(record)
            assert copied == record and copied.sample_set is not record.sample_set

    def test_hashes_and_compares_like_its_field_tuple(self):
        record = self._record()
        fields = (record.object_id, record.sample_set, record.timestamp)
        assert dataclasses.astuple(record) == (-7, record.sample_set, 12.5)
        assert hash(record) == hash(fields)
        twin = PositioningRecord(*fields)
        assert twin == record and twin is not record
        assert record != PositioningRecord(-7, record.sample_set, 13.0)
        assert {record, twin} == {record}

    def test_assignment_is_refused(self):
        record = self._record()
        for name in ("object_id", "sample_set", "timestamp"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
        # A name that is no field is refused too, but the frozen __setattr__
        # of a slotted dataclass raises TypeError for it on some versions.
        with pytest.raises((AttributeError, TypeError)):
            record.extra = None
        assert record == self._record()

    def test_three_slots_and_no_instance_dict(self):
        record = self._record()
        assert PositioningRecord.__slots__ == ("object_id", "sample_set", "timestamp")
        assert not hasattr(record, "__dict__")


class TestIUPT:
    def _build(self) -> IUPT:
        iupt = IUPT()
        for t in range(10):
            iupt.report(object_id=t % 3, sample_set=SampleSet.certain(t), timestamp=float(t))
        return iupt

    def test_range_query_answers_the_closed_window_in_time_order(self):
        table = self._build()
        for window in ((0, 9), (2, 5), (7, 7)):
            rows = table.range_query(*window)
            assert [r.timestamp for r in rows] == list(range(window[0], window[1] + 1))

    def test_sequences_in_groups_by_object_in_time_order(self):
        iupt = self._build()
        sequences = iupt.sequences_in(0, 9)
        assert set(sequences) == {0, 1, 2}
        assert len(sequences[0]) == 4  # reports at t = 0, 3, 6, 9

    def test_with_max_sample_set_size(self):
        iupt = IUPT()
        iupt.report(1, SampleSet.from_pairs([(1, 0.5), (2, 0.3), (3, 0.2)]), 0.0)
        truncated = iupt.with_max_sample_set_size(1)
        record = truncated.range_query(0, 1)[0]
        assert record.plocation_set() == {1}
        assert len(iupt.range_query(0, 1)[0].sample_set) == 3  # original untouched

    def test_summary_and_span(self):
        iupt = self._build()
        assert len(iupt) == 10
        assert iupt.time_span() == (0.0, 9.0)


class TestTrajectory:
    def _trajectory(self) -> Trajectory:
        return Trajectory(
            7,
            [
                TrajectoryPoint(0.0, Point(1, 1), partition_id=0),
                TrajectoryPoint(1.0, Point(2, 1), partition_id=0),
                TrajectoryPoint(2.0, Point(6, 1), partition_id=1),
            ],
        )

    def test_location_at(self):
        trajectory = self._trajectory()
        assert trajectory.location_at(-1.0) is None
        assert trajectory.location_at(0.5) == Point(1, 1)
        assert trajectory.location_at(5.0) == Point(6, 1)
        # An appended point is found like a constructed one.
        trajectory.append(TrajectoryPoint(7.0, Point(9, 1), partition_id=1))
        assert trajectory.location_at(6.9) == Point(6, 1)
        assert trajectory.location_at(7.0) == Point(9, 1)
        assert Trajectory(8).location_at(0.0) is None

    def test_points_in_and_partitions_visited(self):
        trajectory = self._trajectory()
        assert len(trajectory.points_in(0.5, 2.0)) == 2
        visited = {point.partition_id for point in trajectory.points_in(0.0, 2.0)}
        assert visited == {0, 1}

    def test_append_out_of_order_rejected(self):
        trajectory = self._trajectory()
        with pytest.raises(ValueError):
            trajectory.append(TrajectoryPoint(1.5, Point(0, 0)))

    def test_store_visit_counts(self):
        plan_points = [Point(1, 1), Point(6, 1)]
        from tests.test_space import two_room_plan

        plan = two_room_plan().freeze()
        store = TrajectoryStore()
        store.add(self._trajectory())
        counts = store.true_visit_counts(plan, 0.0, 2.0)
        assert counts[0] == 1 and counts[1] == 1
        del plan_points


class TestRFID:
    def test_record_validation(self):
        with pytest.raises(ValueError):
            RFIDRecord(1, 1, ts=5.0, te=1.0)

    def test_table_requires_known_reader(self):
        table = RFIDTable()
        with pytest.raises(ValueError):
            table.append(RFIDRecord(1, 99, 0.0, 1.0))

    def test_records_by_object_sorted(self):
        reader = RFIDReader(0, Point(0, 0), 3.0)
        table = RFIDTable([reader])
        table.extend(
            [
                RFIDRecord(1, 0, 5.0, 6.0),
                RFIDRecord(1, 0, 1.0, 2.0),
                RFIDRecord(2, 0, 0.0, 0.5),
            ]
        )
        grouped = table.records_by_object(0.0, 10.0)
        assert [r.ts for r in grouped[1]] == [1.0, 5.0]
        assert table.object_ids() == [1, 2]

    def test_reader_detects_within_range(self):
        reader = RFIDReader(0, Point(0, 0), 3.0)
        assert reader.detects(Point(2.9, 0))
        assert not reader.detects(Point(3.5, 0))
        assert not reader.detects(Point(0, 0, floor=1))

    def test_records_in_overlap_semantics(self):
        reader = RFIDReader(0, Point(0, 0), 3.0)
        table = RFIDTable([reader])
        table.append(RFIDRecord(1, 0, 10.0, 20.0))
        assert table.records_in(0.0, 9.9) == []
        assert len(table.records_in(15.0, 30.0)) == 1
