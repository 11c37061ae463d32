"""Tests for the SC / SC-ρ, MC, SCC, and UR comparison baselines."""

from __future__ import annotations

import pytest

from repro import (
    MonteCarlo,
    SemiConstrainedCounting,
    SimpleCounting,
    TkPLQuery,
    UncertaintyRegionFlow,
)
from repro.core import DataReductionConfig, FlowComputer


class TestSimpleCounting:
    def test_counts_objects_once_per_location(self, figure1, figure1_iupt):
        plan, slocs = figure1["plan"], figure1["slocs"]
        query = TkPLQuery.build(sorted(slocs.values()), 2, 1.0, 8.0)
        result = SimpleCounting(plan).search(figure1_iupt, query)
        # Flows are integer counts bounded by the number of objects (3).
        for flow in result.flows.values():
            assert flow == int(flow)
            assert 0 <= flow <= 3

    def test_threshold_variant_counts_more_samples(self, figure1, figure1_iupt):
        plan, slocs = figure1["plan"], figure1["slocs"]
        query = TkPLQuery.build(sorted(slocs.values()), 2, 1.0, 8.0)
        plain = SimpleCounting(plan).search(figure1_iupt, query)
        thresholded = SimpleCounting(plan, threshold=0.05).search(figure1_iupt, query)
        assert sum(thresholded.flows.values()) >= sum(plain.flows.values())

    def test_invalid_threshold(self, figure1):
        with pytest.raises(ValueError):
            SimpleCounting(figure1["plan"], threshold=1.5)

    def test_runs_on_scenario(self, small_real_scenario):
        scenario = small_real_scenario
        query = TkPLQuery.build(
            scenario.slocation_ids(), 3, scenario.start_time, scenario.end_time
        )
        result = SimpleCounting(scenario.plan).search(scenario.iupt, query)
        assert len(result.ranking) == 3


class TestMonteCarlo:
    def test_deterministic_with_seed(self, figure1, figure1_iupt):
        computer = FlowComputer(
            figure1["graph"], figure1["matrix"], DataReductionConfig.disabled()
        )
        slocs = figure1["slocs"]
        query = TkPLQuery.build(sorted(slocs.values()), 2, 1.0, 8.0)
        first = MonteCarlo(computer, rounds=50, seed=3).search(figure1_iupt, query)
        second = MonteCarlo(computer, rounds=50, seed=3).search(figure1_iupt, query)
        assert first.flows == second.flows

    def test_converges_towards_exact_flow(self, figure1, figure1_iupt, figure1_engine_exact):
        slocs = figure1["slocs"]
        query = TkPLQuery.build(sorted(slocs.values()), 2, 1.0, 8.0)
        computer = FlowComputer(
            figure1["graph"], figure1["matrix"], DataReductionConfig.disabled()
        )
        mc = MonteCarlo(computer, rounds=400, seed=11).search(figure1_iupt, query)
        exact_r6 = figure1_engine_exact.flow(figure1_iupt, slocs["r6"], 1.0, 8.0).flow
        assert mc.flows[slocs["r6"]] == pytest.approx(exact_r6, abs=0.35)
        assert mc.top_k_ids()[0] == slocs["r6"]

    def test_rounds_validation(self, figure1):
        computer = FlowComputer(figure1["graph"], figure1["matrix"])
        with pytest.raises(ValueError):
            MonteCarlo(computer, rounds=0)


class TestRFIDBaselines:
    def test_scc_counts_detected_objects(self, small_synth_scenario):
        scenario = small_synth_scenario
        assert scenario.rfid is not None and len(scenario.rfid.readers) > 0
        query = TkPLQuery.build(
            scenario.slocation_ids(), 3, scenario.start_time, scenario.end_time
        )
        result = SemiConstrainedCounting(scenario.plan, scenario.rfid).search(query)
        assert len(result.ranking) == 3
        assert all(flow == int(flow) for flow in result.flows.values())
        assert max(result.flows.values()) <= len(scenario.trajectories)

    def test_scc_reader_mapping(self, small_synth_scenario):
        scenario = small_synth_scenario
        scc = SemiConstrainedCounting(scenario.plan, scenario.rfid)
        mapped_readers = set()
        for sloc_id in scenario.slocation_ids():
            mapped_readers |= scc._readers_by_slocation.get(sloc_id, set())
        assert mapped_readers <= set(scenario.rfid.readers)

    def test_ur_presence_bounded(self, small_synth_scenario):
        scenario = small_synth_scenario
        query = TkPLQuery.build(
            scenario.slocation_ids(), 3, scenario.start_time, scenario.end_time
        )
        result = UncertaintyRegionFlow(scenario.plan, scenario.rfid).search(query)
        objects = len(scenario.rfid.records_by_object(query.start, query.end))
        for flow in result.flows.values():
            assert 0.0 <= flow <= objects + 1e-9

    def test_ur_requires_positive_speed(self, small_synth_scenario):
        scenario = small_synth_scenario
        with pytest.raises(ValueError):
            UncertaintyRegionFlow(scenario.plan, scenario.rfid, max_speed=0.0)
