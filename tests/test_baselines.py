"""Tests for the SC / SC-ρ, MC, SCC, and UR comparison baselines."""

from __future__ import annotations

import math
import random

import pytest

from repro import (
    IUPT,
    MonteCarlo,
    SampleSet,
    SemiConstrainedCounting,
    SimpleCounting,
    TkPLQuery,
    UncertaintyRegionFlow,
)

# An MC flow over ROUNDS rounds lies within C standard errors of the exact
# flow.  The standard error is the sample deviation of the round flows over
# sqrt(rounds), floored at 1 / rounds: rounds that never see a world cannot
# tell its weight from zero.  C was fixed before the first run.
C = 5.0
ROUNDS = 2000


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


def _within_standard_errors(mc, iupt, query, exact):
    """The locations whose MC flow lies more than C standard errors from ``exact``."""
    far = {}
    for sloc_id, values in mc.round_flows(iupt, query).items():
        mean = sum(values) / len(values)
        deviation = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
        error = max(deviation / math.sqrt(len(values)), 1.0 / len(values))
        if abs(mean - exact[sloc_id]) > C * error:
            far[sloc_id] = (mean, exact[sloc_id], error)
    return far


def _random_table(figure1, seed):
    """A seeded table of five objects, one to four reports each, over Figure 1.

    Three picks in four are P-locations reachable from the previous report's,
    so most drawn worlds are valid and some are not; a lone report is common.
    """
    rng = random.Random(seed)
    matrix = figure1["matrix"]
    everywhere = sorted(figure1["graph"].cells_of_plocation)
    iupt = IUPT()
    for object_id in range(5):
        previous = []
        for step in range(rng.randint(1, 4)):
            reachable = [
                q for q in everywhere if any(matrix.cells_between(p, q) for p in previous)
            ]
            picks = [
                rng.choice(reachable if reachable and rng.random() < 0.75 else everywhere)
                for _ in range(rng.randint(1, 3))
            ]
            pairs = [(pick, rng.uniform(0.05, 1.0)) for pick in picks]
            iupt.report(object_id, SampleSet.from_pairs(pairs, normalise=True), 1.0 + step)
            previous = picks
    return iupt


class TestMonteCarlo:
    def test_deterministic_with_seed(self, figure1, figure1_iupt):
        slocs = figure1["slocs"]
        query = TkPLQuery.build(sorted(slocs.values()), 2, 1.0, 8.0)
        first = MonteCarlo(figure1["graph"], figure1["matrix"], 50).search(figure1_iupt, query)
        second = MonteCarlo(figure1["graph"], figure1["matrix"], 50).search(figure1_iupt, query)
        assert first.flows == second.flows

    def test_converges_towards_exact_flow(self, figure1, figure1_iupt, figure1_engine_exact):
        slocs = figure1["slocs"]
        query = TkPLQuery.build(sorted(slocs.values()), 2, 1.0, 8.0)
        mc = MonteCarlo(figure1["graph"], figure1["matrix"], ROUNDS)
        exact = figure1_engine_exact.search(figure1_iupt, query, "naive").flows
        assert _within_standard_errors(mc, figure1_iupt, query, exact) == {}
        assert mc.search(figure1_iupt, query).top_k_ids()[0] == slocs["r6"]

    @pytest.mark.parametrize("seed", range(12))
    def test_every_flow_within_standard_errors_of_naive(
        self, figure1, figure1_engine_exact, seed
    ):
        """Naive without reduction reads the same sequences MC samples."""
        iupt = _random_table(figure1, seed)
        query = TkPLQuery.build(sorted(figure1["slocs"].values()), 2, 1.0, 4.0)
        exact = figure1_engine_exact.search(iupt, query, "naive").flows
        mc = MonteCarlo(figure1["graph"], figure1["matrix"], ROUNDS)
        assert _within_standard_errors(mc, iupt, query, exact) == {}

    def test_worlds_with_an_invalid_step_count_zero(self, figure1):
        """One object always drawn on a path with an unreachable step: no flow
        anywhere, and every drawn path is reported and none kept."""
        p = figure1["plocs"]
        iupt = IUPT()
        iupt.report(1, SampleSet.from_pairs([(p["p3"], 1.0)]), 1.0)  # door r3-r4
        iupt.report(1, SampleSet.from_pairs([(p["p4"], 1.0)]), 2.0)  # door r1-r6
        query = TkPLQuery.build(sorted(figure1["slocs"].values()), 2, 1.0, 2.0)
        result = MonteCarlo(figure1["graph"], figure1["matrix"], 10).search(iupt, query)
        assert set(result.flows.values()) == {0.0}
        assert (result.stats.path_stats.candidate_paths, result.stats.path_stats.valid_paths) == (
            10,
            0,
        )

    def test_rounds_validation(self, figure1):
        with pytest.raises(ValueError):
            MonteCarlo(figure1["graph"], figure1["matrix"], 0)


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
