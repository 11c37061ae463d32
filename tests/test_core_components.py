"""Unit tests for the core components: paths, presence, reduction, flow, queries."""

from __future__ import annotations

import pytest

from repro import DataReductionConfig, QueryEngine, SampleSet, TkPLQuery
from repro.core import (
    DataReducer,
    PresenceComputation,
    rank_top_k,
)
from repro.core.paths import candidate_path_count, total_candidate_probability
from repro.core.query import SearchStats
from repro.core.reduction import ReductionStats
from tests.presence_oracle import valid_paths


def _assert_presences(presence, graph, expected):
    """Φ equals ``expected[cell]`` on the listed cells and 0 everywhere else."""
    for cell_id in graph.cells:
        assert presence.presence_in_cell(cell_id) == pytest.approx(
            expected.get(cell_id, 0.0)
        )


class TestPathConstruction:
    def test_candidate_count(self, figure1, figure1_iupt):
        sequence = figure1_iupt.sequences_in(1.0, 8.0)[2]
        assert candidate_path_count(sequence) == 2 * 2 * 3 * 3
        assert candidate_path_count([]) == 0

    def test_invalid_transitions_are_pruned(self, figure1):
        graph, plocs, matrix = figure1["graph"], figure1["plocs"], figure1["matrix"]
        sequence = [
            SampleSet.from_pairs([(plocs["p3"], 1.0)]),
            SampleSet.from_pairs([(plocs["p4"], 0.5), (plocs["p2"], 0.5)]),
        ]
        paths = valid_paths(sequence, matrix)
        assert [path[0] for path in paths] == [(plocs["p3"], plocs["p2"])]
        # Only the p2 tail survives: p3 -> p2 moves within r4, with half the mass.
        presence = PresenceComputation(sequence, matrix)
        assert presence.tail_states == 1
        (r4_cell,) = matrix.cells_between(plocs["p3"], plocs["p2"])
        _assert_presences(presence, graph, {r4_cell: 0.5})

    def test_equivalent_concrete_paths_are_grouped(self, figure1):
        graph, plocs, matrix = figure1["graph"], figure1["plocs"], figure1["matrix"]
        # p6 and p8 are both presence P-locations of the hallway cell, so the
        # four concrete combinations collapse into one state per tail.
        sequence = [
            SampleSet.from_pairs([(plocs["p6"], 0.5), (plocs["p8"], 0.5)]),
            SampleSet.from_pairs([(plocs["p6"], 0.5), (plocs["p8"], 0.5)]),
        ]
        paths = valid_paths(sequence, matrix)
        assert len(paths) == 4
        assert sum(path[1] for path in paths) == pytest.approx(1.0)
        presence = PresenceComputation(sequence, matrix)
        assert presence.tail_states == 2
        (hallway,) = matrix.cells_adjacent(plocs["p6"])
        _assert_presences(presence, graph, {hallway: 1.0})

    def test_single_report_path_uses_adjacent_cells(self, figure1):
        graph, plocs, matrix = figure1["graph"], figure1["plocs"], figure1["matrix"]
        sequence = [SampleSet.certain(plocs["p7"])]
        (path,) = valid_paths(sequence, matrix)
        assert path[2] == [matrix.cells_adjacent(plocs["p7"])]
        (own_cell,) = matrix.cells_adjacent(plocs["p7"])
        _assert_presences(PresenceComputation(sequence, matrix), graph, {own_cell: 1.0})
        # A lone door report splits evenly between its two adjacent cells.
        door = PresenceComputation([SampleSet.certain(plocs["p4"])], matrix)
        _assert_presences(
            door, graph, {cell_id: 0.5 for cell_id in matrix.cells_adjacent(plocs["p4"])}
        )

    def test_total_candidate_probability(self):
        sequence = [SampleSet.from_pairs([(1, 0.5), (2, 0.5)]), SampleSet.certain(1)]
        assert total_candidate_probability(sequence) == pytest.approx(1.0)
        assert total_candidate_probability([]) == 0.0


class TestPresence:
    def test_presence_bounded_by_one(self, figure1, figure1_iupt, figure1_flow_exact):
        graph = figure1["graph"]
        for sequence in figure1_iupt.sequences_in(1.0, 8.0).values():
            presence = figure1_flow_exact.presence_computation(sequence)
            for cell_id in graph.cells:
                value = presence.presence_in_cell(cell_id)
                assert 0.0 <= value <= 1.0

    def test_presence_cache_consistency(self, figure1, figure1_iupt, figure1_flow_exact):
        graph, slocs = figure1["graph"], figure1["slocs"]
        sequence = figure1_iupt.sequences_in(1.0, 8.0)[2]
        presence = figure1_flow_exact.presence_computation(sequence)
        cell = graph.parent_cell(slocs["r6"])
        assert presence.presence_in_cell(cell) == presence.presence_in_cell(cell)

    def test_unknown_cell_gives_zero(self, figure1, figure1_iupt, figure1_flow_exact):
        sequence = figure1_iupt.sequences_in(1.0, 8.0)[1]
        presence = figure1_flow_exact.presence_computation(sequence)
        assert presence.presence_in_cell(None) == 0.0
        assert presence.presence_in_cell(999) == 0.0

    def test_empty_sequence_presence_zero(self, figure1):
        computation = PresenceComputation([], figure1["matrix"])
        assert computation.presence_in_cell(1) == 0.0


class TestDataReduction:
    def test_intra_merge_merges_equivalent_plocations(self, figure1):
        graph, matrix, plocs = figure1["graph"], figure1["matrix"], figure1["plocs"]
        reducer = DataReducer(graph, matrix, DataReductionConfig(True, False, False))
        sequence = [
            SampleSet.from_pairs(
                [(plocs["p5"], 0.3), (plocs["p6"], 0.6), (plocs["p8"], 0.1)]
            )
        ]
        reduced = reducer.reduce(sequence, None)
        merged_set = reduced.sequence[0]
        representative = min(plocs["p6"], plocs["p8"])
        assert merged_set.plocation_set() == {plocs["p5"], representative}
        assert merged_set.probability_of(representative) == pytest.approx(0.7)

    def test_inter_merge_averages_probabilities(self, figure1):
        """Reproduces the Figure 4 example: o2's sequence shrinks from 32 to 8 candidates."""
        graph, matrix, plocs = figure1["graph"], figure1["matrix"], figure1["plocs"]
        reducer = DataReducer(graph, matrix, DataReductionConfig.enabled())
        sequence = [
            SampleSet.from_pairs([(plocs["p1"], 0.5), (plocs["p2"], 0.5)]),
            SampleSet.from_pairs([(plocs["p2"], 0.7), (plocs["p4"], 0.3)]),
            SampleSet.from_pairs(
                [(plocs["p5"], 0.3), (plocs["p6"], 0.6), (plocs["p8"], 0.1)]
            ),
            SampleSet.from_pairs(
                [(plocs["p5"], 0.2), (plocs["p6"], 0.3), (plocs["p8"], 0.5)]
            ),
        ]
        assert candidate_path_count(sequence) == 36  # 2*2*3*3 before reduction
        reduced = reducer.reduce(sequence, None)
        assert len(reduced.sequence) == 3
        assert candidate_path_count(list(reduced.sequence)) == 8
        merged = reduced.sequence[-1]
        representative = min(plocs["p6"], plocs["p8"])
        assert merged.probability_of(plocs["p5"]) == pytest.approx(0.25)
        assert merged.probability_of(representative) == pytest.approx(0.75)

    def test_psl_pruning(self, figure1):
        graph, matrix, plocs, slocs = (
            figure1["graph"],
            figure1["matrix"],
            figure1["plocs"],
            figure1["slocs"],
        )
        reducer = DataReducer(graph, matrix, DataReductionConfig.enabled())
        sequence = [SampleSet.certain(plocs["p3"])]  # only touches r3 / r4 cells
        relevant = reducer.reduce(sequence, {slocs["r3"]})
        assert not relevant.pruned
        irrelevant = reducer.reduce(sequence, {slocs["r1"]})
        assert irrelevant.pruned

    def test_disabled_config_is_identity(self, figure1):
        graph, matrix, plocs = figure1["graph"], figure1["matrix"], figure1["plocs"]
        reducer = DataReducer(graph, matrix, DataReductionConfig.disabled())
        sequence = [
            SampleSet.from_pairs([(plocs["p6"], 0.5), (plocs["p8"], 0.5)]),
            SampleSet.from_pairs([(plocs["p6"], 0.5), (plocs["p8"], 0.5)]),
        ]
        reduced = reducer.reduce(sequence, None)
        assert list(reduced.sequence) == sequence
        assert not reduced.pruned

    def test_stats_accumulate(self, figure1, figure1_iupt):
        graph, matrix = figure1["graph"], figure1["matrix"]
        reducer = DataReducer(graph, matrix, DataReductionConfig.enabled())
        stats = ReductionStats()
        for sequence in figure1_iupt.sequences_in(1.0, 8.0).values():
            reducer.reduce(sequence, None, stats)
        assert stats.objects_seen == 3
        assert 0 < stats.sample_sets_after <= stats.sample_sets_before


class TestFlowComputer:
    def test_reduction_changes_flow_only_slightly(self, figure1, figure1_iupt):
        slocs = figure1["slocs"]
        exact = QueryEngine(
            figure1["graph"], figure1["matrix"], DataReductionConfig.disabled()
        )
        reduced = QueryEngine(
            figure1["graph"], figure1["matrix"], DataReductionConfig.enabled()
        )
        flow_exact = exact.flow(figure1_iupt, slocs["r6"], 1.0, 8.0).flow
        flow_reduced = reduced.flow(figure1_iupt, slocs["r6"], 1.0, 8.0).flow
        assert flow_reduced <= flow_exact + 1e-9
        assert flow_reduced == pytest.approx(flow_exact, abs=0.5)

    def test_flow_stats_populated(self, figure1, figure1_iupt, figure1_engine_exact):
        slocs = figure1["slocs"]
        result = figure1_engine_exact.flow(figure1_iupt, slocs["r6"], 1.0, 8.0)
        assert result.stats.objects_total == 3
        assert result.stats.objects_computed == 3
        assert result.stats.path_stats.valid_paths > 0

    def test_empty_window_gives_zero_flow(self, figure1, figure1_iupt, figure1_engine_exact):
        slocs = figure1["slocs"]
        result = figure1_engine_exact.flow(figure1_iupt, slocs["r6"], 100.0, 200.0)
        assert result.flow == 0.0

    def test_flows_for_all(self, figure1, figure1_iupt, figure1_engine_exact):
        slocs = figure1["slocs"]
        flows = figure1_engine_exact.flows(
            figure1_iupt, sorted(slocs.values()), 1.0, 8.0
        )
        assert flows[slocs["r6"]] >= flows[slocs["r1"]]


class TestQueryTypes:
    def test_query_validation(self):
        with pytest.raises(ValueError):
            TkPLQuery.build([], 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            TkPLQuery.build([1, 2], 3, 0.0, 1.0)
        with pytest.raises(ValueError):
            TkPLQuery.build([1, 2], 1, 5.0, 1.0)
        with pytest.raises(ValueError):
            TkPLQuery.build([1, 2], 0, 0.0, 1.0)
        # Q is a set (Problem 1): a repeated id is named, not ranked twice.
        with pytest.raises(ValueError, match=r"id\(s\) \[1\] more than once"):
            TkPLQuery.build([1, 1, 2], 3, 0.0, 1.0)

    def test_rank_top_k_ties_by_id(self):
        ranking = rank_top_k({3: 1.0, 1: 1.0, 2: 2.0}, 3)
        assert [entry.sloc_id for entry in ranking] == [2, 1, 3]

    def test_search_stats_pruning_ratio(self):
        stats = SearchStats(objects_total=10)
        for object_id in range(4):
            stats.note_object_computed(object_id)
        assert stats.pruning_ratio == pytest.approx(0.6)
        assert SearchStats().pruning_ratio == 0.0
