"""Reproduce the worked examples of the paper (Examples 1-4, Figure 3) exactly."""

from __future__ import annotations

import pytest

from repro import TkPLQuery
from repro.core import BestFirstTkPLQ, NaiveTkPLQ, NestedLoopTkPLQ
from tests.presence_oracle import valid_paths


def _cells(figure1, *room_names):
    graph = figure1["graph"]
    rooms = figure1["rooms"]
    return {graph.cell_of_partition[rooms[name]] for name in room_names}


class TestFigure1Topology:
    def test_cells_match_example_1(self, figure1):
        """r1 and r2 fuse into one cell; every other partition is its own cell."""
        graph = figure1["graph"]
        rooms = figure1["rooms"]
        assert graph.cell_of_partition[rooms["r1"]] == graph.cell_of_partition[rooms["r2"]]
        singles = {graph.cell_of_partition[rooms[name]] for name in ("r3", "r4", "r5", "r6")}
        assert len(singles) == 4
        assert graph.vertex_count == 5

    def test_plocation_adjacency_matches_figure_3_diagonal(self, figure1):
        graph, plocs = figure1["graph"], figure1["plocs"]
        assert graph.cells_of(plocs["p1"]) == frozenset(_cells(figure1, "r4", "r5"))
        assert graph.cells_of(plocs["p2"]) == frozenset(_cells(figure1, "r4", "r6"))
        assert graph.cells_of(plocs["p3"]) == frozenset(_cells(figure1, "r3", "r4"))
        assert graph.cells_of(plocs["p4"]) == frozenset(_cells(figure1, "r1", "r6"))
        assert graph.cells_of(plocs["p5"]) == frozenset(_cells(figure1, "r5", "r6"))
        assert graph.cells_of(plocs["p6"]) == frozenset(_cells(figure1, "r6"))
        assert graph.cells_of(plocs["p7"]) == frozenset(_cells(figure1, "r1"))
        assert graph.cells_of(plocs["p8"]) == frozenset(_cells(figure1, "r6"))
        assert graph.cells_of(plocs["p9"]) == frozenset(_cells(figure1, "r1", "r6"))


class TestFigure3Matrix:
    def test_p4_p9_connected_through_two_cells(self, figure1):
        matrix, plocs = figure1["matrix"], figure1["plocs"]
        assert matrix.cells_between(plocs["p4"], plocs["p9"]) == frozenset(
            _cells(figure1, "r1", "r6")
        )

    def test_p3_p4_not_directly_connected(self, figure1):
        matrix, plocs = figure1["matrix"], figure1["plocs"]
        assert matrix.cells_between(plocs["p3"], plocs["p4"]) == frozenset()

    def test_p8_contained_in_hallway_cell(self, figure1):
        matrix, plocs = figure1["matrix"], figure1["plocs"]
        assert matrix.cells_adjacent(plocs["p8"]) == frozenset(_cells(figure1, "r6"))

    def test_figure_3_row_p1(self, figure1):
        matrix, plocs = figure1["matrix"], figure1["plocs"]
        expected = {
            "p2": _cells(figure1, "r4"),
            "p3": _cells(figure1, "r4"),
            "p4": set(),
            "p5": _cells(figure1, "r5"),
            "p6": set(),
            "p7": set(),
            "p8": set(),
            "p9": set(),
        }
        for other, cells in expected.items():
            assert matrix.cells_between(plocs["p1"], plocs[other]) == frozenset(cells), other

    def test_equivalent_plocations(self, figure1):
        """p6 ≡ p8 (both presence in r6) and p4 ≡ p9 (both doors of cell c1 to r6)."""
        matrix, plocs = figure1["matrix"], figure1["plocs"]
        assert matrix.equivalent(plocs["p6"], plocs["p8"])
        assert matrix.equivalent(plocs["p4"], plocs["p9"])
        assert not matrix.equivalent(plocs["p2"], plocs["p5"])

    def test_merged_matrix_is_smaller(self, figure1):
        matrix = figure1["matrix"]
        merged = matrix.merged(figure1["graph"])
        assert merged.is_merged
        assert merged.dimension < matrix.dimension
        # Merged lookups agree with the raw matrix.
        plocs = figure1["plocs"]
        assert merged.cells_between(plocs["p4"], plocs["p9"]) == matrix.cells_between(
            plocs["p4"], plocs["p9"]
        )
        assert merged.cells_between(plocs["p3"], plocs["p4"]) == matrix.cells_between(
            plocs["p3"], plocs["p4"]
        )


class TestExample2ObjectPresence:
    def test_o3_has_four_possible_paths(self, figure1, figure1_iupt):
        matrix = figure1["matrix"]
        sequence = figure1_iupt.sequences_in(1.0, 8.0)[3]
        paths = valid_paths(sequence, matrix)
        assert len(paths) == 4
        assert pytest.approx(sum(probability for _, probability, _ in paths)) == 1.0
        probabilities = sorted(round(probability, 2) for _, probability, _ in paths)
        assert probabilities == [0.16, 0.24, 0.24, 0.36]

    def test_o3_presence_in_r6_is_012(self, figure1, figure1_iupt, figure1_flow_exact):
        graph, slocs = figure1["graph"], figure1["slocs"]
        sequence = figure1_iupt.sequences_in(1.0, 8.0)[3]
        presence = figure1_flow_exact.presence_computation(sequence)
        cell_r6 = graph.parent_cell(slocs["r6"])
        assert presence.presence_in_cell(cell_r6) == pytest.approx(0.12)

    def test_o3_presence_in_r1_is_zero(self, figure1, figure1_iupt, figure1_flow_exact):
        graph, slocs = figure1["graph"], figure1["slocs"]
        sequence = figure1_iupt.sequences_in(1.0, 8.0)[3]
        presence = figure1_flow_exact.presence_computation(sequence)
        assert presence.presence_in_cell(graph.parent_cell(slocs["r1"])) == 0.0


class TestExample3IndoorFlow:
    def test_o1_presences(self, figure1, figure1_iupt, figure1_flow_exact):
        graph, slocs = figure1["graph"], figure1["slocs"]
        sequence = figure1_iupt.sequences_in(1.0, 8.0)[1]
        presence = figure1_flow_exact.presence_computation(sequence)
        assert presence.presence_in_cell(graph.parent_cell(slocs["r1"])) == pytest.approx(0.5)
        assert presence.presence_in_cell(graph.parent_cell(slocs["r6"])) == pytest.approx(1.0)

    def test_o2_presences(self, figure1, figure1_iupt, figure1_flow_exact):
        graph, slocs = figure1["graph"], figure1["slocs"]
        sequence = figure1_iupt.sequences_in(1.0, 8.0)[2]
        presence = figure1_flow_exact.presence_computation(sequence)
        assert presence.presence_in_cell(graph.parent_cell(slocs["r1"])) == pytest.approx(0.0)
        assert presence.presence_in_cell(graph.parent_cell(slocs["r6"])) == pytest.approx(0.85)

    def test_flow_values_of_r6_and_r1(self, figure1, figure1_iupt, figure1_engine_exact):
        slocs = figure1["slocs"]
        flow_r6 = figure1_engine_exact.flow(figure1_iupt, slocs["r6"], 1.0, 8.0).flow
        flow_r1 = figure1_engine_exact.flow(figure1_iupt, slocs["r1"], 1.0, 8.0).flow
        assert flow_r6 == pytest.approx(1.97)
        assert flow_r1 == pytest.approx(0.5)


class TestExample4TopK:
    def test_top1_is_r6(self, figure1, figure1_iupt, figure1_engine_exact):
        slocs = figure1["slocs"]
        query = TkPLQuery.build([slocs["r1"], slocs["r6"]], 1, 1.0, 8.0)
        for algorithm in (NaiveTkPLQ, NestedLoopTkPLQ, BestFirstTkPLQ):
            result = algorithm(figure1_engine_exact.pipeline).search(figure1_iupt, query)
            assert result.top_k_ids() == [slocs["r6"]]

    def test_all_algorithms_agree_on_full_ranking(
        self, figure1, figure1_iupt, figure1_engine_exact
    ):
        slocs = figure1["slocs"]
        query_set = sorted(slocs.values())
        query = TkPLQuery.build(query_set, len(query_set), 1.0, 8.0)
        rankings = []
        for algorithm in (NaiveTkPLQ, NestedLoopTkPLQ, BestFirstTkPLQ):
            result = algorithm(figure1_engine_exact.pipeline).search(figure1_iupt, query)
            rankings.append(result.top_k_ids())
        assert rankings[0] == rankings[1] == rankings[2]
