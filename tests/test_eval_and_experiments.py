"""Tests for the metrics, the harness, and the experiment registry."""

from __future__ import annotations

import pytest

from repro import TkPLQuery, kendall_coefficient, recall_at_k, run_method, run_methods
from repro.eval import ALL_METHODS, ground_truth_ranking, pruning_ratio
from repro.eval.metrics import extend_rankings, rank_by_score
from repro.experiments import (
    EXPERIMENTS,
    QuerySetting,
    evaluate,
    format_table,
    run_experiment,
)


class TestMetrics:
    def test_recall(self):
        assert recall_at_k([1, 2, 3], [1, 2, 3]) == 1.0
        assert recall_at_k([1, 4, 5], [1, 2, 3]) == pytest.approx(1 / 3)
        assert recall_at_k([], [1, 2]) == 0.0
        assert recall_at_k([1], []) == 1.0

    def test_kendall_identical_and_reversed(self):
        assert kendall_coefficient([1, 2, 3], [1, 2, 3]) == 1.0
        assert kendall_coefficient([3, 2, 1], [1, 2, 3]) == -1.0

    def test_kendall_bounded(self):
        assert -1.0 <= kendall_coefficient([1, 2, 3], [4, 5, 6]) <= 1.0
        assert -1.0 <= kendall_coefficient([1, 5, 2], [2, 3, 4]) <= 1.0

    def test_kendall_paper_extension_example(self):
        """The paper's example: ϕr = <A,B,C>, ϕg = <B,D,E> extend to 5 elements."""
        result_rank, truth_rank = extend_rankings(["A", "B", "C"], ["B", "D", "E"])
        assert result_rank["D"] == result_rank["E"] == 4.0
        assert truth_rank["A"] == truth_rank["C"] == 4.0
        assert truth_rank["B"] == 1.0

    def test_pruning_ratio(self):
        assert pruning_ratio(10, 4) == pytest.approx(0.6)
        assert pruning_ratio(0, 0) == 0.0

    def test_rank_by_score(self):
        assert rank_by_score({1: 0.5, 2: 0.9, 3: 0.5}, 2) == [2, 1]


class TestHarness:
    def test_run_method_on_all_core_methods(self, small_real_scenario):
        scenario = small_real_scenario
        query_set = scenario.pick_query_slocations(0.5, seed=1)
        query = TkPLQuery.build(query_set, 2, scenario.start_time, scenario.end_time)
        for method in ("bf", "nl", "sc", "sc-rho", "mc"):
            outcome = run_method(scenario, method, query, mc_rounds=15)
            assert outcome.method == method
            assert len(outcome.ranking) == 2
            assert -1.0 <= outcome.kendall <= 1.0
            assert 0.0 <= outcome.recall <= 1.0
            assert outcome.elapsed_seconds >= 0.0

    def test_run_methods_shares_ground_truth(self, small_real_scenario):
        scenario = small_real_scenario
        query_set = scenario.pick_query_slocations(0.5, seed=2)
        query = TkPLQuery.build(query_set, 2, scenario.start_time, scenario.end_time)
        outcomes = run_methods(scenario, ["bf", "sc"], query, mc_rounds=10)
        assert [outcome.method for outcome in outcomes] == ["bf", "sc"]

    def test_unknown_method_rejected(self, small_real_scenario):
        scenario = small_real_scenario
        query = TkPLQuery.build(
            scenario.slocation_ids(), 1, scenario.start_time, scenario.end_time
        )
        with pytest.raises(ValueError):
            run_method(scenario, "unknown", query)

    def test_rfid_methods_require_rfid_data(self, small_real_scenario):
        scenario = small_real_scenario
        assert scenario.rfid is None
        query = TkPLQuery.build(
            scenario.slocation_ids(), 1, scenario.start_time, scenario.end_time
        )
        with pytest.raises(ValueError):
            run_method(scenario, "scc", query)

    def test_rfid_methods_on_synth_scenario(self, small_synth_scenario):
        scenario = small_synth_scenario
        query = TkPLQuery.build(
            scenario.slocation_ids(), 2, scenario.start_time, scenario.end_time
        )
        for method in ("scc", "ur"):
            outcome = run_method(scenario, method, query)
            assert len(outcome.ranking) == 2

    def test_ground_truth_ranking_ordering(self, small_real_scenario):
        scenario = small_real_scenario
        query_set = scenario.slocation_ids()
        truth = ground_truth_ranking(
            scenario.trajectories,
            scenario.plan,
            scenario.start_time,
            scenario.end_time,
            query_set,
            len(query_set),
        )
        counts = scenario.ground_truth_flows(scenario.start_time, scenario.end_time)
        values = [counts[sloc_id] for sloc_id in truth]
        assert values == sorted(values, reverse=True)


class TestExperiments:
    def test_registry_covers_every_table_and_figure(self):
        expected = {
            "table4", "table5", "table7",
            "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
            "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
            "ablation_reduction", "ablation_indexes", "ablation_algorithms",
            "ablation_continuous",
        }
        assert expected <= set(EXPERIMENTS)

    def test_paper_sweeps_at_small_scale(self):
        """A block of rows per point, in the table's method order, labelled with
        the point; the three exact algorithms agree within each block."""
        columns = ["time_s", "pruning_ratio", "kendall", "recall"]
        sweeps = {
            "table4": ([], [()]),
            "fig10": (["delta_seconds"], [(90.0,), (180.0,), (270.0,)]),
            "fig19": (["q_fraction"], [(0.25,), (0.5,), (0.75,)]),
        }
        for name, (label, points) in sweeps.items():
            _, methods, _ = EXPERIMENTS[name]
            rows = run_experiment(name, scale="small")
            assert len(rows) == len(points) * len(methods), name
            for at, point in enumerate(points):
                block = rows[at * len(methods) : (at + 1) * len(methods)]
                assert [row["method"] for row in block] == list(methods), name
                assert all(list(row) == ["method", *label, *columns] for row in block)
                assert {tuple(row[key] for key in label) for row in block} == {point}
                for exact in (("bf", "nl", "naive"), ("bf-org", "nl-org", "naive-org")):
                    measures = {
                        (row["kendall"], row["recall"]) for row in block if row["method"] in exact
                    }
                    assert len(measures) <= 1, (name, point, exact)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("table99")

    def test_ablation_indexes_rows(self):
        rows = run_experiment("ablation_indexes")
        assert [row["variant"] for row in rows] == ["timestamp-column", "raw NxN", "merged MxM"]
        assert rows[0]["records_fetched"] > 0
        matrix_rows = {row["variant"]: row for row in rows if "dimension" in row}
        assert matrix_rows["merged MxM"]["dimension"] <= matrix_rows["raw NxN"]["dimension"]

    def test_ablation_continuous_does_less_work_than_polling(self):
        rows = {row["strategy"]: row for row in run_experiment("ablation_continuous")}
        incremental, polling = rows["incremental"], rows["polling"]
        assert incremental["skipped"] > 0
        assert incremental["objects_rekeyed"] > 0
        assert incremental["refreshes"] < polling["refreshes"]
        assert incremental["objects_recomputed"] < polling["objects_recomputed"]

    def test_ablation_reduction_rows(self):
        rows = run_experiment("ablation_reduction")
        by_config = {row["configuration"]: row for row in rows}
        assert by_config["full (paper)"]["candidate_paths_after"] <= (
            by_config["none"]["candidate_paths_after"]
        )

    def test_evaluate_produces_rows(self, small_real_scenario):
        setting = QuerySetting(k=2, q_fraction=0.5, delta_seconds=120.0, repeats=1, mc_rounds=10)
        rows = evaluate(small_real_scenario, ["bf", "sc"], setting, extra={"label": "x"})
        assert len(rows) == 2
        assert all(row["label"] == "x" for row in rows)
        assert set(rows[0]) >= {"method", "time_s", "kendall", "recall", "pruning_ratio"}

    def test_format_table(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        assert "a" in text and "22" in text
        assert format_table([]) == "(no rows)"

    def test_methods_constant_consistency(self):
        assert set(ALL_METHODS) >= {"bf", "nl", "naive", "sc", "sc-rho", "mc", "scc", "ur"}
