"""Tests for the metrics, the harness, and the experiment registry."""

from __future__ import annotations

import pytest

from repro import TkPLQuery, kendall_coefficient, recall_at_k, run_methods
from repro.core.query import rank_top_k
from repro.eval import ALL_METHODS, ground_truth_ranking, tie_aware_kendall, tie_aware_recall
from repro.eval.metrics import extend_rankings
from repro.experiments import (
    EXPERIMENTS,
    QuerySetting,
    evaluate,
    format_table,
    run_experiment,
)

MEASURES = [
    "time_s",
    "pruning_ratio",
    "kendall_by_id",
    "recall_by_id",
    "kendall_tie_aware",
    "recall_tie_aware",
]


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

    def test_rank_by_score(self):
        """The ground truth is ranked by the rule every answer is: ties by smaller id."""
        assert [entry.sloc_id for entry in rank_top_k({1: 0.5, 2: 0.9, 3: 0.5}, 2)] == [2, 1]


class TestTieRules:
    """Hand-worked scores under both rules; truth counts 5, 3, 3, 1 at k = 2
    rank ⟨1, 2⟩ by id, and location 3 ties the k-th count."""

    TRUTH = {1: 5.0, 2: 3.0, 3: 3.0, 4: 1.0}

    def test_recall(self):
        assert recall_at_k([1, 3], [1, 2]) == 0.5
        assert tie_aware_recall([1, 3], self.TRUTH, 2) == 1.0
        assert tie_aware_recall([3, 2], self.TRUTH, 2) == 1.0
        assert tie_aware_recall([4, 1], self.TRUTH, 2) == 0.5

    def test_kendall(self):
        # Over {1, 2, 3}: result 1, 3, 2 against truth 1, 2, 3 by id — pairs
        # (1, 2) and (1, 3) concordant, (2, 3) discordant: τ = (2 - 1) / 3.
        assert kendall_coefficient([1, 3], [1, 2]) == pytest.approx(1 / 3)
        # Tie-aware truth values 1, 2, 2: (2, 3) is tied in the truth only,
        # so neither: τ = (2 - 0) / 3.
        assert tie_aware_kendall([1, 3], self.TRUTH, 2) == pytest.approx(2 / 3)

    def test_a_pair_tied_in_the_truth_alone_scores_nothing(self):
        # The id rule rewards ordering two equal counts by id; the tie-aware
        # rule scores that pair as neither concordant nor discordant.
        assert kendall_coefficient([1, 2], [1, 2]) == 1.0
        assert tie_aware_kendall([1, 2], {1: 3.0, 2: 3.0}, 2) == 0.0

    def test_the_rules_agree_without_ties(self):
        truth = {1: 4.0, 2: 3.0, 3: 2.0, 4: 1.0}
        for result in ([2, 3], [1, 2], [4, 1], [3, 1]):
            assert tie_aware_kendall(result, truth, 2) == kendall_coefficient(result, [1, 2])
            assert tie_aware_recall(result, truth, 2) == recall_at_k(result, [1, 2])


class TestHarness:
    def test_run_method_on_all_core_methods(self, small_real_scenario):
        scenario = small_real_scenario
        query_set = scenario.pick_query_slocations(0.5, seed=1)
        query = TkPLQuery.build(query_set, 2, scenario.start_time, scenario.end_time)
        methods = ("bf", "nl", "sc", "sc-rho", "mc")
        outcomes = run_methods(scenario, methods, query, sc_rho=0.25, mc_rounds=15)
        assert [outcome.method for outcome in outcomes] == list(methods)
        for outcome in outcomes:
            assert len(outcome.ranking) == 2
            for tau in (outcome.kendall_by_id, outcome.kendall_tie_aware):
                assert -1.0 <= tau <= 1.0
            for recall in (outcome.recall_by_id, outcome.recall_tie_aware):
                assert 0.0 <= recall <= 1.0
            assert outcome.recall_tie_aware >= outcome.recall_by_id
            assert outcome.time_s >= 0.0

    def test_run_methods_shares_ground_truth(self, small_real_scenario):
        scenario = small_real_scenario
        query_set = scenario.pick_query_slocations(0.5, seed=2)
        query = TkPLQuery.build(query_set, 2, scenario.start_time, scenario.end_time)
        outcomes = run_methods(scenario, ["bf", "sc"], query, sc_rho=0.25, mc_rounds=10)
        assert [outcome.method for outcome in outcomes] == ["bf", "sc"]

    def test_unknown_method_rejected(self, small_real_scenario):
        scenario = small_real_scenario
        query = TkPLQuery.build(
            scenario.slocation_ids(), 1, scenario.start_time, scenario.end_time
        )
        with pytest.raises(ValueError):
            run_methods(scenario, ["bf", "unknown"], query, sc_rho=0.25, mc_rounds=10)

    def test_rfid_methods_require_rfid_data(self, small_real_scenario):
        scenario = small_real_scenario
        assert scenario.rfid is None
        query = TkPLQuery.build(
            scenario.slocation_ids(), 1, scenario.start_time, scenario.end_time
        )
        with pytest.raises(ValueError):
            run_methods(scenario, ["scc"], query, sc_rho=0.25, mc_rounds=10)

    def test_rfid_methods_on_synth_scenario(self, small_synth_scenario):
        scenario = small_synth_scenario
        query = TkPLQuery.build(
            scenario.slocation_ids(), 2, scenario.start_time, scenario.end_time
        )
        for outcome in run_methods(scenario, ["scc", "ur"], query, sc_rho=0.25, mc_rounds=10):
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
            "ablation_reduction", "ablation_indexes", "ablation_continuous",
        }
        assert expected <= set(EXPERIMENTS)

    def test_paper_sweeps_at_small_scale(self):
        """A block of rows per point, in the table's method order, labelled with
        the point, averaging 20 queries (an efficiency sweep times one) and
        scored under both tie rules (MC adds its kept share); the three exact
        algorithms agree within each block."""
        scores = MEASURES[2:]
        sweeps = {
            "table4": ([], [()], 20),
            "fig10": (["delta_seconds"], [(90.0,), (180.0,), (270.0,)], 1),
            "fig19": (["q_fraction"], [(0.25,), (0.5,), (0.75,)], 20),
        }
        for name, (label, points, queries) in sweeps.items():
            _, methods, _ = EXPERIMENTS[name]
            rows = run_experiment(name, scale="small")
            assert len(rows) == len(points) * len(methods), name
            for at, point in enumerate(points):
                block = rows[at * len(methods) : (at + 1) * len(methods)]
                assert [row["method"] for row in block] == list(methods), name
                for row in block:
                    kept = ["paths_kept_share"] if row["method"] == "mc" else []
                    assert list(row) == ["method", *label, "queries", *MEASURES, *kept]
                    assert row["queries"] == queries
                assert {tuple(row[key] for key in label) for row in block} == {point}
                for exact in (("bf", "nl", "naive"), ("bf-org", "nl-org", "naive-org")):
                    measures = {
                        tuple(row[score] for score in scores)
                        for row in block
                        if row["method"] in exact
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
        assert set(rows[0]) >= {"method", "queries", *MEASURES}

    def test_format_table(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        assert "a" in text and "22" in text
        assert format_table([]) == "(no rows)"

    def test_format_table_prints_every_rows_columns(self):
        """Columns a later row adds print too, in order of first appearance."""
        assert format_table([{"a": 1}, {"b": 2, "a": 3}]).split("\n")[0].split() == ["a", "b"]
        header = format_table(run_experiment("ablation_indexes")).split("\n")[0].split()
        assert header[-2:] == ["dimension", "nonempty_pairs"]
        fig14 = run_experiment("fig14")
        header = format_table(fig14).split("\n")[0].split()
        assert header[:2] == ["method", "max_period_seconds"]
        assert header[-2:] == ["paths_kept_share", "positioning_error"]
        assert {row.get("positioning_error") for row in fig14} == {None, 3.0, 5.0, 7.0}

    def test_methods_constant_consistency(self):
        assert set(ALL_METHODS) >= {"bf", "nl", "naive", "sc", "sc-rho", "mc", "scc", "ur"}

    def test_all_runs_a_shared_sweep_once_and_prints_it_under_each_name(
        self, monkeypatch, capsys
    ):
        """``table5`` and ``fig07`` are one sweep: ``all`` runs it once."""
        from repro.experiments import __main__ as cli

        ran = []
        monkeypatch.setattr(
            cli, "run_experiment", lambda name, scale: ran.append(name) or [{"from": name}]
        )
        assert cli.main(["all"]) == 0
        assert EXPERIMENTS["table5"] is EXPERIMENTS["fig07"]
        assert sorted(ran) == sorted(set(EXPERIMENTS) - {"table5"})
        blocks = capsys.readouterr().out.split("\n\n")
        [table5] = [block for block in blocks if block.startswith("== table5 ")]
        assert table5.split("\n")[-1].strip() == "fig07"  # fig07's rows, not a rerun
