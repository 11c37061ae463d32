"""Integration tests for the three TkPLQ search algorithms and the engine facade."""

from __future__ import annotations

import pytest

from repro import DataReductionConfig, EngineConfig, IndoorFlowSystem, QueryEngine, TkPLQuery
from repro.core import BestFirstTkPLQ, NaiveTkPLQ, NestedLoopTkPLQ


def cold_pipeline(scenario):
    """The pipeline of a store-less engine: no algorithm warms another's run."""
    return QueryEngine(
        scenario.system.graph, scenario.system.matrix, config=EngineConfig.uncached()
    ).pipeline


@pytest.fixture(scope="module")
def real_query(small_real_scenario):
    scenario = small_real_scenario
    query_set = scenario.pick_query_slocations(0.6, seed=2)
    return TkPLQuery.build(query_set, 3, scenario.start_time, scenario.end_time)


class TestAlgorithmAgreement:
    def test_naive_nl_bf_return_same_flows(self, small_real_scenario, real_query):
        scenario = small_real_scenario
        pipeline = cold_pipeline(scenario)
        naive = NaiveTkPLQ(pipeline).search(scenario.iupt, real_query)
        nested = NestedLoopTkPLQ(pipeline).search(scenario.iupt, real_query)
        best = BestFirstTkPLQ(pipeline).search(scenario.iupt, real_query)

        for sloc_id in real_query.query_slocations:
            assert naive.flows[sloc_id] == pytest.approx(nested.flows[sloc_id], abs=1e-9)
        assert naive.top_k_ids() == nested.top_k_ids() == best.top_k_ids()

    def test_best_first_emits_k_results(self, small_real_scenario, real_query):
        scenario = small_real_scenario
        result = scenario.system.search(scenario.iupt, real_query, algorithm="best-first")
        assert len(result.ranking) == real_query.k
        flows = [entry.flow for entry in result.ranking]
        assert flows == sorted(flows, reverse=True)

    def test_best_first_prunes_at_least_as_much_as_nested_loop(
        self, small_real_scenario
    ):
        scenario = small_real_scenario
        query_set = scenario.pick_query_slocations(0.3, seed=9)
        query = TkPLQuery.build(query_set, 1, scenario.start_time, scenario.end_time)
        pipeline = cold_pipeline(scenario)
        nested = NestedLoopTkPLQ(pipeline).search(scenario.iupt, query)
        best = BestFirstTkPLQ(pipeline).search(scenario.iupt, query)
        assert best.stats.objects_computed <= nested.stats.objects_computed
        assert best.stats.pruning_ratio >= nested.stats.pruning_ratio - 1e-9
        assert best.top_k_ids() == nested.top_k_ids()

    def test_flows_are_bounded_by_object_count(self, small_real_scenario, real_query):
        scenario = small_real_scenario
        result = scenario.system.search(scenario.iupt, real_query, algorithm="nested-loop")
        objects = result.stats.objects_total
        for flow in result.flows.values():
            assert 0.0 <= flow <= objects + 1e-9


class TestEngineFacade:
    def test_unknown_algorithm_rejected(self, small_real_scenario, real_query):
        scenario = small_real_scenario
        with pytest.raises(ValueError):
            scenario.system.search(scenario.iupt, real_query, algorithm="magic")

    def test_top_k_convenience(self, small_real_scenario):
        scenario = small_real_scenario
        result = scenario.system.top_k(
            scenario.iupt,
            scenario.slocation_ids(),
            k=2,
            start=scenario.start_time,
            end=scenario.end_time,
        )
        assert len(result.ranking) == 2

    def test_summary_keys(self, small_real_scenario):
        summary = small_real_scenario.system.summary()
        assert summary["plan_partitions"] == 14
        assert "graph_cells" in summary
        assert "matrix_dimension" in summary

    def test_org_variant_runs_and_agrees_on_top1(self, figure1, figure1_iupt):
        plan = figure1["plan"]
        slocs = figure1["slocs"]
        enabled = IndoorFlowSystem(plan, reduction=DataReductionConfig.enabled())
        disabled = IndoorFlowSystem(plan, reduction=DataReductionConfig.disabled())
        query = TkPLQuery.build([slocs["r1"], slocs["r6"]], 1, 1.0, 8.0)
        top_enabled = enabled.search(figure1_iupt, query).top_k_ids()
        top_disabled = disabled.search(figure1_iupt, query).top_k_ids()
        assert top_enabled == top_disabled == [slocs["r6"]]


class TestBestFirstEdgeCases:
    def test_k_equal_to_query_size(self, small_real_scenario):
        scenario = small_real_scenario
        query_set = scenario.pick_query_slocations(0.4, seed=4)
        query = TkPLQuery.build(
            query_set, len(query_set), scenario.start_time, scenario.end_time
        )
        result = scenario.system.search(scenario.iupt, query, algorithm="best-first")
        assert sorted(result.top_k_ids()) == sorted(query_set)

    def test_empty_window(self, small_real_scenario):
        scenario = small_real_scenario
        query_set = scenario.pick_query_slocations(0.5, seed=6)
        query = TkPLQuery.build(query_set, 2, scenario.end_time + 10, scenario.end_time + 20)
        result = scenario.system.search(scenario.iupt, query, algorithm="best-first")
        assert len(result.ranking) == 2
        assert all(entry.flow == 0.0 for entry in result.ranking)

    def test_single_location_query(self, small_real_scenario):
        scenario = small_real_scenario
        sloc = scenario.slocation_ids()[0]
        query = TkPLQuery.build([sloc], 1, scenario.start_time, scenario.end_time)
        bf = scenario.system.search(scenario.iupt, query, algorithm="best-first")
        nl = scenario.system.search(scenario.iupt, query, algorithm="nested-loop")
        assert bf.top_k_ids() == nl.top_k_ids() == [sloc]
        assert bf.ranking[0].flow == pytest.approx(nl.ranking[0].flow, abs=1e-9)
