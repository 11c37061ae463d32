"""Integration tests for the three TkPLQ search algorithms and the engine facade."""

from __future__ import annotations

import functools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataReductionConfig, EngineConfig, IndoorFlowSystem, QueryEngine, TkPLQuery
from repro.core import BestFirstTkPLQ, NaiveTkPLQ, NestedLoopTkPLQ
from repro.core import best_first as best_first_module
from repro.core.nested_loop import accumulate_flows_over_entries
from repro.core.query import SearchStats
from repro.indexes.aggregate_rtree import CHILDREN, ITEM
from repro.synth import build_synthetic_scenario


def cold_pipeline(scenario):
    """The pipeline of a store-less engine: no algorithm warms another's run."""
    return QueryEngine(
        scenario.system.graph, scenario.system.matrix, config=EngineConfig.uncached()
    ).pipeline


def whole_span_query(scenario) -> TkPLQuery:
    query_set = scenario.pick_query_slocations(0.6, seed=2)
    return TkPLQuery.build(query_set, 3, scenario.start_time, scenario.end_time)


@pytest.fixture(scope="module")
def real_query(small_real_scenario):
    return whole_span_query(small_real_scenario)


def ranked(result):
    return [(entry.sloc_id, entry.flow) for entry in result.ranking]


class TestAlgorithmAgreement:
    def test_naive_nl_bf_return_same_flows(
        self, small_real_scenario, small_synth_scenario
    ):
        # One floor, then two: a multi-floor R-tree node MBR carries floor -1.
        for scenario in (small_real_scenario, small_synth_scenario):
            query = whole_span_query(scenario)
            pipeline = cold_pipeline(scenario)
            naive = NaiveTkPLQ(pipeline).search(scenario.iupt, query)
            nested = NestedLoopTkPLQ(pipeline).search(scenario.iupt, query)
            best = BestFirstTkPLQ(pipeline).search(scenario.iupt, query)

            for sloc_id in query.query_slocations:
                assert naive.flows[sloc_id] == pytest.approx(
                    nested.flows[sloc_id], abs=1e-9
                )
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

    def test_fanout_below_four_is_refused_at_construction(self, small_real_scenario):
        pipeline = cold_pipeline(small_real_scenario)
        with pytest.raises(ValueError, match="rtree_fanout must be at least 4, got 3"):
            BestFirstTkPLQ(pipeline, rtree_fanout=3)
        assert BestFirstTkPLQ(pipeline, rtree_fanout=4).search(
            small_real_scenario.iupt, whole_span_query(small_real_scenario)
        ).ranking

    def test_zero_flows_of_a_dropped_rq_subtree_rank_in_id_order(self):
        """An ``RQ`` of height 3 (20 locations at fanout 4) over a 1.8-s window
        in which most locations have flow 0: the join drops whole ``RQ``
        subtrees that no candidate reaches, and their locations still rank in
        id order among the zeros the heap emits (not ``..., 20, 25, 26, 22,
        23``)."""
        scenario = default_synth_scenario()
        query = TkPLQuery.build(
            [23, 25, 9, 16, 0, 20, 14, 12, 18, 26, 19, 4, 13, 22, 1, 5, 10, 17, 3, 2],
            20,
            886.3,
            888.1,
        )
        best = BestFirstTkPLQ(cold_pipeline(scenario), rtree_fanout=4).search(
            scenario.iupt, query
        )
        naive = NaiveTkPLQ(cold_pipeline(scenario)).search(scenario.iupt, query)
        assert ranked(best) == ranked(naive)
        assert [sloc for sloc, _flow in ranked(best)][-5:] == [20, 22, 23, 25, 26]
        assert best.stats.bound_left <= best.stats.kth_flow == 0.0

    def test_single_location_query(self, small_real_scenario):
        scenario = small_real_scenario
        sloc = scenario.slocation_ids()[0]
        query = TkPLQuery.build([sloc], 1, scenario.start_time, scenario.end_time)
        bf = scenario.system.search(scenario.iupt, query, algorithm="best-first")
        nl = scenario.system.search(scenario.iupt, query, algorithm="nested-loop")
        assert bf.top_k_ids() == nl.top_k_ids() == [sloc]
        assert bf.ranking[0].flow == pytest.approx(nl.ranking[0].flow, abs=1e-9)


# ----------------------------------------------------------------------
# Best-first on multi-floor buildings (Algorithm 4 over floor -1 node MBRs)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def floors_scenario(floors: int):
    return build_synthetic_scenario(
        num_objects=12,
        floors=floors,
        room_rows=1,
        rooms_per_row=3,
        duration_seconds=240.0,
        seed=17,
    )


@functools.lru_cache(maxsize=None)
def default_synth_scenario():
    return build_synthetic_scenario()


def items_under(entry):
    """Every item below one aggregate-tree entry (a leaf entry is its own):
    the S-locations under an ``RQ`` entry, the objects under an ``RC`` one."""
    if entry[CHILDREN] is None:
        return [entry[ITEM]]
    return [item for child in entry[CHILDREN] for item in items_under(child)]


class TestBestFirstOnEveryBuilding:
    @settings(max_examples=40, deadline=None)
    @given(
        floors=st.sampled_from((1, 2, 3)),
        share=st.sampled_from((0.3, 0.6, 1.0)),
        query_seed=st.integers(min_value=0, max_value=40),
        k=st.integers(min_value=1, max_value=5),
        fanout=st.sampled_from((4, 8)),
        window=st.tuples(
            st.floats(min_value=0.0, max_value=0.8), st.floats(min_value=0.1, max_value=1.0)
        ),
    )
    def test_best_first_equals_nested_loop_equals_naive(
        self, floors, share, query_seed, k, fanout, window
    ):
        """Ranking and emitted flows are ``==`` across the three algorithms,
        and every bound best-first pushes dominates the exact (naive) flow of
        every S-location under the pushed entry — the Algorithm-4 invariant
        that makes stopping after ``k`` emissions sound."""
        scenario = floors_scenario(floors)
        query_set = scenario.pick_query_slocations(share, seed=query_seed)
        span = scenario.end_time - scenario.start_time
        start = scenario.start_time + window[0] * span
        end = min(scenario.end_time, start + window[1] * span)
        query = TkPLQuery.build(query_set, min(k, len(query_set)), start, end)

        naive = NaiveTkPLQ(cold_pipeline(scenario)).search(scenario.iupt, query)
        nested = NestedLoopTkPLQ(cold_pipeline(scenario)).search(scenario.iupt, query)
        best_first = BestFirstTkPLQ(cold_pipeline(scenario), rtree_fanout=fanout)
        pushed = []
        push = best_first_module._push

        def recording(heap, order, entry, bound, join_list):
            pushed.append((bound, entry))
            push(heap, order, entry, bound, join_list)

        with mock.patch.object(best_first_module, "_push", recording):
            best = best_first.search(scenario.iupt, query)

        assert ranked(best) == ranked(nested) == ranked(naive)
        assert pushed
        for bound, entry in pushed:
            for sloc_id in items_under(entry):
                assert bound >= naive.flows[sloc_id], (sloc_id, bound, entry)

    def test_object_spanning_two_floors_is_inserted_per_floor_and_counted_once(
        self, small_synth_scenario
    ):
        """``_psl_bounds`` emits one MBR per floor, so such an object sits in RC
        twice — that only loosens a bound (counted per floor); a location's
        exact flow sums each object that can reach it once."""
        scenario = small_synth_scenario
        pipeline = cold_pipeline(scenario)
        graph = scenario.system.graph
        slocs = scenario.slocation_ids()
        stats = SearchStats()
        ctx = pipeline.context((scenario.start_time, scenario.end_time), set(slocs), stats=stats)
        entries = pipeline.presences(
            ctx, pipeline.fetch.run(ctx, scenario.iupt), build_paths=False
        )
        best_first = BestFirstTkPLQ(pipeline)
        objects, reachers = best_first._build_rc(entries)
        in_rc = [object_id for entry in objects for object_id in items_under(entry)]
        spanning = {}
        for object_id, stored in entries:
            if stored.pruned:
                continue
            bounds = BestFirstTkPLQ._psl_bounds(graph.plan.slocations, stored.psls)
            assert len(bounds) == len({floor for *_box, floor in bounds})  # one per floor
            assert in_rc.count(object_id) == len(bounds)
            if len(bounds) == 2:
                spanning[object_id] = stored
        assert spanning, "the fixture has no object whose PSLs span both floors"
        object_id, stored = sorted(spanning.items())[0]
        sloc_id = sorted(stored.psls)[0]
        cell_id = graph.parent_cell(sloc_id)
        reaching = [reacher for reacher, _stored in reachers[sloc_id]]
        assert reaching.count(object_id) == 1 and reaching == sorted(reaching)
        before = stats.flow_evaluations
        flow = best_first._exact_flow(ctx, reachers[sloc_id], cell_id, stats)
        assert stats.flow_evaluations == before + len(reaching)
        folded = accumulate_flows_over_entries(
            entries, [sloc_id], {sloc_id: cell_id}, SearchStats()
        )
        assert flow == folded[sloc_id] <= len(reaching)
