"""Tests for the execution-engine layer.

Covers the pipeline stages one by one, the cross-query presence store (LRU
bounds, hit/miss accounting, one entry per window whatever the query set),
the regression for the historical ``flows_for_all`` cache hazard, and
batched-vs-sequential result equality on both scenario builders.
"""

from __future__ import annotations

import pytest

from repro import (
    DataReductionConfig,
    EngineConfig,
    FlowComputer,
    QueryEngine,
    TkPLQuery,
)
from repro.core import SearchStats
from repro.engine import PresenceStore, StoredPresence
from repro.engine.cache import WindowPresences
from repro.experiments.runner import overlapping_queries

WINDOW = (1.0, 8.0)


def fresh_computer(figure1, reduction=None) -> FlowComputer:
    return FlowComputer(
        figure1["graph"],
        figure1["matrix"],
        reduction or DataReductionConfig.enabled(),
    )


def figure_engine(figure1, reduction=None, config=None) -> QueryEngine:
    return QueryEngine(
        figure1["graph"],
        figure1["matrix"],
        reduction or DataReductionConfig.enabled(),
        config=config,
    )


def fresh_engine(scenario, config=None, reduction=None) -> QueryEngine:
    return QueryEngine(
        scenario.system.graph,
        scenario.system.matrix,
        reduction or DataReductionConfig.enabled(),
        config=config,
    )


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class TestEngineConfig:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            EngineConfig(presence_store_capacity=-1)

    def test_factories(self):
        assert EngineConfig().caching_enabled
        assert not EngineConfig.uncached().caching_enabled


# ----------------------------------------------------------------------
# Presence store
# ----------------------------------------------------------------------
class TestPresenceStore:
    """The store's unit is the window; its counters count artefacts."""

    @staticmethod
    def window(*object_ids: int) -> WindowPresences:
        return WindowPresences(
            [
                (oid, StoredPresence(psls=frozenset({1}), sequence=()))
                for oid in object_ids
            ]
        )

    def test_keyed_by_window(self):
        store = PresenceStore(capacity=8)
        store.put(WINDOW, self.window(7))
        assert store.get((1.0, 9.0)) is None

    def test_lru_eviction_and_stats(self):
        """Whole windows leave, oldest first, until the artefact total fits."""
        store = PresenceStore(capacity=5)
        first, second, third = (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)
        store.put(first, self.window(1, 2))
        store.put(second, self.window(1, 2))
        assert store.get(first) is not None  # first becomes most recent
        store.put(third, self.window(1, 2, 3))  # 7 artefacts: evicts second
        assert store.get(second) is None
        assert store.get(first) is not None
        assert store.get(third) is not None
        assert (len(store), store.windows) == (5, 2)
        assert store.stats.evictions == 2
        assert store.stats.hits == 2 + 2 + 3  # one per artefact served
        assert store.stats.misses == store.stats.puts == 7  # counted at the put
        assert 0.0 < store.stats.hit_rate < 1.0

    def test_window_larger_than_capacity_is_not_kept(self):
        store = PresenceStore(capacity=2)
        store.put(WINDOW, self.window(1))
        store.put((2.0, 3.0), self.window(1, 2, 3))
        assert (len(store), store.windows) == (0, 0)
        assert store.stats.evictions == 4

    def test_replacing_a_window_does_not_leak_artefacts(self):
        store = PresenceStore(capacity=8)
        store.put(WINDOW, self.window(1, 2, 3))
        replacement = self.window(1, 2)
        store.put(WINDOW, replacement)
        assert (len(store), store.windows) == (2, 1)
        assert store.get(WINDOW) is replacement
        store.clear()
        assert (len(store), store.windows) == (0, 0)

    def test_store_key_normalisation(self):
        store = PresenceStore(capacity=8)
        entry = self.window(1)
        store.put((0, 10), entry, (9, 4))
        assert store.get((0.0, 10.0), (9, 4)) is entry
        assert store.get((0, 10)) is None  # no data key is its own key

    def test_keyed_by_data_version(self):
        store = PresenceStore(capacity=8)
        store.put(WINDOW, self.window(7), data_key=(1, 5))
        assert store.get(WINDOW, data_key=(1, 6)) is None
        assert store.get(WINDOW, data_key=(2, 5)) is None
        assert store.get(WINDOW, data_key=(1, 5)) is not None

    def test_pop_then_put_carries_a_window_to_a_new_token(self):
        """What a continuous refresh does to artefacts a batch left alone."""
        store = PresenceStore(capacity=8)
        entry = self.window(1, 2, 3)
        entry.derived["anything"] = object()
        store.put(WINDOW, entry, data_key=(1, 5))
        assert store.pop(WINDOW, data_key=(1, 5)) is entry
        assert store.pop(WINDOW, data_key=(1, 5)) is None
        assert len(store) == 0
        store.put(WINDOW, entry, data_key=(1, 6), carried=2)
        assert store.get(WINDOW, data_key=(1, 6)) is entry
        assert "anything" in entry.derived
        assert store.stats.rekeys == 2
        assert store.stats.misses == 3 + 1  # the first put, then the one recomputed
        assert store.stats.hits == 2 + 3  # carried artefacts, then the get

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PresenceStore(capacity=0)


# ----------------------------------------------------------------------
# Stage-by-stage units
# ----------------------------------------------------------------------
class TestStages:
    def test_fetch_stage_deterministic_order_and_totals(self, figure1, figure1_iupt):
        pipeline = figure_engine(figure1).pipeline
        ctx = pipeline.context(WINDOW, frozenset(figure1["slocs"].values()))
        sequences = pipeline.fetch.run(ctx, figure1_iupt)
        assert list(sequences) == sorted(sequences)
        assert ctx.stats.objects_total == 3
        # A second fetch over the same window must not inflate the total.
        pipeline.fetch.run(ctx, figure1_iupt)
        assert ctx.stats.objects_total == 3

    def test_reduce_stage_matches_reducer(self, figure1, figure1_iupt):
        pipeline = figure_engine(figure1).pipeline
        computer = pipeline.flow_computer
        query_key = frozenset({figure1["slocs"]["r6"]})
        ctx = pipeline.context(WINDOW, query_key)
        sequences = figure1_iupt.sequences_in(*WINDOW)
        for sequence in sequences.values():
            staged = pipeline.reduce.run(ctx, sequence)
            direct = computer.reducer.reduce(sequence, set(query_key))
            assert staged.sequence == direct.sequence
            assert staged.psls == direct.psls
            assert staged.pruned == direct.pruned

    def test_path_stage_matches_presence_computation(self, figure1, figure1_iupt):
        pipeline = figure_engine(figure1, DataReductionConfig.disabled()).pipeline
        computer = pipeline.flow_computer
        ctx = pipeline.context(WINDOW, None)
        sequences = figure1_iupt.sequences_in(*WINDOW)
        cell = figure1["graph"].parent_cell(figure1["slocs"]["r6"])
        for sequence in sequences.values():
            staged = pipeline.paths.run(ctx, tuple(sequence))
            direct = computer.presence_computation(tuple(sequence))
            assert staged.presence_in_cell(cell) == direct.presence_in_cell(cell)

    def test_presence_stage_store_accounting(self, figure1, figure1_iupt):
        scenario_like = figure1
        engine = QueryEngine(scenario_like["graph"], scenario_like["matrix"])
        pipeline = engine.pipeline
        query_key = frozenset({scenario_like["slocs"]["r6"]})
        ctx = pipeline.context(WINDOW, query_key)
        sequences = figure1_iupt.sequences_in(*WINDOW)
        object_id = next(iter(sequences))
        one_object = {object_id: sequences[object_id]}

        [(_, first)] = pipeline.presences(ctx, one_object)
        seen_after_first = ctx.stats.reduction_stats.objects_seen
        assert engine.store.stats.misses == 1
        assert engine.store.stats.puts >= 1

        [(_, second)] = pipeline.presences(ctx, one_object)
        assert second is first  # the cached artefact, not a recomputation
        assert engine.store.stats.hits == 1
        assert ctx.stats.reduction_stats.objects_seen == seen_after_first

        # The stage itself knows no store: it always computes.
        third = pipeline.presence.run(ctx, object_id, sequences[object_id])
        assert third is not first and third.computation is not None
        assert engine.store.stats.hits == 1

    def test_pruned_objects_are_cached_too(self, figure1, figure1_iupt):
        engine = QueryEngine(figure1["graph"], figure1["matrix"])
        pipeline = engine.pipeline
        # Objects never near r5 are pruned under a {r5} query: the query
        # does not read them or build their presences, yet the entry keeps
        # them, reduced once, for the query sets that do read them.
        r5 = figure1["slocs"]["r5"]
        ctx = pipeline.context(WINDOW, frozenset({r5}))
        sequences = figure1_iupt.sequences_in(*WINDOW)
        entries = dict(pipeline.presences(ctx, sequences))
        pruned_ids = [oid for oid, entry in entries.items() if r5 not in entry.psls]
        assert pruned_ids, "expected at least one pruned object under {r5}"
        assert ctx.stats.reduction_stats.objects_pruned == len(pruned_ids)
        for object_id, entry in entries.items():
            assert not entry.pruned
            assert (entry.computation is None) == (object_id in pruned_ids)
        seen = ctx.stats.reduction_stats.objects_seen
        again = dict(pipeline.presences(ctx, sequences))
        assert ctx.stats.reduction_stats.objects_seen == seen
        for object_id in pruned_ids:
            assert again[object_id] is entries[object_id]
            assert again[object_id].computation is None


# ----------------------------------------------------------------------
# The flows_for_all cache-correctness regression
# ----------------------------------------------------------------------
class TestCacheCorrectnessRegression:
    def test_one_entry_serves_every_query_set(self, figure1, figure1_iupt):
        """A window's artefacts, stored under one query set, serve another.

        The historical object-id-only keying served an artefact reduced for
        ``{B}`` to location ``A``, bypassing A's pruning decision.  Artefacts
        now carry no query-relative decision: each query takes the PSL test
        itself, so it builds presences for — and reads — exactly the objects
        whose PSLs meet its set, and no others.
        """
        engine = figure_engine(figure1)
        pipeline = engine.pipeline
        slocs = figure1["slocs"]
        sequences = figure1_iupt.sequences_in(*WINDOW)
        under_r1 = pipeline.context(WINDOW, {slocs["r1"]})
        cached = dict(pipeline.presences(under_r1, sequences))
        built = {oid for oid, entry in cached.items() if entry.computation is not None}
        assert built == {oid for oid, entry in cached.items() if slocs["r1"] in entry.psls}
        for query_set in ({slocs["r3"]}, None):
            other = pipeline.context(WINDOW, query_set)
            hits_before = engine.store.stats.hits
            for object_id, entry in pipeline.presences(other, sequences):
                assert entry is cached[object_id]
                reads = query_set is None or not entry.psls.isdisjoint(query_set)
                assert entry.computation is not None or not reads
            assert engine.store.stats.hits == hits_before + len(sequences)
            assert other.stats.computed_object_ids == {
                oid for oid, entry in cached.items()
                if (query_set is None or not entry.psls.isdisjoint(query_set))
                and oid not in built
            }
            built = {oid for oid, entry in cached.items() if entry.computation is not None}
        assert engine.cache_stats()["windows"] == 1

    def test_flows_for_all_matches_independent_flows(self, figure1, figure1_iupt):
        """Shared-pass flows and accounting must equal independent flow calls.

        Under the old shared cache, a location processed after one that had
        cached an object reused the artefact even when the object's PSLs
        exclude the later location, inflating ``flow_evaluations`` relative
        to the per-location pruning an independent call performs.
        """
        sloc_ids = sorted(figure1["slocs"].values())
        shared_stats = SearchStats()
        pipeline = figure_engine(figure1).pipeline
        context = pipeline.context(WINDOW, sloc_ids, stats=shared_stats)
        shared = pipeline.flows(context, figure1_iupt, sloc_ids)
        assert shared == figure_engine(figure1).flows(figure1_iupt, sloc_ids, *WINDOW)

        independent_evaluations = 0
        for sloc_id in sloc_ids:
            result = figure_engine(figure1).flow(figure1_iupt, sloc_id, *WINDOW)
            assert shared[sloc_id] == result.flow
            independent_evaluations += result.stats.flow_evaluations
        assert shared_stats.flow_evaluations == independent_evaluations
        assert shared_stats.objects_total == 3


# ----------------------------------------------------------------------
# Engine equivalence with the per-object primitives
# ----------------------------------------------------------------------
class TestEngineEquivalence:
    def test_engine_flow_matches_flow_computer(self, figure1, figure1_iupt):
        engine = figure_engine(figure1, DataReductionConfig.disabled())
        computer = fresh_computer(figure1, DataReductionConfig.disabled())
        sequences = figure1_iupt.sequences_in(*WINDOW)
        for name, sloc_id in figure1["slocs"].items():
            # Algorithm 2 by hand: the object presences summed in fetch order.
            expected = 0.0
            cell = figure1["graph"].parent_cell(sloc_id)
            for sequence in sequences.values():
                computation = computer.presence_computation(tuple(sequence))
                expected += computation.presence_in_cell(cell)
            assert engine.flow(figure1_iupt, sloc_id, *WINDOW).flow == expected, name

    @pytest.mark.parametrize("algorithm", ["naive", "nested-loop", "best-first"])
    def test_algorithms_agree_through_engine(
        self, small_real_scenario, algorithm
    ):
        scenario = small_real_scenario
        query = TkPLQuery.build(
            scenario.pick_query_slocations(0.6, seed=2),
            3,
            scenario.start_time,
            scenario.end_time,
        )
        via_engine = fresh_engine(scenario).search(scenario.iupt, query, algorithm)
        via_system = scenario.system.search(scenario.iupt, query, algorithm)
        assert via_engine.top_k_ids() == via_system.top_k_ids()
        assert via_engine.flows == via_system.flows

    def test_warm_store_returns_identical_answers(self, small_real_scenario):
        scenario = small_real_scenario
        engine = fresh_engine(scenario)
        query = TkPLQuery.build(
            scenario.pick_query_slocations(0.5, seed=4),
            2,
            scenario.start_time,
            scenario.end_time,
        )
        cold = engine.search(scenario.iupt, query, "nested-loop")
        warm = engine.search(scenario.iupt, query, "nested-loop")
        assert cold.flows == warm.flows
        assert cold.top_k_ids() == warm.top_k_ids()
        stats = engine.cache_stats()
        assert stats["hits"] > 0
        # The warm run reduced nothing: everything came from the store.
        assert warm.stats.reduction_stats.objects_seen == 0

    def test_store_invalidated_when_table_grows(self, figure1, figure1_iupt):
        """Streaming new reports in must not be answered from stale artefacts.

        The presence store keys on the IUPT's identity-and-version token, so
        a cached-engine flow recomputes after an append instead of serving
        the pre-append value.
        """
        from repro import IUPT, SampleSet

        iupt = IUPT()
        # A private copy; fixtures stay pristine.
        iupt.ingest_batch(figure1_iupt.records_in_time_order())
        engine = QueryEngine(figure1["graph"], figure1["matrix"])
        sloc_id = figure1["slocs"]["r6"]

        before = engine.flow(iupt, sloc_id, *WINDOW).flow
        # A new visitor reported squarely inside the hallway (p8 in r6).
        iupt.report(99, SampleSet.from_pairs([(figure1["plocs"]["p8"], 1.0)]), 5.0)
        after = engine.flow(iupt, sloc_id, *WINDOW).flow
        fresh = QueryEngine(figure1["graph"], figure1["matrix"]).flow(
            iupt, sloc_id, *WINDOW
        ).flow
        assert after == fresh
        assert after > before

    def test_best_first_reuses_nested_loop_artefacts(self, small_real_scenario):
        scenario = small_real_scenario
        engine = fresh_engine(scenario)
        query = TkPLQuery.build(
            scenario.pick_query_slocations(0.5, seed=4),
            2,
            scenario.start_time,
            scenario.end_time,
        )
        nl = engine.search(scenario.iupt, query, "nested-loop")
        hits_before = engine.store.stats.hits
        bf = engine.search(scenario.iupt, query, "best-first")
        assert engine.store.stats.hits > hits_before
        assert bf.top_k_ids() == nl.top_k_ids()


# ----------------------------------------------------------------------
# Unknown S-locations: one check, shared by every entry point
# ----------------------------------------------------------------------
UNKNOWN_SLOC = 10**6


class TestUnknownSLocation:
    @pytest.mark.parametrize(
        "entry_point",
        ["naive", "nested-loop", "best-first", "flow", "flows", "batch", "standing"],
    )
    def test_every_entry_point_names_the_unknown_id(
        self, figure1, figure1_iupt, entry_point
    ):
        """Best-first used to die on a bare ``KeyError`` while the other
        algorithms, ``flow`` and ``flows`` answered the same id with 0.0."""
        engine = figure_engine(figure1)
        slocs = sorted(figure1["slocs"].values()) + [UNKNOWN_SLOC]
        with pytest.raises(ValueError, match=r"unknown S-location id\(s\): \[1000000\]"):
            if entry_point == "flow":
                engine.flow(figure1_iupt, UNKNOWN_SLOC, *WINDOW)
            elif entry_point == "flows":
                engine.flows(figure1_iupt, slocs, *WINDOW)
            elif entry_point == "batch":
                engine.batch(figure1_iupt, [TkPLQuery.build(slocs, 2, *WINDOW)])
            elif entry_point == "standing":
                with engine.continuous(figure1_iupt) as continuous:
                    continuous.register_top_k(slocs, 2, *WINDOW)
            else:
                engine.top_k(figure1_iupt, slocs, 2, *WINDOW, algorithm=entry_point)


# ----------------------------------------------------------------------
# Batched evaluation
# ----------------------------------------------------------------------
class TestBatchPlanner:
    """``QueryEngine.batch``: one nested-loop query per entry; the queries
    over one window share its store entry."""

    @pytest.mark.parametrize(
        "scenario_fixture", ["small_real_scenario", "small_synth_scenario"]
    )
    def test_batch_equals_sequential(self, scenario_fixture, request):
        scenario = request.getfixturevalue(scenario_fixture)
        queries = overlapping_queries(scenario, count=6, k=2, q_fraction=0.5, seed=3)

        report = fresh_engine(scenario).batch(scenario.iupt, queries)
        assert report.groups == 1
        assert len(report) == len(queries)
        if scenario_fixture == "small_real_scenario":
            # Guard against a vacuous comparison: the real scenario must
            # produce actual flows (the synthetic grid's currently don't).
            assert any(
                flow > 0.0
                for result in report.results
                for flow in result.flows.values()
            )

        for query, batched in zip(queries, report.results):
            sequential = fresh_engine(
                scenario, config=EngineConfig.uncached()
            ).search(scenario.iupt, query, "nested-loop")
            assert batched.flows == sequential.flows
            assert batched.top_k_ids() == sequential.top_k_ids()

    def test_batch_groups_by_window(self, small_real_scenario):
        scenario = small_real_scenario
        early = overlapping_queries(
            scenario, count=2, k=2, q_fraction=0.4, delta_seconds=120.0, seed=1
        )
        late = overlapping_queries(
            scenario, count=2, k=2, q_fraction=0.4, delta_seconds=90.0, seed=8
        )
        queries = [early[0], late[0], early[1], late[1]]
        engine = fresh_engine(scenario)
        report = engine.batch(scenario.iupt, queries)
        assert report.groups == 2
        assert engine.cache_stats()["windows"] == 2
        for query, batched in zip(queries, report.results):
            sequential = fresh_engine(
                scenario, config=EngineConfig.uncached()
            ).search(scenario.iupt, query, "nested-loop")
            assert batched.flows == sequential.flows

    def test_multi_window_shared_stats_sum_per_window(self, small_real_scenario):
        """objects_total across window groups must sum, not max.

        A per-window maximum undercounts multi-window batches and can push
        the aggregate pruning ratio negative (more computed objects than the
        reported population).
        """
        scenario = small_real_scenario
        early = overlapping_queries(
            scenario, count=2, k=2, q_fraction=0.9, delta_seconds=120.0, seed=1
        )
        late = overlapping_queries(
            scenario, count=2, k=2, q_fraction=0.9, delta_seconds=90.0, seed=8
        )
        report = fresh_engine(scenario).batch(scenario.iupt, early + late)
        expected_total = sum(
            len(scenario.iupt.sequences_in(*window))
            for window in {early[0].interval, late[0].interval}
        )
        assert report.shared_stats.objects_total == expected_total
        assert report.shared_stats.pruning_ratio >= 0.0

    def test_batch_matches_all_three_algorithms(self, small_synth_scenario):
        scenario = small_synth_scenario
        queries = overlapping_queries(scenario, count=4, k=2, q_fraction=0.6, seed=11)
        report = fresh_engine(scenario).batch(scenario.iupt, queries)
        for query, batched in zip(queries, report.results):
            for algorithm in ("naive", "nested-loop", "best-first"):
                independent = fresh_engine(
                    scenario, config=EngineConfig.uncached()
                ).search(scenario.iupt, query, algorithm)
                assert batched.top_k_ids() == independent.top_k_ids(), algorithm


# ----------------------------------------------------------------------
# Statistics plumbing
# ----------------------------------------------------------------------
class TestSearchStats:
    def test_note_objects_total_keeps_maximum(self):
        stats = SearchStats()
        stats.note_objects_total(5)
        stats.note_objects_total(3)
        stats.note_objects_total(5)
        assert stats.objects_total == 5

    def test_merge_combines_counters(self):
        left, right = SearchStats(), SearchStats()
        left.note_object_computed(1)
        right.note_object_computed(1)
        right.note_object_computed(2)
        left.flow_evaluations = 2
        right.flow_evaluations = 3
        right.note_objects_total(7)
        right.reduction_stats.objects_seen = 4
        left.merge(right)
        assert left.objects_computed == 2  # distinct objects, not a sum
        assert left.flow_evaluations == 5
        assert left.objects_total == 7
        assert left.reduction_stats.objects_seen == 4

    def test_merge_across_windows_sums_populations(self):
        left, right = SearchStats(), SearchStats()
        left.note_objects_total(10)
        right.note_objects_total(10)
        left.merge(right, same_window=False)
        assert left.objects_total == 20
        # Same-window merging keeps the maximum (one fetch, counted once).
        left2, right2 = SearchStats(), SearchStats()
        left2.note_objects_total(10)
        right2.note_objects_total(10)
        left2.merge(right2)
        assert left2.objects_total == 10
