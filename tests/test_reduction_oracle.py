"""The one-pass reducer against the parent commit's ``ReduceData``, exact floats.

Also the floor-plan tables it and the forward DP read: the P-location
equivalence classes, the MIL link rows and the reducer's PSL table.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataReductionConfig, QueryEngine, SampleSet
from repro.core.paths import candidate_path_count
from repro.core.reduction import DataReducer, ReductionStats
from repro.space.matrix import EMPTY_CELLS, NO_LINK, IndoorLocationMatrix
from tests.reduction_oracle import OracleReducer, OracleStats

ALL_CONFIGS = [
    DataReductionConfig(*flags) for flags in itertools.product([True, False], repeat=3)
]

# One drawn sample: (pick into the P-location pool, weight).  Dyadic weights
# give masses of exactly 1.0 (the pass-through rule), the float range gives
# masses an ulp off it, and 0.0 is the zero-probability sample.
_weights = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(min_value=0.05, max_value=1.0)
)
_samples = st.tuples(st.integers(min_value=0, max_value=10_000), _weights)
# One drawn dwell: the P-locations reported, how many consecutive sets report
# exactly them (1/2/5), and how each set comes by its probabilities — a scale
# within SampleSet's 1e-3 tolerance of one, or ``normalise=True`` from raw
# weights whose mass is far off 1.0.
_dwells = st.tuples(
    st.lists(_samples, min_size=1, max_size=4),
    st.sampled_from([1, 2, 5]),
    st.one_of(st.none(), st.floats(min_value=0.9992, max_value=1.0008)),
    st.randoms(use_true_random=False),
)
_drawn_sequences = st.lists(_dwells, min_size=0, max_size=5)
_drawn_queries = st.one_of(st.none(), st.sets(st.integers(min_value=0, max_value=50)))


def _pool(matrix):
    """Every P-location of the plan plus two ids the matrix has never seen."""
    known = sorted(matrix.representative)
    return known + [known[-1] + 100, known[-1] + 101]


def _build_sequence(drawn, pool):
    sequence = []
    for drawn_set, repeats, scale, rng in drawn:
        ploc_ids = sorted({pool[pick % len(pool)] for pick, _weight in drawn_set})
        weights = [weight for _pick, weight in drawn_set][: len(ploc_ids)]
        for _repeat in range(repeats):
            if not sum(weights) > 0.0:
                weights[0] = 1.0
            if scale is None:
                pairs = list(zip(ploc_ids, (3.0 * weight for weight in weights)))
                sequence.append(SampleSet.from_pairs(pairs, normalise=True))
            else:
                total = sum(weights)
                pairs = [(p, weight / total * scale) for p, weight in zip(ploc_ids, weights)]
                sequence.append(SampleSet.from_pairs(pairs))
            # The next set of the dwell reports the same P-locations with
            # other probabilities.
            rng.shuffle(weights)
    return sequence


class _OracleStats(OracleStats):
    """The oracle's accounting walk, which still counts samples and candidate paths.

    ``ReductionStats`` no longer keeps those four counters, so they start at
    zero here; ``as_dict`` compares only the fields both keep.
    """

    samples_before = samples_after = candidate_paths_before = candidate_paths_after = 0


def _assert_matches_oracle(sequence, query, graph, matrix):
    for config in ALL_CONFIGS:
        stats, oracle_stats = ReductionStats(), _OracleStats()
        reduced = DataReducer(graph, matrix, config).reduce(sequence, query, stats)
        expected = OracleReducer(graph, matrix, config).reduce(
            sequence, None if query is None else set(query), oracle_stats
        )
        assert reduced.sequence == expected.sequence, config
        assert reduced.psls == expected.psls, config
        assert reduced.pruned == expected.pruned, config
        assert stats.as_dict() == oracle_stats.as_dict(), config
        assert oracle_stats.candidate_paths_after == candidate_path_count(reduced.sequence)


def _query_over(drawn_query, graph):
    if drawn_query is None:
        return None
    slocs = sorted(graph.slocation_to_cell)
    return frozenset(slocs[pick % len(slocs)] for pick in drawn_query)


class TestOnePassReducerEqualsOracle:
    @given(drawn=_drawn_sequences, drawn_query=_drawn_queries)
    @settings(max_examples=150, deadline=None)
    def test_figure1(self, figure1, drawn, drawn_query):
        graph, matrix = figure1["graph"], figure1["matrix"]
        _assert_matches_oracle(
            _build_sequence(drawn, _pool(matrix)), _query_over(drawn_query, graph), graph, matrix
        )

    @given(drawn=_drawn_sequences, drawn_query=_drawn_queries)
    @settings(max_examples=150, deadline=None)
    def test_two_floor_plan(self, small_synth_scenario, drawn, drawn_query):
        system = small_synth_scenario.system
        graph, matrix = system.graph, system.matrix
        _assert_matches_oracle(
            _build_sequence(drawn, _pool(matrix)), _query_over(drawn_query, graph), graph, matrix
        )

    def test_recorded_data_of_the_two_floor_plan(self, small_synth_scenario):
        scenario = small_synth_scenario
        graph, matrix = scenario.system.graph, scenario.system.matrix
        query = frozenset(scenario.slocation_ids()[:3])
        sequences = scenario.iupt.sequences_in(scenario.start_time, scenario.end_time)
        assert sequences
        for sequence in sequences.values():
            _assert_matches_oracle(sequence, query, graph, matrix)

    def test_named_cases(self, figure1):
        graph, matrix, p = figure1["graph"], figure1["matrix"], figure1["plocs"]
        unknown_a, unknown_b = _pool(matrix)[-2:]
        sequence = [
            # equivalent P-locations {p6, p8}, then a dwell of five sets on them
            SampleSet.from_pairs([(p["p5"], 0.3), (p["p6"], 0.6), (p["p8"], 0.1)]),
            *[
                SampleSet.from_pairs([(p["p6"], share), (p["p8"], 1.0 - share)])
                for share in (0.1, 0.3, 0.5, 0.7, 0.9)
            ],
            # ids the matrix does not know share the empty cell set and merge
            SampleSet.from_pairs([(p["p2"], 0.5), (unknown_a, 0.2), (unknown_b, 0.3)]),
            # a zero-probability sample, masses off 1.0, a dwell of two
            SampleSet.from_pairs([(p["p2"], 1.0), (p["p4"], 0.0)]),
            SampleSet.from_pairs([(p["p2"], 2.0), (p["p4"], 5.0)], normalise=True),
            SampleSet.from_pairs([(p["p1"], 0.4996), (p["p3"], 0.4996)]),
            # a merged class whose mass exceeds one is clamped before the rescale
            SampleSet.from_pairs([(p["p5"], 0.0003), (p["p6"], 0.6004), (p["p8"], 0.4)]),
        ]
        lone_off_one = [
            # a lone run whose later sets sit off 1.0
            SampleSet.certain(p["p2"]),
            *[SampleSet.from_pairs([(p["p2"], 0.9995)]) for _ in range(3)],
            # a two-sample set that merges into a lone set inside that run
            SampleSet.certain(p["p6"]),
            SampleSet.from_pairs([(p["p6"], 0.4), (p["p8"], 0.6)]),
            SampleSet.from_pairs([(p["p6"], 0.9995)]),
            SampleSet.certain(p["p6"]),
        ]
        a, b = (
            SampleSet.from_pairs([(p["p5"], 0.2), (p["p6"], 0.5), (p["p8"], 0.3)]),
            SampleSet.from_pairs([(p["p1"], 0.5), (p["p2"], 0.5)]),
        )
        a_again = SampleSet.from_pairs([(p["p5"], 0.3), (p["p6"], 0.1), (p["p8"], 0.6)])
        # a raw tuple that comes back after a run boundary: A, A, B, A
        returning = [a, a_again, b, a, b, b, SampleSet.certain(p["p2"]), b]
        for query in (None, frozenset(), frozenset({figure1["slocs"]["r3"]})):
            for named in (sequence, lone_off_one, returning, []):
                _assert_matches_oracle(named, query, graph, matrix)

    def test_untouched_sets_are_passed_through(self, figure1):
        graph, matrix, p = figure1["graph"], figure1["matrix"], figure1["plocs"]
        untouched = SampleSet.from_pairs([(p["p1"], 0.5), (p["p2"], 0.5)])
        rescaled = SampleSet.from_pairs([(p["p2"], 0.4996), (p["p3"], 0.4996)])
        merged = SampleSet.from_pairs([(p["p6"], 0.5), (p["p8"], 0.5)])
        reduced = DataReducer(graph, matrix).reduce([untouched, rescaled, merged], None)
        assert reduced.sequence[0] is untouched
        assert reduced.sequence[1] is not rescaled
        assert reduced.sequence[2] == SampleSet.certain(p["p6"])
        # a run of kept lone sets: the later ones are skipped, the first returned
        first = SampleSet.certain(p["p6"])
        lone_run = [first, SampleSet.certain(p["p6"]), SampleSet.from_pairs([(p["p6"], 0.9995)])]
        reduced = DataReducer(graph, matrix).reduce(lone_run, None)
        assert len(reduced.sequence) == 1 and reduced.sequence[0] is first

    def test_query_set_may_be_a_set_or_a_frozenset(self, figure1, figure1_iupt):
        graph, matrix = figure1["graph"], figure1["matrix"]
        reducer = DataReducer(graph, matrix)
        inside, outside = figure1["slocs"]["r6"], figure1["slocs"]["r3"]
        for sequence in figure1_iupt.sequences_in(1.0, 4.0).values():
            for query in ({inside}, {outside}):
                assert reducer.reduce(sequence, query) == reducer.reduce(
                    sequence, frozenset(query)
                )


class TestMatrixTables:
    def _matrices(self, figure1, small_synth_scenario):
        for graph, matrix in (
            (figure1["graph"], figure1["matrix"]),
            (small_synth_scenario.system.graph, small_synth_scenario.system.matrix),
        ):
            yield matrix
            yield matrix.merged(graph)

    def test_class_representative_is_the_smallest_id_of_its_cell_set(
        self, figure1, small_synth_scenario
    ):
        for matrix in self._matrices(figure1, small_synth_scenario):
            classes = matrix.equivalence_classes
            for ploc_id in matrix.representative:
                cells = matrix.cells_adjacent(ploc_id)
                assert cells, "every P-location of these plans touches a cell"
                assert classes[ploc_id] == min(
                    other
                    for other in matrix.representative
                    if matrix.cells_adjacent(other) == cells
                )
            assert classes.get(max(matrix.representative) + 100) is None

    def test_equivalent_plocations_of_figure1_share_a_class(self, figure1):
        classes, p = figure1["matrix"].equivalence_classes, figure1["plocs"]
        assert classes[p["p6"]] == classes[p["p8"]] == min(p["p6"], p["p8"])
        assert classes[p["p5"]] == p["p5"]

    def test_link_table_is_symmetric_and_is_the_cell_intersection(
        self, figure1, small_synth_scenario
    ):
        for matrix in self._matrices(figure1, small_synth_scenario):
            for a, b in itertools.combinations_with_replacement(_pool(matrix), 2):
                cells = matrix.cells_adjacent(a) & matrix.cells_adjacent(b)
                assert matrix.link(a, b) == matrix.link(b, a)
                assert matrix.cells_between(a, b) == cells
                if cells:
                    assert matrix.link(a, b) == (cells, 1.0 - 1.0 / len(cells))
                else:
                    assert matrix.link(a, b) is NO_LINK

    def test_unknown_ids_have_no_link_and_are_not_stored(self, figure1):
        graph = figure1["graph"]
        matrix = figure1["matrix"].merged(graph)
        known, linked = figure1["plocs"]["p4"], figure1["plocs"]["p9"]
        unknown = max(matrix.representative) + 100
        assert matrix.link(known, unknown) is NO_LINK
        assert matrix.link(unknown, unknown) == (EMPTY_CELLS, 1.0)
        rows = matrix.link_rows
        assert unknown not in rows
        assert all(unknown not in row for row in rows.values())
        assert all(cells for row in rows.values() for cells, _factor in row.values())
        assert rows[known][linked] is rows[linked][known]  # the pair, stored in both rows
        assert matrix.link(known, linked) is rows[linked][known]

    def test_floor_plan_tables_do_not_grow_with_data(self, small_synth_scenario):
        """Cold queries over the data read the link rows and the PSL table; they
        never add to them, so ``reset_cache()`` has nothing of theirs to forget."""
        scenario = small_synth_scenario
        graph = scenario.system.graph
        engine = QueryEngine(graph, IndoorLocationMatrix.from_graph(graph).merged(graph))
        rows, psls_of = engine.flow_computer.matrix.link_rows, engine.flow_computer.reducer.psls_of

        def sizes():
            return len(rows), sum(map(len, rows.values())), len(psls_of)

        before = sizes()
        assert before[0] and before[2]
        slocs = scenario.slocation_ids()
        start, end = scenario.start_time, scenario.end_time
        for query in (slocs[:3], slocs[1:6], slocs):
            engine.reset_cache()
            assert engine.top_k(scenario.iupt, query, 2, start, end).ranking
            engine.reset_cache()
            assert engine.flows(scenario.iupt, query, start, end)
        assert engine.flow_computer.matrix.link_rows is rows
        assert engine.flow_computer.reducer.psls_of is psls_of
        assert sizes() == before
