"""The forward-DP object presence against the brute-force Equation 1-2 oracle."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataReducer, DataReductionConfig
from repro.core.paths import pass_probability
from repro.core.presence import PresenceComputation
from repro.core.query import SearchStats
from repro.data import SampleSet
from tests.presence_oracle import _forward_presences, oracle_presence, valid_paths

TOLERANCE = 1e-12

# One drawn sample: (pick, weight, stay connected to the previous set?).
_samples = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=1.0),
    st.sampled_from([True, True, True, False]),
)
_drawn_sequences = st.lists(
    st.lists(_samples, min_size=1, max_size=4), min_size=1, max_size=6
)
# SampleSet accepts totals within 1e-3 of one, so candidate mass need not be 1.
_scales = st.floats(min_value=0.9992, max_value=1.0008)


def _build_sequence(drawn, scale, graph, matrix):
    """Map drawn picks onto real P-locations.

    A "connected" sample is picked among the P-locations directly reachable
    from the previous set (so long sequences keep valid paths); the others
    are picked anywhere, which yields dead sequences, lone survivors and
    equivalent P-locations sharing one set.
    """
    everywhere = sorted(graph.cells_of_plocation)
    sequence = []
    for drawn_set in drawn:
        reachable = sorted(
            q
            for q in everywhere
            if sequence and any(matrix.cells_between(s.ploc_id, q) for s in sequence[-1])
        )
        total = sum(weight for _pick, weight, _connected in drawn_set)
        pairs = []
        for pick, weight, connected in drawn_set:
            pool = reachable if connected and reachable else everywhere
            pairs.append((pool[pick % len(pool)], weight / total * scale))
        sequence.append(SampleSet.from_pairs(pairs))
    return sequence


def _assert_matches_oracle(sequence, graph, matrix):
    computation = PresenceComputation(sequence, matrix)
    for cell_id in graph.cells:
        assert computation.presence_in_cell(cell_id) == pytest.approx(
            oracle_presence(sequence, matrix, cell_id), abs=TOLERANCE, rel=0
        )
    return computation


class TestForwardDpEqualsOracle:
    @given(drawn=_drawn_sequences, scale=_scales)
    @settings(max_examples=150, deadline=None)
    def test_figure1(self, figure1, drawn, scale):
        graph, matrix = figure1["graph"], figure1["matrix"]
        _assert_matches_oracle(_build_sequence(drawn, scale, graph, matrix), graph, matrix)

    @given(drawn=_drawn_sequences, scale=_scales)
    @settings(max_examples=150, deadline=None)
    def test_two_floor_plan(self, small_synth_scenario, drawn, scale):
        system = small_synth_scenario.system
        _assert_matches_oracle(
            _build_sequence(drawn, scale, system.graph, system.matrix),
            system.graph,
            system.matrix,
        )

    def test_pass_probability_is_equation_2(self, figure1):
        """The free function the Monte Carlo baseline uses, on o2's paths."""
        plocs, matrix, graph = figure1["plocs"], figure1["matrix"], figure1["graph"]
        sequence = [
            SampleSet.from_pairs([(plocs["p1"], 0.5), (plocs["p2"], 0.5)]),
            SampleSet.from_pairs([(plocs["p2"], 0.7), (plocs["p4"], 0.3)]),
            SampleSet.certain(plocs["p6"]),
        ]
        paths = valid_paths(sequence, matrix)
        assert paths
        for cell_id in graph.cells:
            weighted = sum(
                probability * pass_probability(steps, cell_id)
                for _plocs, probability, steps in paths
            )
            assert weighted == pytest.approx(
                oracle_presence(sequence, matrix, cell_id), abs=TOLERANCE
            )
        assert pass_probability(paths[0][2], None) == 0.0


# One drawn set for the bitwise check: 1-3 samples, how many consecutive sets
# report exactly it (a lone one repeated is a chain of certain sets), and its
# mass — exactly one, an ulp either side of it, or anywhere SampleSet accepts.
_bitwise_sets = st.tuples(
    st.lists(_samples, min_size=1, max_size=3),
    st.sampled_from([1, 1, 2, 4]),
    st.one_of(
        st.sampled_from([1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]), _scales
    ),
)
_bitwise_sequences = st.lists(_bitwise_sets, min_size=1, max_size=7)


def _build_bitwise_sequence(drawn, graph, matrix):
    """Sets of 1-3 samples (so steps run from one, two and three tail states),
    picked among the P-locations reachable from the previous set or anywhere
    (dead ends), with an id the matrix does not know in the pool."""
    everywhere = sorted(graph.cells_of_plocation)
    everywhere.append(everywhere[-1] + 100)
    sequence = []
    for drawn_set, repeats, scale in drawn:
        reachable = sorted(
            q
            for q in everywhere
            if sequence and any(matrix.cells_between(p, q) for p in sequence[-1].ploc_ids)
        )
        weights = {}
        for pick, weight, connected in drawn_set:
            pool = reachable if connected and reachable else everywhere
            ploc_id = pool[pick % len(pool)]
            weights[ploc_id] = weights.get(ploc_id, 0.0) + weight
        total = sum(weights.values())
        ploc_ids = sorted(weights)
        probs = [weights[p] / total * scale for p in ploc_ids]
        if len(ploc_ids) == 1:
            probs = [scale]  # a lone set: certain, or an ulp off it
        sequence.extend([SampleSet._from_columns(ploc_ids, probs)] * repeats)
    return sequence


def _assert_bitwise_parent(sequence, matrix):
    """Every cell's presence (by ``float.hex``) and the tail count equal the parent DP's."""
    computation = PresenceComputation(sequence, matrix)
    presences, tail_states = _forward_presences(sequence, matrix)
    assert {cell: value.hex() for cell, value in computation.presences.items()} == {
        cell: value.hex() for cell, value in presences.items()
    }
    assert computation.tail_states == tail_states


class TestForwardDpEqualsParentBitwise:
    @given(drawn=_bitwise_sequences)
    @settings(max_examples=300, deadline=None)
    def test_figure1(self, figure1, drawn):
        graph, matrix = figure1["graph"], figure1["matrix"]
        _assert_bitwise_parent(_build_bitwise_sequence(drawn, graph, matrix), matrix)

    @given(drawn=_bitwise_sequences)
    @settings(max_examples=300, deadline=None)
    def test_two_floor_plan(self, small_synth_scenario, drawn):
        system = small_synth_scenario.system
        _assert_bitwise_parent(
            _build_bitwise_sequence(drawn, system.graph, system.matrix), system.matrix
        )

    def test_reduced_recorded_data_of_the_two_floor_plan(self, small_synth_scenario):
        scenario = small_synth_scenario
        graph, matrix = scenario.system.graph, scenario.system.matrix
        sequences = scenario.iupt.sequences_in(scenario.start_time, scenario.end_time)
        assert sequences
        for config in (DataReductionConfig.enabled(), DataReductionConfig.disabled()):
            reducer = DataReducer(graph, matrix, config)
            for sequence in sequences.values():
                _assert_bitwise_parent(reducer.reduce(sequence, None).sequence, matrix)

    def test_named_steps(self, figure1):
        """A chain of certain lone sets, a single-tail step off certainty
        through a two-cell link, a certain set an ulp off one, steps from two
        and three tails, a dead end and an unknown P-location."""
        matrix, p = figure1["matrix"], figure1["plocs"]
        below = math.nextafter(1.0, 0.0)
        unknown = max(matrix.representative) + 100
        sequences = [
            [SampleSet.certain(p[name]) for name in ("p4", "p9", "p7", "p9", "p2", "p1")],
            [
                SampleSet.certain(p["p4"]),
                SampleSet.certain(p["p9"]),
                SampleSet.from_pairs([(p["p2"], 0.5), (p["p9"], 0.5)]),
            ],
            [SampleSet._from_columns([p["p2"]], [below]), SampleSet.certain(p["p6"])],
            [
                SampleSet.from_pairs([(p["p2"], 0.5), (p["p5"], 0.5)]),
                SampleSet.from_pairs([(p["p6"], 0.3), (p["p8"], 0.7)]),
                SampleSet.from_pairs([(p["p2"], 0.2), (p["p4"], 0.3), (p["p9"], 0.5)]),
                SampleSet.certain(p["p6"]),
            ],
            [SampleSet.certain(p["p3"]), SampleSet.certain(p["p4"])],
            [SampleSet.certain(p["p6"]), SampleSet.from_pairs([(p["p8"], 0.5), (unknown, 0.5)])],
            [SampleSet.certain(unknown), SampleSet.certain(p["p6"])],
        ]
        for sequence in sequences:
            _assert_bitwise_parent(sequence, matrix)


class TestRemovedPathCap:
    def test_4096_path_groups_are_exact(self, figure1, figure1_flow_exact):
        """Twelve ``{p2: .5, p5: .5}`` sets: 4096 valid concrete paths, all in
        distinct (tail, step-chain) groups.

        The enumerator this DP replaced kept at most 1024 groups per step by
        default and still divided by the full candidate mass, so it answered
        0.25 for the hallway and 0.216 / 0.163 for the r4 / r5 cells where
        the exact presences are 0.99999976 and 0.72531116.
        """
        graph, matrix = figure1["graph"], figure1["matrix"]
        plocs, slocs = figure1["plocs"], figure1["slocs"]
        sequence = [
            SampleSet.from_pairs([(plocs["p2"], 0.5), (plocs["p5"], 0.5)])
            for _ in range(12)
        ]
        assert len(valid_paths(sequence, matrix)) == 4096
        _assert_matches_oracle(sequence, graph, matrix)

        stats = SearchStats()
        presence = figure1_flow_exact.presence_computation(sequence, stats)
        assert stats.path_stats.truncated_objects == 0
        assert stats.path_stats.candidate_paths == 4096
        assert presence.presence_in_cell(graph.parent_cell(slocs["r6"])) == pytest.approx(
            0.99999976, abs=1e-8
        )
        for room in ("r4", "r5"):
            assert presence.presence_in_cell(
                graph.parent_cell(slocs[room])
            ) == pytest.approx(0.72531116, abs=1e-8)


class TestPresenceBounds:
    def test_certain_pass_stays_within_unit_interval(self, figure1, figure1_flow_exact):
        """A ``{p6, p8}`` dwell: every path passes the hallway with certainty,
        so ``Σ M − Σ W`` is the subtraction most exposed to rounding."""
        graph, plocs, slocs = figure1["graph"], figure1["plocs"], figure1["slocs"]
        sequence = [
            SampleSet.from_pairs([(plocs["p6"], 0.3), (plocs["p8"], 0.7)])
            for _ in range(7)
        ]
        stats = SearchStats()
        presence = figure1_flow_exact.presence_computation(sequence, stats)
        for cell_id in graph.cells:
            assert 0.0 <= presence.presence_in_cell(cell_id) <= 1.0
        hallway = graph.parent_cell(slocs["r6"])
        assert presence.presence_in_cell(hallway) == pytest.approx(1.0)
        # Concrete paths sharing a tail are one state: two tails, not 2**7 paths.
        assert stats.path_stats.valid_paths == 2
        assert stats.path_stats.candidate_paths == 2**7

    def test_dead_sequence_is_zero_everywhere(self, figure1, figure1_flow_exact):
        """Certain p3 then certain p4: ``MIL[p3, p4] = ∅``, no valid path."""
        graph, plocs = figure1["graph"], figure1["plocs"]
        sequence = [SampleSet.certain(plocs["p3"]), SampleSet.certain(plocs["p4"])]
        stats = SearchStats()
        presence = figure1_flow_exact.presence_computation(sequence, stats)
        assert stats.path_stats.valid_paths == 0
        for cell_id in graph.cells:
            assert presence.presence_in_cell(cell_id) == 0.0
        assert presence.presence_in_cell(None) == 0.0
