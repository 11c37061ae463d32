"""The MC (Monte Carlo) baseline (Section 5.1).

Each simulation round instantiates a *certain* version of the IUPT: every
positioning record keeps exactly one P-location, drawn according to the sample
probabilities.  On the certain records, the per-object path is unique; it is
kept only when it respects the indoor topology, and its pass probability with
respect to each query location contributes to that round's flow.  The final
ranking uses the mean flow over all rounds.

The paper uses hundreds (real data) to tens of thousands (synthetic data) of
rounds, which is why MC is orders of magnitude slower than the proposed
methods despite each round being cheap.
"""

from __future__ import annotations

import random
import time
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..core.flow import FlowComputer
from ..core.paths import pass_probability
from ..core.query import SearchStats, TkPLQResult, TkPLQuery, rank_top_k
from ..data.iupt import IUPT
from ..data.records import SampleSet


class MonteCarlo:
    """The MC baseline: repeated certain-world simulation."""

    def __init__(
        self,
        flow_computer: FlowComputer,
        rounds: int = 200,
        seed: Optional[int] = None,
    ):
        if rounds < 1:
            raise ValueError("the number of simulation rounds must be positive")
        self._flow_computer = flow_computer
        self._rounds = rounds
        self._seed = seed
        self.name = f"mc({rounds})"

    @property
    def rounds(self) -> int:
        return self._rounds

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, iupt: IUPT, query: TkPLQuery) -> TkPLQResult:
        stats = SearchStats()
        began = time.perf_counter()
        rng = random.Random(self._seed)

        graph = self._flow_computer.graph
        matrix = self._flow_computer.matrix
        query_set = list(query.query_slocations)
        parent_cells = {
            sloc_id: graph.parent_cell(sloc_id) for sloc_id in query_set
        }

        sequences = iupt.sequences_in(query.start, query.end)
        stats.objects_total = len(sequences)
        for object_id in sequences:
            stats.note_object_computed(object_id)

        totals: Dict[int, float] = {sloc_id: 0.0 for sloc_id in query_set}
        for _ in range(self._rounds):
            round_flows = self._simulate_round(sequences, parent_cells, matrix, rng)
            for sloc_id, value in round_flows.items():
                totals[sloc_id] += value

        flows = {sloc_id: value / self._rounds for sloc_id, value in totals.items()}
        stats.elapsed_seconds = time.perf_counter() - began
        return TkPLQResult(
            query=query,
            ranking=rank_top_k(flows, query.k),
            flows=flows,
            stats=stats,
            algorithm=self.name,
        )

    # ------------------------------------------------------------------
    # One simulation round
    # ------------------------------------------------------------------
    def _simulate_round(
        self,
        sequences: Dict[int, List[SampleSet]],
        parent_cells: Dict[int, Optional[int]],
        matrix,
        rng: random.Random,
    ) -> Dict[int, float]:
        flows: Dict[int, float] = {sloc_id: 0.0 for sloc_id in parent_cells}
        for object_id in sorted(sequences):
            step_cells = self._sample_certain_path(sequences[object_id], matrix, rng)
            if step_cells is None:
                continue
            for sloc_id, cell_id in parent_cells.items():
                if cell_id is None:
                    continue
                flows[sloc_id] += pass_probability(step_cells, cell_id)
        return flows

    def _sample_certain_path(
        self, sequence: Sequence[SampleSet], matrix, rng: random.Random
    ) -> Optional[List[FrozenSet[int]]]:
        """Draw one certain path (as its step cell sets), keeping only its
        topologically valid steps.

        Every record is instantiated to a single P-location; instantiated
        locations that cannot be reached from the previous kept location
        (``MIL = ∅``) are dropped, so the retained subsequence always forms a
        valid path.  Returns ``None`` only when nothing can be kept.
        """
        drawn = [self._draw(sample_set, rng) for sample_set in sequence]
        if not drawn:
            return None
        tail = drawn[0]
        step_cells: List[FrozenSet[int]] = []
        for candidate in drawn[1:]:
            cells = matrix.cells_between(tail, candidate)
            if not cells:
                continue
            tail = candidate
            step_cells.append(cells)
        if not step_cells:
            step_cells = [matrix.cells_adjacent(tail)]
        return step_cells

    @staticmethod
    def _draw(sample_set: SampleSet, rng: random.Random) -> int:
        threshold = rng.random()
        cumulative = 0.0
        for ploc_id, prob in zip(sample_set.ploc_ids, sample_set.probs):
            cumulative += prob
            if threshold <= cumulative:
                return ploc_id
        return sample_set.ploc_ids[-1]
