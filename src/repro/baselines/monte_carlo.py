"""The MC (Monte Carlo) baseline (Section 5.1).

Each simulation round instantiates a *certain* version of the IUPT: every
positioning record keeps exactly one P-location, drawn according to the sample
probabilities.  On the certain records, the per-object path is unique; it is
kept only when it respects the indoor topology — every step ``MIL`` is
non-empty, the valid possible worlds Equation 1 sums over — and its pass
probability with respect to each query location contributes to that round's
flow.  A path with an invalid step contributes 0 to its round; a lone report's
one step is the cell set adjacent to its P-location, as in
:mod:`repro.core.presence`.  Over normalised sample sets the mean round flow
is thus an unbiased estimate of the exact flow of the same (unreduced)
sequences.  The final
ranking uses the mean flow over all rounds; the result's ``path_stats``
count the paths drawn (``candidate_paths``) and kept (``valid_paths``).

The paper uses hundreds (real data) to tens of thousands (synthetic data) of
rounds, which is why MC is orders of magnitude slower than the proposed
methods despite each round being cheap.
"""

from __future__ import annotations

import random
import time
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..core.paths import pass_probability
from ..core.query import SearchStats, TkPLQResult, TkPLQuery, rank_top_k
from ..data.records import SampleSet
from ..space.graph import IndoorSpaceLocationGraph
from ..space.matrix import IndoorLocationMatrix
from ..storage.sharded import ShardedRecordStore

SEED = 97  # every Monte Carlo run draws the same possible worlds


class MonteCarlo:
    """The MC baseline: repeated certain-world simulation."""

    def __init__(
        self, graph: IndoorSpaceLocationGraph, matrix: IndoorLocationMatrix, rounds: int
    ):
        if rounds < 1:
            raise ValueError("the number of simulation rounds must be positive")
        self._graph = graph
        self._matrix = matrix
        self._rounds = rounds
        self.name = f"mc({rounds})"

    def search(self, iupt: ShardedRecordStore, query: TkPLQuery) -> TkPLQResult:
        stats = SearchStats()
        began = time.perf_counter()
        rounds = self.round_flows(iupt, query, stats)
        flows = {sloc_id: sum(values) / self._rounds for sloc_id, values in rounds.items()}
        stats.elapsed_seconds = time.perf_counter() - began
        return TkPLQResult(
            query=query,
            ranking=rank_top_k(flows, query.k),
            flows=flows,
            stats=stats,
            algorithm=self.name,
        )

    def round_flows(
        self,
        iupt: ShardedRecordStore,
        query: TkPLQuery,
        stats: Optional[SearchStats] = None,
    ) -> Dict[int, List[float]]:
        """Each query location's flow in each round, in round order."""
        stats = stats if stats is not None else SearchStats()
        rng = random.Random(SEED)
        parent_cells = {
            sloc_id: self._graph.parent_cell(sloc_id) for sloc_id in query.query_slocations
        }
        sequences = iupt.sequences_in(query.start, query.end)
        stats.objects_total = len(sequences)
        for object_id in sequences:
            stats.note_object_computed(object_id)

        rounds: Dict[int, List[float]] = {sloc_id: [] for sloc_id in parent_cells}
        for _ in range(self._rounds):
            flows = dict.fromkeys(parent_cells, 0.0)
            for object_id in sorted(sequences):
                step_cells = self._draw_path(sequences[object_id], rng)
                stats.path_stats.candidate_paths += 1
                if step_cells is None:
                    continue
                stats.path_stats.valid_paths += 1
                for sloc_id, cell_id in parent_cells.items():
                    flows[sloc_id] += pass_probability(step_cells, cell_id)
            for sloc_id, value in flows.items():
                rounds[sloc_id].append(value)
        return rounds

    def _draw_path(
        self, sequence: Sequence[SampleSet], rng: random.Random
    ) -> Optional[List[FrozenSet[int]]]:
        """Draw one certain path as its step cell sets; ``None`` when a step
        is invalid (``MIL = ∅``)."""
        drawn = [_draw(sample_set, rng) for sample_set in sequence]
        if len(drawn) == 1:
            return [self._matrix.cells_adjacent(drawn[0])]
        step_cells = []
        for tail, head in zip(drawn, drawn[1:]):
            cells = self._matrix.cells_between(tail, head)
            if not cells:
                return None
            step_cells.append(cells)
        return step_cells


def _draw(sample_set: SampleSet, rng: random.Random) -> int:
    threshold = rng.random()
    cumulative = 0.0
    for ploc_id, prob in zip(sample_set.ploc_ids, sample_set.probs):
        cumulative += prob
        if threshold <= cumulative:
            return ploc_id
    return sample_set.ploc_ids[-1]
