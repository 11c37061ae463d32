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

A round draws a record's P-location by bisecting the set's running sums of
probabilities, taken left to right once per :meth:`MonteCarlo.round_flows`
call: the same sums a running total forms and the same uniform draw per
record, so the same possible worlds.  A drawn step's cells come from the
matrix's ``link_rows``, read once per call: ``MIL[tail, head]`` is the entry
of ``tail`` in ``head``'s row, and a pair with no entry has no cell.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.paths import pass_probability
from ..core.query import SearchStats, TkPLQResult, TkPLQuery
from ..data.records import SampleSet
from ..space.graph import IndoorSpaceLocationGraph
from ..space.matrix import IndoorLocationMatrix, Link
from ..storage.sharded import ShardedRecordStore

SEED = 97  # every Monte Carlo run draws the same possible worlds
_NO_ROW: Dict[int, Link] = {}  # a P-location without cells links to nothing

#: A sample set as a round draws from it: its P-locations and the running
#: sums of its probabilities but the last (:func:`_cumulative`).
_Drawable = Tuple[Sequence[int], List[float]]


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
        return TkPLQResult.ranked(query, flows, stats, self.name)

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

        drawables = [list(map(_cumulative, sequence)) for _, sequence in sorted(sequences.items())]
        link_rows = self._matrix.link_rows
        rounds: Dict[int, List[float]] = {sloc_id: [] for sloc_id in parent_cells}
        for _ in range(self._rounds):
            flows = dict.fromkeys(parent_cells, 0.0)
            for sequence in drawables:
                step_cells = self._draw_path(sequence, rng, link_rows)
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
        self,
        sequence: Sequence[_Drawable],
        rng: random.Random,
        link_rows: Dict[int, Dict[int, Link]],
    ) -> Optional[List[FrozenSet[int]]]:
        """Draw one certain path as its step cell sets; ``None`` when a step
        is invalid (``MIL = ∅``)."""
        drawn = _draws(sequence, rng)
        if len(drawn) == 1:
            return [self._matrix.cells_adjacent(drawn[0])]
        step_cells = []
        for tail, head in zip(drawn, drawn[1:]):
            link = link_rows.get(head, _NO_ROW).get(tail)
            if link is None:
                return None
            step_cells.append(link[0])
        return step_cells


def _cumulative(sample_set: SampleSet) -> _Drawable:
    """A set's P-locations and the running sums of its probabilities, taken
    left to right, all but the last."""
    return sample_set.ploc_ids, list(accumulate(sample_set.probs[:-1]))


def _draws(sequence: Sequence[_Drawable], rng: random.Random) -> List[int]:
    """One P-location per set of ``sequence``, one ``rng.random()`` each: the
    first whose running sum reaches the draw.  A draw above every sum but the
    last picks the last P-location, and so does one above the last sum too,
    when rounding leaves it below 1."""
    uniform = rng.random
    return [ploc_ids[bisect_left(sums, uniform())] for ploc_ids, sums in sequence]
