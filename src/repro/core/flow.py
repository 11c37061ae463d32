"""Flow computation for a single S-location (Algorithm 2).

``Flow(q, tree, [ts, te])`` fetches the positioning records of the query
window from the time index, groups them per object, reduces every object's
sequence (Algorithm 1), computes the object presences on the reduced sequence
(Equations 1-2), and accumulates them into the indoor flow of ``q``.

The computation itself lives in the staged pipeline of
:mod:`repro.engine.stages` (fetch → reduce → paths → presence);
:class:`FlowComputer` is the home of the per-object primitives that pipeline
is built on (the reducer, Equation 1) and knows nothing about the engine.
The pipeline's stages call the reducer through :attr:`FlowComputer.reducer`
and the presences through :meth:`FlowComputer.presence_computation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..data.records import SampleSet
from ..space.graph import IndoorSpaceLocationGraph
from ..space.matrix import IndoorLocationMatrix
from .paths import candidate_path_count
from .presence import PresenceComputation
from .query import SearchStats
from .reduction import DataReducer, DataReductionConfig


@dataclass
class FlowResult:
    """The indoor flow of one S-location plus the work done to obtain it."""

    sloc_id: int
    flow: float
    stats: SearchStats


class FlowComputer:
    """The per-object primitives of Algorithm 2: reduction and presence."""

    def __init__(
        self,
        graph: IndoorSpaceLocationGraph,
        matrix: IndoorLocationMatrix,
        reduction: DataReductionConfig = DataReductionConfig.enabled(),
    ):
        self._graph = graph
        self._matrix = matrix
        self._reducer = DataReducer(graph, matrix, reduction)

    @property
    def graph(self) -> IndoorSpaceLocationGraph:
        return self._graph

    @property
    def matrix(self) -> IndoorLocationMatrix:
        return self._matrix

    @property
    def reducer(self) -> DataReducer:
        return self._reducer

    # ------------------------------------------------------------------
    # Per-object presence
    # ------------------------------------------------------------------
    def presence_computation(
        self,
        sequence: Sequence[SampleSet],
        stats: Optional[SearchStats] = None,
    ) -> PresenceComputation:
        """Compute the presences of one (already reduced) sequence."""
        computation = PresenceComputation(sequence, self._matrix)
        if stats is not None:
            stats.path_stats.candidate_paths += candidate_path_count(sequence)
            stats.path_stats.valid_paths += computation.tail_states
        return computation

    def object_presence(
        self,
        sequence: Sequence[SampleSet],
        sloc_id: int,
        reduce_first: bool = True,
    ) -> float:
        """Φ(q, o) for a raw per-object sequence (convenience for tests/examples)."""
        cell_id = self._graph.parent_cell(sloc_id)
        if cell_id is None:
            return 0.0
        working: Sequence[SampleSet] = sequence
        if reduce_first:
            reduced = self._reducer.reduce(sequence, {sloc_id})
            if reduced.pruned:
                return 0.0
            working = reduced.sequence
        return self.presence_computation(working).presence_in_cell(cell_id)
