"""The data reduction method of Section 3.2 (Algorithm 1, ``ReduceData``).

Three co-operating reductions shrink the per-object work before any path is
constructed:

* **intra-merge** — inside one sample set, samples whose P-locations are
  equivalent (they refer to identical cell sets in the indoor location matrix)
  are merged into a single sample carrying the summed probability and the
  smallest P-location id.
* **inter-merge** — consecutive sample sets with identical P-location sets are
  collapsed into one set whose per-location probability is the mean of the
  originals, because they describe the same whereabouts over a dwell period.
* **PSL pruning** — the object's *possible semantic locations* are collected
  from the cells its reported P-locations touch; when none of them is in the
  query set the whole object is ruled out of the flow computation.

Each reduction can be toggled independently so the ``-ORG`` algorithm variants
of the evaluation (no data reduction) and finer ablations can be expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..data.records import Sample, SampleSet
from ..space.graph import IndoorSpaceLocationGraph
from ..space.matrix import IndoorLocationMatrix, possible_cells_of_sequence


@dataclass(frozen=True)
class DataReductionConfig:
    """Switches controlling which reductions are applied.

    ``enabled()`` is the paper's full reduction; ``disabled()`` reproduces the
    ``-ORG`` variants where the original positioning sequence is processed
    (PSL pruning is kept available separately because the best-first algorithm
    still derives PSLs for its object R-tree even in the ORG setting).
    """

    intra_merge: bool = True
    inter_merge: bool = True
    psl_pruning: bool = True

    @staticmethod
    def enabled() -> "DataReductionConfig":
        return DataReductionConfig(True, True, True)

    @staticmethod
    def disabled() -> "DataReductionConfig":
        return DataReductionConfig(False, False, False)

    @staticmethod
    def original_with_psls() -> "DataReductionConfig":
        """No merging, but PSLs still derived (used by BF-ORG)."""
        return DataReductionConfig(False, False, True)


@dataclass
class ReductionStats:
    """Counters describing the effect of the reduction over a whole query."""

    objects_seen: int = 0
    objects_pruned: int = 0
    sample_sets_before: int = 0
    sample_sets_after: int = 0
    samples_before: int = 0
    samples_after: int = 0
    candidate_paths_before: int = 0
    candidate_paths_after: int = 0

    def merge(self, other: "ReductionStats") -> None:
        """Fold another accumulator into this one (parallel-worker merging)."""
        self.objects_seen += other.objects_seen
        self.objects_pruned += other.objects_pruned
        self.sample_sets_before += other.sample_sets_before
        self.sample_sets_after += other.sample_sets_after
        self.samples_before += other.samples_before
        self.samples_after += other.samples_after
        self.candidate_paths_before += other.candidate_paths_before
        self.candidate_paths_after += other.candidate_paths_after

    def record(self, before: Sequence[SampleSet], after: Sequence[SampleSet]) -> None:
        self.sample_sets_before += len(before)
        self.sample_sets_after += len(after)
        self.samples_before += sum(len(s) for s in before)
        self.samples_after += sum(len(s) for s in after)
        self.candidate_paths_before += _candidate_count(before)
        self.candidate_paths_after += _candidate_count(after)

    def as_dict(self) -> Dict[str, int]:
        return {
            "objects_seen": self.objects_seen,
            "objects_pruned": self.objects_pruned,
            "sample_sets_before": self.sample_sets_before,
            "sample_sets_after": self.sample_sets_after,
            "samples_before": self.samples_before,
            "samples_after": self.samples_after,
            "candidate_paths_before": self.candidate_paths_before,
            "candidate_paths_after": self.candidate_paths_after,
        }


@dataclass(frozen=True)
class ReducedSequence:
    """The outcome of ``ReduceData`` for one object.

    ``pruned`` is True when the object's possible semantic locations do not
    overlap the query set, in which case ``sequence`` should not be used for
    flow computation (it corresponds to Algorithm 1 returning ``⟨null, null⟩``).
    """

    sequence: Tuple[SampleSet, ...]
    psls: frozenset
    pruned: bool

    @property
    def is_relevant(self) -> bool:
        return not self.pruned


def _candidate_count(sequence: Sequence[SampleSet]) -> int:
    total = 1
    for sample_set in sequence:
        total *= len(sample_set.plocation_set())
    return total if sequence else 0


class DataReducer:
    """Applies Algorithm 1 to per-object positioning sequences."""

    def __init__(
        self,
        graph: IndoorSpaceLocationGraph,
        matrix: IndoorLocationMatrix,
        config: DataReductionConfig = DataReductionConfig.enabled(),
    ):
        self._graph = graph
        self._matrix = matrix
        self._config = config

    @property
    def config(self) -> DataReductionConfig:
        return self._config

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def reduce(
        self,
        sequence: Sequence[SampleSet],
        query_slocations: Optional[Set[int]],
        stats: Optional[ReductionStats] = None,
    ) -> ReducedSequence:
        """Reduce one object's positioning sequence against a query set.

        Parameters
        ----------
        sequence:
            The object's time-ordered sample sets within the query window.
        query_slocations:
            The S-location ids of the query set ``Q``; ``None`` disables PSL
            pruning for this call (e.g. when computing flows for every
            location).
        stats:
            Optional accumulator describing the reduction across objects.
        """
        original = list(sequence)
        if stats is not None:
            stats.objects_seen += 1

        reduced: List[SampleSet] = []
        merge_buffer: List[SampleSet] = []
        psls = self.possible_slocations_of_sequence(original)

        for sample_set in original:
            working = self._intra_merge(sample_set) if self._config.intra_merge else sample_set

            if self._config.inter_merge:
                if merge_buffer and working.plocation_set() != merge_buffer[-1].plocation_set():
                    reduced.append(self._inter_merge(merge_buffer))
                    merge_buffer = []
                merge_buffer.append(working)
            else:
                reduced.append(working)

        if self._config.inter_merge and merge_buffer:
            reduced.append(self._inter_merge(merge_buffer))

        if stats is not None:
            stats.record(original, reduced)

        pruned = False
        if (
            self._config.psl_pruning
            and query_slocations is not None
            and not (psls & set(query_slocations))
        ):
            pruned = True
            if stats is not None:
                stats.objects_pruned += 1

        return ReducedSequence(
            sequence=tuple(reduced), psls=frozenset(psls), pruned=pruned
        )

    # ------------------------------------------------------------------
    # The two merge operations
    # ------------------------------------------------------------------
    def _intra_merge(self, sample_set: SampleSet) -> SampleSet:
        """Merge equivalent P-locations inside one sample set.

        Samples whose P-locations refer to the identical cell set are summed
        onto the representative with the smallest id (footnote 5 of the
        paper: "we keep the P-location with a smaller subscript").
        """
        grouped: Dict[frozenset, List[Sample]] = {}
        for sample in sample_set:
            key = self._matrix.cells_adjacent(sample.ploc_id)
            grouped.setdefault(key, []).append(sample)
        merged: List[Sample] = []
        for members in grouped.values():
            if len(members) == 1:
                merged.append(members[0])
                continue
            representative = min(member.ploc_id for member in members)
            probability = sum(member.prob for member in members)
            merged.append(Sample(representative, min(probability, 1.0)))
        return SampleSet(merged, normalise=True)

    @staticmethod
    def _inter_merge(sample_sets: Sequence[SampleSet]) -> SampleSet:
        """Merge consecutive sample sets sharing the same P-location set.

        The merged probability of each common P-location is the mean of its
        probabilities across the merged sets (Algorithm 1, ``InterMerge``).
        """
        if len(sample_sets) == 1:
            return sample_sets[0]
        locations = sorted(sample_sets[0].plocation_set())
        count = len(sample_sets)
        samples = [
            Sample(
                loc,
                sum(sample_set.probability_of(loc) for sample_set in sample_sets) / count,
            )
            for loc in locations
        ]
        return SampleSet(samples, normalise=True)

    # ------------------------------------------------------------------
    # Possible semantic locations
    # ------------------------------------------------------------------
    def possible_slocations_of_sequence(
        self, sequence: Sequence[SampleSet]
    ) -> Set[int]:
        """The S-locations an object may have visited given its sequence.

        Derived once from the union of the reported P-locations: ``C2S``
        distributes over the union of cells, and intra-merge keeps every
        sample's cell set, so merged and raw sequences give the same set.
        """
        ploc_ids = {sample.ploc_id for sample_set in sequence for sample in sample_set}
        return self._graph.c2s_many(possible_cells_of_sequence(self._matrix, ploc_ids))
