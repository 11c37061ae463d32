"""The parent commit's ``ReduceData`` (Algorithm 1), kept as a test oracle only.

``OracleReducer.reduce`` / ``_intra_merge`` / ``_inter_merge`` /
``possible_slocations_of_sequence``, ``_candidate_count`` and
``OracleStats.record`` are the pre-rewrite ``repro.core.reduction`` code moved
here verbatim: one validated ``SampleSet`` per record, equivalence re-derived
from frozenset keys per sample, a second walk for the counters.  The one-pass
reducer must reproduce its floats exactly (``tests/test_reduction_oracle.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.reduction import ReducedSequence, ReductionStats
from repro.data.records import Sample, SampleSet
from repro.space.matrix import possible_cells_of_sequence


def _candidate_count(sequence: Sequence[SampleSet]) -> int:
    total = 1
    for sample_set in sequence:
        total *= len(sample_set.plocation_set())
    return total if sequence else 0


class OracleStats(ReductionStats):
    """``ReductionStats`` with the parent's per-object accounting walk."""

    def record(self, before: Sequence[SampleSet], after: Sequence[SampleSet]) -> None:
        self.sample_sets_before += len(before)
        self.sample_sets_after += len(after)
        self.samples_before += sum(len(s) for s in before)
        self.samples_after += sum(len(s) for s in after)
        self.candidate_paths_before += _candidate_count(before)
        self.candidate_paths_after += _candidate_count(after)


class OracleReducer:
    """The parent commit's ``DataReducer``."""

    def __init__(self, graph, matrix, config):
        self._graph = graph
        self._matrix = matrix
        self._config = config

    def reduce(
        self,
        sequence: Sequence[SampleSet],
        query_slocations: Optional[Set[int]],
        stats: Optional[OracleStats] = None,
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
