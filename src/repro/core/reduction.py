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

**One pass.**  ``DataReducer.reduce`` walks the sequence once over each sample
set's ``(P-location ids, probabilities)`` columns.  Equivalence is not derived
per sample: it is read from the matrix's ``p → class representative`` table
(:attr:`~repro.space.matrix.IndoorLocationMatrix.equivalence_classes`), the
``M × M`` downsizing of Section 3.2 done once per floor plan, and the test
runs once per run of identical raw P-location tuples — consecutive sets
reporting the same P-locations share one merge plan.  A dwell run is held as
columns and only its average is built into a ``SampleSet``.

**PSL table.**  An object's PSLs are ``C2S`` of the cells its raw P-locations
touch.  ``C2S`` distributes over a union of cells, so they are the union,
over the object's distinct P-locations, of a per-P-location table
``p → C2S(MIL[p, p])`` built once per reducer from the floor plan
(:attr:`DataReducer.psls_of`); it never grows with the data.

**Float contract.**  The presences of :mod:`repro.core.presence` are computed
on the reduced sequence, so its floats are part of every answer; they are
fixed by this recipe (``tests/test_reduction_oracle.py`` holds the earlier
per-sample implementation and requires exact equality):

* *group order* — the classes of one sample set in order of first appearance
  in its ascending P-location order, which is ascending in the kept (smallest)
  id, so a merged set needs no re-sort;
* *sums* — every sum is the builtin ``sum`` taken left to right: a class over
  its members in P-location order, a set's mass over its groups in group
  order, a dwell mean over the run's sets in time order;
* *clamp* — a class of two or more members carries ``min(sum, 1.0)``; a lone
  sample's probability is never clamped;
* *divide by total* — with intra-merge on, every probability of a set is
  divided by the set's mass (taken after merging and clamping); a dwell run of
  two or more sets is averaged per P-location (``sum / count``) and the means
  are divided by their own total;
* *pass-through* — a set whose classes are all distinct and whose mass is
  exactly ``1.0`` would only be divided by one (``x / 1.0 == x``), and a dwell
  run of one set is that set: both are returned as the same object;
* *lone runs* — with both merges on, a lone sample set is certain after
  intra-merge (``p / p == 1.0``), and a run of certain sets averages to the
  certain set bit for bit (``n · 1.0 / n == 1.0``).  So a lone set that
  continues a dwell run of its own P-location is skipped, and a run of lone
  sets is passed through as its first set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..data.records import SampleSet
from ..space.graph import IndoorSpaceLocationGraph
from ..space.matrix import IndoorLocationMatrix


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

    def merge(self, other: "ReductionStats") -> None:
        """Fold another accumulator into this one."""
        self.objects_seen += other.objects_seen
        self.objects_pruned += other.objects_pruned
        self.sample_sets_before += other.sample_sets_before
        self.sample_sets_after += other.sample_sets_after

    def as_dict(self) -> Dict[str, int]:
        return {
            "objects_seen": self.objects_seen,
            "objects_pruned": self.objects_pruned,
            "sample_sets_before": self.sample_sets_before,
            "sample_sets_after": self.sample_sets_after,
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


_NO_PSLS: FrozenSet[int] = frozenset()

# One working sample set of a dwell run: the input set when the reduction left
# its columns untouched (else ``None``), and its probability column.
_Working = Tuple[Optional[SampleSet], Sequence[float]]


# How one raw P-location tuple merges: the kept (smallest) id of each
# equivalence class, and the positions of the class's members.
_MergePlan = Tuple[Tuple[int, ...], Tuple[List[int], ...]]


def _merge_plan(
    ploc_ids: Sequence[int], class_of: Callable[[int], Optional[int]]
) -> _MergePlan:
    """Group the columns of a sample set with equivalent P-locations by class.

    The columns are in ascending P-location order, so the first member of a
    class carries its smallest id (footnote 5 of the paper: "we keep the
    P-location with a smaller subscript") and the groups come out ascending.
    """
    groups: Dict[Optional[int], List[int]] = {}
    for position, cls in enumerate(map(class_of, ploc_ids)):
        groups.setdefault(cls, []).append(position)
    members = tuple(groups.values())
    return tuple(ploc_ids[group[0]] for group in members), members


def _merge_equivalent(probs: Sequence[float], members: Tuple[List[int], ...]) -> List[float]:
    """Sum each equivalence class of one sample set onto its kept id."""
    return [
        probs[group[0]] if len(group) == 1 else min(sum([probs[at] for at in group]), 1.0)
        for group in members
    ]


def _dwell_average(ploc_ids: Tuple[int, ...], run: List[_Working]) -> SampleSet:
    """One sample set for a run of sets over the same P-locations.

    The merged probability of each P-location is the mean of its
    probabilities across the run (Algorithm 1, ``InterMerge``), rescaled to
    total one.
    """
    if len(run) == 1:
        kept, probs = run[0]
        return kept if kept is not None else SampleSet._from_columns(ploc_ids, probs)
    count = len(run)
    means = [sum(column) / count for column in zip(*[probs for _kept, probs in run])]
    total = sum(means)
    return SampleSet._from_columns(ploc_ids, [mean / total for mean in means])


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
        #: ``p → C2S(MIL[p, p])`` for every P-location of the floor plan.
        self.psls_of: Dict[int, FrozenSet[int]] = {
            ploc_id: frozenset(graph.c2s_many(matrix.cells_adjacent(ploc_id)))
            for ploc_id in set(matrix.representative) | set(matrix.cells_of)
        }

    @property
    def config(self) -> DataReductionConfig:
        return self._config

    def reduce(
        self,
        sequence: Sequence[SampleSet],
        query_slocations: Optional[AbstractSet[int]],
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
        intra_merge = self._config.intra_merge
        inter_merge = self._config.inter_merge
        skip_lone = intra_merge and inter_merge
        class_of = self._matrix.equivalence_classes.get

        reduced: List[SampleSet] = []
        reported = set()
        run: List[_Working] = []
        run_plocs: Tuple[int, ...] = ()
        # The raw P-location tuple of the current run of identical ones, the
        # P-locations it merges to, its merge plan, and whether it is skipped.
        raw: Optional[Tuple[int, ...]] = None
        merged: Tuple[int, ...] = ()
        members: Optional[Tuple[List[int], ...]] = None
        skip = False

        for sample_set in sequence:
            ploc_ids = sample_set.ploc_ids
            if ploc_ids == raw:
                if skip:
                    continue  # certain, and continues a run of its own P-location
                ploc_ids = merged
            else:
                raw = merged = ploc_ids
                reported.update(raw)
                members = None
                if len(raw) == 1:
                    skip = skip_lone
                else:
                    skip = False
                    if intra_merge and len(set(map(class_of, raw))) < len(raw):
                        merged, members = _merge_plan(raw, class_of)
                        ploc_ids = merged
            probs = sample_set.probs
            kept: Optional[SampleSet] = sample_set

            if intra_merge:
                if members is not None:
                    probs = _merge_equivalent(probs, members)
                    kept = None
                total = sum(probs)
                if kept is None or total != 1.0:
                    probs = [prob / total for prob in probs]
                    kept = None

            if run and (not inter_merge or ploc_ids != run_plocs):
                reduced.append(_dwell_average(run_plocs, run))
                run = []
            run.append((kept, probs))
            run_plocs = ploc_ids

        if run:
            reduced.append(_dwell_average(run_plocs, run))

        psls_of = self.psls_of
        psls = frozenset().union(
            *[psls_of.get(ploc_id, _NO_PSLS) for ploc_id in reported]
        )
        pruned = (
            self._config.psl_pruning
            and query_slocations is not None
            and psls.isdisjoint(query_slocations)
        )

        if stats is not None:
            stats.objects_seen += 1
            if pruned:
                stats.objects_pruned += 1
            stats.sample_sets_before += len(sequence)
            stats.sample_sets_after += len(reduced)

        return ReducedSequence(sequence=tuple(reduced), psls=psls, pruned=pruned)
