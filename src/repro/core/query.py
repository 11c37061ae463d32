"""Query and result types for the Top-k Popular Location Query (TkPLQ).

Problem 1 of the paper: given a query set ``Q`` of S-locations, an IUPT over
a set of objects ``O`` and a time interval ``[ts, te]``, return the ``k``
S-locations of ``Q`` with the highest indoor flow.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .paths import PathConstructionStats
from .reduction import ReductionStats


@dataclass(frozen=True)
class TkPLQuery:
    """A top-k popular location query."""

    query_slocations: Tuple[int, ...]
    k: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.query_slocations:
            raise ValueError("the query set Q must not be empty")
        counts = Counter(self.query_slocations)
        repeated = sorted(sloc for sloc, count in counts.items() if count > 1)
        if repeated:
            raise ValueError(
                f"the query set Q lists S-location id(s) {repeated} more than once"
            )
        if self.start > self.end:
            raise ValueError("the query interval start must not exceed its end")
        if self.k > len(self.query_slocations):
            raise ValueError(
                f"k={self.k} exceeds the query set size {len(self.query_slocations)}"
            )

    @staticmethod
    def build(
        query_slocations: Sequence[int], k: int, start: float, end: float
    ) -> "TkPLQuery":
        return TkPLQuery(tuple(query_slocations), k, start, end)

    @property
    def interval(self) -> Tuple[float, float]:
        return (self.start, self.end)


@dataclass(frozen=True)
class RankedLocation:
    """One entry of a TkPLQ answer: an S-location and its flow value."""

    sloc_id: int
    flow: float


@dataclass
class SearchStats:
    """Efficiency counters collected while answering one query.

    ``objects_total`` is ``|O|`` restricted to the query window (objects with
    at least one report in ``[ts, te]``); ``objects_computed`` is ``|Of|``,
    the objects whose presence actually had to be computed.  The paper's
    pruning ratio is ``(|O| - |Of|) / |O|``.

    ``kth_flow`` and ``bound_left`` are set by the best-first search when it
    stops: the flow of its k-th ranked location and the largest bound left in
    its heap (0.0 when the heap is empty).  Algorithm 4 stops only when
    ``bound_left <= kth_flow``, so a bound left close to the k-th flow says
    why nothing was pruned.  They stay ``None`` for the other algorithms.
    """

    elapsed_seconds: float = 0.0
    objects_total: int = 0
    objects_computed: int = 0
    flow_evaluations: int = 0
    heap_operations: int = 0
    path_stats: PathConstructionStats = field(default_factory=PathConstructionStats)
    reduction_stats: ReductionStats = field(default_factory=ReductionStats)
    computed_object_ids: set = field(default_factory=set)
    kth_flow: Optional[float] = None
    bound_left: Optional[float] = None

    def note_object_computed(self, object_id: int) -> None:
        """Record that an object's presence was computed (distinct objects only)."""
        self.computed_object_ids.add(object_id)
        self.objects_computed = len(self.computed_object_ids)

    def note_objects_total(self, count: int) -> None:
        """Record ``|O|`` of one window fetch.

        Every fetch over the same window reports the same count, so the
        accumulator keeps the maximum: shared-stats callers (the naive
        algorithm's per-location flow calls, ``flows_for_all``) see the
        window's object population exactly once instead of a sum or a
        last-write-wins value.
        """
        self.objects_total = max(self.objects_total, count)

    def merge(self, other: "SearchStats", same_window: bool = True) -> None:
        """Fold another accumulator into this one.

        Used to aggregate the per-group accounting of a batched run.

        ``same_window`` states whether both sides describe the same window
        fetch: if so ``objects_total`` keeps the maximum (the population was
        counted once per fetch of the same window); if the sides cover
        *different* windows — e.g. aggregating the groups of a multi-window
        batch — the populations are distinct fetches and sum instead.
        """
        self.elapsed_seconds += other.elapsed_seconds
        if same_window:
            self.note_objects_total(other.objects_total)
        else:
            self.objects_total += other.objects_total
        self.flow_evaluations += other.flow_evaluations
        self.heap_operations += other.heap_operations
        self.path_stats.merge(other.path_stats)
        self.reduction_stats.merge(other.reduction_stats)
        self.computed_object_ids |= other.computed_object_ids
        self.objects_computed = len(self.computed_object_ids)

    @property
    def pruning_ratio(self) -> float:
        if self.objects_total == 0:
            return 0.0
        return (self.objects_total - self.objects_computed) / self.objects_total

    def as_dict(self) -> Dict[str, float]:
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "objects_total": self.objects_total,
            "objects_computed": self.objects_computed,
            "pruning_ratio": self.pruning_ratio,
            "flow_evaluations": self.flow_evaluations,
            "heap_operations": self.heap_operations,
            "valid_paths": self.path_stats.valid_paths,
            "candidate_paths": self.path_stats.candidate_paths,
            "kth_flow": self.kth_flow,
            "bound_left": self.bound_left,
        }


@dataclass
class TkPLQResult:
    """The answer to a TkPLQ: the ranked top-k plus per-location flows."""

    query: TkPLQuery
    ranking: List[RankedLocation]
    flows: Dict[int, float]
    stats: SearchStats
    algorithm: str = ""

    def top_k_ids(self) -> List[int]:
        """The ranked S-location ids, best first."""
        return [entry.sloc_id for entry in self.ranking]

    def flow_of(self, sloc_id: int) -> Optional[float]:
        return self.flows.get(sloc_id)

    def __len__(self) -> int:
        return len(self.ranking)


def rank_top_k(flows: Dict[int, float], k: int) -> List[RankedLocation]:
    """Rank S-locations by flow (descending), ties broken by smaller id."""
    ordered = sorted(flows.items(), key=lambda item: (-item[1], item[0]))
    return [RankedLocation(sloc_id, flow) for sloc_id, flow in ordered[:k]]
