"""The SC and SC-ρ simple counting baselines (Section 5.1).

SC processes every positioning record independently: it keeps only the sample
with the highest probability and, if that sample's P-location lies inside a
query S-location, counts the object for that location.  SC-ρ keeps *all*
samples whose probability exceeds a threshold ρ.  Both variants:

* allow one P-location to be counted for several S-locations containing it;
* count an object at most once per S-location over the whole query interval
  (to stay comparable with the indoor flow definition).

They are fast — no paths are constructed — but ignore the indoor topology and
most of the probability mass, which is why the paper reports very low
effectiveness for them.

Both read the P-location → S-locations table the floor plan builds once when
it is frozen (:attr:`~repro.space.floorplan.FloorPlan.slocations_of_plocation`)
and pick samples straight from a set's two columns, building no ``Sample``:
the same comparisons on the same floats, so the same counts.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Set

from ..core.query import SearchStats, TkPLQResult, TkPLQuery
from ..data.records import SampleSet
from ..space.floorplan import FloorPlan
from ..storage.sharded import ShardedRecordStore


class SimpleCounting:
    """The SC baseline; pass a ``threshold`` to obtain SC-ρ."""

    def __init__(self, plan: FloorPlan, threshold: Optional[float] = None):
        if threshold is not None and not (0.0 <= threshold < 1.0):
            raise ValueError("the SC-ρ threshold must be in [0, 1)")
        self._plan = plan.freeze()
        self._threshold = threshold
        self.name = "sc" if threshold is None else f"sc-rho({threshold})"

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, iupt: ShardedRecordStore, query: TkPLQuery) -> TkPLQResult:
        stats = SearchStats()
        began = time.perf_counter()
        query_set = set(query.query_slocations)

        # counted[sloc_id] is the set of objects already counted there.
        counted: Dict[int, Set[int]] = {sloc_id: set() for sloc_id in query_set}
        seen_objects: Set[int] = set()

        slocations_of = self._plan.slocations_of_plocation
        for record in iupt.range_query(query.start, query.end):
            object_id = record.object_id
            seen_objects.add(object_id)
            for ploc_id in self._picked(record.sample_set):
                for sloc_id in slocations_of.get(ploc_id, ()):
                    if sloc_id in query_set:
                        counted[sloc_id].add(object_id)

        flows = {sloc_id: float(len(objects)) for sloc_id, objects in counted.items()}
        stats.objects_total = len(seen_objects)
        stats.objects_computed = len(seen_objects)
        stats.elapsed_seconds = time.perf_counter() - began
        return TkPLQResult.ranked(query, flows, stats, self.name)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _picked(self, sample_set: SampleSet) -> Sequence[int]:
        """The P-locations SC counts: the most probable (the smallest id
        among equal probabilities, as :meth:`SampleSet.most_probable`) or, for
        SC-ρ, every one above the threshold."""
        probs = sample_set.probs
        if self._threshold is None:
            return (sample_set.ploc_ids[probs.index(max(probs))],)
        threshold = self._threshold
        return [ploc_id for ploc_id, prob in zip(sample_set.ploc_ids, probs) if prob > threshold]
