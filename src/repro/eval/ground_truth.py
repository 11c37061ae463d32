"""Ground-truth rankings derived from exact trajectories.

The synthetic experiments record every object's exact location once per
second; the ground-truth flow of an S-location over a window is the number of
distinct objects whose exact trajectory entered the location during that
window, and the ground-truth top-k ranking orders the query locations by that
count with :func:`~repro.core.query.rank_top_k`, the rule every answer is
ranked by.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.query import rank_top_k
from ..data.trajectory import TrajectoryStore
from ..space import FloorPlan


def ground_truth_flows(
    trajectories: TrajectoryStore,
    plan: FloorPlan,
    start: float,
    end: float,
    query_slocations: Sequence[int],
) -> Dict[int, float]:
    """True visit counts restricted to the query S-locations."""
    counts = trajectories.true_visit_counts(plan, start, end)
    return {sloc_id: float(counts.get(sloc_id, 0)) for sloc_id in query_slocations}


def ground_truth_ranking(
    trajectories: TrajectoryStore,
    plan: FloorPlan,
    start: float,
    end: float,
    query_slocations: Sequence[int],
    k: int,
) -> List[int]:
    """The ground-truth top-k ranking over the query S-locations."""
    flows = ground_truth_flows(trajectories, plan, start, end, query_slocations)
    return [entry.sloc_id for entry in rank_top_k(flows, k)]
