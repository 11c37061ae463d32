"""Evaluation support: metrics, ground truth, and the experiment harness."""

from .ground_truth import ground_truth_flows, ground_truth_ranking
from .harness import (
    ALL_METHODS,
    BASELINE_METHODS,
    SEARCH_METHODS,
    MethodOutcome,
    run_method,
    run_methods,
)
from .metrics import (
    extend_rankings,
    kendall_coefficient,
    pruning_ratio,
    rank_by_score,
    recall_at_k,
)

__all__ = [
    "ALL_METHODS",
    "BASELINE_METHODS",
    "SEARCH_METHODS",
    "MethodOutcome",
    "extend_rankings",
    "ground_truth_flows",
    "ground_truth_ranking",
    "kendall_coefficient",
    "pruning_ratio",
    "rank_by_score",
    "recall_at_k",
    "run_method",
    "run_methods",
]
