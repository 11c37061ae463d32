"""Evaluation support: metrics, ground truth, and the experiment harness."""

from .ground_truth import ground_truth_flows, ground_truth_ranking
from .harness import ALL_METHODS, MethodOutcome, run_methods, table_row
from .metrics import (
    extend_rankings,
    kendall_coefficient,
    recall_at_k,
    tie_aware_kendall,
    tie_aware_recall,
)

__all__ = [
    "ALL_METHODS",
    "MethodOutcome",
    "extend_rankings",
    "ground_truth_flows",
    "ground_truth_ranking",
    "kendall_coefficient",
    "recall_at_k",
    "run_methods",
    "table_row",
    "tie_aware_kendall",
    "tie_aware_recall",
]
