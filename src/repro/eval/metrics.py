"""Effectiveness metrics (Section 5.1), under two tie rules.

Two measures score a returned top-k ranking against the ground truth:

* **recall** — the fraction of the ground-truth top-k locations present in the
  returned top-k;
* **Kendall coefficient τ** — rank correlation between the returned ranking
  and the ground-truth ranking, extended to a common element set when the two
  rankings differ (the paper's extension: missing elements are appended with a
  shared, tied ordering value).

Ground-truth flows are integer visit counts, so they often tie.  The paper's
rule (:func:`recall_at_k`, :func:`kendall_coefficient`) scores against the
truth top-k with ties broken by the smaller id, as
:func:`repro.core.query.rank_top_k` ranks every answer.  The tie-aware rule
(:func:`tie_aware_recall`, :func:`tie_aware_kendall`) treats locations with
equal truth counts as interchangeable.  The pruning ratio is
:attr:`repro.core.SearchStats.pruning_ratio`.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..core.query import rank_top_k


def recall_at_k(result_ranking: Sequence[int], truth_ranking: Sequence[int]) -> float:
    """The fraction of ground-truth top-k locations found in the result top-k.

    Both rankings are interpreted as top-k lists; the denominator is the size
    of the ground-truth list (``k``).
    """
    if not truth_ranking:
        return 1.0
    truth = set(truth_ranking)
    found = truth & set(result_ranking)
    return len(found) / len(truth)


def tie_aware_recall(
    result_ranking: Sequence[int], truth_flows: Dict[int, float], k: int
) -> float:
    """:func:`recall_at_k` where a location whose truth count ties the k-th
    truth count is a hit too."""
    k = min(k, len(truth_flows))
    if k == 0:
        return 1.0
    kth = sorted(truth_flows.values(), reverse=True)[k - 1]
    return sum(truth_flows[item] >= kth for item in result_ranking) / k


def extend_rankings(
    result_ranking: Sequence[int], truth_ranking: Sequence[int]
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Extend two top-k rankings to a common element set (paper's scheme).

    Elements missing from a ranking are appended after its last position with
    a single shared (tied) ordering value, exactly as in the paper's example:
    with ``ϕr = ⟨A, B, C⟩`` and ``ϕg = ⟨B, D, E⟩``, elements ``A`` and ``C``
    are both ranked 4th in the extended ``ϕg``.

    Returns two dictionaries mapping each element of the union to its ordering
    value in the (extended) rankings.
    """
    result_rank = {item: float(position) for position, item in enumerate(result_ranking, start=1)}
    truth_rank = {item: float(position) for position, item in enumerate(truth_ranking, start=1)}
    union = set(result_rank) | set(truth_rank)

    missing_in_result = len(result_rank) + 1.0
    missing_in_truth = len(truth_rank) + 1.0
    for item in union:
        result_rank.setdefault(item, missing_in_result)
        truth_rank.setdefault(item, missing_in_truth)
    return result_rank, truth_rank


def kendall_coefficient(
    result_ranking: Sequence[int], truth_ranking: Sequence[int]
) -> float:
    """The Kendall coefficient τ between a result ranking and the ground truth.

    ``τ = (cp - dp) / total`` where ``cp`` (``dp``) counts the concordant
    (discordant) pairs over the extended element set: a pair is concordant
    when the two rankings order it the same way (ties in both rankings also
    count as concordant), discordant when they order it opposite ways, and a
    tie in exactly one ranking counts as neither.  Identical rankings give 1,
    reversed rankings give -1.
    """
    if not result_ranking and not truth_ranking:
        return 1.0
    return _tau(*extend_rankings(result_ranking, truth_ranking))


def tie_aware_kendall(
    result_ranking: Sequence[int], truth_flows: Dict[int, float], k: int
) -> float:
    """:func:`kendall_coefficient` where equal truth counts share one truth
    ordering value.

    The element set is the same; an element's truth ordering value becomes one
    plus the number of query locations with a larger truth count, capped at
    the extension's missing value.  A pair tied in the truth but ordered in
    the result is then neither concordant nor discordant.
    """
    truth_ranking = [entry.sloc_id for entry in rank_top_k(truth_flows, k)]
    if not result_ranking and not truth_ranking:
        return 1.0
    result_rank, truth_rank = extend_rankings(result_ranking, truth_ranking)
    missing = len(truth_ranking) + 1.0
    counts = truth_flows.values()
    for item in truth_rank:
        larger = sum(count > truth_flows[item] for count in counts)
        truth_rank[item] = min(1.0 + larger, missing)
    return _tau(result_rank, truth_rank)


def _tau(result_rank: Dict[int, float], truth_rank: Dict[int, float]) -> float:
    items = sorted(result_rank)
    concordant = 0
    discordant = 0
    total = 0
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            total += 1
            delta_result = result_rank[a] - result_rank[b]
            delta_truth = truth_rank[a] - truth_rank[b]
            if delta_result == 0.0 and delta_truth == 0.0:
                concordant += 1
            elif delta_result * delta_truth > 0.0:
                concordant += 1
            elif delta_result * delta_truth < 0.0:
                discordant += 1
    if total == 0:
        return 1.0
    return (concordant - discordant) / total
