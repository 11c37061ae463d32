"""Experiment harness: run methods on a scenario's query and score them.

:func:`run_methods` is the one path from a query to scored outcomes: it runs
each evaluated method (the paper's three search algorithms with or without
data reduction, and the SC / SC-ρ / MC / SCC / UR baselines) on a
:class:`~repro.synth.scenario.Scenario` and scores its ranking against one
shared ground truth under both tie rules of :mod:`repro.eval.metrics`;
:func:`table_row` averages one method's outcomes into a result-table row.
Every experiment is a thin sweep over these two.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..baselines import (
    MonteCarlo,
    SemiConstrainedCounting,
    SimpleCounting,
    UncertaintyRegionFlow,
)
from ..core import DataReductionConfig, TkPLQResult, TkPLQuery
from ..core.query import rank_top_k
from ..engine import EngineConfig, QueryEngine
from ..synth.scenario import Scenario
from .ground_truth import ground_truth_flows
from .metrics import kendall_coefficient, recall_at_k, tie_aware_kendall, tie_aware_recall

# Search methods: the engine algorithm and the data reduction each runs with.
_SEARCHES = {
    "bf": ("best-first", DataReductionConfig.enabled()),
    "nl": ("nested-loop", DataReductionConfig.enabled()),
    "naive": ("naive", DataReductionConfig.enabled()),
    "bf-org": ("best-first", DataReductionConfig.original_with_psls()),
    "nl-org": ("nested-loop", DataReductionConfig.disabled()),
    "naive-org": ("naive", DataReductionConfig.disabled()),
}
ALL_METHODS = (*_SEARCHES, "sc", "sc-rho", "mc", "scc", "ur")
# A row's averaged measures: each is a MethodOutcome field.
MEASURES = (
    "time_s",
    "pruning_ratio",
    "kendall_by_id",
    "recall_by_id",
    "kendall_tie_aware",
    "recall_tie_aware",
)


@dataclass
class MethodOutcome:
    """The outcome of running one method on one query.

    ``*_by_id`` score against the truth top-k with ties broken by the smaller
    id; ``*_tie_aware`` treat equal truth counts as interchangeable.
    """

    method: str
    ranking: List[int]
    time_s: float
    pruning_ratio: float
    kendall_by_id: float
    recall_by_id: float
    kendall_tie_aware: float
    recall_tie_aware: float
    details: Dict[str, float] = field(default_factory=dict)


def run_methods(
    scenario: Scenario,
    methods: Sequence[str],
    query: TkPLQuery,
    sc_rho: float,
    mc_rounds: int,
) -> List[MethodOutcome]:
    """Run each of ``methods`` on ``query`` and score it against one ground truth.

    ``sc_rho`` is SC-ρ's threshold and ``mc_rounds`` MC's number of rounds.
    """
    unknown = [method for method in methods if method not in ALL_METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected some of {ALL_METHODS}")
    truth_flows = ground_truth_flows(
        scenario.trajectories, scenario.plan, query.start, query.end, query.query_slocations
    )
    truth = [entry.sloc_id for entry in rank_top_k(truth_flows, query.k)]
    outcomes = []
    for method in methods:
        began = time.perf_counter()
        result = _search(scenario, method, query, sc_rho, mc_rounds)
        elapsed = time.perf_counter() - began
        ranking = result.top_k_ids()
        outcomes.append(
            MethodOutcome(
                method=method,
                ranking=ranking,
                time_s=elapsed,
                pruning_ratio=result.stats.pruning_ratio,
                kendall_by_id=kendall_coefficient(ranking, truth),
                recall_by_id=recall_at_k(ranking, truth),
                kendall_tie_aware=tie_aware_kendall(ranking, truth_flows, query.k),
                recall_tie_aware=tie_aware_recall(ranking, truth_flows, query.k),
                details=result.stats.as_dict(),
            )
        )
    return outcomes


def table_row(
    outcomes: Sequence[MethodOutcome], extra: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """One result-table row from one method's outcomes over some queries.

    The method, the ``extra`` labels, the number of queries and the mean of
    each of :data:`MEASURES`; an MC row adds the share of its drawn paths it
    kept.
    """
    method = outcomes[0].method
    row: Dict[str, object] = {"method": method, **(extra or {}), "queries": len(outcomes)}
    for measure in MEASURES:
        row[measure] = round(sum(getattr(run, measure) for run in outcomes) / len(outcomes), 4)
    if method == "mc":
        drawn = sum(run.details["candidate_paths"] for run in outcomes)
        kept = sum(run.details["valid_paths"] for run in outcomes)
        row["paths_kept_share"] = round(kept / drawn, 4) if drawn else 0.0
    return row


def _search(
    scenario: Scenario, method: str, query: TkPLQuery, sc_rho: float, mc_rounds: int
) -> TkPLQResult:
    system = scenario.system
    if method in _SEARCHES:
        algorithm, reduction = _SEARCHES[method]
        # A fresh engine without the cross-query presence store: the paper's
        # efficiency experiments measure each method cold, so no cached
        # artefact may leak between the repeated runs of one sweep.
        engine = QueryEngine(
            system.graph, system.matrix, reduction, config=EngineConfig.uncached()
        )
        return engine.search(scenario.iupt, query, algorithm)
    if method in ("sc", "sc-rho"):
        threshold = sc_rho if method == "sc-rho" else None
        return SimpleCounting(scenario.plan, threshold).search(scenario.iupt, query)
    if method == "mc":
        return MonteCarlo(system.graph, system.matrix, mc_rounds).search(scenario.iupt, query)
    if scenario.rfid is None:
        raise ValueError(
            f"method {method!r} needs RFID data; build the scenario with with_rfid=True"
        )
    if method == "scc":
        return SemiConstrainedCounting(scenario.plan, scenario.rfid).search(query)
    return UncertaintyRegionFlow(
        scenario.plan, scenario.rfid, max_speed=scenario.params["Vmax"]
    ).search(query)
