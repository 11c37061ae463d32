"""Experiment harness: run any method on a scenario and score it.

The harness provides a single entry point, :func:`run_method`, that executes
one of the evaluated methods (the paper's three search algorithms with or
without data reduction, and the SC / SC-ρ / MC / SCC / UR baselines) on a
:class:`~repro.synth.scenario.Scenario` and returns both efficiency and
effectiveness measures against the ground truth.  Every experiment is a thin
sweep over this function.
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
from ..core import (
    DataReductionConfig,
    FlowComputer,
    TkPLQResult,
    TkPLQuery,
)
from ..engine import EngineConfig, QueryEngine
from ..synth.scenario import Scenario
from .ground_truth import ground_truth_ranking
from .metrics import kendall_coefficient, recall_at_k

SEARCH_METHODS = (
    "bf",
    "nl",
    "naive",
    "bf-org",
    "nl-org",
    "naive-org",
)
BASELINE_METHODS = ("sc", "sc-rho", "mc", "scc", "ur")
ALL_METHODS = SEARCH_METHODS + BASELINE_METHODS
MC_SEED = 97  # every Monte Carlo run draws the same possible worlds


@dataclass
class MethodOutcome:
    """The outcome of running one method on one query."""

    method: str
    ranking: List[int]
    elapsed_seconds: float
    pruning_ratio: float
    kendall: float
    recall: float
    details: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """A flat dictionary row for tables / benchmark reports."""
        return {
            "method": self.method,
            "time_s": round(self.elapsed_seconds, 4),
            "pruning_ratio": round(self.pruning_ratio, 4),
            "kendall": round(self.kendall, 4),
            "recall": round(self.recall, 4),
            "top_k": list(self.ranking),
        }


def run_method(
    scenario: Scenario,
    method: str,
    query: TkPLQuery,
    sc_rho: float = 0.25,
    mc_rounds: int = 100,
    truth_ranking: Optional[Sequence[int]] = None,
) -> MethodOutcome:
    """Run ``method`` on ``scenario`` for ``query`` and score it.

    ``truth_ranking`` may be passed to avoid recomputing the ground truth when
    many methods are evaluated on the same query.
    """
    method = method.lower()
    if method not in ALL_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {ALL_METHODS}")

    if truth_ranking is None:
        truth_ranking = ground_truth_ranking(
            scenario.trajectories,
            scenario.plan,
            query.start,
            query.end,
            query.query_slocations,
            query.k,
        )

    began = time.perf_counter()
    result = _execute(scenario, method, query, sc_rho, mc_rounds)
    elapsed = time.perf_counter() - began

    ranking = result.top_k_ids()
    return MethodOutcome(
        method=method,
        ranking=ranking,
        elapsed_seconds=elapsed,
        pruning_ratio=result.stats.pruning_ratio,
        kendall=kendall_coefficient(ranking, list(truth_ranking)),
        recall=recall_at_k(ranking, list(truth_ranking)),
        details=result.stats.as_dict(),
    )


def run_methods(
    scenario: Scenario,
    methods: Sequence[str],
    query: TkPLQuery,
    **kwargs,
) -> List[MethodOutcome]:
    """Run several methods on the same query, sharing the ground truth."""
    truth = ground_truth_ranking(
        scenario.trajectories,
        scenario.plan,
        query.start,
        query.end,
        query.query_slocations,
        query.k,
    )
    return [
        run_method(scenario, method, query, truth_ranking=truth, **kwargs)
        for method in methods
    ]


# ----------------------------------------------------------------------
# Method dispatch
# ----------------------------------------------------------------------
def _execute(
    scenario: Scenario,
    method: str,
    query: TkPLQuery,
    sc_rho: float,
    mc_rounds: int,
) -> TkPLQResult:
    if method in ("bf", "nl", "naive"):
        return _run_search(scenario, method, query, DataReductionConfig.enabled())
    if method == "bf-org":
        return _run_search(scenario, "bf", query, DataReductionConfig.original_with_psls())
    if method in ("nl-org", "naive-org"):
        return _run_search(
            scenario, method.replace("-org", ""), query, DataReductionConfig.disabled()
        )
    if method == "sc":
        return SimpleCounting(scenario.plan).search(scenario.iupt, query)
    if method == "sc-rho":
        return SimpleCounting(scenario.plan, threshold=sc_rho).search(scenario.iupt, query)
    if method == "mc":
        computer = FlowComputer(
            scenario.system.graph, scenario.system.matrix, DataReductionConfig.disabled()
        )
        return MonteCarlo(computer, rounds=mc_rounds, seed=MC_SEED).search(
            scenario.iupt, query
        )
    if method in ("scc", "ur"):
        if scenario.rfid is None:
            raise ValueError(
                f"method {method!r} needs RFID data; build the scenario with with_rfid=True"
            )
        if method == "scc":
            return SemiConstrainedCounting(scenario.plan, scenario.rfid).search(query)
        max_speed = float(scenario.params.get("Vmax", 1.0))
        return UncertaintyRegionFlow(
            scenario.plan, scenario.rfid, max_speed=max_speed
        ).search(query)
    raise AssertionError(f"unhandled method {method!r}")


_ALGORITHM_NAMES = {"bf": "best-first", "nl": "nested-loop", "naive": "naive"}


def _run_search(
    scenario: Scenario,
    algorithm: str,
    query: TkPLQuery,
    reduction: DataReductionConfig,
) -> TkPLQResult:
    # A fresh engine without the cross-query presence store: the paper's
    # efficiency experiments measure each method cold, so no cached artefact
    # may leak between the repeated runs of one sweep.
    engine = _search_engine(scenario, reduction)
    return engine.search(scenario.iupt, query, _ALGORITHM_NAMES[algorithm])


def _search_engine(scenario: Scenario, reduction: DataReductionConfig) -> QueryEngine:
    return QueryEngine(
        scenario.system.graph,
        scenario.system.matrix,
        reduction,
        config=EngineConfig.uncached(),
    )

