"""Shared sweep machinery for the per-table / per-figure experiment runners.

Every experiment in the paper's evaluation varies one knob (k, |Q|, Δt, mss,
T, µ, |O|) and reports either efficiency (running time, pruning ratio) or
effectiveness (Kendall τ, recall) for a set of methods.  The functions here
run one parameter setting over a few repeated random queries and average the
measures, producing flat result rows the experiment modules assemble into
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core import TkPLQuery
from ..data.records import PositioningRecord
from ..eval import MethodOutcome, run_batched, run_method
from ..eval.ground_truth import ground_truth_ranking
from ..synth import Scenario


def split_into_time_batches(
    records: Sequence[PositioningRecord], start: float, step: float
) -> List[List[PositioningRecord]]:
    """Slice a time-ordered record stream into fixed-duration flush batches.

    Mirrors how a live loader flushes its buffer every ``step`` seconds from
    ``start``: one (possibly empty) batch per elapsed interval, with the
    trailing partial batch kept.  Shared by the continuous-query ablation
    and the streaming benchmarks so all of them replay the same stream
    shape.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    batches: List[List[PositioningRecord]] = []
    current: List[PositioningRecord] = []
    boundary = start + step
    for record in records:
        while record.timestamp >= boundary:
            batches.append(current)
            current = []
            boundary += step
        current.append(record)
    if current:
        batches.append(current)
    return batches


@dataclass
class QuerySetting:
    """One fully specified query setting over a scenario."""

    k: int
    q_fraction: float
    delta_seconds: Optional[float]
    repeats: int = 2
    seed: int = 5
    mc_rounds: int = 60
    sc_rho: float = 0.25

    def queries(self, scenario: Scenario) -> List[TkPLQuery]:
        """The repeated random queries drawn deterministically from the seed."""
        queries = []
        for repeat in range(self.repeats):
            query_slocations = scenario.pick_query_slocations(
                self.q_fraction, seed=self.seed + repeat
            )
            k = min(self.k, len(query_slocations))
            start, end = scenario.query_interval(
                self.delta_seconds, seed=self.seed + repeat
            )
            queries.append(TkPLQuery.build(query_slocations, k, start, end))
        return queries


def evaluate(
    scenario: Scenario,
    methods: Sequence[str],
    setting: QuerySetting,
    extra: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """Run ``methods`` over the setting's repeated queries and average measures.

    Returns one row per method with the averaged time, pruning ratio, Kendall
    coefficient and recall, annotated with the ``extra`` key/values (typically
    the value of the swept parameter).
    """
    sums: Dict[str, Dict[str, float]] = {
        method: {"time_s": 0.0, "pruning_ratio": 0.0, "kendall": 0.0, "recall": 0.0}
        for method in methods
    }
    queries = setting.queries(scenario)
    for query in queries:
        truth = ground_truth_ranking(
            scenario.trajectories,
            scenario.plan,
            query.start,
            query.end,
            query.query_slocations,
            query.k,
        )
        for method in methods:
            outcome = run_method(
                scenario,
                method,
                query,
                sc_rho=setting.sc_rho,
                mc_rounds=setting.mc_rounds,
                truth_ranking=truth,
            )
            sums[method]["time_s"] += outcome.elapsed_seconds
            sums[method]["pruning_ratio"] += outcome.pruning_ratio
            sums[method]["kendall"] += outcome.kendall
            sums[method]["recall"] += outcome.recall

    rows: List[Dict[str, object]] = []
    count = float(len(queries))
    for method in methods:
        row: Dict[str, object] = {"method": method}
        if extra:
            row.update(extra)
        row.update(
            {
                "time_s": round(sums[method]["time_s"] / count, 4),
                "pruning_ratio": round(sums[method]["pruning_ratio"] / count, 4),
                "kendall": round(sums[method]["kendall"] / count, 4),
                "recall": round(sums[method]["recall"] / count, 4),
            }
        )
        rows.append(row)
    return rows


def single_query_outcome(
    scenario: Scenario,
    method: str,
    setting: QuerySetting,
) -> MethodOutcome:
    """Run one method on the first query of a setting (used by benchmarks)."""
    query = setting.queries(scenario)[0]
    return run_method(
        scenario,
        method,
        query,
        sc_rho=setting.sc_rho,
        mc_rounds=setting.mc_rounds,
    )


def overlapping_queries(
    scenario: Scenario,
    count: int,
    k: int = 3,
    q_fraction: float = 0.5,
    delta_seconds: Optional[float] = None,
    seed: int = 5,
) -> List[TkPLQuery]:
    """``count`` TkPLQ queries over one shared window with overlapping sets.

    Models a multi-tenant query stream hammering the same time range: every
    query draws its own (deterministic) S-location subset, so consecutive
    queries overlap heavily without being identical.  This is the workload
    the engine's ``batch`` and cross-query presence store target.
    """
    start, end = scenario.query_interval(delta_seconds, seed=seed)
    queries: List[TkPLQuery] = []
    for repeat in range(count):
        query_slocations = scenario.pick_query_slocations(
            q_fraction, seed=seed + repeat
        )
        queries.append(
            TkPLQuery.build(
                query_slocations, min(k, len(query_slocations)), start, end
            )
        )
    return queries


def batched_outcome(
    scenario: Scenario,
    queries: Sequence[TkPLQuery],
) -> List[Dict[str, object]]:
    """Answer a query stream in one batched pass; one flat row per query."""
    report = run_batched(scenario, queries)
    return [
        {
            "query": index,
            "k": result.query.k,
            "q_size": len(result.query.query_slocations),
            "top_k": result.top_k_ids(),
            "time_s": round(result.stats.elapsed_seconds, 4),
        }
        for index, result in enumerate(report.results)
    ]


def format_table(rows: Sequence[Dict[str, object]]) -> str:
    """Render result rows as a fixed-width text table (for CLI / logs)."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
