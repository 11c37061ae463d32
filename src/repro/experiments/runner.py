"""Shared sweep machinery for the experiments of :mod:`repro.experiments.paper`.

Every experiment in the paper's evaluation varies one knob (k, |Q|, Δt, mss,
T, µ, |O|) and reports either efficiency (running time, pruning ratio) or
effectiveness (Kendall τ, recall) for a set of methods.  The functions here
run one parameter setting over a few repeated random queries and average the
measures, producing the flat result rows :mod:`repro.experiments.paper`
assembles into tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core import TkPLQuery
from ..data.records import PositioningRecord
from ..eval import run_methods
from ..synth import Scenario


def split_into_time_batches(
    records: Sequence[PositioningRecord], start: float, step: float
) -> List[List[PositioningRecord]]:
    """Slice a time-ordered record stream into fixed-duration flush batches.

    Mirrors how a live loader flushes its buffer every ``step`` seconds from
    ``start``: one (possibly empty) batch per elapsed interval, with the
    trailing partial batch kept.  The continuous-query ablation replays its
    live stream in these batches.
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
    outcomes = [
        run_methods(scenario, methods, query, sc_rho=setting.sc_rho, mc_rounds=setting.mc_rounds)
        for query in setting.queries(scenario)
    ]
    rows: List[Dict[str, object]] = []
    for method, runs in zip(methods, zip(*outcomes)):
        means = {
            column: round(sum(getattr(run, measure) for run in runs) / len(runs), 4)
            for column, measure in (
                ("time_s", "elapsed_seconds"),
                ("pruning_ratio", "pruning_ratio"),
                ("kendall", "kendall"),
                ("recall", "recall"),
            )
        }
        rows.append({"method": method, **(extra or {}), **means})
    return rows


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
