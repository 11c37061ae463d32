"""Shared sweep machinery for the experiments of :mod:`repro.experiments.paper`.

Every experiment in the paper's evaluation varies one knob (k, |Q|, Δt, mss,
T, µ, |O|) and reports either efficiency (running time, pruning ratio) or
effectiveness (Kendall τ, recall) for a set of methods.  The functions here
run one parameter setting over repeated random queries and average the
measures, producing the flat result rows :mod:`repro.experiments.paper`
assembles into tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core import TkPLQuery
from ..data.records import PositioningRecord
from ..eval import run_methods, table_row
from ..synth import Scenario

SEED = 5  # repeat r of a setting draws its query with seed SEED + r


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
    mc_rounds: int = 60
    sc_rho: float = 0.25

    def queries(self, scenario: Scenario) -> List[TkPLQuery]:
        """The repeated random queries, drawn deterministically."""
        queries = []
        for repeat in range(self.repeats):
            query_slocations = scenario.pick_query_slocations(
                self.q_fraction, seed=SEED + repeat
            )
            k = min(self.k, len(query_slocations))
            start, end = scenario.query_interval(self.delta_seconds, seed=SEED + repeat)
            queries.append(TkPLQuery.build(query_slocations, k, start, end))
        return queries


def evaluate(
    scenario: Scenario,
    methods: Sequence[str],
    setting: QuerySetting,
    extra: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """Run ``methods`` over the setting's repeated queries: one
    :func:`~repro.eval.table_row` per method, labelled with ``extra``
    (typically the value of the swept parameter)."""
    outcomes = [
        run_methods(scenario, methods, query, setting.sc_rho, setting.mc_rounds)
        for query in setting.queries(scenario)
    ]
    return [table_row(runs, extra) for runs in zip(*outcomes)]


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
    """Render result rows as a fixed-width text table (for CLI / logs).

    The columns are every row's, in order of first appearance; a row without
    one leaves it blank.
    """
    if not rows:
        return "(no rows)"
    columns = list(dict.fromkeys(column for row in rows for column in row))
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
