"""The paper's evaluation (§5) as one table of sweeps.

Each table or figure sweeps one parameter over one of the two scenarios and
compares a list of methods; :data:`EXPERIMENTS` states each as ``(kind,
methods, points)``.  A point names only what it changes from the default
setting of :mod:`repro.experiments.config`: ``mss``, ``max_period_seconds``
(T), ``positioning_error`` (µ) and ``num_objects`` (|O|) change the scenario,
any other key a :class:`~repro.experiments.runner.QuerySetting` field.
:func:`run_experiment` yields one :func:`~repro.experiments.runner.evaluate`
row block per point, labelled with the point (``repeats`` shows as the rows'
``queries``).  The three reproduction-specific ablations are functions in the
same table.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from . import ablations
from .config import default_setting, scenario
from .runner import evaluate

SCENARIO_KEYS = {"mss", "max_period_seconds", "positioning_error", "num_objects"}
RFID_METHODS = {"scc", "ur"}

EFFECTIVENESS = ("bf", "sc", "sc-rho", "mc")
REAL_EFFICIENCY = ("nl", "bf")
SYNTH_EFFICIENCY = ("nl", "bf", "sc", "sc-rho", "mc")
TABLE4 = ("sc", "sc-rho", "mc", "bf", "nl", "naive", "bf-org", "nl-org", "naive-org")


def each(key, small, paper=None):
    """One point per value of ``key`` at each scale; ``paper`` defaults to ``small``."""
    return {"small": [{key: v} for v in small], "paper": [{key: v} for v in paper or small]}


def then(first, second):
    """``first``'s points, then ``second``'s (Figure 14's two panels)."""
    return {scale: first[scale] + second[scale] for scale in first}


def timed(points):
    """An efficiency sweep: one query per point at the small scale, where it is
    timed, not scored; the scored sweeps average the setting's ``repeats``."""
    return {**points, "small": [{**point, "repeats": 1} for point in points["small"]]}


def grid(outer, inner):
    """Every ``outer`` point with every ``inner`` one (Table 7's |Q| × k)."""
    return {scale: [{**a, **b} for a in outer[scale] for b in inner[scale]] for scale in outer}


# The "small" scale's values are reduced; the "paper" ones are Tables 3 and 6's.
# Real data has 14 S-locations: k runs up to |Q| = round(14 × 0.6) = 8.
MSS = each("mss", (1, 2, 3, 4))
REAL_K = each("k", range(1, 9))
REAL_Q = each("q_fraction", (0.2, 0.4, 0.6, 0.8, 1.0))
REAL_DT = each("delta_seconds", (90.0, 180.0, 270.0), (900.0, 1800.0, 2700.0))
T = each("max_period_seconds", (1.0, 3.0, 5.0, 7.0))
MU = each("positioning_error", (3.0, 5.0, 7.0))
OBJECTS = each("num_objects", (20, 40, 60, 80), (2500, 5000, 7500, 10000))
K = each("k", (3, 5, 8, 10), (5, 10, 15, 20))
Q = each("q_fraction", (0.25, 0.5, 0.75), (0.04, 0.08, 0.12))
DT = each("delta_seconds", (120.0, 240.0, 360.0, 480.0), (900.0, 1800.0, 3600.0, 7200.0))
# Table 5 reports the running time and Figure 7 the τ and recall of one sweep.
REAL_MSS = ("real", EFFECTIVENESS, MSS)

EXPERIMENTS = {
    # §5.2, real data: Table 4 runs every method at the default setting.
    "table4": ("real", TABLE4, {"small": [{}], "paper": [{}]}),
    "table5": REAL_MSS,  # running time vs. mss
    "fig07": REAL_MSS,  # τ and recall of Table 5's runs
    "fig08": ("real", REAL_EFFICIENCY, timed(REAL_K)),
    "fig09": ("real", REAL_EFFICIENCY, timed(REAL_Q)),
    "fig10": ("real", REAL_EFFICIENCY, timed(REAL_DT)),
    "fig11": ("real", EFFECTIVENESS, REAL_K),
    "fig12": ("real", EFFECTIVENESS, REAL_Q),
    "fig13": ("real", EFFECTIVENESS, REAL_DT),
    # §5.3, synthetic data: Figure 14's panel a sweeps T, panel b µ.
    "fig14": ("synth", SYNTH_EFFICIENCY, timed(then(T, MU))),
    "fig15": ("synth", EFFECTIVENESS, T),
    "fig16": ("synth", EFFECTIVENESS, MU),
    "fig17": ("synth", SYNTH_EFFICIENCY, timed(OBJECTS)),
    "fig18": ("synth", EFFECTIVENESS, K),
    "fig19": ("synth", EFFECTIVENESS, Q),
    "fig20": ("synth", EFFECTIVENESS, OBJECTS),
    "fig21": ("synth", EFFECTIVENESS, DT),
    # §5.3.3: BF against the RFID baselines over the same trajectories.
    "table7": ("synth", ("scc", "ur", "bf"), grid(Q, K)),
    # Reproduction-specific ablations.
    "ablation_reduction": ablations.ablation_reduction,
    "ablation_indexes": ablations.ablation_indexes,
    "ablation_continuous": ablations.ablation_continuous,
}


def run_experiment(name: str, scale: str = "small") -> List[Dict[str, object]]:
    """Run one experiment of :data:`EXPERIMENTS` and return its result rows."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}")
    if callable(EXPERIMENTS[name]):
        return EXPERIMENTS[name](scale)
    kind, methods, points = EXPERIMENTS[name]
    rows: List[Dict[str, object]] = []
    for point in points[scale]:
        changes = {key: value for key, value in point.items() if key in SCENARIO_KEYS}
        if RFID_METHODS & set(methods):
            changes["with_rfid"] = True
        data = scenario(kind, scale, **changes)
        setting = dataclasses.replace(
            default_setting(kind, scale),
            **{key: value for key, value in point.items() if key not in SCENARIO_KEYS},
        )
        # The k the query uses: QuerySetting.queries applies the same rule.
        setting.k = min(setting.k, len(data.pick_query_slocations(setting.q_fraction)))
        label = {
            key: setting.k if key == "k" else value
            for key, value in point.items()
            if key != "repeats"
        }
        rows.extend(evaluate(data, methods, setting, extra=label))
    return rows
