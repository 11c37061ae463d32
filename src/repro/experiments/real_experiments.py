"""Experiments on the "real data" scenario (paper Section 5.2).

Each function regenerates one table or figure of the paper on the
university-floor scenario.  Rows contain the same quantities the paper plots
(running time, pruning ratio, Kendall coefficient, recall) for the same
methods; README's *Running things* section shows how to regenerate them.
"""

from __future__ import annotations

from typing import Dict, List

from .config import REAL_DEFAULTS, get_real_scenario, real_scale
from .runner import QuerySetting, evaluate

FULL_METHOD_SET = (
    "sc",
    "sc-rho",
    "mc",
    "bf",
    "nl",
    "naive",
    "bf-org",
    "nl-org",
    "naive-org",
)
EFFECTIVENESS_METHODS = ("bf", "sc", "sc-rho", "mc")
EFFICIENCY_METHODS = ("nl", "bf")


def _default_setting(scale: str, **overrides) -> QuerySetting:
    knobs = real_scale(scale)
    parameters = {
        "k": REAL_DEFAULTS["k"],
        "q_fraction": REAL_DEFAULTS["q_fraction"],
        "delta_seconds": knobs.default_delta_seconds,
        "repeats": knobs.repeats,
        "mc_rounds": knobs.mc_rounds,
    }
    parameters.update(overrides)
    return QuerySetting(**parameters)


def table4(scale: str = "small") -> List[Dict[str, object]]:
    """Table 4: all methods at the default setting (time, pruning, τ, recall)."""
    scenario = get_real_scenario(scale)
    return evaluate(scenario, FULL_METHOD_SET, _default_setting(scale))


def table5(scale: str = "small") -> List[Dict[str, object]]:
    """Table 5: running time of BF / SC / SC-ρ / MC for mss = 1..4."""
    rows: List[Dict[str, object]] = []
    base = get_real_scenario(scale)
    for mss in (1, 2, 3, 4):
        scenario = base.with_mss(mss)
        rows.extend(
            evaluate(
                scenario,
                EFFECTIVENESS_METHODS,
                _default_setting(scale),
                extra={"mss": mss},
            )
        )
    return rows


def fig07(scale: str = "small") -> List[Dict[str, object]]:
    """Figure 7: effectiveness (τ, recall) vs. mss on real data."""
    # Table 5 and Figure 7 share the same runs; effectiveness columns are
    # already part of the rows produced there.
    return table5(scale)


def fig08(scale: str = "small") -> List[Dict[str, object]]:
    """Figure 8: efficiency (time, pruning ratio) vs. k on real data."""
    scenario = get_real_scenario(scale)
    rows: List[Dict[str, object]] = []
    max_k = max(2, round(len(scenario.plan.slocations) * REAL_DEFAULTS["q_fraction"]))
    for k in range(1, max_k + 1):
        rows.extend(
            evaluate(
                scenario,
                EFFICIENCY_METHODS,
                _default_setting(scale, k=k),
                extra={"k": k},
            )
        )
    return rows


def fig09(scale: str = "small") -> List[Dict[str, object]]:
    """Figure 9: efficiency vs. |Q| (fraction of S-locations) on real data."""
    scenario = get_real_scenario(scale)
    rows: List[Dict[str, object]] = []
    for fraction in (0.2, 0.4, 0.6, 0.8, 1.0):
        rows.extend(
            evaluate(
                scenario,
                EFFICIENCY_METHODS,
                _default_setting(scale, q_fraction=fraction),
                extra={"q_fraction": fraction},
            )
        )
    return rows


def fig10(scale: str = "small") -> List[Dict[str, object]]:
    """Figure 10: efficiency vs. Δt on real data."""
    scenario = get_real_scenario(scale)
    knobs = real_scale(scale)
    rows: List[Dict[str, object]] = []
    for factor in (0.5, 1.0, 1.5):
        delta = knobs.default_delta_seconds * factor
        rows.extend(
            evaluate(
                scenario,
                EFFICIENCY_METHODS,
                _default_setting(scale, delta_seconds=delta),
                extra={"delta_seconds": delta},
            )
        )
    return rows


def fig11(scale: str = "small") -> List[Dict[str, object]]:
    """Figure 11: effectiveness vs. k on real data."""
    scenario = get_real_scenario(scale)
    rows: List[Dict[str, object]] = []
    max_k = max(2, round(len(scenario.plan.slocations) * REAL_DEFAULTS["q_fraction"]))
    for k in range(1, max_k + 1):
        rows.extend(
            evaluate(
                scenario,
                EFFECTIVENESS_METHODS,
                _default_setting(scale, k=k),
                extra={"k": k},
            )
        )
    return rows


def fig12(scale: str = "small") -> List[Dict[str, object]]:
    """Figure 12: effectiveness vs. |Q| on real data."""
    scenario = get_real_scenario(scale)
    rows: List[Dict[str, object]] = []
    for fraction in (0.2, 0.4, 0.6, 0.8, 1.0):
        rows.extend(
            evaluate(
                scenario,
                EFFECTIVENESS_METHODS,
                _default_setting(scale, q_fraction=fraction),
                extra={"q_fraction": fraction},
            )
        )
    return rows


def fig13(scale: str = "small") -> List[Dict[str, object]]:
    """Figure 13: effectiveness vs. Δt on real data."""
    scenario = get_real_scenario(scale)
    knobs = real_scale(scale)
    rows: List[Dict[str, object]] = []
    for factor in (0.5, 1.0, 1.5):
        delta = knobs.default_delta_seconds * factor
        rows.extend(
            evaluate(
                scenario,
                EFFECTIVENESS_METHODS,
                _default_setting(scale, delta_seconds=delta),
                extra={"delta_seconds": delta},
            )
        )
    return rows
