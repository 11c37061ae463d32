"""Experiment runners regenerating every table and figure of the evaluation."""

from .config import (
    REAL_DEFAULTS,
    SYNTH_DEFAULTS,
    clear_scenario_cache,
    get_real_scenario,
    get_synth_scenario,
    real_scale,
    synth_scale,
)
from .registry import EXPERIMENTS, experiment_names, run_experiment
from .runner import (
    QuerySetting,
    evaluate,
    format_table,
    overlapping_queries,
)

__all__ = [
    "EXPERIMENTS",
    "QuerySetting",
    "REAL_DEFAULTS",
    "SYNTH_DEFAULTS",
    "clear_scenario_cache",
    "evaluate",
    "experiment_names",
    "format_table",
    "get_real_scenario",
    "get_synth_scenario",
    "overlapping_queries",
    "real_scale",
    "run_experiment",
    "synth_scale",
]
