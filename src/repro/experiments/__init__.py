"""Experiment runners regenerating every table and figure of the evaluation."""

from .config import default_setting, scenario
from .paper import EXPERIMENTS, run_experiment
from .runner import (
    QuerySetting,
    evaluate,
    format_table,
    overlapping_queries,
)

__all__ = [
    "EXPERIMENTS",
    "QuerySetting",
    "default_setting",
    "evaluate",
    "format_table",
    "overlapping_queries",
    "run_experiment",
    "scenario",
]
