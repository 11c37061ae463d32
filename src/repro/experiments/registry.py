"""The experiment registry: every table / figure of the paper by name."""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from . import ablations, real_experiments, rfid_experiments, synth_experiments

ExperimentFn = Callable[..., List[Dict[str, object]]]

EXPERIMENTS: Dict[str, ExperimentFn] = {
    # Real-data experiments (Section 5.2).
    "table4": real_experiments.table4,
    "table5": real_experiments.table5,
    "fig07": real_experiments.fig07,
    "fig08": real_experiments.fig08,
    "fig09": real_experiments.fig09,
    "fig10": real_experiments.fig10,
    "fig11": real_experiments.fig11,
    "fig12": real_experiments.fig12,
    "fig13": real_experiments.fig13,
    # Synthetic experiments (Section 5.3).
    "fig14": synth_experiments.fig14,
    "fig15": synth_experiments.fig15,
    "fig16": synth_experiments.fig16,
    "fig17": synth_experiments.fig17,
    "fig18": synth_experiments.fig18,
    "fig19": synth_experiments.fig19,
    "fig20": synth_experiments.fig20,
    "fig21": synth_experiments.fig21,
    # RFID comparison (Section 5.3.3).
    "table7": rfid_experiments.table7,
    # Reproduction-specific ablations.
    "ablation_reduction": ablations.ablation_reduction,
    "ablation_indexes": ablations.ablation_indexes,
    "ablation_continuous": ablations.ablation_continuous,
    "ablation_algorithms": ablations.ablation_algorithms,
}


def experiment_names() -> Sequence[str]:
    return tuple(EXPERIMENTS)


def run_experiment(name: str, scale: str = "small") -> List[Dict[str, object]]:
    """Run one registered experiment and return its result rows."""
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[name](scale=scale)
