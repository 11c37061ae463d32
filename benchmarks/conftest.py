"""Shared benchmark fixtures and helpers.

Every benchmark file corresponds to one table or figure of the paper (see
README, *Repo conventions*).  Each benchmark:

* regenerates the experiment's result rows once (at "small" scale) and
  attaches them to ``benchmark.extra_info["rows"]`` so the numbers appear in
  the pytest-benchmark report / JSON output, and
* times a representative query of that experiment (the Best-First algorithm
  on the default setting unless the experiment targets another method), using
  a single round to keep the full suite runnable in minutes.

Paper-scale runs are available through ``python -m repro.experiments <name>
--scale paper`` and are intentionally not part of the automated benchmarks.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import pytest

from repro.experiments import (
    QuerySetting,
    get_real_scenario,
    get_synth_scenario,
    real_scale,
    run_experiment,
    synth_scale,
)
from repro.experiments.runner import single_query_outcome


@pytest.fixture(scope="session")
def real_scenario():
    return get_real_scenario("small")


@pytest.fixture(scope="session")
def synth_scenario():
    return get_synth_scenario("small")


@pytest.fixture(scope="session")
def synth_rfid_scenario():
    return get_synth_scenario("small", with_rfid=True)


@pytest.fixture(scope="session")
def real_setting() -> QuerySetting:
    knobs = real_scale("small")
    return QuerySetting(
        k=3,
        q_fraction=0.6,
        delta_seconds=knobs.default_delta_seconds,
        repeats=1,
        mc_rounds=knobs.mc_rounds,
    )


@pytest.fixture(scope="session")
def synth_setting() -> QuerySetting:
    knobs = synth_scale("small")
    return QuerySetting(
        k=5,
        q_fraction=0.5,
        delta_seconds=knobs.default_delta_seconds,
        repeats=1,
        mc_rounds=knobs.mc_rounds,
        sc_rho=0.2,
    )


@pytest.fixture(scope="session")
def run_and_attach() -> Callable:
    """Fixture returning a helper that attaches experiment rows and times a callable.

    Regenerating every experiment's full result table inside the benchmark run
    multiplies its duration by roughly an order of magnitude, so the full
    regeneration is opt-in: set ``REPRO_BENCH_FULL=1`` (or run
    ``python -m repro.experiments <name>``) to obtain the complete rows; the
    default benchmark run only times the representative query of each
    experiment.
    """
    import os

    full = os.environ.get("REPRO_BENCH_FULL", "0") not in ("", "0", "false")

    def _run(benchmark, experiment_name: str, timed: Callable[[], object]) -> None:
        benchmark.extra_info["experiment"] = experiment_name
        if full:
            rows: List[Dict[str, object]] = run_experiment(experiment_name, scale="small")
            benchmark.extra_info["rows"] = rows
        else:
            benchmark.extra_info["rows"] = (
                f"set REPRO_BENCH_FULL=1 or run `python -m repro.experiments "
                f"{experiment_name}` for the full result table"
            )
        benchmark.pedantic(timed, rounds=1, iterations=1, warmup_rounds=0)

    return _run


@pytest.fixture(scope="session")
def time_method(run_and_attach) -> Callable:
    """Fixture returning the common pattern: attach rows, time one representative query."""

    def _time(benchmark, experiment_name: str, scenario, setting, method: str) -> None:
        run_and_attach(
            benchmark,
            experiment_name,
            lambda: single_query_outcome(scenario, method, setting),
        )

    return _time
