"""Experiment scales and the cached scenario builder.

Every experiment obtains its scenario through :func:`scenario`, so the same
data is reused across the many sweeps that share it, and the scale of every
experiment is set in one table, :data:`SCALES`.  Two scales are defined:

* ``"small"`` — the default used by the test suite: a single-floor real
  scenario with a handful of users and a two-floor synthetic building with
  tens of objects, so every experiment runs in seconds of pure-Python time.
* ``"paper"`` — the parameters reported in the paper (35 users / 150 minutes
  of real data; 5 floors and thousands of objects for the synthetic data).
  It is not part of the automated suite.  Measured on 2 CPUs with 8 GiB, the
  real paper scenario builds in 0.9 s and the eleven real-data experiments
  took 17 minutes in one run; the synthetic paper scenario does not fit in
  8 GiB (about 13 M reports, about 10 GiB held).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..synth import Scenario, build_real_scenario, build_synthetic_scenario
from .runner import QuerySetting

BUILDERS = {"real": build_real_scenario, "synth": build_synthetic_scenario}

#: ``(kind, scale)`` → (the scenario builder's arguments, the default query
#: setting of Tables 3 and 6).  The builders' own default supplies mss = 4.
#: ``repeats`` is the number of queries a point averages; the efficiency
#: sweeps of :mod:`repro.experiments.paper` time one at the small scale.
SCALES = {
    ("real", "small"): (
        dict(num_users=12, duration_seconds=480.0, max_period_seconds=3.0, positioning_error=2.1),
        dict(k=3, q_fraction=0.6, delta_seconds=180.0, repeats=20, mc_rounds=40),
    ),
    ("real", "paper"): (
        dict(num_users=35, duration_seconds=9000.0, max_period_seconds=3.0, positioning_error=2.1),
        dict(k=3, q_fraction=0.6, delta_seconds=1800.0, repeats=15, mc_rounds=900),
    ),
    ("synth", "small"): (
        dict(num_objects=25, floors=2, room_rows=2, rooms_per_row=4, duration_seconds=480.0,
             max_period_seconds=3.0, positioning_error=5.0),
        dict(k=10, q_fraction=0.5, delta_seconds=180.0, repeats=20, mc_rounds=40, sc_rho=0.2),
    ),
    ("synth", "paper"): (
        dict(num_objects=5000, floors=5, room_rows=10, rooms_per_row=10, duration_seconds=7200.0,
             max_period_seconds=3.0, positioning_error=5.0),
        dict(k=10, q_fraction=0.5, delta_seconds=1800.0, repeats=20, mc_rounds=25000,
             sc_rho=0.2),
    ),
}

_SCENARIOS: Dict[Tuple, Scenario] = {}


def scenario(kind: str, scale: str, mss: Optional[int] = None, **overrides) -> Scenario:
    """The ``kind`` scenario at ``scale``, built once per set of builder arguments.

    ``overrides`` replace builder arguments (``num_objects``,
    ``max_period_seconds``, ``positioning_error``, ``with_rfid``); ``mss``
    truncates the sample sets of the scenario built without it.
    """
    arguments = {**SCALES[kind, scale][0], **overrides}
    key = (kind, *sorted(arguments.items()))
    if key not in _SCENARIOS:
        _SCENARIOS[key] = BUILDERS[kind](**arguments)
    return _SCENARIOS[key] if mss is None else _SCENARIOS[key].with_mss(mss)


def default_setting(kind: str, scale: str) -> QuerySetting:
    """A fresh copy of the default query setting of ``kind`` at ``scale``."""
    return QuerySetting(**SCALES[kind, scale][1])
