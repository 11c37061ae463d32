"""End-to-end scenario builders used by examples, experiments, and benchmarks.

A :class:`Scenario` bundles everything one evaluation run needs: the floor
plan and the query system built on it, the uncertain positioning table, the
ground-truth trajectories, and (optionally) the RFID tracking table for the
SCC / UR baselines.  Two factories are provided:

* :func:`build_real_scenario` — the university-floor scenario mirroring the
  paper's real dataset (Section 5.2);
* :func:`build_synthetic_scenario` — the parameterised multi-floor grid
  building mirroring the Vita-generated dataset (Section 5.3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..data import RFIDTable, TrajectoryStore
from ..space import FloorPlan
from ..storage import ShardedRecordStore
from ..system import IndoorFlowSystem
from .building import grid_building
from .movement import MovementConfig, RandomWaypointSimulator
from .positioning import MAX_SAMPLE_SET_SIZE, PositioningConfig, WkNNPositioningSimulator
from .realdata import build_university_floorplan
from .rfid_sim import RFIDSimulator


@dataclass
class Scenario:
    """A fully prepared evaluation scenario."""

    name: str
    plan: FloorPlan
    system: IndoorFlowSystem
    iupt: ShardedRecordStore
    trajectories: TrajectoryStore
    rfid: Optional[RFIDTable] = None
    params: Dict[str, float] = field(default_factory=dict)
    start_time: float = 0.0
    duration_seconds: float = 0.0

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration_seconds

    def slocation_ids(self) -> List[int]:
        return sorted(self.plan.slocations)

    def query_interval(self, delta_seconds: Optional[float] = None, seed: int = 0) -> Tuple[float, float]:
        """A query window of length ``delta_seconds`` inside the scenario span.

        The window start is drawn deterministically from ``seed`` so repeated
        experiment runs issue the same queries.
        """
        if delta_seconds is None or delta_seconds >= self.duration_seconds:
            return (self.start_time, self.end_time)
        rng = random.Random(seed)
        start = self.start_time + rng.uniform(0.0, self.duration_seconds - delta_seconds)
        return (start, start + delta_seconds)

    def pick_query_slocations(self, fraction: float, seed: int = 0) -> List[int]:
        """A deterministic random subset of S-locations covering ``fraction`` of them."""
        if not (0.0 < fraction <= 1.0):
            raise ValueError("fraction must be in (0, 1]")
        ids = self.slocation_ids()
        count = max(1, round(len(ids) * fraction))
        rng = random.Random(seed)
        return sorted(rng.sample(ids, count))

    def ground_truth_flows(self, start: float, end: float) -> Dict[int, int]:
        """Per-S-location ground-truth visit counts over ``[start, end]``."""
        return self.trajectories.true_visit_counts(self.plan, start, end)

    def with_mss(self, mss: int) -> "Scenario":
        """A copy of the scenario whose IUPT is truncated to ``mss`` samples."""
        return Scenario(
            name=f"{self.name}-mss{mss}",
            plan=self.plan,
            system=self.system,
            iupt=self.iupt.with_max_sample_set_size(mss),
            trajectories=self.trajectories,
            rfid=self.rfid,
            params={**self.params, "mss": mss},
            start_time=self.start_time,
            duration_seconds=self.duration_seconds,
        )


# ----------------------------------------------------------------------
# Factories
# ----------------------------------------------------------------------
def build_real_scenario(
    num_users: int = 35,
    duration_seconds: float = 1800.0,
    max_period_seconds: float = 3.0,
    positioning_error: float = 2.1,
    seed: int = 11,
) -> Scenario:
    """Build the university-floor scenario of Section 5.2.

    The defaults follow the paper's reported data characteristics; the
    duration defaults to 30 simulated minutes (the paper uses 150) to keep
    test and benchmark runtimes reasonable — pass a larger value for
    paper-scale runs.
    """
    return _simulate(
        "real",
        build_university_floorplan(),
        num_users,
        duration_seconds,
        MovementConfig(max_speed=1.2, dwell_min_seconds=60.0, dwell_max_seconds=300.0),
        PositioningConfig(max_period_seconds, positioning_error),
        seed,
        with_rfid=False,
        params={"num_users": num_users},
    )


def build_synthetic_scenario(
    num_objects: int = 60,
    floors: int = 2,
    room_rows: int = 2,
    rooms_per_row: int = 5,
    duration_seconds: float = 900.0,
    max_period_seconds: float = 3.0,
    positioning_error: float = 2.0,
    seed: int = 23,
    with_rfid: bool = False,
) -> Scenario:
    """Build the Vita-like synthetic scenario of Section 5.3.

    The defaults use a reduced scale (2 floors, tens of objects, 15 simulated
    minutes) so the full benchmark suite runs in minutes on a laptop; the
    scenario knobs of the paper's Table 6 (``|O|``, ``T``, ``µ``) are
    parameters (``mss`` is :meth:`Scenario.with_mss`, ``Δt`` the query's),
    and floors / rooms can be dialled up to the paper's 5-floor,
    100-rooms-per-floor configuration for full-scale runs.  ``with_rfid``
    also replays the trajectories through the RFID simulator (Table 7).

    The default positioning error matches the real dataset's reported
    ~2.1 m: with 12 m rooms, a larger µ (the historical default was 5 m,
    i.e. a 10 m candidate radius) makes the simulated WkNN report reference
    points from beyond a whole room away, which yields topologically
    impossible positioning sequences and all-zero flows.
    """
    movement = MovementConfig(max_speed=1.0, dwell_min_seconds=30.0, dwell_max_seconds=240.0)
    return _simulate(
        "synthetic",
        grid_building(floors, room_rows, rooms_per_row),
        num_objects,
        duration_seconds,
        movement,
        PositioningConfig(max_period_seconds, positioning_error),
        seed,
        with_rfid,
        params={"num_objects": num_objects, "floors": floors, "Vmax": movement.max_speed},
    )


def _simulate(
    name: str,
    plan: FloorPlan,
    objects: int,
    duration_seconds: float,
    movement: MovementConfig,
    positioning: PositioningConfig,
    seed: int,
    with_rfid: bool,
    params: Dict[str, float],
) -> Scenario:
    """Walk ``objects`` through ``plan`` for ``duration_seconds``, position
    them (the movement draws from ``seed``, the positioning from ``seed + 1``)
    and, ``with_rfid``, replay them through the RFID readers."""
    trajectories = RandomWaypointSimulator(plan, movement, seed=seed).simulate(
        objects, start_time=0.0, duration_seconds=duration_seconds
    )
    iupt = WkNNPositioningSimulator(plan, positioning, seed=seed + 1).generate(trajectories)
    return Scenario(
        name=name,
        plan=plan,
        system=IndoorFlowSystem(plan),
        iupt=iupt,
        trajectories=trajectories,
        rfid=RFIDSimulator(plan).generate(trajectories) if with_rfid else None,
        params={
            **params,
            "duration_seconds": duration_seconds,
            "T": positioning.max_period_seconds,
            "mss": MAX_SAMPLE_SET_SIZE,
            "mu": positioning.positioning_error,
            "seed": seed,
        },
        start_time=0.0,
        duration_seconds=duration_seconds,
    )
