"""Synthetic data generation: buildings, movement, positioning, RFID, scenarios."""

from .building import grid_building
from .movement import MovementConfig, RandomWaypointSimulator
from .positioning import PositioningConfig, WkNNPositioningSimulator
from .realdata import build_university_floorplan
from .rfid_sim import RFIDSimulator
from .scenario import Scenario, build_real_scenario, build_synthetic_scenario

__all__ = [
    "MovementConfig",
    "PositioningConfig",
    "RFIDSimulator",
    "RandomWaypointSimulator",
    "Scenario",
    "WkNNPositioningSimulator",
    "build_real_scenario",
    "build_synthetic_scenario",
    "build_university_floorplan",
    "grid_building",
]
