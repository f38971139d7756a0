"""Deterministic facade-inspection drone simulator.

A simulated quadrotor plans a layered perimeter path around a building,
estimates its pose from two noisy IMUs (complementary attitude filter plus
per-axis Kalman position filters), avoids cylindrical obstacles with a
sectored planar laser, captures pose-stamped facade images on a fixed
cadence, and revisits every crack-labeled capture pose.
"""

from .config import MissionParams, ScenarioConfig, config_to_dict, load_config
from .errors import InvalidScenario, MissionAborted
from .mission import (
    MissionReport,
    MissionResult,
    run_hover,
    run_mission,
)
from .planner import Waypoint, generate_perimeter_path, plan_return_path
from .world import BuildingSpec, CameraModel, FaultDecal, Obstacle, Scene

__all__ = [
    "BuildingSpec",
    "CameraModel",
    "FaultDecal",
    "InvalidScenario",
    "MissionAborted",
    "MissionParams",
    "MissionReport",
    "MissionResult",
    "Obstacle",
    "Scene",
    "ScenarioConfig",
    "Waypoint",
    "config_to_dict",
    "generate_perimeter_path",
    "load_config",
    "plan_return_path",
    "run_hover",
    "run_mission",
]

__version__ = "0.1.0"
