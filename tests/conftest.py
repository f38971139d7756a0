"""Shared fixtures: each shipped scenario is simulated once per session."""

import pathlib

import pytest

from facadesim.config import (
    apply_overrides,
    config_from_dict,
    load_config,
    load_raw,
)
from facadesim.mission import run_mission

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR


@pytest.fixture(scope="session")
def default_run():
    cfg = load_config(CONFIG_DIR / "default.yaml")
    return cfg, run_mission(cfg)


@pytest.fixture(scope="session")
def obstacle_run():
    cfg = load_config(CONFIG_DIR / "obstacle_course.yaml")
    return cfg, run_mission(cfg)


@pytest.fixture(scope="session")
def coverage_run():
    cfg = load_config(CONFIG_DIR / "coverage_4decals.yaml")
    return cfg, run_mission(cfg, inspection_only=True)


@pytest.fixture(scope="session")
def multi_fault_run():
    """Two cracks 5 m apart on the east facade: five faults, five holds."""
    data = apply_overrides(load_raw(CONFIG_DIR / "default.yaml"), [
        "decals=[{id: 0, face: east, center_uv: [-2.5, 1.5],"
        " extent_uv: [0.4, 0.4]}, {id: 1, face: east,"
        " center_uv: [2.5, 1.5], extent_uv: [0.4, 0.4]}]",
        "mission.merge_radius=3.0"])
    cfg = config_from_dict(data)
    return cfg, run_mission(cfg)
