"""Scenario configuration: one YAML file describes a full run.

The dataclass mirrors the file schema field for field (angles in degrees stay
degrees here) so that parse -> serialize -> parse is the identity; module
objects with derived units are built by the accessor methods.  All validation
failures surface as InvalidScenario with the offending key in the message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import yaml

from .control import D_ENGAGE, PidGains
from .errors import InvalidScenario
from .estimation import P0_DIAG, Q_DIAG, KalmanConfig, diag3
from .perception import ClassifierSpec
from .sensors import SensorParams
from .planner import PlanParams
from .vehicle import VehicleParams
from .world import (
    SCAN_N_BINS,
    SCAN_RANGE_MAX,
    BuildingSpec,
    CameraModel,
    FaultDecal,
    Obstacle,
    Scene,
)


@dataclass(frozen=True)
class MissionParams:
    dt: float = 0.01
    arrival_tol: float = 0.3          # [m] on the estimated position
    hold_s: float = 5.0
    watchdog_s: float = 120.0         # per-waypoint time limit
    capture_interval_s: float = 10.0
    merge_radius: float = 2.0
    d_engage: float = D_ENGAGE
    kp_yaw: float = 1.0

    def __post_init__(self) -> None:
        for name in ("dt", "arrival_tol", "hold_s", "watchdog_s",
                     "capture_interval_s", "d_engage"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.merge_radius < 0:
            raise ValueError("merge_radius must be non-negative")
        if self.kp_yaw < 0:
            raise ValueError("kp_yaw must be non-negative")


@dataclass(frozen=True)
class ScenarioConfig:
    building: BuildingSpec
    name: str = "scenario"
    seed: int = 0
    home: tuple[float, float, float] = (10.0, 0.0, 0.0)
    decals: tuple[FaultDecal, ...] = ()
    obstacles: tuple[Obstacle, ...] = ()
    plan: PlanParams = field(default_factory=PlanParams)
    gains: PidGains = field(default_factory=PidGains)
    sensors: SensorParams = field(default_factory=SensorParams)
    classifier: ClassifierSpec = field(default_factory=ClassifierSpec)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    mission: MissionParams = field(default_factory=MissionParams)
    alpha: float = 0.98
    kalman_q_diag: tuple[float, float, float] = Q_DIAG
    kalman_r_std: float | None = None   # None: use sensors.accel_noise_std
    kalman_p0_diag: tuple[float, float, float] = P0_DIAG
    camera_hfov_deg: float = 90.0
    camera_vfov_deg: float = 60.0
    camera_max_range: float = 15.0
    scan_n_bins: int = SCAN_N_BINS
    scan_range_max: float = SCAN_RANGE_MAX

    def scene(self) -> Scene:
        return Scene(building=self.building, decals=self.decals,
                     obstacles=self.obstacles)

    def camera(self) -> CameraModel:
        return CameraModel(hfov=math.radians(self.camera_hfov_deg),
                           vfov=math.radians(self.camera_vfov_deg),
                           max_range=self.camera_max_range)

    def kalman(self) -> KalmanConfig:
        r_std = self.kalman_r_std
        if r_std is None:
            r_std = self.sensors.accel_noise_std
        return replace(KalmanConfig.for_accel_noise(r_std),
                       Q=diag3(*self.kalman_q_diag),
                       P0=diag3(*self.kalman_p0_diag))

    def validate(self) -> None:
        scene = self.scene()
        fp = scene.building.footprint()
        if fp.distance_to(self.home[0], self.home[1]) <= 0.0:
            raise ValueError("home must lie outside the building footprint")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if any(q < 0 for q in self.kalman_q_diag):
            raise ValueError("kalman_q_diag entries must be non-negative")
        if any(p < 0 for p in self.kalman_p0_diag):
            raise ValueError("kalman_p0_diag entries must be non-negative")
        if self.kalman_r_std is not None and self.kalman_r_std < 0:
            raise ValueError("kalman_r_std must be non-negative")
        self.camera()
        if self.scan_n_bins < 2:
            raise ValueError("scan_n_bins must be at least 2")
        if self.scan_range_max <= self.mission.d_engage:
            raise ValueError("scan_range_max must exceed d_engage")


_TUPLE_FIELDS = {"home", "kalman_q_diag", "kalman_p0_diag", "center_xy",
                 "center_uv", "extent_uv", "gyro_bias", "accel_bias"}


def _to_plain(value):
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _to_plain(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_plain(v) for v in value]
    return value


def _build(cls, data, where: str):
    if not isinstance(data, dict):
        raise InvalidScenario(f"{where}: expected a mapping")
    spec = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(spec)
    if unknown:
        raise InvalidScenario(f"{where}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for name, raw in data.items():
        kwargs[name] = _convert(spec[name], raw, f"{where}.{name}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise InvalidScenario(f"{where}: {e}") from e


_SECTION_TYPES = {
    "building": BuildingSpec,
    "plan": PlanParams,
    "gains": PidGains,
    "sensors": SensorParams,
    "classifier": ClassifierSpec,
    "vehicle": VehicleParams,
    "mission": MissionParams,
}


def _convert(f, raw, where: str):
    name = f.name
    if name == "decals":
        return tuple(_build(FaultDecal, d, f"{where}[{i}]")
                     for i, d in enumerate(raw or []))
    if name == "obstacles":
        return tuple(_build(Obstacle, o, f"{where}[{i}]")
                     for i, o in enumerate(raw or []))
    if name in _SECTION_TYPES:
        return _build(_SECTION_TYPES[name], raw, where)
    if name in _TUPLE_FIELDS and isinstance(raw, list):
        return tuple(raw)
    return raw


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return _to_plain(cfg)


def config_from_dict(data: dict) -> ScenarioConfig:
    cfg = _build(ScenarioConfig, data, "scenario")
    try:
        cfg.validate()
    except ValueError as e:
        raise InvalidScenario(str(e)) from e
    return cfg


def load_raw(path: str | Path) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise FileNotFoundError(f"cannot read config {p}: {e}") from e
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise InvalidScenario(f"config {p} is not valid YAML: {e}") from e
    if not isinstance(data, dict):
        raise InvalidScenario(f"config {p} must be a YAML mapping")
    return data


def load_config(path: str | Path) -> ScenarioConfig:
    return config_from_dict(load_raw(path))


def save_config(cfg: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(
        yaml.safe_dump(config_to_dict(cfg), sort_keys=True,
                       default_flow_style=None))


def apply_overrides(data: dict, pairs: list[str]) -> dict:
    """Apply repeatable --set key=value entries to a raw config mapping."""
    for pair in pairs:
        if "=" not in pair:
            raise InvalidScenario(f"--set needs key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as e:
            raise InvalidScenario(f"--set {key}: bad value {raw!r}: {e}")
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return data
