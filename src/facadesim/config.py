"""Scenario configuration: one YAML file describes a full run.

The dataclass annotations are the file schema; one rule, `_error`, checks
each value's kind as the reader reads it and as any `ScenarioConfig` is
built.  Each value has one source: `seed` drives every random stream of a
run, and the Kalman r is the variance of `sensors.accel_noise_std`.  A
value no scenario varies is a constant of its module, not a key.  Every
validation failure is an InvalidScenario naming the offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import get_args, get_type_hints

import yaml

from .attitude import ComplementaryGain
from .control import D_ENGAGE
from .errors import InvalidScenario
from .estimation import KalmanConfig
from .perception import CAPTURE_INTERVAL_S, MERGE_RADIUS, ClassifierSpec
from .sensors import SensorParams
from .planner import PlanParams, plan_size
from .vehicle import VehicleParams
from .world import BuildingSpec, CameraModel, FaultDecal, Obstacle, Scene

MAX_PLAN_WAYPOINTS = 100_000   # the shipped plans have at most 81
# [rad] bound on the gyro's turn in one step; the shipped configs turn at
# most 1.2e-8 rad, and past about 1.3e154 rad its square overflows
MAX_GYRO_TURN = 1e6
# bound on the steps of one leg or hold; the shipped configs allow at most
# 12,000 (the watchdog) and 500 (a hold), and a tiny dt or a huge hold
# would otherwise run for hours while the trajectory log grows
MAX_LEG_STEPS = 1_000_000


@dataclass(frozen=True)
class MissionParams:
    dt: float = 0.01
    hold_s: float = 5.0
    watchdog_s: float = 120.0         # per-waypoint time limit
    capture_interval_s: float = CAPTURE_INTERVAL_S
    merge_radius: float = MERGE_RADIUS
    d_engage: float = D_ENGAGE

    def __post_init__(self) -> None:
        for name in ("dt", "hold_s", "watchdog_s", "capture_interval_s",
                     "d_engage"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.merge_radius < 0:
            raise ValueError("merge_radius must be non-negative")


@dataclass(frozen=True)
class ScenarioConfig:
    building: BuildingSpec
    name: str = "scenario"
    seed: int = 0
    home: tuple[float, float, float] = (10.0, 0.0, 0.0)
    decals: tuple[FaultDecal, ...] = ()
    obstacles: tuple[Obstacle, ...] = ()
    plan: PlanParams = field(default_factory=PlanParams)
    sensors: SensorParams = field(default_factory=SensorParams)
    classifier: ClassifierSpec = field(default_factory=ClassifierSpec)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    mission: MissionParams = field(default_factory=MissionParams)
    alpha: float = ComplementaryGain.alpha
    camera_max_range: float = CameraModel.max_range

    def __post_init__(self) -> None:
        try:
            bad = _error(ScenarioConfig, self, "scenario")
            if bad is not None:
                raise ValueError(bad)
            fp = self.scene().building.footprint()
            if self.seed < 0:
                raise ValueError(f"seed must be non-negative, got {self.seed}")
            if fp.distance_to(self.home[0], self.home[1]) <= 0.0:
                raise ValueError(
                    "home must lie outside the building footprint")
            if self.home[2] < 0.0:   # the plant would clamp z to the ground
                raise ValueError("home must not lie below the ground, "
                                 f"got z {self.home[2]}")
            ComplementaryGain(self.alpha)
            if self.plan.first_layer_alt >= self.building.height:
                raise ValueError("plan.first_layer_alt must be below the roof")
            size = plan_size(self.building, self.plan)
            if size > MAX_PLAN_WAYPOINTS:
                raise ValueError(
                    f"plan.layer_height {self.plan.layer_height} and "
                    f"plan.waypoint_spacing {self.plan.waypoint_spacing} give "
                    f"about {size:.3g} waypoints, more than "
                    f"{MAX_PLAN_WAYPOINTS}")
            self.camera()
            self.kalman()
            turn = (max(map(abs, self.sensors.gyro_bias))
                    + self.sensors.gyro_noise_std) * self.mission.dt
            if turn > MAX_GYRO_TURN:
                raise ValueError(
                    f"sensors.gyro_bias, sensors.gyro_noise_std and "
                    f"mission.dt give a gyro turn of about {turn:.3g} rad "
                    f"per step, more than {MAX_GYRO_TURN:g}")
            m = self.mission
            leg = max(m.watchdog_s, m.hold_s) / m.dt
            if leg > MAX_LEG_STEPS:
                raise ValueError(
                    f"mission.watchdog_s {m.watchdog_s}, mission.hold_s "
                    f"{m.hold_s} and mission.dt {m.dt} give a leg or hold "
                    f"of about {leg:.3g} steps, more than {MAX_LEG_STEPS:,}")
        except ValueError as e:   # unprefixed: the key is in the message
            raise InvalidScenario(str(e)) from e

    def scene(self) -> Scene:
        return Scene(building=self.building, decals=self.decals,
                     obstacles=self.obstacles)

    def camera(self) -> CameraModel:
        return CameraModel(max_range=self.camera_max_range)

    def kalman(self) -> KalmanConfig:
        return KalmanConfig.for_accel_noise(self.sensors.accel_noise_std)


def _is_number(x) -> bool:
    """An int or float that converts to a finite float: YAML's .nan and .inf,
    and an int too large for a float, are not numbers here."""
    try:
        return (isinstance(x, (int, float)) and not isinstance(x, bool)
                and math.isfinite(x))
    except OverflowError:
        return False


def _error(kind, value, key: str) -> str | None:
    """The reader's message for the first value in `value`, of schema kind
    `kind`, that is not of its kind, or None.  A float must pass
    `_is_number`: NaN would pass every range check, and an int no float
    holds would overflow in use.  A fixed-length tuple must hold that many
    numbers, since a short one fails where its missing entry is read."""
    args = get_args(kind)
    if is_dataclass(kind):
        if not isinstance(value, kind):
            return f"{key}: expected a mapping"
        items = [(k, getattr(value, name), f"{key}.{name}")
                 for name, k in _kinds(kind).items()]
    elif args[-1:] == (Ellipsis,):
        if not isinstance(value, tuple):
            return f"{key}: expected a list"
        items = [(args[0], v, f"{key}[{i}]") for i, v in enumerate(value)]
    elif args:
        return (None if isinstance(value, tuple) and len(value) == len(args)
                and all(map(_is_number, value))
                else f"{key}: expected a list of {len(args)} finite numbers")
    elif kind is int:
        return (None if isinstance(value, int) and not isinstance(value, bool)
                else f"{key}: expected an integer")
    elif kind is float:
        return None if _is_number(value) else f"{key}: expected a finite number"
    else:
        return None if isinstance(value, str) else f"{key}: expected a string"
    return next(filter(None, (_error(*item) for item in items)), None)


def config_to_dict(value):
    """A config, or any section or value of one, as plain YAML data."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: config_to_dict(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, tuple):
        return [config_to_dict(v) for v in value]
    return value


@cache
def _kinds(cls) -> dict:
    """Field name -> resolved annotation: the schema of one section."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _build(cls, data, where: str):
    if not isinstance(data, dict):
        raise InvalidScenario(f"{where}: expected a mapping")
    kinds = _kinds(cls)
    unknown = set(data) - set(kinds)
    if unknown:   # YAML keys of any kind; str keys sort as `sorted` does
        keys = sorted(unknown, key=lambda k: (type(k).__name__, str(k)))
        raise InvalidScenario(f"{where}: unknown key(s) {keys}")
    kwargs = {}
    for name, raw in data.items():   # in file order: the first bad key fails
        kwargs[name] = _convert(kinds[name], raw, f"{where}.{name}")
        bad = _error(kinds[name], kwargs[name], f"{where}.{name}")
        if bad is not None:   # before cls(), whose checks assume the kinds
            raise InvalidScenario(bad)
    try:
        return cls(**kwargs)
    except InvalidScenario:   # a whole-scenario check, worded in full
        raise
    except (TypeError, ValueError) as e:
        raise InvalidScenario(f"{where}: {e}") from e


def _convert(kind, raw, where: str):
    """A mapping as a section, a list as a tuple, and null as an empty
    variable-length tuple: structure only, for `_error` to check."""
    if is_dataclass(kind):
        return _build(kind, raw, where)
    args = get_args(kind)
    if args and isinstance(raw, (list, tuple)):
        return tuple(_convert(args[0], x, f"{where}[{i}]")
                     for i, x in enumerate(raw))
    return () if raw is None and args[-1:] == (Ellipsis,) else raw


def config_from_dict(data: dict) -> ScenarioConfig:
    return _build(ScenarioConfig, data, "scenario")


def load_raw(path: str | Path) -> dict:
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as e:
        raise FileNotFoundError(f"cannot read config {p}: {e}") from e
    try:   # ValueError: a byte UTF-8 has not, or an int of over 4300 digits
        data = yaml.safe_load(raw.decode("utf-8"))
    except (yaml.YAMLError, ValueError) as e:
        raise InvalidScenario(f"config {p} is not valid YAML: {e}") from e
    if not isinstance(data, dict):
        raise InvalidScenario(f"config {p} must be a YAML mapping")
    return data


def load_config(path: str | Path) -> ScenarioConfig:
    return config_from_dict(load_raw(path))


def apply_overrides(data: dict, pairs: list[str]) -> dict:
    """Apply repeatable --set key=value entries to a raw config mapping."""
    for pair in pairs:
        if "=" not in pair:
            raise InvalidScenario(f"--set needs key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            value = yaml.safe_load(raw)
        except (yaml.YAMLError, ValueError) as e:
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
