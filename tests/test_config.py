"""Scenario config loading, checks at construction, overrides,
round-trips."""

import dataclasses
import inspect
import json
import math
from pathlib import Path

import pytest
import yaml

from facadesim.config import (
    MAX_LEG_STEPS,
    MissionParams,
    ScenarioConfig,
    _kinds,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    load_config,
    load_raw,
)
from facadesim.control import avoidance_command, track_waypoint
from facadesim.errors import InvalidScenario
from facadesim.estimation import KalmanConfig
from facadesim.mission import run_hover
from facadesim.perception import CAPTURE_INTERVAL_S, filter_fault_coordinates
from facadesim.planner import PlanParams, generate_perimeter_path
from facadesim.sensors import SensorParams
from facadesim.vehicle import VehicleParams
from facadesim.world import BuildingSpec, CameraModel, FaultDecal, Obstacle

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_config(**kw):
    base = dict(building=BuildingSpec(10.0, 6.0, 5.0),
                home=(9.0, 0.0, 0.0))
    base.update(kw)
    return ScenarioConfig(**base)


# -- shipped scenarios ------------------------------------------------------------

@pytest.mark.parametrize("name", ["default", "obstacle_course",
                                  "coverage_4decals"])
def test_shipped_scenarios_load_and_validate(name):
    cfg = load_config(CONFIG_DIR / f"{name}.yaml")
    assert dataclasses.replace(cfg) == cfg   # rebuilding re-runs the checks
    assert cfg.name == name


@pytest.mark.parametrize("name", ["default", "obstacle_course",
                                  "coverage_4decals"])
def test_shipped_scenarios_round_trip(name, tmp_path):
    cfg = load_config(CONFIG_DIR / f"{name}.yaml")
    out = tmp_path / "copy.yaml"
    out.write_text(yaml.safe_dump(config_to_dict(cfg)))
    assert load_config(out) == cfg


def test_constructed_round_trip():
    cfg = small_config(
        name="rt", seed=42,
        decals=(FaultDecal(0, "east", (0.5, 1.5), (0.3, 0.4)),),
        obstacles=(Obstacle(5, (8.0, 2.0), 0.4, 3.0),),
        alpha=1.0, sensors=SensorParams(accel_noise_std=0.01),
        mission=MissionParams(hold_s=2.0, watchdog_s=30.0))
    assert config_from_dict(config_to_dict(cfg)) == cfg


# -- structural errors --------------------------------------------------------------

def _keys(cls, prefix=""):
    """The dotted key of each value a scenario file sets: a tuple, and a
    list of decals or obstacles, is one value."""
    for name, kind in _kinds(cls).items():
        if dataclasses.is_dataclass(kind):
            yield from _keys(kind, f"{prefix}{name}.")
        else:
            yield prefix + name


def test_the_scenario_holds_31_values():
    """A value is a key when some shipped config, script or benchmark
    workload sets it, or some test flies a run at another value: adding or
    removing one is an edit here."""
    assert list(_keys(ScenarioConfig)) == [
        "building.length", "building.width", "building.height",
        "building.center_xy", "name", "seed", "home", "decals", "obstacles",
        "plan.standoff", "plan.buffer", "plan.layer_height",
        "plan.first_layer_alt", "plan.waypoint_spacing",
        "sensors.gyro_noise_std", "sensors.accel_noise_std",
        "sensors.mag_noise_std", "sensors.gyro_bias", "sensors.accel_bias",
        "classifier.accuracy", "vehicle.v_max", "vehicle.yaw_rate_max",
        "vehicle.tau", "mission.dt", "mission.hold_s", "mission.watchdog_s",
        "mission.capture_interval_s", "mission.merge_radius",
        "mission.d_engage", "alpha", "camera_max_range"]


def test_unknown_key_is_named():
    data = config_to_dict(small_config())
    data["vheicle"] = {"v_max": 1.0}
    with pytest.raises(InvalidScenario, match="vheicle"):
        config_from_dict(data)


def test_nested_unknown_key_reports_path():
    data = config_to_dict(small_config())
    data["vehicle"]["vmax"] = 1.0
    with pytest.raises(InvalidScenario, match="vehicle"):
        config_from_dict(data)


# values no scenario varies: each is a constant of its module, not a key,
# so a file that names one fails even at the constant's own value, given here
_CONSTANTS = [
    ("kalman_q_diag", [1.0e-6, 1.0e-4, 1.0e-2], "scenario", "kalman_q_diag"),
    ("kalman_p0_diag", [1.0e-4, 1.0e-4, 1.0e-2], "scenario",
     "kalman_p0_diag"),
    ("camera_hfov_deg", 90.0, "scenario", "camera_hfov_deg"),
    ("camera_vfov_deg", 60.0, "scenario", "camera_vfov_deg"),
    ("gains", {"kp": 1.0, "ki": 0.0001, "kd": 0.5}, "scenario", "gains"),
    ("gains.kp", 1.0, "scenario", "gains"),
    ("gains.ki", 0.0001, "scenario", "gains"),
    ("gains.kd", 0.5, "scenario", "gains"),
    ("mission.arrival_tol", 0.3, "scenario.mission", "arrival_tol"),
    ("mission.kp_yaw", 1.0, "scenario.mission", "kp_yaw")]


@pytest.mark.parametrize("key, value, where, unknown", _CONSTANTS,
                         ids=[f"scenario.{c[0]}" for c in _CONSTANTS])
def test_a_constant_in_yaml_is_an_unknown_key(key, value, where, unknown,
                                              tmp_path):
    data = apply_overrides(config_to_dict(small_config()),
                           [f"{key}={json.dumps(value)}"])
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(InvalidScenario) as err:
        load_config(path)
    assert str(err.value) == f"{where}: unknown key(s) ['{unknown}']"


def test_bad_value_reports_where():
    data = config_to_dict(small_config())
    data["building"]["length"] = -5.0
    with pytest.raises(InvalidScenario, match="building"):
        config_from_dict(data)


def test_missing_building_rejected():
    with pytest.raises(InvalidScenario):
        config_from_dict({"name": "x"})


@pytest.mark.parametrize("override", [
    "mission.d_engage=.nan", "mission.dt=.nan", "mission.dt=.inf",
    "camera_max_range=-.inf", "sensors.accel_noise_std=.nan", "alpha=.nan",
    "building.length=.inf", "home=[9, 0, .nan]",
    "sensors.accel_bias=[1.0e-4, .inf, 1.0e-4]",
    "sensors.gyro_bias=[0, .nan, 0]",
    "obstacles=[{id: 0, center_xy: [8, .inf], radius: 0.3, height: 2}]",
    pytest.param("camera_max_range=1" + "0" * 400,
                 id="camera_max_range=10**400")])
def test_non_finite_numbers_rejected(override):
    """NaN fails every comparison, so a NaN field would pass the range
    checks and switch features off; infinities, and ints no float holds,
    are no scene's numbers.  The reader and a config built in Python reject
    them alike."""
    data = apply_overrides(config_to_dict(small_config()), [override])
    key = override.partition("=")[0]
    with pytest.raises(InvalidScenario, match=f"{key}.*finite"):
        config_from_dict(data)
    with pytest.raises(InvalidScenario, match=f"{key}.*finite"):
        _replaced(small_config(), override)


def _replaced(cfg, override):
    """`cfg` with one --set override applied in Python, section by section
    with dataclasses.replace, so no check of the reader's runs."""
    key, _, raw = override.partition("=")
    value = yaml.safe_load(raw)
    if key == "obstacles":
        value = [Obstacle(**{**o, "center_xy": tuple(o["center_xy"])})
                 for o in value]
    if isinstance(value, list):
        value = tuple(value)
    return _replaced_at(cfg, key.split("."), value)


def _replaced_at(obj, keys, value):
    """`obj` with the entry at key path `keys` set to `value`: each section
    on the way is rebuilt with dataclasses.replace, each tuple by slices."""
    if not keys:
        return value
    head, *rest = keys
    if isinstance(head, int):
        return (obj[:head] + (_replaced_at(obj[head], rest, value),)
                + obj[head + 1:])
    return dataclasses.replace(
        obj, **{head: _replaced_at(getattr(obj, head), rest, value)})


def test_huge_integers_still_count_as_numbers():
    data = apply_overrides(config_to_dict(small_config()),
                           ["camera_max_range=" + "9" * 300])
    assert config_from_dict(data).camera_max_range == int("9" * 300)


_HUGE = "9" * 400   # no float holds it
_HUGE_OVERRIDES = [f"{key}={_HUGE}" for key in (
    "sensors.accel_noise_std", "sensors.gyro_noise_std", "vehicle.tau",
    "plan.standoff", "camera_max_range", "building.length",
    "mission.watchdog_s", "mission.d_engage")] + [
        f"sensors.gyro_bias=[{_HUGE}, 0.0, 0.01]", f"home=[{_HUGE}, 0.0, 0.0]"]


@pytest.mark.parametrize("override", _HUGE_OVERRIDES,
                         ids=lambda o: o.partition("=")[0])
def test_int_too_large_for_a_float_rejected(override):
    """A float field takes only what a float holds: unchecked, each of these
    ends in an OverflowError traceback once the run converts it."""
    key, _, value = override.partition("=")
    message = ("expected a list of 3 finite numbers" if value.startswith("[")
               else "expected a finite number")
    data = apply_overrides(config_to_dict(small_config()), [override])
    with pytest.raises(InvalidScenario, match=f"^scenario.{key}: {message}$"):
        config_from_dict(data)
    with pytest.raises(InvalidScenario, match=f"^scenario.{key}: {message}$"):
        _replaced(small_config(), override)


def test_the_first_bad_key_in_file_order_is_named():
    """Each key is checked as it is read, so of two bad keys, or two bad
    entries of one list, the message names the one the file gives first."""
    data = apply_overrides(config_to_dict(small_config()),
                           ["seed=2.5", "plan.standoff=x"])
    with pytest.raises(InvalidScenario,
                       match="^scenario.seed: expected an integer$"):
        config_from_dict(data)
    data = {"plan": data.pop("plan"), **data}
    with pytest.raises(InvalidScenario, match="^scenario.plan.standoff: "
                       "expected a finite number$"):
        config_from_dict(data)
    data = apply_overrides(config_to_dict(small_config()),
                           ["decals=[5, {id: x}]"])
    with pytest.raises(InvalidScenario,
                       match=r"^scenario.decals\[0\]: expected a mapping$"):
        config_from_dict(data)


@pytest.mark.parametrize("override", ["seed=-1"])
def test_negative_seed_rejected(override):
    data = apply_overrides(config_to_dict(small_config()), [override])
    with pytest.raises(InvalidScenario, match="seed must be non-negative"):
        config_from_dict(data)


def _wrong_leaves(obj, path=()):
    """(key path, value of the wrong kind) for every field of `obj`, walked
    down through each section and into the first element of each list."""
    for f in dataclasses.fields(obj):
        value, here = getattr(obj, f.name), path + (f.name,)
        if dataclasses.is_dataclass(value):
            yield here, 5
            yield from _wrong_leaves(value, here)
        elif isinstance(value, tuple) and dataclasses.is_dataclass(value[0]):
            yield here, 5
            yield from _wrong_leaves(value[0], here + (0,))
        elif isinstance(value, tuple):
            yield here, [1]
        elif isinstance(value, str):
            yield here, 5
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield here, "x"
            yield here, True   # an int to Python, but no number here
        else:   # a field of a kind this walk cannot yet feed a wrong value
            yield here, None


_WALKED = small_config(
    decals=(FaultDecal(0, "east", (0.5, 1.5)),),
    obstacles=(Obstacle(1, (8.0, 2.0), 0.4, 3.0),))
_WRONG = list(_wrong_leaves(_WALKED))


def _dotted(keys):
    return "scenario" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                for k in keys)


def _walked_with(keys, value):
    """_WALKED as a mapping, with the entry at key path `keys` set."""
    data = config_to_dict(_WALKED)
    node = data
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    return data


@pytest.mark.parametrize("keys, wrong", _WRONG, ids=[
    _dotted(k) + ("=True" if w is True else "") for k, w in _WRONG])
def test_every_field_rejects_a_value_of_the_wrong_kind(keys, wrong):
    """A value of the wrong kind fails by name, read from a file or set in
    Python with dataclasses.replace down its key path, and both give the
    reader's message."""
    assert wrong is not None, f"no wrong value known for {_dotted(keys)}"
    with pytest.raises(InvalidScenario) as err:
        config_from_dict(_walked_with(keys, wrong))
    assert str(err.value).startswith(_dotted(keys) + ": ")
    head, *rest = keys
    try:
        value = _replaced_at(getattr(_WALKED, head), rest, wrong)
    except (TypeError, ValueError, IndexError):
        # the value's own section rejects it as it is built, as
        # BuildingSpec's `length <= 0` does a length of "x": the section's
        # business, before any ScenarioConfig is built
        return
    with pytest.raises(InvalidScenario) as built:
        dataclasses.replace(_WALKED, **{head: value})
    assert str(built.value) == str(err.value)


def test_wrong_kind_walk_reaches_list_elements():
    walked = {_dotted(k) for k, _ in _WRONG}
    assert {"scenario.name", "scenario.decals[0].face",
            "scenario.obstacles[0].center_xy",
            "scenario.sensors.gyro_bias"} <= walked


_EDGE_VALUES = (-1, 0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308,
                10**30)


def _numeric_leaves():
    """Key path of every number the walk reaches: each field it feeds "x",
    and each entry of each field it feeds [1]."""
    data = config_to_dict(_WALKED)
    for keys, wrong in _WRONG:
        if wrong == "x":
            yield keys
        elif wrong == [1]:
            node = data
            for k in keys:
                node = node[k]
            yield from (keys + (i,) for i in range(len(node)))


def test_edge_numbers_give_a_plannable_config_or_invalid_scenario():
    """Each numeric leaf at each edge value: the reader returns a config
    that plans, or raises InvalidScenario, and nothing else."""
    failures = []
    for keys in _numeric_leaves():
        for value in _EDGE_VALUES:
            where = f"{_dotted(keys)}={value!r}"
            try:
                cfg = config_from_dict(_walked_with(keys, value))
            except InvalidScenario:
                continue
            except Exception as e:
                failures.append(f"{where}: read: {e!r}")
                continue
            try:
                generate_perimeter_path(cfg.building, cfg.plan, cfg.home)
            except Exception as e:
                failures.append(f"{where}: plan: {e!r}")
    assert failures == []


# -- checks at construction ---------------------------------------------------------

def test_home_inside_footprint_rejected():
    with pytest.raises(ValueError, match="home"):
        small_config(home=(1.0, 0.0, 0.0))


@pytest.mark.parametrize("overrides", [
    ["plan.layer_height=1.0e-17"],
    # two ulps from the first layer to the roof: few layers, if z climbed
    ["plan.layer_height=1.0e-17", "building.height=1.5000000000000004"],
    ["building.height=" + "9" * 300],
    ["plan.waypoint_spacing=1.0e-300"], ["plan.waypoint_spacing=5.0e-324"],
    # two ints a float holds, whose sum no float holds
    ["building.length=" + "9" * 308, "building.width=" + "9" * 308,
     "home=[1.0e+308, 0, 0]"]],
    ids=lambda o: ",".join(o)[:60])
def test_plan_too_large_to_build_rejected(overrides):
    """1.5 + 1e-17 == 1.5, so layer_altitudes would loop forever, as it does
    below a 300-digit height, and _ring_points would build about 1e301
    points: the size is checked without running the planner."""
    data = apply_overrides(config_to_dict(small_config()), overrides)
    with pytest.raises(InvalidScenario, match=r"plan\.layer_height .* and "
                       r"plan\.waypoint_spacing .* waypoints, more than"):
        config_from_dict(data)


def test_plan_spacing_too_large_for_a_float_rejected():
    """A config built in Python may hold an int no float reaches; the
    planner's own division would raise OverflowError on it."""
    with pytest.raises(InvalidScenario, match="^scenario.plan.waypoint_"
                       "spacing: expected a finite number$"):
        small_config(plan=PlanParams(waypoint_spacing=10**400))


def test_plan_with_no_layer_rejected():
    """The planner needs one ring below the roof, and its own ValueError
    would be a traceback from the CLI."""
    data = apply_overrides(config_to_dict(small_config()),
                           ["plan.first_layer_alt=5.0"])
    with pytest.raises(InvalidScenario, match="plan.first_layer_alt"):
        config_from_dict(data)


def test_alpha_range_enforced():
    with pytest.raises(ValueError, match="alpha"):
        small_config(alpha=1.5)
    small_config(alpha=1.0)
    small_config(alpha=0.0)


def test_negative_accel_noise_rejected():
    with pytest.raises(ValueError):
        small_config(sensors=SensorParams(accel_noise_std=-0.1))


@pytest.mark.parametrize("limit", ["watchdog_s", "hold_s"])
def test_leg_steps_bounded(limit):
    """The watchdog or a hold lasts at most MAX_LEG_STEPS steps: past it,
    a leg that cannot arrive, or a long hold, runs for hours."""
    def with_steps(n):
        return small_config(mission=MissionParams(dt=0.5, **{limit: n / 2}))
    with_steps(MAX_LEG_STEPS)
    with pytest.raises(ValueError, match=f"mission.{limit}.*1,000,000$"):
        with_steps(MAX_LEG_STEPS + 1)


@pytest.mark.parametrize("change, match", [
    # unchecked, each ended in an OverflowError once the run converted it
    ({"camera_max_range": 10**400},
     r"^scenario.camera_max_range: expected a finite number$"),
    ({"home": (10**400, 0.0, 0.0)},
     r"^scenario.home: expected a list of 3 finite numbers$"),
    ({"seed": -1}, "^seed must be non-negative, got -1$"),
    ({"sensors": SensorParams(accel_noise_std=1e200)},
     "with a finite square"),
    # unchecked, the config was built and its run failed to unpack home
    ({"home": (14.0, 0.0)},
     r"^scenario.home: expected a list of 3 finite numbers$"),
    ({"sensors": SensorParams(accel_noise_std=int("9" * 400))},
     r"^scenario.sensors.accel_noise_std: expected a finite number$"),
    # unchecked, NaN switched the watchdog off: this mission ran to Done at
    # t = 271.82 s, where watchdog_s=1.0 aborts it at t = 1.01 s
    ({"mission": MissionParams(watchdog_s=math.nan)},
     r"^scenario.mission.watchdog_s: expected a finite number$"),
    # unchecked, the plant clamped z to the ground at t = 0.01 s while the
    # estimate stayed at -5
    ({"home": (14.0, 0.0, -5.0)},
     r"^home must not lie below the ground, got z -5.0$"),
    # each accepted, where the reader rejects its value by key
    ({"seed": 2.5}, r"^scenario.seed: expected an integer$"),
    ({"seed": True}, r"^scenario.seed: expected an integer$"),
    ({"name": ("a",)}, r"^scenario.name: expected a string$"),
    ({"home": [10.0, -6.0, 0.0]},
     r"^scenario.home: expected a list of 3 finite numbers$"),
    ({"decals": []}, r"^scenario.decals: expected a list$"),
    ({"vehicle": 5}, r"^scenario.vehicle: expected a mapping$"),
    ({"classifier": 5}, r"^scenario.classifier: expected a mapping$"),
    ({"sensors": SensorParams(gyro_bias=[1])},
     r"^scenario.sensors.gyro_bias: expected a list of 3 finite numbers$"),
    # each raised AttributeError, where the run read the value
    ({"plan": {}}, r"^scenario.plan: expected a mapping$"),
    ({"obstacles": (1, 2)}, r"^scenario.obstacles\[0\]: expected a mapping$")])
def test_replace_checks_like_the_reader(change, match):
    """A config made from a loaded one with dataclasses.replace is checked
    as it is built, and a value the reader rejects by key gets the reader's
    message."""
    cfg = load_config(CONFIG_DIR / "obstacle_course.yaml")
    with pytest.raises(InvalidScenario, match=match):
        dataclasses.replace(cfg, **change)


def test_camera_takes_the_scenario_range():
    cam = small_config(camera_max_range=8.0).camera()
    assert cam == CameraModel(max_range=8.0)


def test_kalman_r_defaults_to_accel_noise():
    cfg = small_config()
    assert cfg.kalman().r == pytest.approx(
        cfg.sensors.accel_noise_std ** 2)
    explicit = small_config(sensors=SensorParams(accel_noise_std=0.5))
    assert explicit.kalman().r == pytest.approx(0.25)
    # zero noise floors at 1e-6 so the update stays well posed
    floored = small_config(sensors=SensorParams(accel_noise_std=0.0))
    assert floored.kalman().r == pytest.approx(1e-12)


# -- file I/O ------------------------------------------------------------------------

def test_load_raw_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_raw(tmp_path / "absent.yaml")


def test_load_raw_rejects_bad_yaml(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("building: {length: 5.0\n")
    with pytest.raises(InvalidScenario):
        load_raw(p)


def test_load_raw_rejects_non_mapping(tmp_path):
    p = tmp_path / "list.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(InvalidScenario):
        load_raw(p)


# -- overrides -----------------------------------------------------------------------

def test_overrides_set_nested_values():
    data = config_to_dict(small_config())
    apply_overrides(data, ["vehicle.v_max=1.25", "seed=9",
                           "building.length=14"])
    cfg = config_from_dict(data)
    assert cfg.vehicle.v_max == 1.25
    assert cfg.seed == 9
    assert cfg.building.length == 14.0


def test_overrides_parse_yaml_values():
    data = config_to_dict(small_config())
    apply_overrides(data, ["home=[9.5, 0, 0]", "name=probe",
                           "sensors.accel_noise_std=1.0e-3"])
    cfg = config_from_dict(data)
    assert cfg.home == (9.5, 0.0, 0.0)
    assert cfg.name == "probe"
    assert cfg.sensors.accel_noise_std == 0.001


def test_overrides_create_missing_sections():
    data = {"building": {"length": 10.0, "width": 6.0, "height": 5.0}}
    apply_overrides(data, ["mission.hold_s=2.5"])
    cfg = config_from_dict(data)
    assert cfg.mission.hold_s == 2.5


def test_overrides_require_key_value_shape():
    with pytest.raises(InvalidScenario, match="key=value"):
        apply_overrides({}, ["vehicle.v_max"])


def test_mission_params_validation():
    with pytest.raises(ValueError):
        MissionParams(dt=0.0)
    with pytest.raises(ValueError):
        MissionParams(merge_radius=-1.0)
    with pytest.raises(ValueError):
        MissionParams(capture_interval_s=0.0)
    with pytest.raises(ValueError):
        MissionParams(watchdog_s=0.0)


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_each_shared_default_has_one_source():
    """A default that a function signature repeats is exactly the config's."""
    vehicle, mission = VehicleParams(), MissionParams()
    cfg = small_config()
    assert _default(track_waypoint, "v_max") == vehicle.v_max
    assert _default(track_waypoint, "yaw_rate_max") == vehicle.yaw_rate_max
    assert _default(avoidance_command, "v_max") == vehicle.v_max
    assert CAPTURE_INTERVAL_S == mission.capture_interval_s
    assert (_default(filter_fault_coordinates, "merge_radius")
            == mission.merge_radius)
    assert _default(run_hover, "alpha") == cfg.alpha
    assert _default(run_hover, "seed") == cfg.seed
    assert cfg.camera() == CameraModel()
    assert cfg.kalman() == KalmanConfig()
    assert KalmanConfig().r == KalmanConfig.for_accel_noise(
        SensorParams().accel_noise_std).r
