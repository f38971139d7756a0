"""Scenario config loading, checks at construction, overrides,
round-trips."""

import dataclasses
import inspect
import math
from pathlib import Path

import pytest
import yaml

from facadesim.config import (
    MAX_LEG_STEPS,
    MAX_SCAN_BINS,
    MissionParams,
    ScenarioConfig,
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
from facadesim.planner import generate_perimeter_path
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
    "kalman_q_diag=[1.0e-4, .inf, 1.0e-4]", "sensors.gyro_bias=[0, .nan, 0]",
    "obstacles=[{id: 0, center_xy: [8, .inf], radius: 0.3, height: 2}]"])
def test_non_finite_numbers_rejected(override):
    """NaN fails every comparison, so a NaN field would pass the range
    checks and switch features off; infinities are no scene's numbers."""
    data = apply_overrides(config_to_dict(small_config()), [override])
    key = override.partition("=")[0]
    with pytest.raises(InvalidScenario, match=f"{key}.*finite"):
        config_from_dict(data)


def test_huge_integers_still_count_as_numbers():
    data = apply_overrides(config_to_dict(small_config()),
                           ["camera_max_range=" + "9" * 300])
    assert config_from_dict(data).camera_max_range == int("9" * 300)


_HUGE = "9" * 400   # no float holds it
_HUGE_OVERRIDES = [f"{key}={_HUGE}" for key in (
    "sensors.accel_noise_std", "sensors.gyro_noise_std", "vehicle.tau",
    "gains.kp",
    "camera_hfov_deg", "building.length", "mission.watchdog_s",
    "mission.d_engage")] + [f"kalman_q_diag=[{_HUGE}, 1.0e-4, 1.0e-2]",
                            f"home=[{_HUGE}, 0.0, 0.0]"]


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


@pytest.mark.parametrize("keys, wrong", _WRONG,
                         ids=[_dotted(k) for k, _ in _WRONG])
def test_every_field_rejects_a_value_of_the_wrong_kind(keys, wrong):
    """A field the reader lets through unchecked fails here by name."""
    assert wrong is not None, f"no wrong value known for {_dotted(keys)}"
    with pytest.raises(InvalidScenario) as err:
        config_from_dict(_walked_with(keys, wrong))
    assert str(err.value).startswith(_dotted(keys) + ": ")


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
    ["plan.waypoint_spacing=1.0e-300"], ["plan.waypoint_spacing=5.0e-324"]],
    ids=lambda o: ",".join(o)[:60])
def test_plan_too_large_to_build_rejected(overrides):
    """1.5 + 1e-17 == 1.5, so layer_altitudes would loop forever, as it does
    below a 300-digit height, and _ring_points would build about 1e301
    points: the size is checked without running the planner."""
    data = apply_overrides(config_to_dict(small_config()), overrides)
    with pytest.raises(InvalidScenario, match=r"plan\.layer_height .* and "
                       r"plan\.waypoint_spacing .* waypoints, more than"):
        config_from_dict(data)


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


def test_kalman_diagonals_non_negative():
    with pytest.raises(ValueError):
        small_config(kalman_q_diag=(-1e-9, 0.0, 0.0))
    with pytest.raises(ValueError):
        small_config(kalman_p0_diag=(0.0, -1.0, 0.0))
    with pytest.raises(ValueError):
        small_config(sensors=SensorParams(accel_noise_std=-0.1))


def test_scan_limits_checked():
    with pytest.raises(ValueError, match="scan_n_bins"):
        small_config(scan_n_bins=1)
    with pytest.raises(ValueError, match="scan_n_bins"):
        small_config(scan_n_bins=MAX_SCAN_BINS + 1)
    small_config(scan_n_bins=MAX_SCAN_BINS)


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
    ({"scan_n_bins": 1}, "^scan_n_bins must be at least 2$"),
    ({"scan_n_bins": 10**30}, "^scan_n_bins must be at most 100000$"),
    ({"seed": -1}, "^seed must be non-negative, got -1$"),
    ({"sensors": SensorParams(accel_noise_std=1e200)},
     "with a finite square"),
    ({"kalman_q_diag": (1e-6, 1e-4)}, "q and p0 must have 3 entries"),
    ({"sensors": SensorParams(accel_noise_std=int("9" * 400))},
     "with a finite square")])
def test_replace_checks_like_the_reader(change, match):
    """A config made from a loaded one with dataclasses.replace is checked
    as it is built: unchecked, scan_n_bins=1 divides by zero in
    run_mission and scan_n_bins=10**30 is more bins than numpy can allocate
    at the first scan."""
    cfg = load_config(CONFIG_DIR / "obstacle_course.yaml")
    with pytest.raises(InvalidScenario, match=match):
        dataclasses.replace(cfg, **change)


def test_camera_degrees_converted():
    cam = small_config(camera_hfov_deg=80.0, camera_vfov_deg=50.0).camera()
    assert cam.hfov == pytest.approx(math.radians(80.0))
    assert cam.vfov == pytest.approx(math.radians(50.0))


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
        MissionParams(arrival_tol=-1.0)
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
    assert _default(track_waypoint, "kp_yaw") == mission.kp_yaw
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
