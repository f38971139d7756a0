"""End-to-end CLI behavior: files, formats, exit codes."""

import csv
import json
import math

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from facadesim.cli import _error_stats, main, write_trajectory_csv
from facadesim.config import MissionParams, ScenarioConfig, config_to_dict
from facadesim.planner import PlanParams
from facadesim.sensors import SensorParams
from facadesim.vehicle import VehicleParams
from facadesim.world import BuildingSpec, FaultDecal
from oracles import error_stats

PLAN_HEADER = ["layer", "x_m", "y_m", "z_m", "yaw_rad"]
TRAJ_HEADER = ["t_s", "true_x", "true_y", "true_z", "est_x", "est_y",
               "est_z", "dr_x", "dr_y", "dr_z", "phase"]
CAPTURE_HEADER = ["image_id", "t_s", "x_m", "y_m", "z_m",
                  "qw", "qx", "qy", "qz", "label"]


def tiny_scenario():
    """Small single-layer scenario tuned so a mission finishes in seconds."""
    return ScenarioConfig(
        building=BuildingSpec(6.0, 4.0, 2.0),
        name="tiny", seed=0, home=(6.0, 0.0, 0.0),
        decals=(FaultDecal(0, "east", (0.0, 1.0)),),
        plan=PlanParams(standoff=2.0, first_layer_alt=1.0),
        sensors=SensorParams(gyro_noise_std=2.0e-7, accel_noise_std=5.0e-6,
                             mag_noise_std=5.0e-7,
                             gyro_bias=(0.0, 0.0, 1.0e-6),
                             accel_bias=(1.0e-6, 0.0, 0.0)),
        vehicle=VehicleParams(v_max=1.5),
        mission=MissionParams(merge_radius=7.0),
        alpha=1.0,
        camera_max_range=5.5)


@pytest.fixture(scope="module")
def tiny_yaml(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "tiny.yaml"
    path.write_text(yaml.safe_dump(config_to_dict(tiny_scenario())))
    return path


@pytest.fixture(scope="module")
def mission_out(tiny_yaml, tmp_path_factory):
    out = tmp_path_factory.mktemp("mission_run")
    rc = main(["mission", "--config", str(tiny_yaml), "--out", str(out)])
    assert rc == 0
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# -- plan -----------------------------------------------------------------------

def test_plan_writes_only_the_plan(tiny_yaml, tmp_path):
    out = tmp_path / "plan_run"
    assert main(["plan", "--config", str(tiny_yaml),
                 "--out", str(out)]) == 0
    header, rows = read_csv(out / "plan.csv")
    assert header == PLAN_HEADER
    assert rows
    for row in rows:
        int(row[0])
        x, y, z, yaw = map(float, row[1:])
        assert -math.pi <= yaw <= math.pi
        assert z >= 0.0
    assert not (out / "trajectory.csv").exists()
    assert not (out / "captures.csv").exists()
    assert not (out / "report.json").exists()


def test_plan_set_override_widens_ring(tiny_yaml, tmp_path):
    out = tmp_path / "wide"
    assert main(["plan", "--config", str(tiny_yaml), "--out", str(out),
                 "--set", "plan.standoff=4.0"]) == 0
    _, rows = read_csv(out / "plan.csv")
    ring_x = [float(r[1]) for r in rows if int(r[0]) >= 0]
    assert max(ring_x) == pytest.approx(3.0 + 4.0)


# -- inspect --------------------------------------------------------------------

def test_inspect_writes_logs_without_report(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "inspect_run"
    assert main(["inspect", "--config", str(tiny_yaml),
                 "--out", str(out)]) == 0
    assert "inspection complete" in capsys.readouterr().out
    t_header, t_rows = read_csv(out / "trajectory.csv")
    assert t_header == TRAJ_HEADER
    phases = {r[10] for r in t_rows}
    assert phases <= {"Inspecting", "ReturningHome", "Done"}
    c_header, c_rows = read_csv(out / "captures.csv")
    assert c_header == CAPTURE_HEADER
    labels = {r[9] for r in c_rows}
    assert labels <= {"crack", "not_crack"}
    assert "crack" in labels
    assert not (out / "report.json").exists()


# -- mission --------------------------------------------------------------------

def test_mission_writes_all_outputs(mission_out):
    for name in ("plan.csv", "trajectory.csv", "captures.csv", "report.json"):
        assert (mission_out / name).is_file()
    rep = json.loads((mission_out / "report.json").read_text())
    assert set(rep) == {"faults", "inspection_duration_s",
                        "detection_durations_s", "min_obstacle_clearance_m"}
    assert rep["min_obstacle_clearance_m"] is None
    assert rep["inspection_duration_s"] > 0.0
    assert len(rep["faults"]) == 1
    fault = rep["faults"][0]
    assert set(fault) == {"id", "position", "yaw"}
    assert len(fault["position"]) == 3
    assert len(rep["detection_durations_s"]) == len(rep["faults"])


def test_mission_trajectory_reaches_done(mission_out):
    _, rows = read_csv(mission_out / "trajectory.csv")
    assert rows[-1][10] == "Done"
    # unit quaternions in the capture log
    _, caps = read_csv(mission_out / "captures.csv")
    for r in caps:
        q = [float(v) for v in r[5:9]]
        assert math.fsum(v * v for v in q) == pytest.approx(1.0, abs=1e-6)


def test_float_cells_use_nine_significant_digits(mission_out):
    _, rows = read_csv(mission_out / "plan.csv")
    cells = [v for row in rows for v in row[1:]]
    _, caps = read_csv(mission_out / "captures.csv")
    cells += [v for row in caps for v in row[1:9]]
    for cell in cells:
        assert cell == "%.9g" % float(cell)


def test_same_seed_runs_are_byte_identical(tiny_yaml, mission_out, tmp_path):
    out2 = tmp_path / "twin"
    assert main(["mission", "--config", str(tiny_yaml),
                 "--out", str(out2)]) == 0
    for name in ("plan.csv", "trajectory.csv", "captures.csv", "report.json"):
        assert (out2 / name).read_bytes() == \
            (mission_out / name).read_bytes()


def test_seed_override_changes_the_run(tiny_yaml, mission_out, tmp_path):
    out2 = tmp_path / "reseeded"
    assert main(["mission", "--config", str(tiny_yaml), "--out", str(out2),
                 "--seed", "1"]) == 0
    assert (out2 / "trajectory.csv").read_bytes() != \
        (mission_out / "trajectory.csv").read_bytes()


# -- report ----------------------------------------------------------------------

def test_report_summarizes_run(mission_out, capsys):
    assert main(["report", "--out", str(mission_out)]) == 0
    out = capsys.readouterr().out
    assert "kalman error: max" in out
    assert "dead-reckoning error: max" in out
    assert "dr/kalman max-error ratio:" in out
    assert "captures:" in out
    assert "min obstacle clearance: n/a (no obstacles)" in out
    assert "fault 0:" in out


def test_report_ratio_arithmetic(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    with open(run / "trajectory.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRAJ_HEADER)
        w.writerow(["0", "0", "0", "0", "0", "0", "0", "0", "0", "0",
                    "Inspecting"])
        w.writerow(["0.01", "1", "0", "0", "1.3", "0", "0", "1", "4", "0",
                    "Done"])
    assert main(["report", "--out", str(run)]) == 0
    out = capsys.readouterr().out
    assert "steps: 2  duration: 0.01 s" in out
    kf_line = next(l for l in out.splitlines() if l.startswith("kalman"))
    assert float(kf_line.split("max ")[1].split(" m")[0]) == \
        pytest.approx(0.3)
    assert float(kf_line.split("rms ")[1].split(" m")[0]) == \
        pytest.approx(math.sqrt(0.09 / 2))
    dr_line = next(l for l in out.splitlines()
                   if l.startswith("dead-reckoning"))
    assert float(dr_line.split("max ")[1].split(" m")[0]) == \
        pytest.approx(4.0)
    ratio_line = next(l for l in out.splitlines() if "max-error ratio" in l)
    assert float(ratio_line.split(": ")[1]) == pytest.approx(4.0 / 0.3)
    # no captures.csv or report.json: those sections are skipped
    assert "captures:" not in out
    assert "fault" not in out


def test_report_perfect_estimate_prints_na(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    with open(run / "trajectory.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRAJ_HEADER)
        w.writerow(["0", "1", "2", "3", "1", "2", "3", "1", "2", "3",
                    "Done"])
    assert main(["report", "--out", str(run)]) == 0
    assert "n/a (errors below 1e-12)" in capsys.readouterr().out


def _traj(est):
    """Trajectory rows at true position 0 with the given est_x..est_z; the
    dead-reckoning columns hold the same values."""
    return np.array([[0.01 * i, 0, 0, 0, *e, *e] for i, e in enumerate(est)],
                    dtype=float)


def test_error_stats_sum_squares_in_row_order():
    """1e16 + 1 rounds back to 1e16, so fifteen rows of e2 = 1 after one of
    e2 = 1e16 add nothing in row order, but do when summed pairwise."""
    traj = _traj([(1e8, 0, 0)] + [(1, 0, 0)] * 15)
    assert float(np.sum([1e16] + [1.0] * 15)) != 1e16
    assert _error_stats(traj, 4) == (1e8, math.sqrt(1e16 / 16))


def test_error_stats_nan_row():
    """A NaN row leaves the max at the finite rows' value; the rms is NaN."""
    kf_max, kf_rms = _error_stats(_traj([(3, 4, 0), (math.nan, 0, 0)]), 4)
    assert kf_max == 5.0
    assert math.isnan(kf_rms)


@given(st.lists(st.lists(st.floats(), min_size=10, max_size=10),
                min_size=1, max_size=40))
def test_error_stats_matches_a_float_loop(rows):
    """repr tells every pair of floats apart but for NaN's sign."""
    for first in (4, 7):
        assert repr(_error_stats(np.array(rows), first)) == \
            repr(error_stats(rows, first))


def test_report_reads_columns_by_name(tmp_path, capsys):
    """Column order, an unknown column, LF line ends and a quoted number
    leave the report as it is for the file the writer makes."""
    rows = [(0.0, 1.0, 2.0, 3.0, 1.1, 2.05, 3.0, 1.0, 2.5, 2.9, "Inspecting"),
            (0.01, 1.5, 2.0, 3.25, 1.375, 2.0, 3.1, 0.5, 4.0, 3.0, "Done")]
    canon = tmp_path / "canon"
    canon.mkdir()
    write_trajectory_csv(canon / "trajectory.csv",
                         np.array([row[:10] for row in rows]),
                         [(0.0, "Idle", "Inspecting"),
                          (0.01, "Inspecting", "Done")])
    assert main(["report", "--out", str(canon)]) == 0
    expected = capsys.readouterr().out

    order = [10, 7, 0, 4, 1, 8, 5, 2, 9, 6, 3]
    lines = [",".join([str(row[c]) for c in order] + [extra])
             for row, extra in ((TRAJ_HEADER, "battery"), (rows[0], "0.5"),
                                (rows[1], "0.5"))]
    lines[2] = lines[2].replace(",1.375,", ',"1.375",')
    perm = tmp_path / "perm"
    perm.mkdir()
    (perm / "trajectory.csv").write_bytes(("\n".join(lines) + "\n").encode())
    assert main(["report", "--out", str(perm)]) == 0
    assert capsys.readouterr().out == expected


# -- failure exits ----------------------------------------------------------------

def test_invalid_config_exits_2(tiny_yaml, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(tiny_yaml.read_text().replace("length: 6.0",
                                                 "length: -6.0"))
    out = tmp_path / "never"
    rc = main(["mission", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_exits_2(tiny_yaml, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(tiny_yaml.read_text() + "\nturbo_mode: true\n")
    rc = main(["plan", "--config", str(bad), "--out",
               str(tmp_path / "never")])
    assert rc == 2
    assert "turbo_mode" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "seed=abc", "home=[14,-6]", "sensors.accel_bias=[1,2]",
    "sensors.gyro_bias=[1]", "seed=2.5", "alpha=abc", "home=abc",
    "decals=5", "camera_max_range=abc", "name=5", "name=[1, 2]"])
def test_wrong_typed_value_exits_2(tiny_yaml, tmp_path, capsys, override):
    rc = main(["plan", "--config", str(tiny_yaml), "--out",
               str(tmp_path / "never"), "--set", override])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ")
    assert override.partition("=")[0] in line


@pytest.mark.parametrize("args, key", [
    (["--set", "mission.d_engage=.nan"], "mission.d_engage"),
    (["--set", "mission.dt=.nan"], "mission.dt"),
    (["--set", "vehicle.v_max=.inf"], "vehicle.v_max"),
    (["--set", "home=[6, 0, -.inf]"], "home"),
    (["--seed", "-1"], "seed"), (["--set", "seed=-1"], "seed")],
    ids=["d_engage_nan", "dt_nan", "v_max_inf", "home_inf", "seed_flag",
         "seed_key"])
def test_non_finite_or_negative_seed_exits_2(tiny_yaml, tmp_path, capsys,
                                              args, key):
    out = tmp_path / "never"
    rc = main(["mission", "--config", str(tiny_yaml), "--out", str(out),
               *args])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ")
    assert key in line
    assert not out.exists()


def test_home_below_the_ground_exits_2(config_dir, tmp_path, capsys):
    """The plant clamps z to the ground from the first step, while the
    estimate starts from the home given: a run from below the ground would
    log an estimate off by the depth, with no error."""
    out = tmp_path / "never"
    rc = main(["mission", "--config", str(config_dir / "default.yaml"),
               "--out", str(out), "--set", "home=[10, -6, -5]"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: home must not lie below the ground, got z -5"]
    assert not out.exists()


def test_negative_seed_in_yaml_exits_2(tiny_yaml, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(tiny_yaml.read_text().replace("\nseed: 0\n",
                                                 "\nseed: -1\n"))
    assert bad.read_text() != tiny_yaml.read_text()
    rc = main(["mission", "--config", str(bad), "--out",
               str(tmp_path / "never")])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "config error: seed must be non-negative, got -1"


@pytest.mark.parametrize("override", [
    "kalman_r_std=1.0e+200", "sensors.accel_noise_std=1.0e+200",
    pytest.param("kalman_r_std=" + "9" * 300, id="kalman_r_std=9x300"),
    pytest.param("sensors.accel_noise_std=" + "9" * 300,
                 id="sensors.accel_noise_std=9x300")])
def test_kalman_r_that_overflows_exits_2(tiny_yaml, tmp_path, capsys,
                                         override):
    """r is the std squared: a square past the float range is a config
    error, not an OverflowError traceback.  The old `kalman_r_std` key is
    no longer read, so the same value there is an unknown key."""
    out = tmp_path / "never"
    rc = main(["mission", "--config", str(tiny_yaml), "--out", str(out),
               "--set", override])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    if override.startswith("kalman_r_std="):
        assert line == ("config error: scenario: unknown key(s) "
                        "['kalman_r_std']")
    else:
        assert line.startswith("config error: ")
        assert "accel_noise_std" in line
    assert not out.exists()


@pytest.mark.parametrize("override, line", [
    ("scan_range_max=20", "scenario: unknown key(s) ['scan_range_max']"),
    ("classifier.kind=oracle",
     "scenario.classifier: unknown key(s) ['kind']"),
    ("classifier.seed=3", "scenario.classifier: unknown key(s) ['seed']"),
    ("kalman_r_std=0.01", "scenario: unknown key(s) ['kalman_r_std']"),
    ("scan_n_bins=1" + "0" * 30, "scenario: unknown key(s) ['scan_n_bins']"),
    ("kalman_q_diag=[1,2]", "scenario: unknown key(s) ['kalman_q_diag']"),
    ("kalman_p0_diag=[0.1, 0.1, 0.1]",
     "scenario: unknown key(s) ['kalman_p0_diag']"),
    ("camera_hfov_deg=abc", "scenario: unknown key(s) ['camera_hfov_deg']"),
    ("camera_vfov_deg=50", "scenario: unknown key(s) ['camera_vfov_deg']"),
    ("gains.kp=2", "scenario: unknown key(s) ['gains']"),
    ("gains.ki=0", "scenario: unknown key(s) ['gains']"),
    ("gains.kd=0.1", "scenario: unknown key(s) ['gains']"),
    ("mission.arrival_tol=0.5",
     "scenario.mission: unknown key(s) ['arrival_tol']"),
    ("mission.kp_yaw=0.8", "scenario.mission: unknown key(s) ['kp_yaw']")],
    ids=["scan_range_max", "classifier_kind", "classifier_seed",
         "kalman_r_std", "scan_n_bins_1e30", "kalman_q_diag",
         "kalman_p0_diag", "camera_hfov_deg", "camera_vfov_deg", "gains_kp",
         "gains_ki", "gains_kd", "mission_arrival_tol", "mission_kp_yaw"])
def test_removed_key_or_too_many_bins_exits_2(tiny_yaml, tmp_path, capsys,
                                              override, line):
    """No maximum range and no classifier kind can change a run, the run
    seed and sensors.accel_noise_std already give the classifier's stream
    and the Kalman r, the laser has its one bin count, and the camera's
    field of view, the filter's Q and P0, the PID and yaw gains and the
    arrival tolerance are constants no scenario varies, so none of these
    is a key, whatever its value."""
    out = tmp_path / "never"
    rc = main(["mission", "--config", str(tiny_yaml), "--out", str(out),
               "--set", override])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {line}"]
    assert not out.exists()


def test_int_too_long_to_read_exits_2(tiny_yaml, tmp_path, capsys):
    """Python reads no int of over 4300 digits from text, and YAML's reader
    raises ValueError, not YAMLError, for one."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(tiny_yaml.read_text().replace(
        "\nseed: 0\n", "\nseed: " + "9" * 5000 + "\n"))
    for args in (["--config", str(bad)],
                 ["--config", str(tiny_yaml), "--set", "seed=" + "9" * 5000]):
        rc = main(["mission", *args, "--out", str(tmp_path / "never")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ")
        assert "4300 digits" in line


@pytest.mark.parametrize("x", ["1.0e+200", "1.0e+300",
                               "1.7976931348623157e+308"])
def test_far_home_plans_and_the_mission_aborts(tiny_yaml, tmp_path, capsys,
                                               x):
    """A squared distance to a home this far overflows; the plan is written
    and the mission flies until the watchdog aborts it."""
    home = f"home=[{x}, 0.0, 0.0]"
    assert main(["plan", "--config", str(tiny_yaml), "--out",
                 str(tmp_path / "plan"), "--set", home]) == 0
    rc = main(["mission", "--config", str(tiny_yaml), "--out",
               str(tmp_path / "run"), "--set", home,
               "--set", "mission.watchdog_s=2"])
    assert rc == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("watchdog abort: ")


@pytest.mark.parametrize("override", [
    "vehicle.v_max=-1", "vehicle.v_max=0", "vehicle.tau=-0.5",
    "vehicle.yaw_rate_max=-1"])
def test_impossible_vehicle_value_exits_2(config_dir, tmp_path, capsys,
                                          override):
    """Unchecked, a non-positive v_max or a negative tau flies until the
    watchdog aborts, and a negative yaw_rate_max inverts the yaw clamp."""
    out = tmp_path / "never"
    rc = main(["mission", "--config", str(config_dir / "default.yaml"),
               "--out", str(out), "--set", override])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ")
    assert "vehicle" in line
    assert override.partition("=")[0].split(".")[1] in line
    assert not out.exists()


@pytest.mark.parametrize("override", [
    "sensors.gyro_noise_std=1.0e+200", "sensors.gyro_bias=[0,0,1.0e+300]",
    "mission.dt=1.0e+300"])
def test_gyro_turn_that_overflows_exits_2(config_dir, tmp_path, capsys,
                                          override):
    """Unchecked, a gyro turn per step past about 1.3e154 rad squares to
    inf, and the dead reckoner's sin(inf) ends in a ValueError traceback."""
    out = tmp_path / "never"
    rc = main(["mission", "--config", str(config_dir / "default.yaml"),
               "--out", str(out), "--set", override])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ")
    for key in ("sensors.gyro_bias", "sensors.gyro_noise_std", "mission.dt"):
        assert key in line
    assert not out.exists()


@pytest.mark.parametrize("override", [
    "mission.dt=1.0e-300", "mission.hold_s=1.0e+300"])
def test_leg_without_end_exits_2(config_dir, tmp_path, capsys, override):
    """Unchecked, t = steps * dt barely moves at a tiny dt, and a hold is
    never timed out, so each of these runs forever while its log grows."""
    out = tmp_path / "never"
    rc = main(["mission", "--config", str(config_dir / "default.yaml"),
               "--out", str(out), "--set", override])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ")
    assert override.partition("=")[0] in line
    assert not out.exists()


def test_missing_config_exits_4(tmp_path, capsys):
    rc = main(["mission", "--config", str(tmp_path / "ghost.yaml"),
               "--out", str(tmp_path / "never")])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err


def test_report_on_empty_dir_exits_4(tmp_path, capsys):
    rc = main(["report", "--out", str(tmp_path / "nothing_here")])
    assert rc == 4
    assert "no run found" in capsys.readouterr().err
    # a header-only trajectory is not a run either
    run = tmp_path / "husk"
    run.mkdir()
    with open(run / "trajectory.csv", "w", newline="") as fh:
        csv.writer(fh).writerow(TRAJ_HEADER)
    assert main(["report", "--out", str(run)]) == 4
    assert "no run found" in capsys.readouterr().err
    # nor is an empty trajectory, with no header at all
    (run / "trajectory.csv").write_text("")
    assert main(["report", "--out", str(run)]) == 4
    assert "no run found" in capsys.readouterr().err


_GOOD_ROW = "0,1,2,3,1,2,3,1,2,3,Done"


@pytest.mark.parametrize("files", [
    {"trajectory.csv": "t,x\n0,1\n"},
    {"trajectory.csv": ",".join(TRAJ_HEADER)
        + "\n0,1,2,3,oops,2,3,1,2,3,Done\n"},
    {"trajectory.csv": ",".join(TRAJ_HEADER) + "\n0,1,2\n"},
    {"captures.csv": ",".join(CAPTURE_HEADER[:-1]) + "\n0,1,0,0,0,1,0,0,0\n"},
    {"report.json": '{"faults": ['},
    {"report.json": '{"faults": [{"id": 0}]}'},
    {"report.json": '{"faults": [{"id": 0, "position": [1, 2], "yaw": 0}]}'},
    {"report.json":
        '{"faults": [{"id": 0, "position": [1, 2, 3], "yaw": "east"}]}'},
    {"report.json": '[]'},
    {"report.json": '{"faults": [], "min_obstacle_clearance_m": NaN}'},
    {"report.json":
        '{"faults": [{"id": 0, "position": [1, 2, 3], "yaw": Infinity}]}'},
    {"report.json":
        '{"faults": [{"id": true, "position": [1, 2, 3], "yaw": 0}]}'},
    {"report.json": '{"faults": [{"id": 0, "position": [1, 2, 3], '
                    '"yaw": 0, "label": "crack"}]}'},
    {"report.json": '{"faults": [7]}'},
], ids=["missing_column", "non_numeric", "short_row", "captures_no_label",
        "bad_json", "fault_no_position", "position_len_2", "yaw_not_number",
        "top_level_list", "clearance_nan", "yaw_infinite", "id_true",
        "fault_unknown_key", "fault_not_object"])
def test_report_on_malformed_file_exits_4(tmp_path, capsys, files):
    run = tmp_path / "run"
    run.mkdir()
    (run / "trajectory.csv").write_text(",".join(TRAJ_HEADER) + "\n"
                                        + _GOOD_ROW + "\n")
    for name, text in files.items():
        (run / name).write_text(text)
    assert main(["report", "--out", str(run)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("malformed run file ")
    assert str(run / next(iter(files))) in line


def test_watchdog_abort_exits_3(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "aborted"
    rc = main(["mission", "--config", str(tiny_yaml), "--out", str(out),
               "--set", "mission.watchdog_s=1.0"])
    assert rc == 3
    assert "watchdog abort" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_hold_longer_than_watchdog_completes(tiny_yaml, tmp_path, capsys):
    """The watchdog times legs, not holds: a hold that outlasts it ends the
    mission normally, with the hold in the one detection duration."""
    out = tmp_path / "long_hold"
    rc = main(["mission", "--config", str(tiny_yaml), "--out", str(out),
               "--set", "mission.watchdog_s=20.0",
               "--set", "mission.hold_s=30.0"])
    assert rc == 0
    assert "mission complete" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    (duration,) = report["detection_durations_s"]
    assert duration >= 30.0 - 1e-6
