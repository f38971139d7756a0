"""End-to-end CLI behavior: files, formats, exit codes."""

import csv
import json
import math

import pytest

from facadesim.cli import main
from facadesim.config import MissionParams, ScenarioConfig, save_config
from facadesim.control import PidGains
from facadesim.planner import PlanParams
from facadesim.sensors import SensorParams
from facadesim.vehicle import VehicleParams
from facadesim.world import BuildingSpec, FaultDecal

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
        gains=PidGains(),
        sensors=SensorParams(gyro_noise_std=2.0e-7, accel_noise_std=5.0e-6,
                             mag_noise_std=5.0e-7,
                             gyro_bias=(0.0, 0.0, 1.0e-6),
                             accel_bias=(1.0e-6, 0.0, 0.0)),
        vehicle=VehicleParams(v_max=1.5),
        mission=MissionParams(merge_radius=7.0),
        alpha=1.0,
        camera_max_range=5.5,
        scan_n_bins=91)


@pytest.fixture(scope="module")
def tiny_yaml(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "tiny.yaml"
    save_config(tiny_scenario(), path)
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
], ids=["missing_column", "non_numeric", "short_row", "captures_no_label",
        "bad_json", "fault_no_position", "position_len_2", "yaw_not_number",
        "top_level_list"])
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
