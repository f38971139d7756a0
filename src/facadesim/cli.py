"""Command-line driver: scenario in, CSV logs and a report out.

Exit codes: 0 ok, 2 config error, 3 watchdog abort, 4 I/O error.
All CSV floats use 9-significant-digit formatting so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .config import (
    ScenarioConfig,
    apply_overrides,
    config_from_dict,
    load_raw,
)
from .errors import InvalidScenario, MissionAborted
from .mission import MissionReport, MissionResult, run_mission
from .planner import WaypointPath, generate_perimeter_path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_WATCHDOG = 3
EXIT_IO = 4

PLAN_CSV = "plan.csv"
TRAJECTORY_CSV = "trajectory.csv"
CAPTURE_CSV = "captures.csv"
REPORT_JSON = "report.json"


def _fmt(x: float) -> str:
    return "%.9g" % x


def write_plan_csv(path: Path, plan: WaypointPath) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["layer", "x_m", "y_m", "z_m", "yaw_rad"])
        for wp in plan:
            w.writerow([wp.layer, _fmt(wp.position[0]), _fmt(wp.position[1]),
                        _fmt(wp.position[2]), _fmt(wp.yaw)])


def write_trajectory_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "true_x", "true_y", "true_z", "est_x", "est_y",
                    "est_z", "dr_x", "dr_y", "dr_z", "phase"])
        for row in rows:
            w.writerow([_fmt(v) for v in row[:10]] + [row[10]])


def write_capture_csv(path: Path, captures) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["image_id", "t_s", "x_m", "y_m", "z_m",
                    "qw", "qx", "qy", "qz", "label"])
        for c in captures:
            w.writerow([c.image_id, _fmt(c.time),
                        _fmt(c.est_position[0]), _fmt(c.est_position[1]),
                        _fmt(c.est_position[2]),
                        _fmt(c.est_quat[0]), _fmt(c.est_quat[1]),
                        _fmt(c.est_quat[2]), _fmt(c.est_quat[3]), c.label])


def report_to_dict(report: MissionReport) -> dict:
    return {
        "faults": [
            {"id": f.id, "position": list(f.position), "yaw": f.yaw}
            for f in report.faults
        ],
        "inspection_duration_s": report.inspection_duration,
        "detection_durations_s": list(report.detection_durations),
        "min_obstacle_clearance_m": report.min_obstacle_clearance,
    }


def write_report_json(path: Path, report: MissionReport) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_scenario(args) -> ScenarioConfig:
    data = load_raw(args.config)
    if args.set:
        data = apply_overrides(data, args.set)
    if args.seed is not None:
        data["seed"] = args.seed
    return config_from_dict(data)


def _write_outputs(out: Path, cfg: ScenarioConfig,
                   result: MissionResult | None,
                   with_report: bool) -> None:
    out.mkdir(parents=True, exist_ok=True)
    plan = generate_perimeter_path(cfg.building, cfg.plan, cfg.home)
    write_plan_csv(out / PLAN_CSV, plan)
    if result is None:
        return
    write_trajectory_csv(out / TRAJECTORY_CSV, result.trajectory)
    write_capture_csv(out / CAPTURE_CSV, result.captures)
    if with_report:
        write_report_json(out / REPORT_JSON, result.report)


def cmd_plan(args) -> int:
    cfg = _load_scenario(args)
    out = Path(args.out)
    _write_outputs(out, cfg, None, with_report=False)
    print(f"wrote {out / PLAN_CSV}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    cfg = _load_scenario(args)
    result = run_mission(cfg, inspection_only=True)
    out = Path(args.out)
    _write_outputs(out, cfg, result, with_report=False)
    print(f"inspection complete in {result.report.inspection_duration:.2f} s "
          f"sim time, {len(result.captures)} captures, logs in {out}")
    return EXIT_OK


def cmd_mission(args) -> int:
    cfg = _load_scenario(args)
    result = run_mission(cfg)
    out = Path(args.out)
    _write_outputs(out, cfg, result, with_report=True)
    rep = result.report
    print(f"mission complete: {len(rep.faults)} fault(s), inspection "
          f"{rep.inspection_duration:.2f} s, logs in {out}")
    return EXIT_OK


def _read_trajectory(path: Path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(rec)
    return rows


def _error_stats(rows, prefix: str) -> tuple[float, float]:
    worst = 0.0
    acc = 0.0
    for rec in rows:
        dx = float(rec[prefix + "x"]) - float(rec["true_x"])
        dy = float(rec[prefix + "y"]) - float(rec["true_y"])
        dz = float(rec[prefix + "z"]) - float(rec["true_z"])
        e2 = dx * dx + dy * dy + dz * dz
        acc += e2
        worst = max(worst, e2)
    n = max(1, len(rows))
    return math.sqrt(worst), math.sqrt(acc / n)


def cmd_report(args) -> int:
    out = Path(args.out)
    traj_path = out / TRAJECTORY_CSV
    if not traj_path.is_file():
        print(f"no run found in {out}", file=sys.stderr)
        return EXIT_IO
    rows = _read_trajectory(traj_path)
    if not rows:
        print(f"no run found in {out}", file=sys.stderr)
        return EXIT_IO
    kf_max, kf_rms = _error_stats(rows, "est_")
    dr_max, dr_rms = _error_stats(rows, "dr_")
    print(f"steps: {len(rows)}  duration: {float(rows[-1]['t_s']):.2f} s")
    print(f"kalman error: max {_fmt(kf_max)} m, rms {_fmt(kf_rms)} m")
    print(f"dead-reckoning error: max {_fmt(dr_max)} m, rms {_fmt(dr_rms)} m")
    if kf_max > 1e-12:
        print(f"dr/kalman max-error ratio: {_fmt(dr_max / kf_max)}")
    else:
        print("dr/kalman max-error ratio: n/a (errors below 1e-12)")

    cap_path = out / CAPTURE_CSV
    if cap_path.is_file():
        with open(cap_path, newline="") as fh:
            captures = list(csv.DictReader(fh))
        cracks = sum(1 for c in captures if c["label"] == "crack")
        print(f"captures: {len(captures)} ({cracks} crack-labeled)")

    rep_path = out / REPORT_JSON
    if rep_path.is_file():
        with open(rep_path) as fh:
            rep = json.load(fh)
        clear = rep.get("min_obstacle_clearance_m")
        print("min obstacle clearance: "
              + ("n/a (no obstacles)" if clear is None else f"{clear:.3f} m"))
        for f in rep.get("faults", []):
            x, y, z = f["position"]
            print(f"fault {f['id']}: ({x:.3f}, {y:.3f}, {z:.3f}) m, "
                  f"yaw {math.degrees(f['yaw']):.1f} deg")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facadesim",
        description="Deterministic facade-inspection drone simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config: bool) -> None:
        if needs_config:
            p.add_argument("--config", required=True,
                           help="scenario YAML path")
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")
            p.add_argument("--set", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="override a config field (repeatable, "
                                "dotted paths allowed)")
        p.add_argument("--out", default="run_out",
                       help="output / run directory (default: run_out)")

    p = sub.add_parser("plan", help="export the perimeter plan CSV")
    common(p, needs_config=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("inspect",
                       help="run the inspection phase only, write logs")
    common(p, needs_config=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("mission",
                       help="run the full two-phase mission, write logs "
                            "and report")
    common(p, needs_config=True)
    p.set_defaults(func=cmd_mission)

    p = sub.add_parser("report",
                       help="summarize a run directory to stdout")
    common(p, needs_config=False)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidScenario as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MissionAborted as e:
        print(f"watchdog abort: {e}", file=sys.stderr)
        return EXIT_WATCHDOG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
