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


_TRAJ_FLOATS = ("t_s", "true_x", "true_y", "true_z", "est_x", "est_y",
                "est_z", "dr_x", "dr_y", "dr_z")


def _read_trajectory(path: Path) -> list[list[float]]:
    """Rows of `_TRAJ_FLOATS` values, each float parsed once."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        cols = [header.index(name) for name in _TRAJ_FLOATS]
        return [[float(rec[c]) for c in cols] for rec in reader if rec]


def _error_stats(rows, first: int) -> tuple[float, float]:
    """Max and rms distance of columns first..first+2 from true_x..true_z."""
    worst = 0.0
    acc = 0.0
    for rec in rows:
        dx = rec[first] - rec[1]
        dy = rec[first + 1] - rec[2]
        dz = rec[first + 2] - rec[3]
        e2 = dx * dx + dy * dy + dz * dz
        acc += e2
        worst = max(worst, e2)
    n = max(1, len(rows))
    return math.sqrt(worst), math.sqrt(acc / n)


def _read_captures(path: Path) -> tuple[int, int]:
    """Number of captures and of crack-labeled captures."""
    with open(path, newline="") as fh:
        labels = [c["label"] for c in csv.DictReader(fh)]
    return len(labels), labels.count("crack")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _read_report(path: Path) -> tuple[float | None, list[tuple]]:
    """Clearance and (id, x, y, z, yaw) per fault from `report.json`;
    ValueError for JSON of another shape, so nothing half-prints."""
    with open(path) as fh:
        rep = json.load(fh)
    if not isinstance(rep, dict):
        raise ValueError("report is not a JSON object")
    clear, faults = rep.get("min_obstacle_clearance_m"), rep.get("faults", [])
    if not ((clear is None or _is_number(clear))
            and isinstance(faults, list)):
        raise ValueError("min_obstacle_clearance_m or faults has a wrong type")
    out = []
    for f in faults:
        pos = f.get("position") if isinstance(f, dict) else None
        if not (isinstance(pos, list) and len(pos) == 3
                and all(map(_is_number, pos + [f.get("yaw")]))
                and isinstance(f.get("id"), int)):
            raise ValueError(f"fault {f!r} needs an int id, a 3-number "
                             f"position and a numeric yaw")
        out.append((f["id"], *pos, f["yaw"]))
    return clear, out


def cmd_report(args) -> int:
    out = Path(args.out)
    parsed = []
    for path, read in ((out / TRAJECTORY_CSV, _read_trajectory),
                       (out / CAPTURE_CSV, _read_captures),
                       (out / REPORT_JSON, _read_report)):
        try:
            parsed.append(read(path) if path.is_file() else None)
        except (ValueError, IndexError, KeyError) as e:
            print(f"malformed run file {path}: {e!r}", file=sys.stderr)
            return EXIT_IO
    rows, captures, rep = parsed
    if not rows:
        print(f"no run found in {out}", file=sys.stderr)
        return EXIT_IO
    kf_max, kf_rms = _error_stats(rows, _TRAJ_FLOATS.index("est_x"))
    dr_max, dr_rms = _error_stats(rows, _TRAJ_FLOATS.index("dr_x"))
    print(f"steps: {len(rows)}  duration: {rows[-1][0]:.2f} s")
    print(f"kalman error: max {_fmt(kf_max)} m, rms {_fmt(kf_rms)} m")
    print(f"dead-reckoning error: max {_fmt(dr_max)} m, rms {_fmt(dr_rms)} m")
    if kf_max > 1e-12:
        print(f"dr/kalman max-error ratio: {_fmt(dr_max / kf_max)}")
    else:
        print("dr/kalman max-error ratio: n/a (errors below 1e-12)")

    if captures is not None:
        print(f"captures: {captures[0]} ({captures[1]} crack-labeled)")
    if rep is not None:
        clear, faults = rep
        print("min obstacle clearance: "
              + ("n/a (no obstacles)" if clear is None else f"{clear:.3f} m"))
        for fid, x, y, z, yaw in faults:
            print(f"fault {fid}: ({x:.3f}, {y:.3f}, {z:.3f}) m, "
                  f"yaw {math.degrees(yaw):.1f} deg")
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
