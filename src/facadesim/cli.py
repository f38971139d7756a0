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

import numpy as np

from .config import (
    ScenarioConfig,
    _build,
    _is_number,
    apply_overrides,
    config_from_dict,
    load_raw,
)
from .errors import InvalidScenario, MissionAborted
from .mission import FaultEntry, MissionReport, MissionResult, run_mission
from .perception import LABEL_CRACK
from .planner import WaypointPath, generate_perimeter_path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_WATCHDOG = 3
EXIT_IO = 4

PLAN_CSV = "plan.csv"
TRAJECTORY_CSV = "trajectory.csv"
CAPTURE_CSV = "captures.csv"
REPORT_JSON = "report.json"

TRAJ_COLUMNS = ("t_s", "true_x", "true_y", "true_z", "est_x", "est_y",
                "est_z", "dr_x", "dr_y", "dr_z", "phase")
_TRAJ_FLOATS = TRAJ_COLUMNS[:-1]


def _fmt(x: float) -> str:
    return "%.9g" % x


def _write_rows(path: Path, header: str, row_format: str, rows) -> None:
    """CSV of one %-format per row: no id, label or phase name needs quoting,
    so this writes what csv.writer would, with floats as _fmt gives them."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(row_format % row for row in rows)


def write_plan_csv(path: Path, plan: WaypointPath) -> None:
    _write_rows(path, "layer,x_m,y_m,z_m,yaw_rad", "%s" + ",%.9g" * 4 + "\r\n",
                ((wp.layer, *wp.position, wp.yaw) for wp in plan))


def write_trajectory_csv(path: Path, rows) -> None:
    _write_rows(path, ",".join(TRAJ_COLUMNS),
                "%.9g," * len(_TRAJ_FLOATS) + "%s\r\n", rows)


def write_capture_csv(path: Path, captures) -> None:
    _write_rows(path, "image_id,t_s,x_m,y_m,z_m,qw,qx,qy,qz,label",
                "%s" + ",%.9g" * 8 + ",%s\r\n",
                ((c.image_id, c.time, *c.est_position, *c.est_quat, c.label)
                 for c in captures))


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
    data = apply_overrides(load_raw(args.config), args.set)
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


def _read_trajectory(path: Path) -> np.ndarray | None:
    """`_TRAJ_FLOATS` by header name as a (rows, 10) array; None if no rows."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            return None
        cols = [header.index(name) for name in _TRAJ_FLOATS]
        if not any(line.strip("\r\n") for line in fh):  # loadtxt would warn
            return None
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols,
                      ndmin=2, comments=None, quotechar='"')


def _error_stats(traj, first: int) -> tuple[float, float]:
    """Max and rms distance of columns first..first+2 from true_x..true_z,
    as a float loop gives them: the max skips NaN, the sum adds in order."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = traj[:, first:first + 3] - traj[:, 1:4]
        e2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
        mean = np.add.accumulate(e2)[-1] / len(e2)
    return math.sqrt(np.fmax.reduce(e2, initial=0.0)), math.sqrt(mean)


def _read_captures(path: Path) -> tuple[int, int]:
    """Number of captures and of crack-labeled captures."""
    with open(path, newline="") as fh:
        labels = [c["label"] for c in csv.DictReader(fh)]
    return len(labels), labels.count(LABEL_CRACK)


def _read_report(path: Path) -> tuple[float | None, list[FaultEntry]]:
    """Clearance and the faults of `report.json`; ValueError for JSON of
    another shape, so nothing half-prints."""
    with open(path) as fh:
        rep = json.load(fh)
    if not isinstance(rep, dict):
        raise ValueError("report is not a JSON object")
    clear, faults = rep.get("min_obstacle_clearance_m"), rep.get("faults", [])
    if not ((clear is None or _is_number(clear))
            and isinstance(faults, list)):
        raise ValueError("min_obstacle_clearance_m or faults has a wrong type")
    return clear, [_build(FaultEntry, f, f"faults[{i}]")
                   for i, f in enumerate(faults)]


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
    traj, captures, rep = parsed
    if traj is None:
        print(f"no run found in {out}", file=sys.stderr)
        return EXIT_IO
    kf_max, kf_rms = _error_stats(traj, _TRAJ_FLOATS.index("est_x"))
    dr_max, dr_rms = _error_stats(traj, _TRAJ_FLOATS.index("dr_x"))
    print(f"steps: {len(traj)}  duration: {traj[-1, 0]:.2f} s")
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
        for f in faults:
            print("fault %d: (%.3f, %.3f, %.3f) m, yaw %.1f deg"
                  % (f.id, *f.position, math.degrees(f.yaw)))
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
