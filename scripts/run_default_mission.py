#!/usr/bin/env python3
"""Run a scenario end to end and print the fault report.

Thin wrapper over the library API; use the `facadesim` CLI when you want
the CSV logs as well.
"""

import argparse
import dataclasses
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from facadesim import load_config, run_mission  # noqa: E402
from facadesim.perception import LABEL_CRACK  # noqa: E402

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(CONFIGS / "default.yaml"),
                        help="scenario YAML (default: configs/default.yaml)")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    result = run_mission(cfg)
    rep = result.report

    print(f"scenario: {cfg.name}")
    print(f"inspection: {rep.inspection_duration:.2f} s, "
          f"{len(result.captures)} captures")
    crack = sum(1 for c in result.captures if c.label == LABEL_CRACK)
    print(f"crack-labeled captures: {crack}")
    if rep.min_obstacle_clearance is not None:
        print(f"min obstacle clearance: {rep.min_obstacle_clearance:.3f} m")
    for f, dur in zip(rep.faults, rep.detection_durations):
        x, y, z = f.position
        print(f"fault {f.id}: ({x:.3f}, {y:.3f}, {z:.3f}) m, "
              f"yaw {math.degrees(f.yaw):.1f} deg, revisit {dur:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
