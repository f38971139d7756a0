#!/usr/bin/env python3
"""Hover drift comparison: Kalman estimate vs dead reckoning vs truth.

Writes a CSV of position-error traces for a station-keeping run, one row
per control step.  Plotting t against the three error columns reproduces
the filter-vs-baseline divergence picture.
"""

import argparse
import csv
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from facadesim import run_hover  # noqa: E402
from facadesim.attitude import ComplementaryGain  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=120.0,
                        help="hover length in seconds (default 120)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alpha", type=float,
                        default=ComplementaryGain.alpha,
                        help="complementary blend gain (default %(default)s)")
    parser.add_argument("--out", default="-",
                        help="output CSV path, - for stdout (default)")
    args = parser.parse_args()

    try:
        res = run_hover(duration_s=args.duration, seed=args.seed,
                        alpha=args.alpha)
    except ValueError as e:
        parser.error(str(e))

    fh = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        w = csv.writer(fh)
        w.writerow(["t_s", "kalman_err_m", "dead_reckoning_err_m",
                    "true_err_m"])
        for row in zip(res.times, res.est_err, res.dr_err, res.true_err):
            w.writerow(["%.9g" % v for v in row])
    finally:
        if fh is not sys.stdout:
            fh.close()

    print(f"kalman max error: {max(res.est_err):.3f} m  "
          f"dead reckoning max error: {max(res.dr_err):.3f} m",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
