"""Time one workload's set-up in a fresh interpreter.

Set-up is the package import, config load and validation, and the scene and
plan build.  Only a new process pays the import, so `run.py` starts this
script several times and reports the median.

Prints the set-up seconds and then the mean seconds of `reference_work`
(see `hostspeed.py`), run right after set-up in the same process, so that
`run.py` can scale the set-up time to the speed of the core it ran on.

    python3 perfbench/setup_probe.py --workload mission_default --seed 0
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SETUP_REFERENCE_RUNS = 30   # about 30 ms of reference work after set-up


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workloads.make_workload(args.workload, ROOT, args.seed).setup()
    setup_s = time.perf_counter() - _T0

    import hostspeed

    t0 = time.perf_counter()
    for _ in range(SETUP_REFERENCE_RUNS):
        hostspeed.reference_work()
    reference_s = (time.perf_counter() - t0) / SETUP_REFERENCE_RUNS
    print(repr(setup_s), repr(reference_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
