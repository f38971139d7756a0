"""Golden outputs: SHA-256 of the CLI files and hover traces, pinned.

Criterion 10 only compares two runs of the same code with each other; these
hashes catch a change that shifts every float.  A change that alters numbers
on purpose re-pins them and says why.

Pinned with Python 3.11.7 and numpy 2.4.6.  Another numpy or libm may round
the last bit differently and change the hashes without any code change.
"""

import hashlib

import numpy as np
import pytest

from facadesim.cli import (
    write_capture_csv,
    write_plan_csv,
    write_report_json,
    write_trajectory_csv,
)
from facadesim.mission import run_hover
from facadesim.planner import generate_perimeter_path

GOLDEN_FILES = {
    "default_run": {
        "plan.csv":
            "05750b93bb25a36acd2bcd75e2da6569740ce4739064882d9d432f00caf4f8ca",
        "trajectory.csv":
            "5df81186b5a704c4ed62a5db41a8b8d9ca0f62fcd87b025dfaa4dfd6ae363178",
        "captures.csv":
            "96475f3bc1894644bd27fe80b31917371d15efcf06190b2881bd761a407c1cd5",
        "report.json":
            "cbe905ec0d30de2cbdee09a15c067053bd101d17c7b50be2e467ec6d39ff596c",
    },
    "obstacle_run": {
        "plan.csv":
            "0a89b7401be7712c2edbfb1efdbbc2c2e3c8c8b5f7ebdb6cd39ed099e72a0876",
        "trajectory.csv":
            "cdcdb1b4e30d263ffaf69ca8b42f779ae6c1ccfd5bea93f1ed1f2c1ec741303b",
        "captures.csv":
            "09f7ce06e0db054be1bc8350c68640d33436ce8d77b6bccb6d09a4d3d2edb634",
        "report.json":
            "a2164534f3b7d1f61f95c68e3386b66ede1989893e1bc28a06dc1972be66349a",
    },
    "multi_fault_run": {
        "plan.csv":
            "05750b93bb25a36acd2bcd75e2da6569740ce4739064882d9d432f00caf4f8ca",
        "trajectory.csv":
            "8455b0a74a6c12352b0433672d9e28da07c7ad0e9c4b93284f807f113c0fd489",
        "captures.csv":
            "47fadb940b8fc31a12fc744d0f3e005c9d205b37d40b033c709299daec7f3fb2",
        "report.json":
            "18fd2b2fbf82d26a5a56aee09e4f631e4c1ea120bba8523bf1f1b700693bd6b8",
    },
    "coverage_run": {   # inspection only: no report
        "plan.csv":
            "058275f2998034713fd8f99f97cdd372137a427f0db977cb3cce5e5447471f1b",
        "trajectory.csv":
            "3517efe2ec130b7d622807c184bd560ab56722af0ee1c9c455b5e7de58fb4564",
        "captures.csv":
            "ccf9d1963af5c5bf8a73cc2a4e80b3d2ef6628b5d8299cfb0d6db8572c6a57c3",
    },
}

# times, est_err, dr_err and true_err of a 20 s hover, as float64 bytes
GOLDEN_HOVER = {
    0: "16b1f68fa130d6241469760095f71ce64baef38c9fe29f2a25366bc8be3117a2",
    1: "908e99acf8c62a6100d59197ccdbed47e0e6330d78232632ba93e9f108454eba",
    2: "3041077f5c50aa72d162b78de50e0e83e6d1970d3f165b428bc198f06c941c75",
}


def output_hashes(cfg, result, out) -> dict:
    write_plan_csv(out / "plan.csv",
                   generate_perimeter_path(cfg.building, cfg.plan, cfg.home))
    write_trajectory_csv(out / "trajectory.csv", result.trajectory,
                         result.transitions)
    write_capture_csv(out / "captures.csv", result.captures)
    write_report_json(out / "report.json", result.report)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def hover_hash(seed: int) -> str:
    res = run_hover(duration_s=20.0, seed=seed)
    h = hashlib.sha256()
    for trace in (res.times, res.est_err, res.dr_err, res.true_err):
        h.update(np.asarray(trace, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("run", sorted(GOLDEN_FILES))
def test_cli_outputs_match_golden(run, request, tmp_path):
    cfg, result = request.getfixturevalue(run)
    got = output_hashes(cfg, result, tmp_path)
    want = GOLDEN_FILES[run]
    assert {name: got[name] for name in want} == want


@pytest.mark.parametrize("seed", sorted(GOLDEN_HOVER))
def test_hover_traces_match_golden(seed):
    assert hover_hash(seed) == GOLDEN_HOVER[seed]
