"""Smoke test of the benchmark itself, on short slices of its workloads.

    python3 perfbench/smoke.py

Takes about a minute on one core.  It checks that:

- a hover slice (two seeds of 5 s) and one iteration of each mission pass
  every correctness check, untraced and traced;
- each traced fingerprint equals the untraced one, and no span's children
  outlast it;
- the host-speed gauge takes samples and leaves the fingerprint as it is
  without the gauge;
- each mode reports exactly the metrics `BENCHMARK.json` names, with its
  units;
- an iteration whose fingerprint changed is counted as failed;
- `run.py` exits non-zero without a result in a directory that holds only
  the benchmark.

A mission cannot be cut short without changing what it simulates, so the
mission slices are one full mission each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads
from hostspeed import SpeedGauge
from spans import Tracer

SLICE_SECONDS = 1e-3    # below one iteration: run the minimum count


def declared(kind: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_slice(wl, scratch: Path) -> None:
    wl.setup()
    gauge = SpeedGauge()
    plain, _ = run.measure(wl, SLICE_SECONDS, scratch, None, gauge=gauge)
    failures = run.judge(plain, [])
    assert not failures, failures
    assert gauge.samples and gauge.scale() > 0.0
    gauged_fingerprint = plain[0].fingerprint
    values = run.end_to_end(plain, 0.25, gauge.scale())
    units = dict(run.END_TO_END)
    assert {n: units[n] for n in values} == declared("end_to_end"), values
    assert values["passed_share"] == 1.0

    tracer = Tracer()
    plain, traced = run.measure(wl, SLICE_SECONDS, scratch, tracer)
    failures = run.judge(plain, traced)
    assert not failures, failures
    assert plain[0].fingerprint == gauged_fingerprint   # gauge changes nothing
    assert tracer.negative_self == 0
    values, units = run.per_layer(plain, traced, tracer)
    assert units == declared("per_layer"), sorted(
        set(units.items()) ^ set(declared("per_layer").items()))
    assert values["mission.loop.calls"] == len(plain[0].steps)
    print(f"ok {wl.name}: {plain[0].fingerprint}")


def check_changed_fingerprint_fails(wl, scratch: Path) -> None:
    plain, _ = run.measure(wl, SLICE_SECONDS, scratch, None)
    plain[1].fingerprint = dict(plain[1].fingerprint, steps=-1)
    assert len(run.judge(plain, [])) == 1
    assert [bool(it.problems) for it in plain] == [False, True]
    print("ok a changed fingerprint fails")


def check_bare_directory_fails() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        bare = Path(bare)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "hover", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0, done
    assert '"correct"' not in done.stdout, done.stdout
    print("ok a directory without the sources fails")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
        scratch = Path(scratch)
        hover = workloads.Hover(run.ROOT, seed=3, duration_s=5.0, n_seeds=2)
        check_slice(hover, scratch)
        check_changed_fingerprint_fails(hover, scratch)
        for name in workloads.MISSION_CONFIGS:
            check_slice(workloads.make_workload(name, run.ROOT, 0), scratch)
    check_bare_directory_fails()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
