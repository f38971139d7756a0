"""The scripts in scripts/ run end to end as standalone programs."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(*args):
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_hover_filter_comparison_writes_one_row_per_step():
    proc = _run(SCRIPTS / "hover_filter_comparison.py", "--duration", "1")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == "t_s,kalman_err_m,dead_reckoning_err_m,true_err_m"
    assert len(rows) == 100
    assert all(len(r.split(",")) == 4 for r in rows)


def test_hover_filter_comparison_rejects_a_too_short_hover():
    proc = _run(SCRIPTS / "hover_filter_comparison.py", "--duration", "0.004")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: duration_s" in proc.stderr.splitlines()[-1]


def test_hover_filter_comparison_rejects_a_hover_of_too_many_steps():
    """1e308 s is finite, but divided by dt it is inf."""
    proc = _run(SCRIPTS / "hover_filter_comparison.py", "--duration", "1e308")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: duration_s" in proc.stderr.splitlines()[-1]


def test_hover_filter_comparison_rejects_a_hover_of_too_many_finite_steps():
    """1e300 s gives a finite step count, but far more than the 1,000,000
    steps a hover may run."""
    proc = _run(SCRIPTS / "hover_filter_comparison.py", "--duration", "1e300")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: duration_s" in proc.stderr.splitlines()[-1]


def test_run_default_mission_help():
    proc = _run(SCRIPTS / "run_default_mission.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--config" in proc.stdout


def test_run_default_mission_reports_the_fault():
    proc = _run(SCRIPTS / "run_default_mission.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "scenario: default"
    assert "crack-labeled captures: 2" in lines
    faults = [ln for ln in lines if ln.startswith("fault ")]
    assert len(faults) == 1 and faults[0].startswith("fault 0: ")
