"""The scripts in scripts/ run end to end as standalone programs."""

import importlib.util
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


def _probe_module():
    spec = importlib.util.spec_from_file_location(
        "mutation_probe", SCRIPTS / "mutation_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_probe_swaps_each_binary_operator_once():
    """A unary minus is no site; each comparison of a chain is one, and an
    augmented assignment is one."""
    probe = _probe_module()
    source = ("def f(a, b):\n"
              "    a -= b / 2\n"
              "    return a - (-b) * 2 < a <= b\n")
    sites = probe.sites(source, "f")
    assert sites == [(2, 6, "-="), (2, 11, "/"), (3, 13, "-"),
                     (3, 20, "*"), (3, 24, "<"), (3, 28, "<=")]
    assert probe.mutate(source, 3, 24, "<").splitlines()[2] == (
        "    return a - (-b) * 2 <= a <= b")
    assert probe.sites(source, "g") is None


def test_mutation_probe_counts_the_killed_mutants():
    proc = _run(SCRIPTS / "mutation_probe.py", "geometry.Rect.contains",
                "--sample", "2", "--seed", "0", "--",
                "tests/test_geometry.py::test_rect_contains_and_distance")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "geometry.Rect.contains: 2 of 4 sites, seed 0", "killed 2 of 2"]


def test_mutation_probe_rejects_an_unknown_function():
    proc = _run(SCRIPTS / "mutation_probe.py", "geometry.no_such_function")
    assert proc.returncode == 2
    assert "no function 'no_such_function'" in proc.stderr
