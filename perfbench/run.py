"""facadesim benchmark: one workload on one seed, measured for a fixed time.

    python3 perfbench/run.py --workload hover --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

Run from anywhere; the repository root is the parent of this directory.
Workloads (see README.md in this directory for why each exists):

  hover              acceptance criterion 1: ten seeded 120 s hovers
  mission_default    `facadesim mission` + `report` on configs/default.yaml
  mission_obstacles  the same on configs/obstacle_course.yaml

The benchmark is a closed loop with one client: an iteration (one hover
batch, or one mission and its report) starts when the previous one ended,
all on the seed given.  Iterations repeat until the next one would end past
`--seconds`; at least two run, so every run checks that a repeat of the
seed reproduces the same outputs.

With `--trace 0` the run reports the end-to-end metrics, timed with tracing
off and scaled to a fixed host speed by `hostspeed.py`.  With `--trace 1`
it alternates untraced and traced iterations and reports the per-layer
metrics from the traced ones.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`;
a full record, with the environment, the fingerprint and the span table,
goes to `.perfbench_out/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from hostspeed import REFERENCE_S, SpeedGauge  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_PROBES = 7           # fresh interpreters timed per run; median kept
PROBE_TIMEOUT_S = 60
UNTRACED_MIN_ITERATIONS = 2

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("us_per_step", "us"),
              ("peak_rss_mb", "MB"), ("passed_share", "share"))


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="facadesim benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per run, set-up excluded")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def missing_sources() -> list[str]:
    needed = [ROOT / "src" / "facadesim" / "__init__.py"]
    needed += [ROOT / "configs" / c for c in workloads.MISSION_CONFIGS.values()]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            "platform": platform.platform()}


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds of one fresh interpreter, and its reference seconds.

    Waits for the interpreter to exit.
    """
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True)
    setup_s, reference_s = done.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(reference_s)


def measure(wl, seconds: float, scratch: Path, tracer: Tracer | None,
            between=None, gauge: SpeedGauge | None = None):
    """Run iterations until the next would end past `seconds`.

    `between()` runs before each iteration.  The host's speed drifts over
    tens of seconds, so set-up probes spread over the run see more of that
    drift than probes made back to back.  With a `gauge`, the untraced
    iterations run under it and are timed by its clock.
    """
    wl.clock = gauge.clock if gauge else time.perf_counter
    sampling = gauge.running if gauge else contextlib.nullcontext
    plain, traced = [], []
    min_plain = 1 if tracer else UNTRACED_MIN_ITERATIONS
    t_start = time.perf_counter()
    while True:
        if between:
            between()
        t0 = time.perf_counter()
        with sampling():
            plain.append(wl.run_once(scratch))
        if tracer:
            negative_before = tracer.negative_self
            it = wl.run_once(scratch, tracer)
            if tracer.negative_self > negative_before:
                it.problems.append("a span's children outlast it")
            traced.append(it)
        now = time.perf_counter()
        if len(plain) >= min_plain and now - t_start + (now - t0) > seconds:
            return plain, traced


def judge(plain, traced) -> list[str]:
    """Mark failed iterations; returns one line per failure found."""
    reference = plain[0].fingerprint
    lines = []
    for kind, runs in (("run", plain), ("traced run", traced)):
        for i, it in enumerate(runs):
            if it.fingerprint != reference:
                it.problems.append(
                    f"{kind} fingerprint differs from the first untraced run")
            lines += [f"{kind} {i}: {p}" for p in it.problems]
    return lines


def end_to_end(plain, setup_s: float, scale: float) -> dict:
    """The run's metrics, from its untraced iterations and `setup_s`.

    `wall_s` and `us_per_step` are host times multiplied by `scale`, the
    gauge's factor to reference-speed seconds (1.0 gives host times).
    They are means over the run, not medians: a run holds two to five
    iterations, and the gauge's scale is the mean over the same time.
    """
    attempted = len(plain)
    passed = sum(1 for it in plain if not it.problems)
    # an iteration the watchdog aborted has no loop time to report
    timed = [it for it in plain if it.steps]
    if not timed:
        raise SystemExit("perfbench: no iteration finished its loop")
    loop_s = sum(sum(it.loop_s) for it in timed)
    steps = sum(sum(it.steps) for it in timed)
    return {
        "setup_s": setup_s,
        "wall_s": scale * statistics.mean(it.wall_s for it in timed),
        "us_per_step": scale * 1e6 * loop_s / steps,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_share": passed / attempted,
    }


def per_layer(plain, traced, tracer: Tracer) -> tuple[dict, dict]:
    """Per traced iteration: calls and self time of each layer, ratios."""
    n = len(traced)
    by = tracer.by_name()
    values, units = {}, {}
    for layer in workloads.LAYERS:
        calls, _, self_s = by.get(layer, (0, 0.0, 0.0))
        values[f"{layer}.calls"], units[f"{layer}.calls"] = calls / n, "count"
        values[f"{layer}.self_s"], units[f"{layer}.self_s"] = self_s / n, "s"
    c = tracer.counters
    scans = by.get("world.simulate_scan", (0,))[0]
    sectors = by.get("control.classify_sectors", (0,))[0]
    steps = sum(sum(it.steps) for it in traced)
    extra = {
        "world.simulate_scan.useful_ratio":
            (c.get("world.simulate_scan.useful", 0) / scans if scans
             else 0.0, "ratio"),
        "control.classify_sectors.bins_below_engage":
            (c.get("control.classify_sectors.bins_below_engage", 0) / n,
             "count"),
        "control.classify_sectors.active_ratio":
            (c.get("control.classify_sectors.active", 0) / sectors
             if sectors else 0.0, "ratio"),
        "mission.objects_per_step":
            (sum(it.objects for it in traced) / max(steps, 1), "1/step"),
        "cli.write.bytes":
            (sum(it.write_bytes for it in traced) / n, "bytes"),
        "trace.overhead_s":
            (statistics.median(it.wall_s for it in traced)
             - statistics.median(it.wall_s for it in plain), "s"),
    }
    for name, (value, unit) in extra.items():
        values[name], units[name] = value, unit
    return values, units


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        print(done.stdout.rstrip("\n").rsplit("\n", 1)[0])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric, entry in result["metrics"].items():
            merged[f"{name}.{metric}"] = entry
    print(f"{'workload.metric':<56} {'value':>14}  unit")
    for metric, entry in merged.items():
        print(f"{metric:<56} {entry['value']:>14.6g}  {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = missing_sources()
    if missing:
        print("perfbench: run from a facadesim checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))

    wl = workloads.make_workload(args.workload, ROOT, args.seed)
    wl.setup()   # imports first, so the probes find compiled bytecode
    env = environment()

    setup_times: list[tuple[float, float]] = []   # (host s, reference s)

    def probe() -> None:
        if len(setup_times) < SETUP_PROBES:
            setup_times.append(probe_setup(args.workload, args.seed))

    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    gauge = None if args.trace else SpeedGauge()
    try:
        plain, traced = measure(wl, args.seconds, scratch, tracer,
                                between=None if args.trace else probe,
                                gauge=gauge)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    while not args.trace and len(setup_times) < SETUP_PROBES:
        probe()

    failures = judge(plain, traced)
    if tracer:
        values, units = per_layer(plain, traced, tracer)
    else:
        # each probe at the speed of its own reference, as the gauge does
        host_values = end_to_end(
            plain, statistics.median(s for s, _ in setup_times), 1.0)
        values = end_to_end(
            plain, statistics.median(s * REFERENCE_S / r
                                     for s, r in setup_times),
            gauge.scale())
        units = dict(END_TO_END)
    runs = plain + traced
    failed = sum(1 for it in runs if it.problems)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced iterations")
    print("env: " + json.dumps(env))
    print("fingerprint: " + json.dumps(plain[0].fingerprint, sort_keys=True))
    if gauge:
        print(f"host speed: reference {1e3 * gauge.mean_s():.4f} ms over "
              f"{len(gauge.samples)} samples, scale {gauge.scale():.4f}; "
              "host " + ", ".join(
                  f"{name} {host_values[name]:.6g} {unit}"
                  for name, unit in END_TO_END[:3]))
    for line in failures:
        print("FAILED " + line)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env,
        "fingerprint": plain[0].fingerprint, "failures": failures,
        "setup_probes_s": [s for s, _ in setup_times],
        "setup_reference_s": [r for _, r in setup_times],
        "reference_samples_s": gauge.samples if gauge else [],
        "host_metrics": host_values if gauge else {},
        "iterations": [{"traced": i >= len(plain), "wall_s": it.wall_s,
                        "loop_s": it.loop_s, "steps": it.steps}
                       for i, it in enumerate(runs)],
        "metrics": values,
        "spans": tracer.edge_table() if tracer else [],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": not failures, "attempted": len(runs), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
