"""The benchmark's workloads: one hover batch and two full missions.

Each workload is set up once per process and then run as repeated
iterations on one seed.  An iteration returns its host timings, a
fingerprint of everything it simulated and wrote, and the correctness
problems it found.  Nothing in `facadesim` is changed: timing and tracing
hook in from outside by swapping module attributes, and every swap is put
back before the iteration returns.

This module imports no `facadesim` code at import time, so the set-up
probe can time the package import itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

HOVER_DURATION_S = 120.0   # acceptance criterion 1: 120 s hover ...
HOVER_SEEDS = 10           # ... on ten seeds
HOVER_ALPHA = 0.98         # at the default sensor tier and blend gain
HOVER_TAIL_FRACTION = 0.5  # criterion 1 fits its drift slope to the tail

MISSION_CONFIGS = {
    "mission_default": "default.yaml",
    "mission_obstacles": "obstacle_course.yaml",
}
WORKLOADS = ("hover",) + tuple(MISSION_CONFIGS)

OUTPUT_FILES = ("plan.csv", "trajectory.csv", "captures.csv", "report.json")

# Layers wrapped in a traced iteration: (owner, attribute, span name).  The
# owner is the module that *calls* the function, because `mission.py` and
# `cli.py` bind imported names at import time.
_TRACED_FUNCTIONS = (
    ("mission", "simulate_scan", "world.simulate_scan"),
    ("mission", "classify_sectors", "control.classify_sectors"),
    ("mission", "avoidance_command", "control.avoidance_command"),
    ("mission", "track_waypoint", "control.track_waypoint"),
    ("mission", "step_dynamics", "vehicle.step_dynamics"),
    ("mission", "visible_decals", "world.visible_decals"),
    ("mission", "filter_fault_coordinates",
     "perception.filter_fault_coordinates"),
    ("mission", "plan_return_path", "planner.plan_return_path"),
    ("mission", "generate_perimeter_path", "planner.generate_perimeter_path"),
    ("cli", "generate_perimeter_path", "planner.generate_perimeter_path"),
    ("cli", "load_raw", "config.load"),
    ("cli", "config_from_dict", "config.load"),
    ("cli", "write_plan_csv", "cli.write"),
    ("cli", "write_trajectory_csv", "cli.write"),
    ("cli", "write_capture_csv", "cli.write"),
    ("cli", "write_report_json", "cli.write"),
    ("estimation", "kalman_predict", "estimation.kalman_predict"),
    ("estimation", "kalman_update", "estimation.kalman_update"),
    ("estimation", "world_accel", "estimation.world_accel"),
    ("estimation", "complementary_step", "attitude.complementary_step"),
)
_TRACED_METHODS = (
    ("estimation", "InertialEstimator", "step",
     "estimation.InertialEstimator.step"),
    ("estimation", "DeadReckoner", "step", "estimation.DeadReckoner.step"),
    ("sensors", "Imu", "measure", "sensors.Imu.measure"),
    ("perception", "Classifier", "label", "perception.Classifier.label"),
)

# Every layer that reports `.calls` and `.self_s`.
LAYERS = (
    "world.simulate_scan",
    "control.classify_sectors",
    "estimation.kalman_predict",
    "estimation.kalman_update",
    "estimation.world_accel",
    "estimation.InertialEstimator.step",
    "estimation.DeadReckoner.step",
    "attitude.complementary_step",
    "sensors.Imu.measure",
    "vehicle.step_dynamics",
    "control.track_waypoint",
    "control.avoidance_command",
    "world.visible_decals",
    "perception.Classifier.label",
    "perception.filter_fault_coordinates",
    "planner.plan_return_path",
    "mission.loop",
    "cli.write",
    "cli.report",
    "config.load",
    "planner.generate_perimeter_path",
)


def import_facadesim() -> dict:
    """Import the modules the benchmark drives; returns them by short name."""
    import importlib

    names = ("attitude", "cli", "config", "control", "estimation",
             "geometry", "mission", "perception", "planner", "sensors",
             "vehicle", "world")
    return {n: importlib.import_module(f"facadesim.{n}") for n in names}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Iteration:
    """One unit of work: a hover batch, or one mission plus its report."""

    wall_s: float                 # the iteration's host time (README.md)
    loop_s: list[float]           # each run_mission / run_hover call
    steps: list[int]              # control steps of each of those calls
    objects: int                  # frozen dataclasses built inside the loops
    fingerprint: dict
    problems: list[str] = field(default_factory=list)
    write_bytes: int = 0


class _LoopProbe:
    """Stands in for run_mission / run_hover: times each call, keeps results."""

    def __init__(self, fn, tracer=None, clock=time.perf_counter):
        self._fn = fn if tracer is None else tracer.wrap(fn, "mission.loop")
        self._tracer = tracer
        self._clock = clock
        self.first_start: float | None = None
        self.seconds: list[float] = []
        self.results: list = []
        self.objects = 0

    def __call__(self, *args, **kwargs):
        objects0 = self._tracer.objects if self._tracer else 0
        t0 = self._clock()
        if self.first_start is None:
            self.first_start = t0
        result = self._fn(*args, **kwargs)
        self.seconds.append(self._clock() - t0)
        if self._tracer:
            self.objects += self._tracer.objects - objects0
        self.results.append(result)
        return result


class Workload:
    """Shared set-up and tracing; subclasses define one iteration."""

    name: str

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.fs: dict = {}
        # times every iteration; run.py swaps in a clock that leaves out
        # the host-speed gauge's own work
        self.clock = time.perf_counter

    def setup(self) -> None:
        self.fs = import_facadesim()

    def d_engage(self) -> float:
        return math.inf

    def install_trace(self, tracer) -> None:
        fs = self.fs
        d_engage = self.d_engage()

        def scan_done(args, scan):
            if min(scan.ranges) < d_engage:
                tracer.count("world.simulate_scan.useful")

        def sectors_done(args, sectors):
            ranges = args[0].ranges
            if min(ranges) < d_engage:
                tracer.count("control.classify_sectors.bins_below_engage",
                             sum(1 for r in ranges if r < d_engage))
            if sectors.any_active:
                tracer.count("control.classify_sectors.active")

        hooks = {"world.simulate_scan": scan_done,
                 "control.classify_sectors": sectors_done}
        for mod, attr, name in _TRACED_FUNCTIONS:
            tracer.patch(fs[mod], attr, name, after=hooks.get(name))
        for mod, cls, attr, name in _TRACED_METHODS:
            tracer.patch(getattr(fs[mod], cls), attr, name)
        tracer.count_dataclass_inits(fs.values())

    def run_once(self, scratch: Path, tracer=None) -> Iteration:
        raise NotImplementedError


class Hover(Workload):
    """Criterion 1: ten seeded 120 s hovers, drift ratio and tail slope."""

    name = "hover"

    def __init__(self, root: Path, seed: int,
                 duration_s: float = HOVER_DURATION_S,
                 n_seeds: int = HOVER_SEEDS):
        super().__init__(root, seed)
        self.duration_s = duration_s
        self.n_seeds = n_seeds

    def setup(self) -> None:
        super().setup()
        # seed s runs hover seeds 10s .. 10s+9, so seed 0 is criterion 1
        self.seeds = [HOVER_SEEDS * self.seed + i
                      for i in range(self.n_seeds)]

    def run_once(self, scratch: Path, tracer=None) -> Iteration:
        import numpy as np

        mission = self.fs["mission"]
        probe = _LoopProbe(mission.run_hover, tracer, self.clock)
        digest = hashlib.sha256()
        problems: list[str] = []
        ratios, slopes = [], []
        if tracer:
            self.install_trace(tracer)
        try:
            t0 = self.clock()
            for s in self.seeds:
                res = probe(duration_s=self.duration_s, seed=s,
                            alpha=HOVER_ALPHA)
                t = np.asarray(res.times)
                est = np.asarray(res.est_err)
                dr = np.asarray(res.dr_err)
                ratios.append(float(dr.max() / est.max()))
                tail = t >= HOVER_TAIL_FRACTION * self.duration_s
                slopes.append(float(np.polyfit(t[tail], est[tail], 1)[0]))
            t_end = self.clock()
        finally:
            if tracer:
                tracer.restore()
        steps = []
        for s, res in zip(self.seeds, probe.results):
            steps.append(len(res.times))
            for trace in (res.times, res.est_err, res.dr_err, res.true_err):
                arr = np.asarray(trace, dtype=np.float64)
                if not np.isfinite(arr).all():
                    problems.append(f"hover seed {s}: non-finite error trace")
                digest.update(arr.tobytes())
        fingerprint = {
            "hover_seeds": [self.seeds[0], self.seeds[-1]],
            "steps": sum(steps),
            "min_dr_kalman_ratio": repr(min(ratios)),
            "max_tail_slope_m_per_s": repr(max(slopes)),
            "error_traces_sha256": digest.hexdigest(),
        }
        return Iteration(wall_s=t_end - t0, loop_s=probe.seconds,
                         steps=steps, objects=probe.objects,
                         fingerprint=fingerprint, problems=problems)


class Mission(Workload):
    """`facadesim mission` on a shipped config, then `facadesim report`."""

    def __init__(self, root: Path, seed: int, name: str):
        super().__init__(root, seed)
        self.name = name
        self.config_path = root / "configs" / MISSION_CONFIGS[name]

    def setup(self) -> None:
        super().setup()
        fs = self.fs
        data = fs["config"].load_raw(self.config_path)
        data["seed"] = self.seed
        self.cfg = fs["config"].config_from_dict(data)   # validates
        self.cfg.scene()
        fs["planner"].generate_perimeter_path(self.cfg.building,
                                              self.cfg.plan, self.cfg.home)
        fs["planner"].avoidance_polygon(self.cfg.building, self.cfg.plan)

    def d_engage(self) -> float:
        return self.cfg.mission.d_engage

    def run_once(self, scratch: Path, tracer=None) -> Iteration:
        cli = self.fs["cli"]
        out = scratch / "run"
        shutil.rmtree(out, ignore_errors=True)
        probe = _LoopProbe(cli.run_mission, tracer, self.clock)
        real = cli.run_mission
        report_text = io.StringIO()
        if tracer:
            self.install_trace(tracer)
        cli.run_mission = probe
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc_mission = cli.main([
                    "mission", "--config", str(self.config_path),
                    "--seed", str(self.seed), "--out", str(out)])
            with contextlib.redirect_stdout(report_text), (
                    tracer.span("cli.report") if tracer
                    else contextlib.nullcontext()):
                rc_report = cli.main(["report", "--out", str(out)])
            t_end = self.clock()
        finally:
            cli.run_mission = real
            if tracer:
                tracer.restore()

        problems: list[str] = []
        if rc_mission != 0:
            problems.append(f"facadesim mission exited {rc_mission}")
        if rc_report != 0:
            problems.append(f"facadesim report exited {rc_report}")
        if not probe.results:
            problems.append("run_mission returned no result")
            return Iteration(wall_s=math.nan, loop_s=[], steps=[],
                             objects=0, fingerprint={}, problems=problems)
        res = probe.results[0]
        rep = res.report
        clearance = rep.min_obstacle_clearance
        if res.entered_footprint:
            problems.append("vehicle entered the building footprint")
        if len(rep.faults) != len(self.cfg.decals):
            problems.append(f"{len(rep.faults)} faults reported for "
                            f"{len(self.cfg.decals)} decals")
        if clearance is not None and not clearance > 0.0:
            problems.append(f"minimum obstacle clearance {clearance!r} m")

        fingerprint = {
            "steps": len(res.engaged),
            "engaged_steps": sum(res.engaged),
            "captures": len(res.captures),
            "faults": len(rep.faults),
            "min_clearance_m": repr(clearance),
            "entered_footprint": res.entered_footprint,
            "report_stdout_sha256": hashlib.sha256(
                report_text.getvalue().encode()).hexdigest(),
        }
        write_bytes = 0
        for fname in OUTPUT_FILES:
            path = out / fname
            if path.is_file():
                fingerprint[fname + "_sha256"] = sha256_file(path)
                write_bytes += path.stat().st_size
            else:
                problems.append(f"{fname} was not written")
        shutil.rmtree(out, ignore_errors=True)
        return Iteration(wall_s=t_end - probe.first_start,
                         loop_s=probe.seconds,
                         steps=[len(res.engaged)], objects=probe.objects,
                         fingerprint=fingerprint, problems=problems,
                         write_bytes=write_bytes)


def make_workload(name: str, root: Path, seed: int) -> Workload:
    if name == "hover":
        return Hover(root, seed)
    return Mission(root, seed, name)
