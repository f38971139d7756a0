"""Closed-loop mission runs on the shipped scenarios."""

import collections
import dataclasses
import importlib
import inspect
import math
import pkgutil
import types
from array import array

import numpy as np
import pytest

import facadesim
from facadesim import mission, world
from facadesim.cli import write_trajectory_csv
from facadesim.config import (
    MAX_LEG_STEPS,
    MissionParams,
    apply_overrides,
    config_from_dict,
    load_config,
    load_raw,
)
from facadesim.errors import MissionAborted
from facadesim.geometry import v_dist, wrap_angle
from facadesim.mission import run_hover, run_mission
from facadesim.perception import LABEL_CRACK
from facadesim.world import Obstacle, decal_world_center
from oracles import cylinder_clearance, flown_folds, row_phases


def phases_in_order(transitions):
    seq = [transitions[0][1]] + [to for _, _, to in transitions]
    return seq


def last_phase(result):
    """The phase logged on the last row."""
    return row_phases([result.trajectory[-1, 0]], result.transitions)[0]


def capture_times(result):
    return [rec.time for rec in result.captures]


# -- default scenario -----------------------------------------------------------

def test_default_run_completes(default_run):
    cfg, result = default_run
    assert last_phase(result) == "Done"
    assert result.transitions[-1][2] == "Done"
    assert not result.entered_footprint


def test_default_trajectory_is_one_float64_table(default_run):
    _, result = default_run
    traj = result.trajectory
    assert traj.dtype == np.float64 and traj.flags.c_contiguous
    assert traj.shape == (len(result.engaged) + 1, 10)


def test_default_phase_sequence(default_run):
    _, result = default_run
    seq = phases_in_order(result.transitions)
    assert seq[0] == "Idle"
    assert seq[1] == "Inspecting"
    assert seq[2] == "ReturningHome"
    assert seq[-1] == "Done"
    # one detect/hold pair per fault, plus the flight home after the last hold
    assert seq.count("Holding") == 1
    assert seq.count("Detecting") == 2
    assert seq[-2] == "Detecting"


def test_default_finds_the_single_fault(default_run):
    cfg, result = default_run
    faults = result.report.faults
    assert len(faults) == 1
    decal = decal_world_center(cfg.building, cfg.decals[0])
    # capture pose sits near the decal, offset by roughly the standoff
    assert 2.0 < v_dist(faults[0].position, decal) < 4.5
    assert abs(faults[0].position[2] - decal[2]) < 0.5
    # camera faces the east facade, so yaw is near pi
    assert abs(wrap_angle(faults[0].yaw - math.pi)) < 0.3


def test_default_capture_cadence(default_run):
    _, result = default_run
    times = capture_times(result)
    assert times[0] == pytest.approx(0.0, abs=1e-6)
    for t in times:
        assert abs(t - 10.0 * round(t / 10.0)) < 1e-6
    for a, b in zip(times, times[1:]):
        assert b - a >= 10.0 - 1e-6
    ids = [rec.image_id for rec in result.captures]
    assert ids == [f"img_{i:06d}" for i in range(len(ids))]
    assert any(rec.label == LABEL_CRACK for rec in result.captures)


def test_default_captures_stop_when_inspection_ends(default_run):
    _, result = default_run
    end_return = max(t for t, frm, _ in result.transitions
                     if frm == "ReturningHome")
    assert capture_times(result)[-1] <= end_return + 1e-9
    # no captures once fault detection starts
    start_detect = min(t for t, _, to in result.transitions
                       if to == "Detecting")
    assert all(rec.time < start_detect for rec in result.captures)


def test_default_hold_end_pose_matches_fault(default_run):
    """Criterion: the revisit hold ends within 0.5 m / 5 deg of the fault."""
    _, result = default_run
    assert len(result.hold_end_poses) == 1
    fault = result.report.faults[0]
    _, t, pos, yaw = result.hold_end_poses[0]
    assert v_dist(pos, fault.position) < 0.5
    assert abs(wrap_angle(yaw - fault.yaw)) < math.radians(5.0)


def test_default_estimate_stays_close_to_truth(default_run):
    _, result = default_run
    worst = max(v_dist(row[1:4], row[4:7])
                for row in result.trajectory.tolist())
    assert worst < 0.5


def test_default_dead_reckoning_diverges(default_run):
    _, result = default_run
    rows = result.trajectory.tolist()
    est = max(v_dist(row[1:4], row[4:7]) for row in rows)
    dr = max(v_dist(row[1:4], row[7:10]) for row in rows)
    assert dr > 5.0
    assert dr > 10.0 * est


def assert_continuous(cfg, result):
    """Each step lasts dt and moves the truth at most v_max * dt."""
    dt = cfg.mission.dt
    step_cap = cfg.vehicle.v_max * dt + 1e-9
    rows = result.trajectory.tolist()
    for a, b in zip(rows, rows[1:]):
        assert b[0] - a[0] == pytest.approx(dt, abs=1e-9)
        assert v_dist(a[1:4], b[1:4]) <= step_cap


def test_default_trajectory_is_continuous(default_run):
    assert_continuous(*default_run)


def test_default_true_path_keeps_out_of_the_building(default_run):
    cfg, result = default_run
    fp = cfg.building.footprint()
    assert not any(fp.contains(row[1], row[2])
                   for row in result.trajectory.tolist())


def test_default_report_numbers(default_run):
    _, result = default_run
    rep = result.report
    assert rep.min_obstacle_clearance is None
    assert rep.inspection_duration > 100.0
    assert len(rep.detection_durations) == 1
    assert rep.detection_durations[0] > 0.0
    # capture count: one at t=0 plus one per full 10 s of inspection
    n_expected = int(rep.inspection_duration / 10.0) + 1
    assert len(result.captures) == n_expected


# -- obstacle scenario ------------------------------------------------------------

def test_obstacle_run_completes_with_clearance(obstacle_run):
    cfg, result = obstacle_run
    assert last_phase(result) == "Done"
    assert len(result.report.faults) == 1
    assert result.report.min_obstacle_clearance is not None
    assert result.report.min_obstacle_clearance > 0.5


def test_obstacle_trajectory_is_continuous(obstacle_run):
    """The avoidance override flies thousands of steps here, and the
    plant's clamp alone keeps each within the step cap.  Seed 1 is flown
    too: its repulsion, unclamped, would carry the truth up to 5.0023 mm in a
    step."""
    cfg, result = obstacle_run
    seed1 = dataclasses.replace(cfg, seed=1)
    for cfg, result in ((cfg, result), (seed1, run_mission(seed1))):
        assert sum(result.engaged) > 1000
        assert_continuous(cfg, result)


def test_obstacle_avoidance_engages_only_near_cylinders(obstacle_run):
    """Geometric check, independent of the sector logic."""
    cfg, result = obstacle_run
    assert any(result.engaged)
    for row, engaged in zip(result.trajectory.tolist(), result.engaged):
        true_pos = row[1:4]
        horiz = []
        for o in cfg.obstacles:
            if true_pos[2] <= o.height:
                dx = true_pos[0] - o.center_xy[0]
                dy = true_pos[1] - o.center_xy[1]
                horiz.append(math.hypot(dx, dy) - o.radius)
        nearest = min(horiz) if horiz else math.inf
        if engaged:
            assert nearest < cfg.mission.d_engage
    assert len(result.engaged) == len(result.trajectory) - 1


def test_obstacle_clearance_log_matches_geometry(obstacle_run):
    cfg, result = obstacle_run
    reported = result.report.min_obstacle_clearance
    best = math.inf
    for row in result.trajectory[:-1].tolist():
        x, y, z = row[1:4]
        for o in cfg.obstacles:
            dh = math.hypot(x - o.center_xy[0], y - o.center_xy[1]) - o.radius
            dv = z - o.height
            if dh <= 0.0:
                d = max(0.0, dv)
            elif dv <= 0.0:
                d = dh
            else:
                d = math.hypot(dh, dv)
            best = min(best, d)
    assert reported == pytest.approx(best, abs=1e-12)


def test_cylinder_clearance_above_the_top_and_beyond_the_rim():
    pole = Obstacle(0, (0.0, 0.0), 1.0, 3.0)
    # over the pole: straight up to its top
    assert mission._cylinder_clearance(pole, 0.5, 0.0, 5.0) == 2.0
    # outside the rim and above the top: to the top's edge, 3 m out, 4 m up
    assert mission._cylinder_clearance(pole, 4.0, 0.0, 7.0) == 5.0


def test_cylinder_clearance_columns_follow_the_scalar_rule():
    """Over columns, `_cylinder_clearance` gives each point the branch a
    float loop gives it, zero signs and NaN included: a height of -0.0 over
    a top at 0.0 maps to 0.0, as `dz if dz > 0.0 else 0.0` does."""
    pole = Obstacle(0, (0.0, 0.0), 1.0, 3.0)
    flat = types.SimpleNamespace(center_xy=(0.0, 0.0), radius=1.0, height=0.0)
    points = [(0.5, 0.0, 5.0), (4.0, 0.0, 7.0), (2.5, 0.0, 1.0),
              (1.0, 0.0, 3.0), (0.0, 0.0, -0.0), (2.0, 0.0, -0.0),
              (math.nan, 0.0, 5.0), (0.5, 0.0, math.nan),
              (4.0, 0.0, math.nan)]
    x, y, z = np.array(points).T
    for o in (pole, flat):
        got = mission._cylinder_clearance(o, x, y, z).tolist()
        assert list(map(repr, got)) == [repr(cylinder_clearance(o, *p))
                                        for p in points]


class _HandLog(array):
    """A trajectory log that holds hand rows and drops the run's own."""

    def extend(self, row):
        pass


def _row(x, y, z):
    """A trajectory row at true position (x, y, z)."""
    return [0.0, x, y, z] + [0.0] * 6


def _hand_folds(config_dir, monkeypatch, obstacles, rows):
    """`run_mission`'s minimum clearance and footprint entry over hand rows,
    and the float loop's: the run inspects `default.yaml`'s 12 x 8 x 6 m
    building with `obstacles` added, its log preset to `rows`."""
    cfg = dataclasses.replace(load_config(config_dir / "default.yaml"),
                              obstacles=obstacles)
    log = _HandLog("d", [v for row in rows for v in row])
    monkeypatch.setattr(mission, "array", lambda typecode: log)
    result = run_mission(cfg, inspection_only=True)
    assert result.trajectory.shape == (len(rows), 10)
    return ((result.report.min_obstacle_clearance, result.entered_footprint),
            flown_folds(rows, obstacles, cfg.building.footprint(),
                        cfg.building.height))


_POLE = Obstacle(0, (40.0, 40.0), 1.0, 3.0)   # well clear of the flight
_ABOVE = math.nextafter(6.0, 7.0)             # the next float over the roof
_FOLD_CASES = {
    # over the pole's top, beyond its rim and level beside it; just beyond
    # the footprint's x edge, just over its roof; then the final Done row,
    # inside the footprint, which no step flew from
    "pole": ((_POLE,), [_row(40.5, 40.0, 5.0), _row(44.0, 40.0, 7.0),
                        _row(42.5, 40.0, 1.0), _row(_ABOVE, 0.0, 6.0),
                        _row(0.0, 4.0, _ABOVE), _row(0.0, 0.0, 1.0)],
             (1.5, False)),
    # z == height and |x - cx| == hx, |y - cy| == hy: all inclusive
    "edges": ((), [_row(6.0, 4.0, 6.0), _row(20.0, 20.0, 1.0)],
              (None, True)),
    "one row": ((_POLE,), [_row(0.0, 0.0, 1.0)], (None, False)),
}


@pytest.mark.parametrize("case", sorted(_FOLD_CASES))
def test_flown_folds_follow_a_float_loop(case, config_dir, monkeypatch):
    obstacles, rows, want = _FOLD_CASES[case]
    got, loop = _hand_folds(config_dir, monkeypatch, obstacles, rows)
    assert repr(got) == repr(loop) == repr(want)


def test_a_nan_row_makes_the_clearance_nan(config_dir, monkeypatch):
    """A NaN height over the first pole's top is 0.0 to it and NaN to the
    second: the least clearance over all columns is NaN, where the float
    loop's `min` keeps a NaN only when it comes first."""
    poles = (_POLE, Obstacle(1, (60.0, 40.0), 1.0, 3.0))
    rows = [_row(42.5, 40.0, 1.0), _row(40.0, 40.0, math.nan),
            _row(0.0, 0.0, 1.0)]
    (clear, entered), loop = _hand_folds(config_dir, monkeypatch, poles,
                                         rows)
    assert math.isnan(clear) and not entered
    assert loop == (0.0, False)


def test_obstacle_run_builds_no_dataclass_per_step(config_dir, monkeypatch):
    """Avoidance steps `_pid` tuples on `ObstacleSectors`, a named tuple,
    and returns a bare velocity: no step builds a frozen dataclass, so a
    run of some 24,000 steps builds fewer than 100."""
    counts = collections.Counter()

    def counting(cls):
        init = cls.__init__

        def counted(obj, *args, **kwargs):
            counts[cls.__name__] += 1
            init(obj, *args, **kwargs)
        return counted

    cfg = load_config(config_dir / "obstacle_course.yaml")
    modules = [importlib.import_module(f"facadesim.{m.name}")
               for m in pkgutil.iter_modules(facadesim.__path__)
               if m.name != "__main__"]   # importing it runs the CLI
    frozen = {cls for mod in modules for cls in vars(mod).values()
              if inspect.isclass(cls) and cls.__module__ == mod.__name__
              and dataclasses.is_dataclass(cls)
              and cls.__dataclass_params__.frozen}
    inits = {cls: cls.__init__ for cls in frozen}
    with monkeypatch.context() as patch:
        for cls in frozen:
            patch.setattr(cls, "__init__", counting(cls))
        result = run_mission(cfg)
    assert all(cls.__init__ is init for cls, init in inits.items())
    assert {"PidState", "VelocityCommand"} <= {cls.__name__ for cls in frozen}
    assert counts["PidState"] == 0
    assert counts["VelocityCommand"] == 0
    assert sum(result.engaged) > 0
    assert counts.total() < 100


def test_mission_culls_the_solids_once_per_step(config_dir, monkeypatch):
    """A step culls the solids in reach only if it casts: one `_in_reach`
    call per step on which `_casts` holds, in the mission or in the world
    module, and none on any other step.  At seed 0 that is no step of
    `default`, and 5,825 steps of `obstacle_course`, 2,972 of them in its
    inspection."""
    calls = collections.Counter()

    def counting(*args):
        solids = in_reach(*args)
        calls[bool(solids)] += 1
        return solids

    def counting_casts(*args):
        cast = decide(*args)
        calls["casts"] += cast
        return cast

    in_reach, decide = world._in_reach, mission._casts
    monkeypatch.setattr(world, "_in_reach", counting)
    monkeypatch.setattr(mission, "_in_reach", counting)
    monkeypatch.setattr(mission, "_casts", counting_casts)
    for name, inspection_only, casts in (("default", False, 0),
                                         ("obstacle_course", False, 5825),
                                         ("obstacle_course", True, 2972)):
        calls.clear()
        run_mission(load_config(config_dir / f"{name}.yaml"),
                    inspection_only=inspection_only)
        assert calls[True] == calls["casts"] == casts, name
        assert calls[False] == 0, name


@pytest.mark.parametrize("name", ["default", "obstacle_course"])
def test_mission_avoids_only_on_a_step_whose_cast_hit(config_dir, name,
                                                      monkeypatch):
    """Sectors and avoidance run only when `_scan_hits` returned a hit: no
    avoidance call on `default`, whose casts all miss, and one per step
    with a hit on `obstacle_course`."""
    calls = collections.Counter()

    def counting_hits(*args):
        hits = scan_hits(*args)
        calls["hit"] += bool(hits)
        return hits

    def counting_avoidance(*args):
        calls["avoidance"] += 1
        return avoidance(*args)

    scan_hits, avoidance = mission._scan_hits, mission.avoidance_command
    monkeypatch.setattr(mission, "_scan_hits", counting_hits)
    monkeypatch.setattr(mission, "avoidance_command", counting_avoidance)
    result = run_mission(load_config(config_dir / f"{name}.yaml"))
    assert calls["avoidance"] == calls["hit"]
    assert calls["avoidance"] >= sum(result.engaged)
    if name == "default":
        assert calls["avoidance"] == 0
    else:
        assert sum(result.engaged) > 0


def test_a_pole_by_the_ring_casts_the_footprint(config_dir, monkeypatch):
    """With obstacle 1 moved to (0, 7.3), outside the ring, the mission
    casts the footprint, which no shipped run does.  The pole's surface is
    within d_engage of a ring waypoint, so avoidance holds the drone off it
    until the watchdog aborts, as pinned."""
    casts = collections.Counter()

    def counting_hits(solids, *args):
        casts["footprint"] += fp in solids
        return scan_hits(solids, *args)

    scan_hits = mission._scan_hits
    monkeypatch.setattr(mission, "_scan_hits", counting_hits)
    cfg = load_config(config_dir / "obstacle_course.yaml")
    cfg = dataclasses.replace(cfg, obstacles=(
        cfg.obstacles[0], Obstacle(1, (0.0, 7.3), 0.25, 3.0)))
    fp = cfg.building.footprint()
    with pytest.raises(MissionAborted) as aborted:
        run_mission(cfg)
    assert casts["footprint"] > 0
    err = aborted.value
    assert (err.time, err.phase, err.waypoint_index) == (172.97, "Inspecting",
                                                         7)
    assert err.position == (2.9836342251839953, 6.012622466441086,
                            1.3771280000304096)


# -- coverage scenario -------------------------------------------------------------

def test_coverage_finds_one_fault_per_face(coverage_run):
    cfg, result = coverage_run
    faults = result.report.faults
    assert len(faults) == 4
    fp = cfg.building.footprint()
    seen_faces = set()
    for f in faults:
        x, y, _ = f.position
        if x > fp.hx:
            seen_faces.add("east")
        elif x < -fp.hx:
            seen_faces.add("west")
        elif y > fp.hy:
            seen_faces.add("north")
        elif y < -fp.hy:
            seen_faces.add("south")
    assert seen_faces == {"north", "south", "east", "west"}


def test_coverage_sights_every_decal(coverage_run):
    cfg, result = coverage_run
    seen = set()
    for rec in result.captures:
        if rec.label == LABEL_CRACK:
            seen.update(rec.visible_decals)
    assert seen == {d.id for d in cfg.decals}


def test_coverage_full_mission_enters_the_footprint(config_dir):
    """The full coverage mission flies through the building: the reported
    entry is the logged rows' test, each flown-from true pose below the
    roof and inside the footprint."""
    cfg = load_config(config_dir / "coverage_4decals.yaml")
    result = run_mission(cfg)
    fp = cfg.building.footprint()
    inside = any(row[3] <= cfg.building.height and fp.contains(row[1], row[2])
                 for row in result.trajectory[:-1].tolist())
    assert result.entered_footprint
    assert result.entered_footprint == inside


def test_coverage_inspection_only_skips_detection(coverage_run):
    _, result = coverage_run
    seq = phases_in_order(result.transitions)
    assert "Detecting" not in seq
    assert "Holding" not in seq
    assert result.hold_end_poses == []


# -- multi-fault scenario ----------------------------------------------------------

def test_multi_fault_holds_each_fault_in_order(multi_fault_run):
    """Each expiring hold starts the next fault's leg; the last flies home."""
    _, result = multi_fault_run
    rep = result.report
    assert len(result.hold_end_poses) == len(rep.faults) == 5
    assert len(rep.detection_durations) == 5
    assert [h[0] for h in result.hold_end_poses] == list(range(5))
    assert [f.id for f in rep.faults] == list(range(5))
    seq = phases_in_order(result.transitions)
    assert seq == (["Idle", "Inspecting", "ReturningHome"]
                   + ["Detecting", "Holding"] * 5 + ["Detecting", "Done"])
    assert last_phase(result) == "Done"
    assert not result.entered_footprint


def test_a_hold_shorter_than_a_step_ends_on_its_arrival_step(config_dir,
                                                            tmp_path):
    """Each fault's hold starts and expires on one step, which logs
    Detecting -> Holding, then Holding -> Detecting, at the same t.  The
    report's timings, read from that log, are pinned bit for bit, and the
    phase column the writer reads from it follows the float loop."""
    cfg = config_from_dict(apply_overrides(
        load_raw(config_dir / "default.yaml"),
        ["mission.hold_s=1.0e-12", "mission.merge_radius=0.0"]))
    result = run_mission(cfg)
    # 317.74 s and 327.26 s: t is the step count times dt
    holds = [31774 * cfg.mission.dt, 32726 * cfg.mission.dt]
    for t in holds:
        assert [(frm, to) for u, frm, to in result.transitions if u == t] == [
            ("Detecting", "Holding"), ("Holding", "Detecting")]
    assert [h[1] for h in result.hold_end_poses] == holds
    rep = result.report
    assert rep.inspection_duration == float.fromhex("0x1.30428f5c28f5cp+8")
    assert rep.detection_durations == (float.fromhex("0x1.af5c28f5c2900p+3"),
                                       float.fromhex("0x1.30a3d70a3d700p+3"))
    # the phase column: the last of the two transitions at a hold's t names
    # that row, Detecting
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, result.trajectory, result.transitions)
    times = result.trajectory[:, 0].tolist()
    written = [line.rsplit(",", 1)[1]
               for line in path.read_text().splitlines()[1:]]
    assert written == row_phases(times, result.transitions)
    assert [written[times.index(t)] for t in holds] == ["Detecting"] * 2


# -- hover and failure paths ---------------------------------------------------------

def test_hover_kalman_beats_dead_reckoning():
    res = run_hover(duration_s=60.0, seed=0)
    n, dt = round(60.0 / MissionParams.dt), MissionParams.dt
    for trace in (res.times, res.est_err, res.dr_err, res.true_err):
        assert isinstance(trace, np.ndarray)
        assert trace.dtype == np.float64 and trace.shape == (n,)
    assert res.times.tolist() == [k * dt for k in range(n)]
    assert max(res.est_err) < 2.0
    assert max(res.dr_err) > 10.0 * max(res.est_err)
    # control trusts the estimate, so truth inherits the estimate's slow
    # drift; it must stay the same order, far below the dead-reckoning blowup
    assert max(res.true_err) < 6.0
    assert res.times[-1] == pytest.approx(60.0, abs=0.02)


def test_hover_rejects_bad_duration():
    # 1e308 s is finite, but its step count, 1e308 / dt, is inf; 1e300 s
    # and one step past MAX_LEG_STEPS have finite step counts, but a hover
    # is bounded as a scenario's legs and holds are
    for duration_s in (0.0, math.nan, math.inf, 0.004, 1e308, 1e300,
                       (MAX_LEG_STEPS + 1) * MissionParams.dt):
        with pytest.raises(ValueError, match="duration_s"):
            run_hover(duration_s=duration_s)


def test_negative_seed_override_is_rejected_before_any_draw(config_dir):
    """A mission's seed is its config's, checked as the config is built;
    run_hover takes its own."""
    assert "seed" not in inspect.signature(run_mission).parameters
    cfg = load_config(config_dir / "default.yaml")
    for run in (lambda: run_hover(duration_s=1.0, seed=-1),
                lambda: dataclasses.replace(cfg, seed=-1)):
        with pytest.raises(ValueError,
                           match="^seed must be non-negative, got -1$"):
            run()


def test_watchdog_aborts_unreachable_waypoint(config_dir):
    cfg = load_config(config_dir / "default.yaml")
    slow = dataclasses.replace(cfg, mission=MissionParams(watchdog_s=1.0))
    with pytest.raises(MissionAborted) as exc:
        run_mission(slow)
    err = exc.value
    assert err.phase == "Inspecting"
    assert err.time > 0.0
    assert err.waypoint_index >= 0
    assert len(err.position) == 3
