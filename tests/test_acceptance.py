"""Acceptance suite: ten system-level criteria, one verdict line each.

Each test prints `criterion N: PASS/FAIL (...)` with the measured numbers
before asserting, so a full run always shows the whole scoreboard.
Criterion 1 is expected to fail at the shipped tolerances; the hover
drift ratio of the default noise tier tops out below the required 50x.
"""

import math
import time

import numpy as np
import pytest

from facadesim.attitude import AttitudeEstimate, ComplementaryGain, complementary_step
from facadesim.cli import main
from facadesim.control import PidGains, PidState, track_waypoint
from facadesim.estimation import (
    KalmanConfig,
    KalmanState,
    diag3,
    kalman_predict,
    kalman_update,
)
from facadesim.geometry import (
    quat_from_euler,
    quat_rotate_inverse,
    v_dist,
    wrap_angle,
    yaw_of,
)
from facadesim.mission import run_hover
from facadesim.perception import LABEL_CRACK, LABEL_NOT_CRACK, Classifier, ClassifierSpec
from facadesim.planner import PlanParams, Waypoint, generate_perimeter_path
from facadesim.sensors import ImuSample
from facadesim.vehicle import GRAVITY, TrueState, VehicleParams, step_dynamics
from facadesim.world import BuildingSpec
from oracles import ray_rect_distance, row_phases

DT = 0.01


def verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_01_hover_drift_ratio():
    """120 s hover, seeds 0..9: dead reckoning >= 50x Kalman error, flat tail."""
    t0 = time.perf_counter()
    ratios, slopes = [], []
    for seed in range(10):
        res = run_hover(duration_s=120.0, seed=seed)
        ratios.append(max(res.dr_err) / max(res.est_err))
        t = np.array(res.times)
        e = np.array(res.est_err)
        tail = t >= 60.0
        slopes.append(float(np.polyfit(t[tail], e[tail], 1)[0]))
    runtime = time.perf_counter() - t0
    ok = (min(ratios) >= 50.0 and max(slopes) < 0.01 and runtime < 10.0)
    line = verdict(1, ok,
                   f"min dr/kalman ratio {min(ratios):.1f} need >= 50, "
                   f"max tail slope {max(slopes):.4f} m/s need < 0.01, "
                   f"runtime {runtime:.1f} s need < 10")
    assert ok, line


def test_criterion_02_step_response():
    """kp=1.00 ki=0.0001 kd=0.5 on the stock plant: 10 m step in 30 s."""
    gains = PidGains(kp=1.00, ki=0.0001, kd=0.5)
    s = TrueState.at_rest((0.0, 0.0, 2.0))
    wp = Waypoint((10.0, 0.0, 2.0), 0.0, 0)
    pid = PidState()
    reach_t = None
    worst_x = t = 0.0
    from facadesim.estimation import EstimatedState
    for _ in range(3000):
        est = EstimatedState(position=s.position, velocity=s.velocity,
                             attitude=AttitudeEstimate.level(
                                 yaw_of(s.attitude)))
        cmd, pid = track_waypoint(est, wp, gains, pid, DT)
        s = step_dynamics(s, cmd, VehicleParams(), DT)
        t += DT
        worst_x = max(worst_x, s.position[0])
        if reach_t is None and v_dist(s.position, wp.position) <= 0.05:
            reach_t = t
    overshoot = worst_x - 10.0
    final = v_dist(s.position, wp.position)
    ok = (reach_t is not None and reach_t <= 30.0
          and overshoot < 0.2 * 10.0 and final <= 0.05)
    line = verdict(2, ok,
                   f"reached 0.05 m at {reach_t if reach_t else math.inf:.2f} "
                   f"s need <= 30, overshoot {overshoot:.4f} m need < 2, "
                   f"final error {final:.4f} m")
    assert ok, line


def test_criterion_03_planner_geometry():
    """20x10x9 at standoff 3: corners (+-13, +-8), layers 1.5/4.5/7.5, 1e-9."""
    t0 = time.perf_counter()
    b = BuildingSpec(20.0, 10.0, 9.0)
    path = generate_perimeter_path(b, PlanParams(standoff=3.0,
                                                 layer_height=3.0,
                                                 first_layer_alt=1.5),
                                   home=(16.0, 0.0, 0.0))
    ring = [wp for wp in path[1:] if wp.layer >= 0]
    corner_err = max(
        min(max(abs(wp.position[0] - cx), abs(wp.position[1] - cy))
            for wp in ring)
        for cx, cy in ((13.0, -8.0), (13.0, 8.0), (-13.0, 8.0),
                       (-13.0, -8.0)))
    alts = sorted({wp.position[2] for wp in ring})
    fp = b.footprint()
    rays_hit = all(
        math.isfinite(ray_rect_distance(wp.position[0], wp.position[1],
                                        math.cos(wp.yaw), math.sin(wp.yaw),
                                        fp))
        for wp in path)
    runtime = time.perf_counter() - t0
    ok = (corner_err < 1e-9 and alts == [1.5, 4.5, 7.5] and rays_hit
          and runtime < 1.0)
    line = verdict(3, ok,
                   f"corner error {corner_err:.2e} need < 1e-9, layers "
                   f"{alts}, all view rays hit: {rays_hit}, runtime "
                   f"{runtime:.3f} s need < 1")
    assert ok, line


def test_criterion_04_avoidance(obstacle_run):
    """Engagement only near a real cylinder; clearance > 0.5 m; completes."""
    cfg, result = obstacle_run
    violations = 0
    for row, engaged in zip(result.trajectory.tolist(), result.engaged):
        if not engaged:
            continue
        x, y, z = row[1:4]
        near = min((math.hypot(x - o.center_xy[0], y - o.center_xy[1])
                    - o.radius)
                   for o in cfg.obstacles if z <= o.height)
        if near >= cfg.mission.d_engage:
            violations += 1
    clearance = result.report.min_obstacle_clearance
    done = row_phases([result.trajectory[-1, 0]],
                      result.transitions) == ["Done"]
    ok = (violations == 0 and any(result.engaged) and clearance > 0.5
          and done)
    line = verdict(4, ok,
                   f"{sum(result.engaged)} engaged steps, {violations} far "
                   f"engagements need 0, min clearance {clearance:.3f} m "
                   f"need > 0.5, completed: {done}")
    assert ok, line


def test_criterion_05_capture_cadence(default_run):
    """Captures at t = 0, 10, 20, ... within 0.01 s; count is exact."""
    _, result = default_run
    worst = max(abs(rec.time - 10.0 * round(rec.time / 10.0))
                for rec in result.captures)
    expected = math.floor(result.report.inspection_duration / 10.0) + 1
    ok = worst <= 0.01 + 1e-9 and len(result.captures) == expected
    line = verdict(5, ok,
                   f"worst grid offset {worst:.4f} s need <= 0.01, "
                   f"{len(result.captures)} captures need exactly {expected}")
    assert ok, line


def test_criterion_06_coverage(coverage_run):
    """Four decals, one per face: every decal crack-sighted, 4 faults out."""
    cfg, result = coverage_run
    sightings = {d.id: 0 for d in cfg.decals}
    for rec in result.captures:
        if rec.label == LABEL_CRACK:
            for did in rec.visible_decals:
                sightings[did] += 1
    n_faults = len(result.report.faults)
    ok = all(v >= 1 for v in sightings.values()) and n_faults == 4
    line = verdict(6, ok,
                   f"crack sightings per decal {sightings} need all >= 1, "
                   f"{n_faults} faults need exactly 4")
    assert ok, line


def test_criterion_07_classifier_accuracy():
    """10^4 events through the classifier at accuracy 0.95."""
    cls = Classifier(ClassifierSpec(accuracy=0.95), seed=0)
    n = 10_000
    correct = 0
    for i in range(n):
        visible = (0,) if i % 2 == 0 else ()
        truth = LABEL_CRACK if visible else LABEL_NOT_CRACK
        correct += cls.label(visible) == truth
    acc = correct / n
    ok = 0.94 <= acc <= 0.96
    line = verdict(7, ok, f"empirical accuracy {acc:.4f} need in "
                          f"[0.94, 0.96]")
    assert ok, line


def test_criterion_08_fault_localization(default_run, obstacle_run):
    """Each detection leg ends within 0.5 m / 5 deg of the logged pose."""
    worst_pos = 0.0
    worst_yaw = 0.0
    legs = 0
    for _, result in (default_run, obstacle_run):
        faults = result.report.faults
        for fid, _, pos, yaw in result.hold_end_poses:
            fault = faults[fid]
            worst_pos = max(worst_pos, v_dist(pos, fault.position))
            worst_yaw = max(worst_yaw,
                            abs(wrap_angle(yaw - fault.yaw)))
            legs += 1
    ok = (legs > 0 and worst_pos < 0.5
          and worst_yaw < math.radians(5.0))
    line = verdict(8, ok,
                   f"{legs} legs, worst position error {worst_pos:.3f} m "
                   f"need < 0.5, worst yaw error "
                   f"{math.degrees(worst_yaw):.2f} deg need < 5")
    assert ok, line


def _minors_ok(P, tol=-1e-9):
    m1 = P[0][0]
    m2 = P[0][0] * P[1][1] - P[0][1] * P[1][0]
    m3 = (P[0][0] * (P[1][1] * P[2][2] - P[1][2] * P[2][1])
          - P[0][1] * (P[1][0] * P[2][2] - P[1][2] * P[2][0])
          + P[0][2] * (P[1][0] * P[2][1] - P[1][1] * P[2][0]))
    return m1 >= tol and m2 >= tol and m3 >= tol


def test_criterion_09_filter_unit_suites():
    """Covariance health, Joseph equivalence, blend identities, convergence."""
    rng = np.random.default_rng(2024)
    # 1e5 predict/update cycles: symmetric and PSD throughout
    psd_ok = True
    cycles = 0
    state = None
    cfg = None
    while cycles < 100_000:
        if cycles % 10_000 == 0:
            q = rng.uniform(1e-8, 0.1, 3)
            r = rng.uniform(1e-3, 0.5)
            cfg = KalmanConfig(q=tuple(q), r=r)
            state = KalmanState(x=(0.0, 0.0, 0.0), P=diag3(*cfg.p0))
        state = kalman_predict(state, cfg, DT)
        state = kalman_update(state, (rng.uniform(-3, 3), rng.uniform(-3, 3)),
                              cfg)
        P = state.P
        sym = all(P[i][j] == P[j][i] for i in range(3) for j in range(3))
        if not (sym and _minors_ok(P)):
            psd_ok = False
            break
        cycles += 1

    # Joseph-form equivalence on random covariances
    H = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    joseph_worst = 0.0
    for _ in range(1000):
        A = rng.uniform(-1, 1, (3, 3))
        P = A @ A.T + 0.1 * np.eye(3)
        x = rng.uniform(-5, 5, 3)
        r = rng.uniform(0.01, 0.5)
        z = rng.uniform(-3, 3, 2)
        kcfg = KalmanConfig(q=(1e-6, 1e-4, 1e-2), r=r)
        out = kalman_update(KalmanState(x=tuple(x), P=tuple(map(tuple, P))),
                            tuple(z), kcfg)
        S = H @ P @ H.T + r * np.eye(2)
        K = P @ H.T @ np.linalg.inv(S)
        IKH = np.eye(3) - K @ H
        jP = IKH @ P @ IKH.T + K @ (r * np.eye(2)) @ K.T
        joseph_worst = max(joseph_worst,
                           float(np.max(np.abs(np.array(out.P) - jP))))
    joseph_ok = joseph_worst <= 1e-8

    # alpha = 1: measurements must not influence the output at all
    prev = AttitudeEstimate.level(0.0)
    gyro = (0.02, -0.01, 0.3)
    a = complementary_step(prev, ImuSample(gyro, (0, 0, GRAVITY), (1, 0, 0)),
                           ComplementaryGain(1.0), DT)
    b = complementary_step(prev, ImuSample(gyro, (5.0, -7.0, 3.0),
                                           (0, 0, -1)),
                           ComplementaryGain(1.0), DT)
    pure_gyro_ok = a == b and a.yaw == pytest.approx(0.3 * DT, abs=1e-15)

    # alpha = 0: the gyro must not influence the output at all
    q = quat_from_euler(0.1, -0.2, 0.6)
    sample = ImuSample((9.0, 9.0, 9.0),
                       quat_rotate_inverse(q, (0.0, 0.0, GRAVITY)),
                       quat_rotate_inverse(q, (1.0, 0.0, 0.0)))
    quiet = ImuSample((0.0, 0.0, 0.0), sample.accel, sample.mag)
    c = complementary_step(prev, sample, ComplementaryGain(0.0), DT)
    d = complementary_step(prev, quiet, ComplementaryGain(0.0), DT)
    pure_meas_ok = (c == d and c.roll == pytest.approx(0.1, abs=1e-9)
                    and c.pitch == pytest.approx(-0.2, abs=1e-9)
                    and c.yaw == pytest.approx(0.6, abs=1e-9))

    # stationary convergence: offset start pulled level within 0.1 deg
    est = AttitudeEstimate(math.radians(5.0), math.radians(-3.0), 0.0,
                           quat_from_euler(math.radians(5.0),
                                           math.radians(-3.0), 0.0))
    level_q = quat_from_euler(0.0, 0.0, 0.0)
    still = ImuSample((0.0, 0.0, 0.0),
                      quat_rotate_inverse(level_q, (0.0, 0.0, GRAVITY)),
                      (1.0, 0.0, 0.0))
    for _ in range(2000):
        est = complementary_step(est, still, ComplementaryGain(0.98), DT)
    conv_ok = (abs(est.roll) < math.radians(0.1)
               and abs(est.pitch) < math.radians(0.1))

    ok = psd_ok and joseph_ok and pure_gyro_ok and pure_meas_ok and conv_ok
    line = verdict(9, ok,
                   f"psd cycles ok: {psd_ok} ({cycles}), joseph worst "
                   f"{joseph_worst:.2e} need <= 1e-8, alpha=1 identity: "
                   f"{pure_gyro_ok}, alpha=0 identity: {pure_meas_ok}, "
                   f"residual tilt {math.degrees(max(abs(est.roll), abs(est.pitch))):.4f} "
                   f"deg need < 0.1")
    assert ok, line


def test_criterion_10_determinism(config_dir, tmp_path):
    """mission --seed 7 twice: byte-identical captures, trajectory, report."""
    cfg = str(config_dir / "default.yaml")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = main(["mission", "--config", cfg, "--seed", "7",
                 "--out", str(out_a)])
    rc_b = main(["mission", "--config", cfg, "--seed", "7",
                 "--out", str(out_b)])
    same = {name: (out_a / name).read_bytes() == (out_b / name).read_bytes()
            for name in ("captures.csv", "trajectory.csv", "report.json")}
    ok = rc_a == 0 and rc_b == 0 and all(same.values())
    line = verdict(10, ok,
                   f"exit codes ({rc_a}, {rc_b}), byte-identical: {same}")
    assert ok, line
