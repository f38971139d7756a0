"""Two-phase mission loop: inspect the whole building, then revisit faults.

A single 100 Hz clock drives sensing, estimation, control, and capture
checks.  Control closes on the estimated state everywhere; ground truth is
read only by the sensor models, the laser scan, the visibility oracle, and
the loggers.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from enum import Enum

from .attitude import ComplementaryGain, _complementary
from .config import MissionParams, ScenarioConfig
from .control import (
    _FRESH_AVOIDANCE,
    PidGains,
    PidState,
    _sectors,
    _track,
    avoidance_command,
)
from .errors import MissionAborted
from .estimation import (
    DeadReckoner,
    InertialEstimator,
    KalmanConfig,
    _filter,
    _reckon,
    _to_world,
)
from .geometry import Vec3, quat_from_euler, v_dist, yaw_of
from .perception import (
    CaptureRecord,
    Classifier,
    capture_tick,
    filter_fault_coordinates,
)
from .planner import (
    Waypoint,
    avoidance_polygon,
    facing_yaw,
    generate_perimeter_path,
    plan_return_path,
)
from .sensors import Imu, SensorParams, _body_fields, _corrupt, _mag_reading
from .vehicle import TrueState, VehicleParams, _fly, _lag
from .world import SCAN_ANGLE_MAX, SCAN_ANGLE_MIN, _scan_hits, visible_decals

# The loop calls the cores of these four, but they stay names of this module:
# perfbench/workloads.py wraps them here in its traced runs.
from .control import classify_sectors, track_waypoint  # noqa: F401
from .vehicle import step_dynamics  # noqa: F401
from .world import simulate_scan  # noqa: F401


class MissionPhase(Enum):
    IDLE = "Idle"
    INSPECTING = "Inspecting"
    RETURNING_HOME = "ReturningHome"
    DETECTING = "Detecting"
    HOLDING = "Holding"
    DONE = "Done"


@dataclass(frozen=True)
class FaultEntry:
    id: int
    position: Vec3   # estimated pose logged at capture time
    yaw: float


@dataclass(frozen=True)
class MissionReport:
    faults: tuple[FaultEntry, ...]
    inspection_duration: float
    detection_durations: tuple[float, ...]
    min_obstacle_clearance: float | None   # None when the scene has none


@dataclass
class MissionResult:
    report: MissionReport
    captures: tuple[CaptureRecord, ...]
    # rows: (t, true xyz, est xyz, dead-reckoning xyz, phase name)
    trajectory: list[tuple]
    transitions: list[tuple[float, str, str]]
    engaged: list[bool]                    # avoidance active, per step
    clearances: list[tuple[float, ...]]    # per obstacle, per step
    entered_footprint: bool
    # ground truth sampled as each fault hold expires: (fault id, t, xyz, yaw)
    hold_end_poses: list[tuple[int, float, Vec3, float]] = field(
        default_factory=list)


def _cylinder_clearance(o, p: Vec3) -> float:
    dx = p[0] - o.center_xy[0]
    dy = p[1] - o.center_xy[1]
    horiz = math.sqrt(dx * dx + dy * dy) - o.radius
    dz = p[2] - o.height
    if horiz <= 0.0:
        return max(0.0, dz) if dz > 0.0 else 0.0
    if dz <= 0.0:
        return horiz
    return math.sqrt(horiz * horiz + dz * dz)


def _step_kernel(sensors: SensorParams, seed: int, kalman: KalmanConfig,
                 alpha: float, start: Vec3, yaw: float, dt: float,
                 gains: PidGains, vehicle: VehicleParams, kp_yaw: float):
    """One run's sense -> estimate -> track -> fly step on local scalars.

    Returns sense() -> (est position, dr position, est quat, est yaw),
    track(wp) -> (v_body, yaw_rate), reset_track() for a fresh tracking PID,
    fly(v_body, yaw_rate) -> true position, and true_state() (with
    pose_only=True, just the true (position, attitude)).  They call the
    private cores that Imu.measure, InertialEstimator.step,
    DeadReckoner.step, track_waypoint and step_dynamics wrap, so they equal
    composing those.  Both IMUs read one pair of world -> body rotations,
    and IMU 2's gyro and magnetometer, which nothing reads, are skipped.
    """
    noise1 = Imu(sensors, seed, imu_id=0)._noise
    noise2 = Imu(sensors, seed, imu_id=1)._noise
    est = InertialEstimator(kalman, ComplementaryGain(alpha), start,
                            initial_yaw=yaw, dt=dt)
    dr = DeadReckoner(start, quat_from_euler(0.0, 0.0, yaw), dt=dt)
    pos, vel, att, rates, accel, t_true = astuple(
        TrueState.at_rest(start, yaw=yaw))
    gb, sg, ab, sa, sm = (sensors.gyro_bias, sensors.gyro_noise_std,
                          sensors.accel_bias, sensors.accel_noise_std,
                          sensors.mag_noise_std)
    h, lag, R, q = 0.5 * dt * dt, _lag(vehicle.tau, dt), kalman.R, est._q
    v_max, yaw_rate_max = vehicle.v_max, vehicle.yaw_rate_max
    roll, pitch, yaw, quat, _ = astuple(est.attitude)
    col, row, axes = est._col, est._row, est.axes
    dr_quat, dr_pos, dr_vel = dr.quat, dr.position, dr.velocity
    dr_accel = dr._prev_accel
    pid = fresh_pid = astuple(PidState())

    def sense():
        nonlocal roll, pitch, yaw, quat, col, row, axes
        nonlocal dr_quat, dr_pos, dr_vel, dr_accel
        f, m = _body_fields(att, accel)
        n = next(noise1)   # IMU 1 alone drives attitude and dead reckoning
        gyro = _corrupt(rates, gb, sg, n, 0)
        acc1 = _corrupt(f, ab, sa, n, 3)
        mag = _mag_reading(m, sm, n, 6)
        acc2 = _corrupt(f, ab, sa, next(noise2), 3)
        roll, pitch, yaw, quat = _complementary(roll, pitch, yaw, gyro, acc1,
                                                mag, alpha, dt)
        col, row, axes = _filter(col, row, q, R, axes, _to_world(quat, acc1),
                                 _to_world(quat, acc2), dt, h)
        dr_quat, dr_pos, dr_vel, dr_accel = _reckon(
            dr_quat, dr_pos, dr_vel, dr_accel, gyro, acc1, dt)
        return (axes[0][0], axes[1][0], axes[2][0]), dr_pos, quat, yaw

    def track(wp: Waypoint):
        nonlocal pid
        v_body, yaw_rate, pid = _track(
            (axes[0][0], axes[1][0], axes[2][0]), quat, yaw, wp, gains, pid,
            dt, v_max, kp_yaw, yaw_rate_max)
        return v_body, yaw_rate

    def reset_track() -> None:
        nonlocal pid
        pid = fresh_pid

    def fly(v_body: Vec3, yaw_rate: float) -> Vec3:
        nonlocal pos, vel, att, rates, accel, t_true
        pos, vel, att, rates, accel = _fly(pos, vel, att, v_body, yaw_rate,
                                           vehicle, lag, dt)
        t_true += dt
        return pos

    def true_state(pose_only: bool = False):
        if pose_only:
            return pos, att
        return TrueState(pos, vel, att, rates, accel, t_true)

    return sense, track, reset_track, fly, true_state


def run_mission(cfg: ScenarioConfig, seed: int | None = None,
                inspection_only: bool = False) -> MissionResult:
    seed = cfg.seed if seed is None else seed
    scene = cfg.scene()
    fp = scene.building.footprint()
    mask = avoidance_polygon(cfg.building, cfg.plan)
    camera = cfg.camera()
    mp = cfg.mission
    dt = mp.dt
    home = cfg.home
    home_yaw = facing_yaw(fp, home[0], home[1])

    path = generate_perimeter_path(cfg.building, cfg.plan, home)
    sense, track, reset_track, fly, true_state = _step_kernel(
        cfg.sensors, seed, cfg.kalman(), cfg.alpha, home, home_yaw, dt,
        cfg.gains, cfg.vehicle, mp.kp_yaw)
    classifier = Classifier(cfg.classifier, extra_entropy=seed)

    phase = MissionPhase.INSPECTING
    transitions = [(0.0, MissionPhase.IDLE.value, phase.value)]
    wps: list[Waypoint] = list(path)
    idx = 0
    last_advance = 0.0
    last_capture = -mp.capture_interval_s
    captures: list[CaptureRecord] = []
    fault_poses: list[tuple[Vec3, float]] = []
    faults: list[FaultEntry] = []
    detect_i = 0
    leg_start = 0.0
    home_leg = False
    hold_until = 0.0
    inspection_duration = 0.0
    detection_durations: list[float] = []
    trajectory: list[tuple] = []
    engaged: list[bool] = []
    clearances: list[tuple[float, ...]] = []
    hold_end_poses: list[tuple[int, float, Vec3, float]] = []
    entered_fp = False
    avoid_state = _FRESH_AVOIDANCE
    scan_step = (SCAN_ANGLE_MAX - SCAN_ANGLE_MIN) / (cfg.scan_n_bins - 1)
    steps = 0

    def shift(to: MissionPhase, t: float) -> None:
        nonlocal phase
        transitions.append((t, phase.value, to.value))
        phase = to

    def start_leg(t: float, start: Vec3, target: Vec3, yaw: float) -> None:
        nonlocal wps, idx, last_advance
        wps = list(plan_return_path(start, target, yaw))
        idx = 0
        last_advance = t

    while phase is not MissionPhase.DONE:
        t = steps * dt
        est_pos, dr_pos, est_quat, est_yaw = sense()
        true_pos, true_att = true_state(pose_only=True)

        if phase in (MissionPhase.INSPECTING, MissionPhase.RETURNING_HOME):
            if capture_tick(t, last_capture, mp.capture_interval_s):
                last_capture = t
                seen = tuple(visible_decals(scene, true_state(), camera))
                label = classifier.label(seen)
                captures.append(CaptureRecord(
                    image_id=f"img_{len(captures):06d}", time=t,
                    est_position=est_pos, est_quat=est_quat,
                    visible_decals=seen, label=label))

        # phase machine; a single step may retire several coincident waypoints
        progressed = True
        while progressed and phase is not MissionPhase.DONE:
            progressed = False
            if phase is MissionPhase.HOLDING:
                if t >= hold_until - 1e-9:
                    detection_durations.append(t - leg_start)
                    hold_end_poses.append(
                        (detect_i, t, true_pos, yaw_of(true_att)))
                    detect_i += 1
                    if detect_i < len(fault_poses):
                        pos, yaw = fault_poses[detect_i]
                        leg_start = t
                        start_leg(t, est_pos, pos, yaw)
                        shift(MissionPhase.DETECTING, t)
                    else:
                        home_leg = True
                        wps = [
                            Waypoint((home[0], home[1], est_pos[2]),
                                     home_yaw, -1),
                            Waypoint((home[0], home[1], 0.0), home_yaw, -1),
                        ]
                        idx = 0
                        last_advance = t
                        shift(MissionPhase.DETECTING, t)
                    progressed = True
                continue
            wp = wps[idx]
            if v_dist(est_pos, wp.position) >= mp.arrival_tol:
                continue
            if idx + 1 < len(wps):
                idx += 1
                last_advance = t
                progressed = True
                if (phase is MissionPhase.INSPECTING
                        and wps[idx].layer == -1):
                    shift(MissionPhase.RETURNING_HOME, t)
                continue
            last_advance = t
            if phase in (MissionPhase.INSPECTING, MissionPhase.RETURNING_HOME):
                inspection_duration = t
                fault_poses = filter_fault_coordinates(captures,
                                                       mp.merge_radius)
                faults = [FaultEntry(i, p, y)
                          for i, (p, y) in enumerate(fault_poses)]
                if fault_poses and not inspection_only:
                    pos, yaw = fault_poses[0]
                    detect_i = 0
                    leg_start = t
                    start_leg(t, est_pos, pos, yaw)
                    shift(MissionPhase.DETECTING, t)
                    progressed = True
                else:
                    shift(MissionPhase.DONE, t)
            elif phase is MissionPhase.DETECTING:
                if home_leg:
                    shift(MissionPhase.DONE, t)
                else:
                    hold_until = t + mp.hold_s
                    shift(MissionPhase.HOLDING, t)
                    progressed = True

        trajectory.append((t,) + true_pos + est_pos + dr_pos
                          + (phase.value,))
        if phase is MissionPhase.DONE:
            break

        if t - last_advance > mp.watchdog_s:
            raise MissionAborted(
                f"waypoint {idx} not reached within {mp.watchdog_s:.0f} s "
                f"(phase {phase.value}, t={t:.2f} s)",
                time=t, phase=phase.value, waypoint_index=idx,
                position=true_pos)

        hits = _scan_hits(scene, fp, *true_pos, true_att, SCAN_ANGLE_MIN,
                          SCAN_ANGLE_MAX, cfg.scan_n_bins, cfg.scan_range_max,
                          mp.d_engage)
        sectors = _sectors(hits, SCAN_ANGLE_MIN, scan_step, mask, est_pos[0],
                           est_pos[1], est_yaw, mp.d_engage)
        cmd, avoid_state = avoidance_command(sectors, cfg.gains, avoid_state,
                                             dt, cfg.vehicle.v_max)
        if cmd is None:
            v_body, yaw_rate = track(wps[idx])
            engaged.append(False)
        else:
            reset_track()
            v_body, yaw_rate = cmd.v_body, cmd.yaw_rate
            engaged.append(True)

        if scene.obstacles:
            clearances.append(tuple(_cylinder_clearance(o, true_pos)
                                    for o in scene.obstacles))
        if not entered_fp and true_pos[2] <= scene.building.height \
                and fp.contains(true_pos[0], true_pos[1]):
            entered_fp = True

        fly(v_body, yaw_rate)
        steps += 1

    min_clear = None
    if clearances:
        min_clear = min(min(c) for c in clearances)
    report = MissionReport(
        faults=tuple(faults),
        inspection_duration=inspection_duration,
        detection_durations=tuple(detection_durations),
        min_obstacle_clearance=min_clear,
    )
    return MissionResult(report=report, captures=tuple(captures),
                         trajectory=trajectory, transitions=transitions,
                         engaged=engaged, clearances=clearances,
                         entered_footprint=entered_fp,
                         hold_end_poses=hold_end_poses)


@dataclass
class HoverResult:
    """Station-keeping traces: distance of each pipeline from the setpoint."""

    times: list[float]
    est_err: list[float]     # Kalman estimate vs setpoint
    dr_err: list[float]      # dead-reckoning vs setpoint
    true_err: list[float]    # ground truth vs setpoint


def run_hover(duration_s: float = 120.0, seed: int = 0,
              sensors: SensorParams | None = None,
              setpoint: Vec3 = (0.0, 0.0, 2.0), dt: float = 0.01,
              gains: PidGains | None = None, alpha: float = 0.98,
              kalman: KalmanConfig | None = None,
              vehicle: VehicleParams | None = None) -> HoverResult:
    """Hold a hover setpoint with control closed on the Kalman estimate.

    The drone starts at rest on the setpoint; both estimators start exact.
    Deviation of each position pipeline from the setpoint is the hover
    position error.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    sensors = sensors if sensors is not None else SensorParams()
    gains = gains if gains is not None else PidGains()
    vehicle = vehicle if vehicle is not None else VehicleParams()
    if kalman is None:
        kalman = KalmanConfig.for_accel_noise(sensors.accel_noise_std)

    sense, track, _, fly, _ = _step_kernel(
        sensors, seed, kalman, alpha, setpoint, 0.0, dt, gains, vehicle,
        MissionParams.kp_yaw)
    wp = Waypoint(setpoint, 0.0, 0)
    true_pos = setpoint

    res = HoverResult(times=[], est_err=[], dr_err=[], true_err=[])
    for k in range(int(round(duration_s / dt))):
        est_pos, dr_pos, _, _ = sense()
        res.times.append(k * dt)
        res.est_err.append(v_dist(est_pos, setpoint))
        res.dr_err.append(v_dist(dr_pos, setpoint))
        res.true_err.append(v_dist(true_pos, setpoint))
        true_pos = fly(*track(wp))
    return res
