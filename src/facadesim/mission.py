"""Two-phase mission loop: inspect the whole building, then revisit faults.

A single 100 Hz clock drives sensing, estimation, control, and capture
checks.  Control closes on the estimated state everywhere; ground truth is
read only by the sensor models, the laser scan, the visibility oracle, and
the loggers.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum

from .attitude import ComplementaryGain, _complementary
from .config import MissionParams, ScenarioConfig
from .control import (
    _FRESH_LANES,
    _FRESH_PID,
    PidGains,
    _sectors,
    _track,
    avoidance_command,
)
from .errors import MissionAborted
from .estimation import (
    InertialEstimator,
    KalmanConfig,
    _axes_step,
    _reckon,
    _to_world,
)
from .geometry import Quat, Vec3, v_dist, wrap_angle, yaw_of
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
    home_leg,
    plan_return_path,
)
from .sensors import (
    SensorParams,
    _body_fields,
    _corrupt,
    _mag_reading,
    _noise_stream,
)
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
    entered_footprint: bool
    # ground truth sampled as each fault hold expires: (fault id, t, xyz, yaw)
    hold_end_poses: list[tuple[int, float, Vec3, float]]


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


# [m] Added to the slack of `_occluders`: it covers the 1e-6 m floor of a
# scan range and the rounding of the ray and mask arithmetic (under 1e-12 m
# at scene scale).
_MASK_MARGIN = 1e-3


def _mask_insets(mask, footprint, obstacles) -> list[tuple]:
    """(solid, inset) of the solids lying wholly inside the mask.

    The inset is the least distance, along x or along y, from a point of
    the solid to the mask's edge; the footprint's is the plan's buffer.
    """
    boxes = [(footprint, *astuple(footprint))]   # (cx, cy, hx, hy)
    boxes += [(o, *o.center_xy, o.radius, o.radius) for o in obstacles]
    insets = [(solid, min(mask.hx - abs(cx - mask.cx) - hx,
                          mask.hy - abs(cy - mask.cy) - hy))
              for solid, cx, cy, hx, hy in boxes]
    return [(solid, d) for solid, d in insets if d > 0.0]


def _occluders(insets, est_pos, est_yaw: float, true_pos, true_yaw: float,
               d_engage: float) -> list:
    """The solids every return of which below d_engage maps into the mask.

    `_sectors` tests the point est + r u(est_yaw + angle) for r < d_engage.
    It lies within the slack (Chebyshev distance) of the true hit point, so
    a solid whose inset exceeds the slack only hides other solids' returns.
    """
    slack = (max(abs(est_pos[0] - true_pos[0]), abs(est_pos[1] - true_pos[1]))
             + d_engage * abs(wrap_angle(est_yaw - true_yaw)) + _MASK_MARGIN)
    return [solid for solid, d in insets if slack < d]


def _step_kernel(sensors: SensorParams, seed: int, kalman: KalmanConfig,
                 alpha: float, start: Vec3, yaw: float, dt: float,
                 gains: PidGains, vehicle: VehicleParams, kp_yaw: float):
    """One run's sense -> estimate -> track -> fly step on local scalars.

    Returns sense() -> (est position, dr position, est quat, est yaw),
    track(wp) -> (v_body, yaw_rate), reset_track() for a fresh tracking PID,
    fly(v_body, yaw_rate) -> true (position, attitude), and true_state() for
    the whole true state.  They call the private cores that Imu.measure,
    InertialEstimator.step, DeadReckoner.step, track_waypoint and
    step_dynamics wrap, so they equal composing those.  Both IMUs read one
    pair of world -> body rotations, and IMU 2's gyro and magnetometer,
    which nothing reads, are skipped.  The Kalman gains come from the
    estimator's replayed schedule, so a step updates only the three axes.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    noise1, noise2 = _noise_stream(seed, 0), _noise_stream(seed, 1)
    est = InertialEstimator(kalman, ComplementaryGain(alpha), start,
                            initial_yaw=yaw, dt=dt)
    pos, vel, att, rates, accel, t_true = astuple(
        TrueState.at_rest(start, yaw=yaw))
    gb, sg, ab, sa, sm = (sensors.gyro_bias, sensors.gyro_noise_std,
                          sensors.accel_bias, sensors.accel_noise_std,
                          sensors.mag_noise_std)
    h, lag = 0.5 * dt * dt, _lag(vehicle.tau, dt)
    v_max, yaw_rate_max = vehicle.v_max, vehicle.yaw_rate_max
    roll, pitch, yaw, quat, _ = astuple(est.attitude)
    axes, next_gain = est.axes, est._gains.__next__
    dr_quat, dr_pos, dr_vel, dr_accel = att, start, vel, None   # at rest
    pid = _FRESH_PID

    def sense():
        nonlocal roll, pitch, yaw, quat, axes
        nonlocal dr_quat, dr_pos, dr_vel, dr_accel
        f, m = _body_fields(att, accel)
        n = next(noise1)   # IMU 1 alone drives attitude and dead reckoning
        gyro = _corrupt(rates, gb, sg, n, 0)
        acc1 = _corrupt(f, ab, sa, n, 3)
        mag = _mag_reading(m, sm, n, 6)
        acc2 = _corrupt(f, ab, sa, next(noise2), 3)
        roll, pitch, yaw, quat = _complementary(roll, pitch, yaw, gyro, acc1,
                                                mag, alpha, dt)
        axes = _axes_step(next_gain(), axes, _to_world(quat, acc1),
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
        pid = _FRESH_PID

    def fly(v_body: Vec3, yaw_rate: float) -> tuple[Vec3, Quat]:
        nonlocal pos, vel, att, rates, accel, t_true
        pos, vel, att, rates, accel = _fly(pos, vel, att, v_body, yaw_rate,
                                           vehicle, lag, dt)
        t_true += dt
        return pos, att

    def true_state() -> TrueState:
        return TrueState(pos, vel, att, rates, accel, t_true)

    return sense, track, reset_track, fly, true_state


def run_mission(cfg: ScenarioConfig, seed: int | None = None,
                inspection_only: bool = False) -> MissionResult:
    seed = cfg.seed if seed is None else seed
    scene = cfg.scene()
    fp = scene.building.footprint()
    mask = avoidance_polygon(cfg.building, cfg.plan)
    insets = _mask_insets(mask, fp, scene.obstacles)
    camera = cfg.camera()
    mp = cfg.mission
    dt = mp.dt
    home = cfg.home
    home_yaw = facing_yaw(fp, home[0], home[1])

    sense, track, reset_track, fly, true_state = _step_kernel(
        cfg.sensors, seed, cfg.kalman(), cfg.alpha, home, home_yaw, dt,
        cfg.gains, cfg.vehicle, mp.kp_yaw)
    classifier = Classifier(cfg.classifier, extra_entropy=seed)

    phase = MissionPhase.INSPECTING
    transitions = [(0.0, MissionPhase.IDLE.value, phase.value)]
    wps = generate_perimeter_path(cfg.building, cfg.plan, home)
    idx = 0
    last_advance = 0.0
    last_capture = -mp.capture_interval_s
    captures: list[CaptureRecord] = []
    fault_poses: list[tuple[Vec3, float]] = []
    detect_i = 0
    leg_start = 0.0
    hold_until = 0.0
    inspection_duration = 0.0
    detection_durations: list[float] = []
    trajectory: list[tuple] = []
    engaged: list[bool] = []
    hold_end_poses: list[tuple[int, float, Vec3, float]] = []
    entered_fp = False
    lanes = _FRESH_LANES
    scan_step = (SCAN_ANGLE_MAX - SCAN_ANGLE_MIN) / (cfg.scan_n_bins - 1)
    true_pos, true_att = home, true_state().attitude
    steps = 0
    min_clear = math.inf   # until a step is taken among obstacles

    def shift(to: MissionPhase, t: float) -> None:
        nonlocal phase
        transitions.append((t, phase.value, to.value))
        phase = to

    def next_leg(t: float, start: Vec3) -> None:
        """Fly to fault detect_i's capture pose, or home after the last."""
        nonlocal wps, idx, last_advance, leg_start
        if detect_i < len(fault_poses):
            wps = plan_return_path(start, *fault_poses[detect_i])
        else:
            wps = home_leg(home, home_yaw, start[2])
        idx = 0
        last_advance = leg_start = t
        shift(MissionPhase.DETECTING, t)

    while True:
        t = steps * dt
        est_pos, dr_pos, est_quat, est_yaw = sense()

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
        while phase is not MissionPhase.DONE:
            if phase is MissionPhase.HOLDING:
                if t < hold_until - 1e-9:
                    break
                detection_durations.append(t - leg_start)
                hold_end_poses.append(
                    (detect_i, t, true_pos, yaw_of(true_att)))
                detect_i += 1
                next_leg(t, est_pos)
                continue
            if v_dist(est_pos, wps[idx].position) >= mp.arrival_tol:
                break
            last_advance = t
            if idx + 1 < len(wps):
                idx += 1
                if (phase is MissionPhase.INSPECTING
                        and wps[idx].layer == -1):
                    shift(MissionPhase.RETURNING_HOME, t)
            elif phase is MissionPhase.DETECTING:
                if detect_i < len(fault_poses):
                    hold_until = t + mp.hold_s
                    shift(MissionPhase.HOLDING, t)
                else:
                    shift(MissionPhase.DONE, t)
            else:   # the inspection ring and its return leg are flown
                inspection_duration = t
                fault_poses = filter_fault_coordinates(captures,
                                                       mp.merge_radius)
                if fault_poses and not inspection_only:
                    next_leg(t, est_pos)
                else:
                    shift(MissionPhase.DONE, t)

        trajectory.append((t,) + true_pos + est_pos + dr_pos
                          + (phase.value,))
        if phase is MissionPhase.DONE:
            break

        # a hold is not a leg: next_leg restarts the watchdog when it ends
        if (phase is not MissionPhase.HOLDING
                and t - last_advance > mp.watchdog_s):
            raise MissionAborted(
                f"waypoint {idx} not reached within {mp.watchdog_s:.0f} s "
                f"(phase {phase.value}, t={t:.2f} s)",
                time=t, phase=phase.value, waypoint_index=idx,
                position=true_pos)

        hits = _scan_hits(scene, fp, *true_pos, true_att, SCAN_ANGLE_MIN,
                          SCAN_ANGLE_MAX, cfg.scan_n_bins, cfg.scan_range_max,
                          mp.d_engage,
                          insets and _occluders(insets, est_pos, est_yaw,
                                                true_pos, yaw_of(true_att),
                                                mp.d_engage))
        sectors = _sectors(hits, SCAN_ANGLE_MIN, scan_step, mask, est_pos[0],
                           est_pos[1], est_yaw, mp.d_engage)
        cmd, lanes = avoidance_command(sectors, cfg.gains, lanes, dt,
                                       cfg.vehicle.v_max)
        if cmd is None:
            v_body, yaw_rate = track(wps[idx])
            engaged.append(False)
        else:
            reset_track()
            v_body, yaw_rate = cmd, 0.0
            engaged.append(True)

        for o in scene.obstacles:
            min_clear = min(min_clear, _cylinder_clearance(o, true_pos))
        if not entered_fp and true_pos[2] <= scene.building.height \
                and fp.contains(true_pos[0], true_pos[1]):
            entered_fp = True

        true_pos, true_att = fly(v_body, yaw_rate)
        steps += 1

    report = MissionReport(
        faults=tuple(FaultEntry(i, p, y)
                     for i, (p, y) in enumerate(fault_poses)),
        inspection_duration=inspection_duration,
        detection_durations=tuple(detection_durations),
        min_obstacle_clearance=min_clear if min_clear < math.inf else None,
    )
    return MissionResult(report=report, captures=tuple(captures),
                         trajectory=trajectory, transitions=transitions,
                         engaged=engaged,
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
              alpha: float = ComplementaryGain.alpha) -> HoverResult:
    """Hold a hover at (0, 0, 2) with control closed on the Kalman estimate.

    The drone starts at rest on the setpoint; both estimators start exact.
    Sensors, gains, plant, filter and dt are the defaults a scenario gets.
    Deviation of each position pipeline from the setpoint is the hover
    position error.
    """
    dt = MissionParams.dt
    if not (0 < duration_s < math.inf and round(duration_s / dt) >= 1):
        raise ValueError(f"duration_s must be finite and round to at least "
                         f"one step of {dt} s, got {duration_s}")
    sensors = SensorParams()
    setpoint = (0.0, 0.0, 2.0)
    sense, track, _, fly, _ = _step_kernel(
        sensors, seed, KalmanConfig.for_accel_noise(sensors.accel_noise_std),
        alpha, setpoint, 0.0, dt, PidGains(), VehicleParams(),
        MissionParams.kp_yaw)
    wp = Waypoint(setpoint, 0.0, 0)
    true_pos = setpoint

    res = HoverResult(times=[], est_err=[], dr_err=[], true_err=[])
    for k in range(round(duration_s / dt)):
        est_pos, dr_pos, _, _ = sense()
        res.times.append(k * dt)
        res.est_err.append(v_dist(est_pos, setpoint))
        res.dr_err.append(v_dist(dr_pos, setpoint))
        res.true_err.append(v_dist(true_pos, setpoint))
        true_pos, _ = fly(*track(wp))
    return res
