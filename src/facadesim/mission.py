"""Two-phase mission loop: inspect the whole building, then revisit faults.

A single 100 Hz clock drives sensing, estimation, control, and capture
checks.  Control closes on the estimated state everywhere; ground truth is
read only by the sensor models, the laser scan, the visibility oracle, and
the loggers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .attitude import ComplementaryGain
from .config import ScenarioConfig
from .control import (
    AvoidanceState,
    PidGains,
    PidState,
    avoidance_command,
    classify_sectors,
    track_waypoint,
)
from .errors import MissionAborted
from .estimation import DeadReckoner, InertialEstimator, KalmanConfig
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
from .sensors import Imu, SensorParams
from .vehicle import TrueState, VehicleParams, step_dynamics
from .world import simulate_scan, visible_decals


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


def _sensing(sensors: SensorParams, seed: int, kalman: KalmanConfig,
             alpha: float, start: Vec3, yaw: float, dt: float):
    """Both IMUs, the estimator and the dead reckoner of one run, as one call
    per step: true state -> (estimate, dead-reckoning position)."""
    imu1 = Imu(sensors, seed, imu_id=0)
    imu2 = Imu(sensors, seed, imu_id=1)
    estimator = InertialEstimator(kalman, ComplementaryGain(alpha), start,
                                  initial_yaw=yaw, dt=dt)
    reckoner = DeadReckoner(start, quat_from_euler(0.0, 0.0, yaw), dt=dt)

    def sense(true: TrueState):
        s1 = imu1.measure(true)   # IMU 1 alone drives attitude and DR
        return estimator.step(s1, imu2.measure(true)), reckoner.step(s1)

    return sense


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
    sense = _sensing(cfg.sensors, seed, cfg.kalman(), cfg.alpha, home,
                     home_yaw, dt)
    classifier = Classifier(cfg.classifier, extra_entropy=seed)
    true = TrueState.at_rest(home, yaw=home_yaw)

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
    track_state = PidState()
    avoid_state = AvoidanceState()
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
        est, dr_pos = sense(true)

        if phase in (MissionPhase.INSPECTING, MissionPhase.RETURNING_HOME):
            if capture_tick(t, last_capture, mp.capture_interval_s):
                last_capture = t
                seen = tuple(visible_decals(scene, true, camera))
                label = classifier.label(seen)
                captures.append(CaptureRecord(
                    image_id=f"img_{len(captures):06d}", time=t,
                    est_position=est.position, est_quat=est.attitude.quat,
                    visible_decals=seen, label=label))

        # phase machine; a single step may retire several coincident waypoints
        progressed = True
        while progressed and phase is not MissionPhase.DONE:
            progressed = False
            if phase is MissionPhase.HOLDING:
                if t >= hold_until - 1e-9:
                    detection_durations.append(t - leg_start)
                    hold_end_poses.append(
                        (detect_i, t, true.position, yaw_of(true.attitude)))
                    detect_i += 1
                    if detect_i < len(fault_poses):
                        pos, yaw = fault_poses[detect_i]
                        leg_start = t
                        start_leg(t, est.position, pos, yaw)
                        shift(MissionPhase.DETECTING, t)
                    else:
                        home_leg = True
                        wps = [
                            Waypoint((home[0], home[1], est.position[2]),
                                     home_yaw, -1),
                            Waypoint((home[0], home[1], 0.0), home_yaw, -1),
                        ]
                        idx = 0
                        last_advance = t
                        shift(MissionPhase.DETECTING, t)
                    progressed = True
                continue
            wp = wps[idx]
            if v_dist(est.position, wp.position) >= mp.arrival_tol:
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
                    start_leg(t, est.position, pos, yaw)
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

        trajectory.append((t,) + true.position + est.position + dr_pos
                          + (phase.value,))
        if phase is MissionPhase.DONE:
            break

        if t - last_advance > mp.watchdog_s:
            raise MissionAborted(
                f"waypoint {idx} not reached within {mp.watchdog_s:.0f} s "
                f"(phase {phase.value}, t={t:.2f} s)",
                time=t, phase=phase.value, waypoint_index=idx,
                position=true.position)

        scan = simulate_scan(scene, true, n_bins=cfg.scan_n_bins,
                             range_max=cfg.scan_range_max, reach=mp.d_engage)
        sectors = classify_sectors(scan, mask, est.position,
                                   est.attitude.yaw, mp.d_engage)
        cmd, avoid_state = avoidance_command(sectors, cfg.gains, avoid_state,
                                             dt, cfg.vehicle.v_max)
        if cmd is None:
            cmd, track_state = track_waypoint(
                est, wps[idx], cfg.gains, track_state, dt,
                v_max=cfg.vehicle.v_max, kp_yaw=mp.kp_yaw,
                yaw_rate_max=cfg.vehicle.yaw_rate_max)
            engaged.append(False)
        else:
            track_state = PidState()
            engaged.append(True)

        if scene.obstacles:
            clearances.append(tuple(_cylinder_clearance(o, true.position)
                                    for o in scene.obstacles))
        if not entered_fp and true.position[2] <= scene.building.height \
                and fp.contains(true.position[0], true.position[1]):
            entered_fp = True

        true = step_dynamics(true, cmd, cfg.vehicle, dt)
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

    sense = _sensing(sensors, seed, kalman, alpha, setpoint, 0.0, dt)
    true = TrueState.at_rest(setpoint, yaw=0.0)
    wp = Waypoint(setpoint, 0.0, 0)
    track_state = PidState()

    res = HoverResult(times=[], est_err=[], dr_err=[], true_err=[])
    for k in range(int(round(duration_s / dt))):
        est, dr_pos = sense(true)
        res.times.append(k * dt)
        res.est_err.append(v_dist(est.position, setpoint))
        res.dr_err.append(v_dist(dr_pos, setpoint))
        res.true_err.append(v_dist(true.position, setpoint))
        cmd, track_state = track_waypoint(est, wp, gains, track_state, dt,
                                          v_max=vehicle.v_max,
                                          yaw_rate_max=vehicle.yaw_rate_max)
        true = step_dynamics(true, cmd, vehicle, dt)
    return res
