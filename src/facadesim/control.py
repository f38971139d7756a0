"""Waypoint tracking PID and the reactive obstacle-avoidance override.

One deterministic control decision is made per simulation step: if any laser
sector is active after masking out the building, the avoidance command fully
replaces the tracking command; tracking resumes the step all sectors clear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimation import EstimatedState
from .geometry import Quat, Rect, Vec3, quat_rotate_inverse, wrap_angle
from .planner import Waypoint
from .vehicle import VelocityCommand
from .world import LaserScan

D_ENGAGE = 3.0          # [m] sector activation threshold
SECTOR_EDGE = math.pi / 4.0   # front is |angle| <= 45 deg


@dataclass(frozen=True)
class PidGains:
    kp: float = 1.00
    ki: float = 0.0001
    kd: float = 0.5

    def __post_init__(self) -> None:
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ValueError("PID gains must be non-negative")


@dataclass(frozen=True)
class PidState:
    integral: float = 0.0
    prev_error: float = 0.0
    initialized: bool = False


def _pid(gains: PidGains, pid: tuple[float, float, bool], error: float,
         dt: float, i_max: float = 100.0) -> tuple[float, tuple]:
    """Output and the next (integral, prev_error, initialized) of a PID."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    integral, prev_error, initialized = pid
    integral = integral + error * dt
    integral = max(-i_max, min(i_max, integral))
    prev = error if not initialized else prev_error
    derivative = (error - prev) / dt
    out = gains.kp * error + gains.ki * integral + gains.kd * derivative
    return out, (integral, error, True)


def pid_step(gains: PidGains, state: PidState, error: float, dt: float,
             i_max: float = 100.0) -> tuple[float, PidState]:
    out, pid = _pid(gains, (state.integral, state.prev_error,
                            state.initialized), error, dt, i_max)
    return out, PidState(*pid)


def _track(position: Vec3, quat: Quat, yaw: float, wp: Waypoint,
           gains: PidGains, pid: tuple, dt: float, v_max: float,
           kp_yaw: float, yaw_rate_max: float) -> tuple[Vec3, float, tuple]:
    """(v_body, yaw_rate, next PID state) toward wp from the estimate."""
    dx = wp.position[0] - position[0]
    dy = wp.position[1] - position[1]
    dz = wp.position[2] - position[2]
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    speed, pid = _pid(gains, pid, dist, dt)
    speed = max(0.0, min(v_max, speed))
    if dist > 1e-9 and speed > 0.0:
        k = speed / dist
        v_body = quat_rotate_inverse(quat, (dx * k, dy * k, dz * k))
    else:
        v_body = (0.0, 0.0, 0.0)
    yaw_err = wrap_angle(wp.yaw - yaw)
    yaw_rate = max(-yaw_rate_max, min(yaw_rate_max, kp_yaw * yaw_err))
    return v_body, yaw_rate, pid


def track_waypoint(est: EstimatedState, wp: Waypoint, gains: PidGains,
                   state: PidState, dt: float, v_max: float = 3.0,
                   kp_yaw: float = 1.0, yaw_rate_max: float = 1.0,
                   ) -> tuple[VelocityCommand, PidState]:
    """Scalar PID on distance gives speed; direction is straight at the goal."""
    v_body, yaw_rate, pid = _track(
        est.position, est.attitude.quat, est.attitude.yaw, wp, gains,
        (state.integral, state.prev_error, state.initialized), dt, v_max,
        kp_yaw, yaw_rate_max)
    return VelocityCommand(v_body=v_body, yaw_rate=yaw_rate), PidState(*pid)


@dataclass(frozen=True)
class ObstacleSectors:
    left: bool = False
    right: bool = False
    front: bool = False
    dist_left: float = math.inf
    dist_right: float = math.inf
    dist_front: float = math.inf

    @property
    def any_active(self) -> bool:
        return self.left or self.right or self.front


_CLEAR_SECTORS = ObstacleSectors()   # frozen, so one instance serves all


def _sectors(hits, angle_min: float, step: float, mask: Rect | None,
             px: float, py: float, yaw: float,
             d_engage: float) -> ObstacleSectors:
    """Sectors from (bin, range) pairs; the core of `classify_sectors`."""
    left = right = front = False
    d_left = d_right = d_front = math.inf
    for i, r in hits:
        if r >= d_engage:
            continue
        angle = angle_min + i * step
        if mask is not None:
            w = yaw + angle
            if mask.contains(px + r * math.cos(w), py + r * math.sin(w)):
                continue
        if -SECTOR_EDGE <= angle <= SECTOR_EDGE:
            front = True
            if r < d_front:
                d_front = r
        elif angle > SECTOR_EDGE:
            left = True
            if r < d_left:
                d_left = r
        else:
            right = True
            if r < d_right:
                d_right = r
    if not (left or right or front):
        return _CLEAR_SECTORS
    return ObstacleSectors(left=left, right=right, front=front,
                           dist_left=d_left, dist_right=d_right,
                           dist_front=d_front)


def classify_sectors(scan: LaserScan, mask: Rect | None, position,
                     yaw: float, d_engage: float = D_ENGAGE,
                     ) -> ObstacleSectors:
    """Sector occupancy from sub-threshold bins, building returns masked out.

    Hit points are mapped to world coordinates through the supplied pose
    (normally the estimated one) before the mask test.  Bins at or beyond
    `d_engage` are never read, so a scan cut off at `d_engage` gives the
    same sectors as a full one.
    """
    step = (scan.angle_max - scan.angle_min) / (scan.n_bins - 1)
    return _sectors([(i, r) for i, r in enumerate(scan.ranges)
                     if r < d_engage], scan.angle_min, step, mask,
                    position[0], position[1], yaw, d_engage)


@dataclass(frozen=True)
class AvoidanceState:
    """One PID lane per sector; inactive lanes reset to fresh state."""

    left: PidState = PidState()
    right: PidState = PidState()
    front: PidState = PidState()


_FRESH_AVOIDANCE = AvoidanceState()   # frozen, so one instance serves all


def avoidance_command(sectors: ObstacleSectors, gains: PidGains,
                      state: AvoidanceState, dt: float, v_max: float = 3.0,
                      ) -> tuple[VelocityCommand | None, AvoidanceState]:
    """Repulsive body-frame command, or None when no sector is active.

    Error is 1/distance, so closer obstacles push harder.  Right obstacles
    push left (+y), left obstacles push right (-y), a front obstacle drifts
    the drone left, and all three together back it straight out (-x).
    """
    if not sectors.any_active:
        return None, _FRESH_AVOIDANCE

    out_left, st_left = ((0.0, PidState()) if not sectors.left else
                         pid_step(gains, state.left, 1.0 / sectors.dist_left,
                                  dt))
    out_right, st_right = ((0.0, PidState()) if not sectors.right else
                           pid_step(gains, state.right,
                                    1.0 / sectors.dist_right, dt))
    out_front, st_front = ((0.0, PidState()) if not sectors.front else
                           pid_step(gains, state.front,
                                    1.0 / sectors.dist_front, dt))
    new_state = AvoidanceState(left=st_left, right=st_right, front=st_front)
    # repulsion only; derivative transients must not pull toward the obstacle
    out_left = max(0.0, out_left)
    out_right = max(0.0, out_right)
    out_front = max(0.0, out_front)

    if sectors.left and sectors.right and sectors.front:
        vx = -max(out_left, out_right, out_front)
        vy = 0.0
    else:
        vx = 0.0
        vy = out_right - out_left + out_front
    speed = math.sqrt(vx * vx + vy * vy)
    if speed > v_max and speed > 0.0:
        k = v_max / speed
        vx, vy = vx * k, vy * k
    return VelocityCommand(v_body=(vx, vy, 0.0), yaw_rate=0.0), new_state
