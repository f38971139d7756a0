"""Waypoint tracking PID and the reactive obstacle-avoidance override.

One deterministic control decision is made per simulation step: if any laser
sector is active after masking out the building, the avoidance command fully
replaces the tracking command; tracking resumes the step all sectors clear.

Tracking and each avoidance lane step the scalar PID core `_pid` on an
`(integral, prev_error, initialized)` tuple, the fields of `PidState`.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import NamedTuple

from .estimation import EstimatedState
from .geometry import Rect, Vec3, quat_rotate_inverse, wrap_angle
from .planner import Waypoint
from .vehicle import VehicleParams, VelocityCommand
from .world import SCAN_ANGLE_MIN, SCAN_STEP, LaserScan

D_ENGAGE = 3.0          # [m] sector activation threshold
SECTOR_EDGE = math.pi / 4.0   # front is |angle| <= 45 deg
KP_YAW = 1.0            # [1/s] yaw-rate gain on the heading error
I_MAX = 100.0           # PID integral clamp


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


_FRESH_PID = astuple(PidState())   # the (integral, prev_error, initialized)
_FRESH_LANES = (_FRESH_PID,) * 3    # of each (left, right, front) lane


def _pid(gains: PidGains, pid: tuple[float, float, bool], error: float,
         dt: float) -> tuple[float, tuple]:
    """Output and the next (integral, prev_error, initialized) of a PID."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    integral, prev_error, initialized = pid
    integral = integral + error * dt
    integral = max(-I_MAX, min(I_MAX, integral))
    prev = error if not initialized else prev_error
    derivative = (error - prev) / dt
    out = gains.kp * error + gains.ki * integral + gains.kd * derivative
    return out, (integral, error, True)


def track_waypoint(est: EstimatedState, wp: Waypoint, gains: PidGains,
                   state: PidState, dt: float,
                   v_max: float = VehicleParams.v_max, kp_yaw: float = KP_YAW,
                   yaw_rate_max: float = VehicleParams.yaw_rate_max,
                   ) -> tuple[VelocityCommand, PidState]:
    """Scalar PID on distance gives speed; direction is straight at the goal."""
    position = est.position
    dx = wp.position[0] - position[0]
    dy = wp.position[1] - position[1]
    dz = wp.position[2] - position[2]
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    speed, pid = _pid(gains, (state.integral, state.prev_error,
                              state.initialized), dist, dt)
    speed = max(0.0, min(v_max, speed))
    if dist > 1e-9 and speed > 0.0:
        k = speed / dist
        v_body = quat_rotate_inverse(est.attitude.quat,
                                     (dx * k, dy * k, dz * k))
    else:
        v_body = (0.0, 0.0, 0.0)
    yaw_err = wrap_angle(wp.yaw - est.attitude.yaw)
    yaw_rate = max(-yaw_rate_max, min(yaw_rate_max, kp_yaw * yaw_err))
    return VelocityCommand(v_body=v_body, yaw_rate=yaw_rate), PidState(*pid)


class ObstacleSectors(NamedTuple):
    """Nearest sub-threshold return per sector; math.inf means clear."""

    dist_left: float = math.inf
    dist_right: float = math.inf
    dist_front: float = math.inf

    @property
    def any_active(self) -> bool:
        return (self.dist_left < math.inf or self.dist_right < math.inf
                or self.dist_front < math.inf)


def _sectors(hits, mask: Rect | None, px: float, py: float, yaw: float,
             d_engage: float) -> ObstacleSectors:
    """Sectors from (bin, range) pairs; the core of `classify_sectors`."""
    d_left = d_right = d_front = math.inf
    for i, r in hits:
        if r >= d_engage:
            continue
        angle = SCAN_ANGLE_MIN + i * SCAN_STEP
        if mask is not None:
            w = yaw + angle
            if mask.contains(px + r * math.cos(w), py + r * math.sin(w)):
                continue
        if -SECTOR_EDGE <= angle <= SECTOR_EDGE:
            if r < d_front:
                d_front = r
        elif angle > SECTOR_EDGE:
            if r < d_left:
                d_left = r
        elif r < d_right:
            d_right = r
    return ObstacleSectors(d_left, d_right, d_front)


def classify_sectors(scan: LaserScan, mask: Rect | None, position,
                     yaw: float, d_engage: float = D_ENGAGE,
                     ) -> ObstacleSectors:
    """Sector occupancy from sub-threshold bins, building returns masked out.

    Hit points are mapped to world coordinates through the supplied pose
    (normally the estimated one) before the mask test.  Bins at or beyond
    `d_engage` are never read, so a scan cut off at `d_engage` gives the
    same sectors as a full one.
    """
    return _sectors([(i, r) for i, r in enumerate(scan.ranges)
                     if r < d_engage], mask, position[0], position[1], yaw,
                    d_engage)


def avoidance_command(sectors: ObstacleSectors, gains: PidGains, lanes: tuple,
                      dt: float, v_max: float = VehicleParams.v_max,
                      ) -> tuple[Vec3 | None, tuple]:
    """Repulsive body-frame velocity (None when clear) and the next lanes.

    `lanes` holds one `_pid` state per sector, (left, right, front); a clear
    sector's lane restarts from `_FRESH_PID`.  Error is 1/distance, so
    closer obstacles push harder.  Right obstacles push left (+y), left
    obstacles push right (-y), a front obstacle drifts the drone left, and
    all three together back it straight out (-x).  Avoidance never yaws.
    """
    if not sectors.any_active:
        return None, _FRESH_LANES

    steps = [(0.0, _FRESH_PID) if d == math.inf else
             _pid(gains, pid, 1.0 / d, dt) for d, pid in zip(sectors, lanes)]
    # repulsion only; derivative transients must not pull toward the obstacle
    out_left, out_right, out_front = (max(0.0, out) for out, _ in steps)

    if max(sectors) < math.inf:   # all three sectors active
        vx = -max(out_left, out_right, out_front)
        vy = 0.0
    else:
        vx = 0.0
        vy = out_right - out_left + out_front
    speed = math.sqrt(vx * vx + vy * vy)
    if speed > v_max and speed > 0.0:
        k = v_max / speed
        vx, vy = vx * k, vy * k
    return (vx, vy, 0.0), tuple(pid for _, pid in steps)
