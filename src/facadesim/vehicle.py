"""Point-mass quadrotor plant with first-order velocity tracking.

The plant integrates commanded body-frame velocity through a first-order lag,
integrates yaw rate directly, and derives roll/pitch from the acceleration it
actually produced (thrust-vector tilt), so downstream inertial sensors see
physically consistent gravity components during maneuvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import (
    Quat,
    Vec3,
    euler_from_quat,
    quat_from_euler,
    quat_normalize,
    quat_rotate,
    wrap_angle,
)

GRAVITY = 9.81  # [m/s^2]
G_VEC: Vec3 = (0.0, 0.0, -GRAVITY)


@dataclass(frozen=True)
class VehicleParams:
    v_max: float = 3.0          # [m/s] speed clamp on commanded velocity
    yaw_rate_max: float = 1.0   # [rad/s]
    tau: float = 0.3            # [s] velocity tracking time constant

    def __post_init__(self) -> None:
        if self.v_max <= 0:
            raise ValueError("v_max must be positive")
        for name in ("yaw_rate_max", "tau"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class VelocityCommand:
    v_body: Vec3 = (0.0, 0.0, 0.0)  # [m/s] in body frame (+x forward, +y left)
    yaw_rate: float = 0.0           # [rad/s]


@dataclass(frozen=True)
class TrueState:
    """Ground-truth vehicle state; all quantities world frame unless noted."""

    position: Vec3
    velocity: Vec3
    attitude: Quat                  # body -> world
    angular_rate: Vec3              # [rad/s] body frame
    accel_world: Vec3               # [m/s^2] acceleration over the last step

    @staticmethod
    def at_rest(position: Vec3, yaw: float = 0.0) -> "TrueState":
        return TrueState(
            position=position,
            velocity=(0.0, 0.0, 0.0),
            attitude=quat_from_euler(0.0, 0.0, yaw),
            angular_rate=(0.0, 0.0, 0.0),
            accel_world=(0.0, 0.0, 0.0),
        )


def _lag(tau: float, dt: float) -> float:
    """Per-step weight of the exact discretization of dv/dt = (v_cmd - v)/tau;
    stable for any tau >= 0."""
    if tau <= 1e-9:
        return 1.0
    return 1.0 - math.exp(-dt / tau)


def step_dynamics(state: TrueState, cmd: VelocityCommand, params: VehicleParams,
                  dt: float) -> TrueState:
    """Advance the plant one step of dt seconds.  Pure and deterministic."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    # clamp the command
    vx, vy, vz = cmd.v_body
    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    if speed > params.v_max and speed > 0.0:
        k = params.v_max / speed
        vx, vy, vz = vx * k, vy * k, vz * k
    yaw_rate = max(-params.yaw_rate_max,
                   min(params.yaw_rate_max, cmd.yaw_rate))
    v_cmd = quat_rotate(state.attitude, (vx, vy, vz))

    lag = _lag(params.tau, dt)
    v0x, v0y, v0z = state.velocity
    vx = v0x + (v_cmd[0] - v0x) * lag
    vy = v0y + (v_cmd[1] - v0y) * lag
    vz = v0z + (v_cmd[2] - v0z) * lag

    px = state.position[0] + vx * dt
    py = state.position[1] + vy * dt
    pz = state.position[2] + vz * dt
    if pz < 0.0:  # ground plane
        pz = 0.0
        vz = max(vz, 0.0)

    ax = (vx - v0x) / dt
    ay = (vy - v0y) / dt
    az = (vz - v0z) / dt

    prev_roll, prev_pitch, prev_yaw = euler_from_quat(state.attitude)
    yaw = wrap_angle(prev_yaw + yaw_rate * dt)
    # roll/pitch that align body z with the thrust direction accel - g,
    # expressed in the yaw-aligned frame
    tz = az + GRAVITY
    c, s = math.cos(-yaw), math.sin(-yaw)
    fx = c * ax - s * ay
    fy = s * ax + c * ay
    n = math.sqrt(fx * fx + fy * fy + tz * tz)
    if n < 1e-9:  # free fall: tilt undefined, hold previous
        roll, pitch = prev_roll, prev_pitch
    else:
        roll = -math.asin(max(-1.0, min(1.0, fy / n)))
        pitch = math.atan2(fx, tz)
    attitude = quat_normalize(quat_from_euler(roll, pitch, yaw))

    # body rates from Euler-angle rates (Z-Y-X kinematics inverted); the map is
    # evaluated at the step-start angles so that integrating these rates with
    # the forward map at the same angles reproduces the attitude sequence
    droll = wrap_angle(roll - prev_roll) / dt
    dpitch = (pitch - prev_pitch) / dt
    dyaw = wrap_angle(yaw - prev_yaw) / dt
    sr, cr = math.sin(prev_roll), math.cos(prev_roll)
    sp, cp = math.sin(prev_pitch), math.cos(prev_pitch)
    return TrueState(
        position=(px, py, pz), velocity=(vx, vy, vz), attitude=attitude,
        angular_rate=(droll - dyaw * sp, dpitch * cr + dyaw * cp * sr,
                      -dpitch * sr + dyaw * cp * cr),
        accel_world=(ax, ay, az))
