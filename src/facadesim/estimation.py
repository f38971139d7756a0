"""Position estimation from two IMUs, no external position fix.

Each world axis runs a constant-acceleration Kalman filter over
[position, velocity, acceleration].  Both IMUs measure only the acceleration
component (H rows [0,0,1]), so position is observable solely through the
kinematic coupling in F: drift is bounded by the filter but not eliminated.

The three axes share one covariance: they have identical Q, R, P0 and H,
and the covariance recursion never reads a measurement, so three separate
P matrices would be equal at every step.  Only the [p, v, a] states differ.

The gain reads only column 2 of P.  Under F = [[1,d,h],[0,1,d],[0,0,1]] and
H = [0, 0, 1] column and row 2 step from each other alone, and they are equal
before every predict: Q and P0 are diagonal and _update_covariance
symmetrises.  The recursion is set by (P0, Q, r, dt), so once column 2
repeats bit for bit every later gain repeats the recorded cycle:
_gain_schedule steps the full P through _predict_covariance and
_update_covariance until then, and replays the cycle after, so a step only
updates the three axes.  P00 grows without bound, so the whole P never
repeats.  Keys are bit patterns, as float equality merges -0.0 with 0.0 and
never matches a NaN.  run_hover's filter repeats from step 19 and the
shipped configs from step 4; a config that has not repeated within
SCHEDULE_STATES steps pays a full-P step at every step.

A naive dead-reckoning pipeline (raw gyro attitude, double-integrated
acceleration) is kept alongside as the uncorrected baseline.
"""

from __future__ import annotations

import contextlib
import itertools
import struct
import sys
from dataclasses import dataclass

from .attitude import AttitudeEstimate, ComplementaryGain, complementary_step
from .errors import InvalidScenario
from .geometry import (
    Quat,
    Vec3,
    quat_from_rotvec,
    quat_multiply,
    quat_normalize,
    quat_rotate,
)
from .sensors import ImuSample, SensorParams
from .vehicle import G_VEC

Mat3 = tuple[Vec3, Vec3, Vec3]

Q_DIAG = (1e-6, 1e-4, 1e-2)    # default process noise on [p, v, a]
P0_DIAG = (1e-4, 1e-4, 1e-2)   # default initial covariance
SCHEDULE_STATES = 4096         # covariance states searched for a repeat
_COLUMN_KEY = struct.Struct("3d").pack


def diag3(a: float, b: float, c: float) -> Mat3:
    return ((a, 0.0, 0.0), (0.0, b, 0.0), (0.0, 0.0, c))


@dataclass(frozen=True)
class KalmanConfig:
    """Per-axis filter tuning shared by the three world axes: the diagonals
    of Q and P0 over [p, v, a], and r, each accelerometer's variance.  R = r I,
    as both IMUs share one SensorParams and draw independent noise."""

    q: Vec3 = Q_DIAG
    r: float = SensorParams.accel_noise_std ** 2
    p0: Vec3 = P0_DIAG

    def __post_init__(self) -> None:
        if len(self.q) != 3 or len(self.p0) != 3:
            raise ValueError(f"q and p0 must have 3 entries, got {self}")
        # an int above float_info.max is below inf, but no float holds it
        if not all(0.0 <= v <= sys.float_info.max
                   for v in (*self.q, self.r, *self.p0)):
            raise ValueError(f"q, r and p0 must be finite and non-negative, "
                             f"got {self}")

    @staticmethod
    def for_accel_noise(accel_noise_std: float) -> "KalmanConfig":
        """r from the accelerometer noise std, floored at 1e-6 so that a
        noiseless sensor still gives an invertible innovation."""
        if accel_noise_std >= 0.0:   # False for NaN
            with contextlib.suppress(OverflowError, ValueError):
                return KalmanConfig(r=max(accel_noise_std, 1e-6) ** 2)
        raise ValueError(f"sensors.accel_noise_std {accel_noise_std} must be "
                         "non-negative with a finite square")


@dataclass(frozen=True)
class KalmanState:
    x: Vec3   # [position, velocity, acceleration] on one world axis
    P: Mat3


def _to_world(quat: Quat, accel: Vec3) -> Vec3:
    """Body specific force rotated to world with gravity added back."""
    ax, ay, az = quat_rotate(quat, accel)
    return (ax + G_VEC[0], ay + G_VEC[1], az + G_VEC[2])


def world_accel(imu: ImuSample, att: AttitudeEstimate) -> Vec3:
    """Specific force rotated to world with gravity added back."""
    return _to_world(att.quat, imu.accel)


def _predict_state(x: Vec3, d: float, h: float) -> Vec3:
    return (x[0] + d * x[1] + h * x[2], x[1] + d * x[2], x[2])


def _predict_covariance(p: Mat3, q: Mat3, d: float, h: float) -> Mat3:
    r0, r1, r2 = p
    # A = F P, then P' = A F^T + Q, expanded for F = [[1,d,h],[0,1,d],[0,0,1]]
    a0 = (r0[0] + d * r1[0] + h * r2[0],
          r0[1] + d * r1[1] + h * r2[1],
          r0[2] + d * r1[2] + h * r2[2])
    a1 = (r1[0] + d * r2[0], r1[1] + d * r2[1], r1[2] + d * r2[2])
    return tuple(
        (a[0] + d * a[1] + h * a[2] + qi[0], a[1] + d * a[2] + qi[1],
         a[2] + qi[2])
        for a, qi in zip((a0, a1, r2), q))


def _update_covariance(p: Mat3, r: float) -> tuple[tuple, Mat3]:
    """Gain (P[:,2], c) and posterior P: K[i][j] = P[i][2] * c for both
    IMUs j, c the column sum of S^-1 for S = H P H^T + R = P22 + r I."""
    p22 = p[2][2]
    s = p22 + r
    det = s * s - p22 * p22
    if abs(det) < 1e-30:
        raise InvalidScenario("measurement covariance is singular; "
                              "R must make H P H^T + R invertible")
    c = (s - p22) / det
    col = (p[0][2], p[1][2], p22)
    # (I - K H) P = P - kappa (x) P[2,:], kappa_i = K[i][0] + K[i][1]
    cc = c + c
    row2 = p[2]
    raw = tuple(
        (pi[0] - k * row2[0], pi[1] - k * row2[1], pi[2] - k * row2[2])
        for pi, k in zip(p, [ci * cc for ci in col]))
    sym = tuple(
        tuple(0.5 * (raw[i][j] + raw[j][i]) for j in range(3))
        for i in range(3))
    return (col, c), sym


def _update_state(x: Vec3, z: tuple[float, float], gain) -> Vec3:
    (k0, k1, k2), c = gain
    u = c * (z[0] - x[2]) + c * (z[1] - x[2])
    return (x[0] + k0 * u, x[1] + k1 * u, x[2] + k2 * u)


def _gain_schedule(p: Mat3, q: Mat3, r: float, d: float, h: float):
    """Each step's gain from _predict_covariance then _update_covariance,
    forever; the recorded cycle is replayed once column 2 of P repeats (see
    the module docstring)."""
    first: dict[bytes, int] = {}
    gains = []
    while len(gains) < SCHEDULE_STATES:
        key = _COLUMN_KEY(p[0][2], p[1][2], p[2][2])
        if key in first:
            yield from itertools.cycle(gains[first[key]:])
        first[key] = len(gains)
        gain, p = _update_covariance(_predict_covariance(p, q, d, h), r)
        gains.append(gain)
        yield gain
    del first, gains
    while True:
        gain, p = _update_covariance(_predict_covariance(p, q, d, h), r)
        yield gain


def kalman_predict(state: KalmanState, cfg: KalmanConfig,
                   dt: float) -> KalmanState:
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    h = 0.5 * dt * dt
    return KalmanState(x=_predict_state(state.x, dt, h),
                       P=_predict_covariance(state.P, diag3(*cfg.q), dt, h))


def kalman_update(state: KalmanState, z: tuple[float, float],
                  cfg: KalmanConfig) -> KalmanState:
    """Fuse the two accelerometer readings for this axis."""
    gain, p = _update_covariance(state.P, cfg.r)
    return KalmanState(x=_update_state(state.x, z, gain), P=p)


def _filter_start(cfg: KalmanConfig, position: Vec3, yaw: float,
                  dt: float):
    """The level attitude, the [p, v, a] axes at rest at position, and the
    gain schedule that a filter stepping dt starts from."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    axes = tuple((p, 0.0, 0.0) for p in position)
    return (AttitudeEstimate.level(yaw), axes,
            _gain_schedule(diag3(*cfg.p0), diag3(*cfg.q), cfg.r, dt,
                           0.5 * dt * dt))


@dataclass(frozen=True)
class EstimatedState:
    position: Vec3
    velocity: Vec3
    attitude: AttitudeEstimate


class InertialEstimator:
    """Complementary attitude + a Kalman filter on each world axis.

    Attitude comes from IMU 1 alone; both IMUs contribute world-frame
    acceleration measurements to every axis filter.  The axes share one
    replayed gain schedule (see the module docstring) and keep their own
    [p, v, a].
    """

    def __init__(self, cfg: KalmanConfig, gain: ComplementaryGain,
                 initial_position: Vec3, initial_yaw: float = 0.0, *,
                 dt: float):
        self.gain = gain
        self.dt = dt
        self.attitude, self.axes, self._gains = _filter_start(
            cfg, initial_position, initial_yaw, dt)

    def step(self, imu1: ImuSample, imu2: ImuSample) -> EstimatedState:
        """Each axis predicted and updated with the step's gain from the
        two IMUs' world accelerations."""
        d = self.dt
        h = 0.5 * d * d
        self.attitude = complementary_step(self.attitude, imu1, self.gain, d)
        a1 = world_accel(imu1, self.attitude)
        a2 = world_accel(imu2, self.attitude)
        gain = next(self._gains)
        self.axes = tuple(
            _update_state(_predict_state(x, d, h), (z1, z2), gain)
            for x, z1, z2 in zip(self.axes, a1, a2))
        return self.state()

    def state(self) -> EstimatedState:
        ax, ay, az = self.axes
        return EstimatedState(
            position=(ax[0], ay[0], az[0]),
            velocity=(ax[1], ay[1], az[1]),
            attitude=self.attitude,
        )


class DeadReckoner:
    """Uncorrected baseline: raw gyro attitude, double-integrated accel."""

    def __init__(self, initial_position: Vec3, initial_attitude: Quat,
                 dt: float):
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.dt = dt
        self.quat = initial_attitude
        self.position = initial_position
        self.velocity: Vec3 = (0.0, 0.0, 0.0)
        self._prev_accel: Vec3 | None = None

    def step(self, imu: ImuSample) -> Vec3:
        """Turn by the gyro's rotation vector, then integrate the world
        acceleration: velocity, then position, by the trapezoid rule.  The
        first step only records the acceleration."""
        dt = self.dt
        gx, gy, gz = imu.gyro
        dq = quat_from_rotvec((gx * dt, gy * dt, gz * dt))
        self.quat = quat_normalize(quat_multiply(self.quat, dq))
        a = _to_world(self.quat, imu.accel)
        prev, self._prev_accel = self._prev_accel, a
        if prev is not None:
            vel, pos = self.velocity, self.position
            vx = vel[0] + 0.5 * (prev[0] + a[0]) * dt
            vy = vel[1] + 0.5 * (prev[1] + a[1]) * dt
            vz = vel[2] + 0.5 * (prev[2] + a[2]) * dt
            self.position = (pos[0] + 0.5 * (vel[0] + vx) * dt,
                             pos[1] + 0.5 * (vel[1] + vy) * dt,
                             pos[2] + 0.5 * (vel[2] + vz) * dt)
            self.velocity = (vx, vy, vz)
        return self.position
