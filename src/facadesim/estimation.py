"""Position estimation from two IMUs, no external position fix.

Each world axis runs a constant-acceleration Kalman filter over
[position, velocity, acceleration].  Both IMUs measure only the acceleration
component (H rows [0,0,1]), so position is observable solely through the
kinematic coupling in F: drift is bounded by the filter but not eliminated.

The three axes share one covariance: they have identical Q, R, P0 and H,
and the covariance recursion never reads a measurement, so three separate
P matrices would be equal at every step.  Only the [p, v, a] states differ.

InertialEstimator carries only the part of that covariance the gain reads:
column 2 and row 2 of P.  With H = [0, 0, 1] the gain is P[:,2] S^-1 with
S = P22 + R, and under F = [[1,d,h],[0,1,d],[0,0,1]] these five entries
predict and update from each other alone, so the recursion is closed and
the filter is exact; P00, P01 and P11 are never read.  Row and column are
kept apart because P0 and Q may be asymmetric within the symmetry check's
tolerance.  The full P, e.g. a position sigma of sqrt(P00), is still
available from kalman_predict / kalman_update.

A naive dead-reckoning pipeline (raw gyro attitude, double-integrated
acceleration) is kept alongside as the uncorrected baseline.
"""

from __future__ import annotations

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
from .sensors import ImuSample
from .vehicle import G_VEC

Mat3 = tuple[Vec3, Vec3, Vec3]

Q_DIAG = (1e-6, 1e-4, 1e-2)    # default process noise on [p, v, a]
P0_DIAG = (1e-4, 1e-4, 1e-2)   # default initial covariance


def diag3(a: float, b: float, c: float) -> Mat3:
    return ((a, 0.0, 0.0), (0.0, b, 0.0), (0.0, 0.0, c))


def _check_symmetric(m, name: str, tol: float = 1e-9) -> None:
    n = len(m)
    for i in range(n):
        if len(m[i]) != n:
            raise ValueError(f"{name} must be {n}x{n}")
        if m[i][i] < 0.0:
            raise ValueError(f"{name} diagonal must be non-negative")
        for j in range(i):
            if abs(m[i][j] - m[j][i]) > tol:
                raise ValueError(f"{name} must be symmetric")


@dataclass(frozen=True)
class KalmanConfig:
    """Per-axis filter tuning; shared by all three world axes."""

    Q: Mat3 = diag3(*Q_DIAG)
    R: tuple[tuple[float, float], tuple[float, float]] = ((0.0025, 0.0),
                                                          (0.0, 0.0025))
    x0: Vec3 = (0.0, 0.0, 0.0)
    P0: Mat3 = diag3(*P0_DIAG)

    def __post_init__(self) -> None:
        _check_symmetric(self.Q, "Q")
        _check_symmetric(self.R, "R")
        _check_symmetric(self.P0, "P0")

    @staticmethod
    def for_accel_noise(accel_noise_std: float) -> "KalmanConfig":
        r = max(accel_noise_std, 1e-6) ** 2
        return KalmanConfig(R=((r, 0.0), (0.0, r)))


@dataclass(frozen=True)
class KalmanState:
    x: Vec3   # [position, velocity, acceleration] on one world axis
    P: Mat3
    time: float = 0.0


def world_accel(imu: ImuSample, att: AttitudeEstimate) -> Vec3:
    """Specific force rotated to world with gravity added back."""
    ax, ay, az = quat_rotate(att.quat, imu.accel)
    return (ax + G_VEC[0], ay + G_VEC[1], az + G_VEC[2])


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


def _innovation_gain(p22: float, r) -> tuple[float, float]:
    """Column sums (c0, c1) of S^-1, S = H P H^T + R = P22 + R."""
    s00 = p22 + r[0][0]
    s01 = p22 + r[0][1]
    s10 = p22 + r[1][0]
    s11 = p22 + r[1][1]
    det = s00 * s11 - s01 * s10
    if abs(det) < 1e-30:
        raise InvalidScenario("measurement covariance is singular; "
                              "R must make H P H^T + R invertible")
    return (s11 - s10) / det, (s00 - s01) / det


def _update_covariance(p: Mat3, r) -> tuple[tuple, Mat3]:
    """Gain (P[:,2], c0, c1), K[i][j] = P[i][2] * c[j], and posterior P."""
    p22 = p[2][2]
    c0, c1 = _innovation_gain(p22, r)
    col = (p[0][2], p[1][2], p22)
    # (I - K H) P = P - kappa (x) P[2,:], kappa_i = K[i][0] + K[i][1]
    cc = c0 + c1
    row2 = p[2]
    raw = tuple(
        (pi[0] - k * row2[0], pi[1] - k * row2[1], pi[2] - k * row2[2])
        for pi, k in zip(p, [ci * cc for ci in col]))
    sym = tuple(
        tuple(0.5 * (raw[i][j] + raw[j][i]) for j in range(3))
        for i in range(3))
    return (col, c0, c1), sym


def _update_state(x: Vec3, z: tuple[float, float], gain) -> Vec3:
    (k0, k1, k2), c0, c1 = gain
    u = c0 * (z[0] - x[2]) + c1 * (z[1] - x[2])
    return (x[0] + k0 * u, x[1] + k1 * u, x[2] + k2 * u)


def kalman_predict(state: KalmanState, cfg: KalmanConfig,
                   dt: float) -> KalmanState:
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    h = 0.5 * dt * dt
    return KalmanState(x=_predict_state(state.x, dt, h),
                       P=_predict_covariance(state.P, cfg.Q, dt, h),
                       time=state.time + dt)


def kalman_update(state: KalmanState, z: tuple[float, float],
                  cfg: KalmanConfig) -> KalmanState:
    """Fuse the two accelerometer readings for this axis."""
    gain, p = _update_covariance(state.P, cfg.R)
    return KalmanState(x=_update_state(state.x, z, gain), P=p,
                       time=state.time)


def dead_reckon(accel_stream, dt: float) -> list[Vec3]:
    """Trapezoidal double integration of world accelerations from the origin."""
    stream = list(accel_stream)
    if not stream:
        raise ValueError("accel_stream must be nonempty")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    trace = [(0.0, 0.0, 0.0)]
    vx = vy = vz = 0.0
    px = py = pz = 0.0
    prev = stream[0]
    for a in stream[1:]:
        nvx = vx + 0.5 * (prev[0] + a[0]) * dt
        nvy = vy + 0.5 * (prev[1] + a[1]) * dt
        nvz = vz + 0.5 * (prev[2] + a[2]) * dt
        px += 0.5 * (vx + nvx) * dt
        py += 0.5 * (vy + nvy) * dt
        pz += 0.5 * (vz + nvz) * dt
        vx, vy, vz = nvx, nvy, nvz
        trace.append((px, py, pz))
        prev = a
    return trace


@dataclass(frozen=True)
class EstimatedState:
    position: Vec3
    velocity: Vec3
    attitude: AttitudeEstimate
    time: float


class InertialEstimator:
    """Complementary attitude + a Kalman filter on each world axis.

    Attitude comes from IMU 1 alone; both IMUs contribute world-frame
    acceleration measurements to every axis filter.  The axes share one
    covariance, of which only column and row 2 are carried (see the module
    docstring), and keep their own [p, v, a].
    """

    def __init__(self, cfg: KalmanConfig, gain: ComplementaryGain,
                 initial_position: Vec3, initial_yaw: float = 0.0,
                 dt: float = 0.01):
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.cfg = cfg
        self.gain = gain
        self.dt = dt
        self.attitude = AttitudeEstimate.level(initial_yaw)
        p, q = cfg.P0, cfg.Q
        # P[:,2] and P[2,:2], with the Q entries they read; see the module
        # docstring.
        self._col = (p[0][2], p[1][2], p[2][2])
        self._row = (p[2][0], p[2][1])
        self._q = (q[0][2], q[1][2], q[2][2], q[2][0], q[2][1])
        self.axes: list[Vec3] = [
            (initial_position[i] + cfg.x0[0], cfg.x0[1], cfg.x0[2])
            for i in range(3)
        ]

    def step(self, imu1: ImuSample, imu2: ImuSample) -> EstimatedState:
        d, h = self.dt, 0.5 * self.dt * self.dt
        self.attitude = complementary_step(self.attitude, imu1, self.gain, d)
        a1 = world_accel(imu1, self.attitude)
        a2 = world_accel(imu2, self.attitude)
        c02, c12, c22 = self._col
        r20, r21 = self._row
        q02, q12, q22, q20, q21 = self._q
        # The expressions below keep the operand order of
        # _predict_covariance, _update_covariance, _predict_state and
        # _update_state, so the results are bit-identical to theirs.
        p02 = c02 + d * c12 + h * c22 + q02
        p12 = c12 + d * c22 + q12
        p22 = c22 + q22
        p20 = r20 + d * r21 + h * c22 + q20
        p21 = r21 + d * c22 + q21
        c0, c1 = _innovation_gain(p22, self.cfg.R)
        cc = c0 + c1
        k2 = p22 * cc
        s02 = 0.5 * ((p02 - p02 * cc * p22) + (p20 - k2 * p20))
        s12 = 0.5 * ((p12 - p12 * cc * p22) + (p21 - k2 * p21))
        raw22 = p22 - k2 * p22
        self._col = (s02, s12, 0.5 * (raw22 + raw22))
        self._row = (s02, s12)
        axes = []
        for (x, v, a), z1, z2 in zip(self.axes, a1, a2):
            u = c0 * (z1 - a) + c1 * (z2 - a)
            axes.append((x + d * v + h * a + p02 * u, v + d * a + p12 * u,
                         a + p22 * u))
        self.axes = axes
        return self.state()

    def state(self) -> EstimatedState:
        ax, ay, az = self.axes
        return EstimatedState(
            position=(ax[0], ay[0], az[0]),
            velocity=(ax[1], ay[1], az[1]),
            attitude=self.attitude,
            time=self.attitude.time,
        )


class DeadReckoner:
    """Uncorrected baseline: raw gyro attitude, double-integrated accel."""

    def __init__(self, initial_position: Vec3, initial_attitude: Quat,
                 dt: float = 0.01):
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.dt = dt
        self.quat = initial_attitude
        self.position = initial_position
        self.velocity: Vec3 = (0.0, 0.0, 0.0)
        self._prev_accel: Vec3 | None = None

    def step(self, imu: ImuSample) -> Vec3:
        gx, gy, gz = imu.gyro
        dq = quat_from_rotvec((gx * self.dt, gy * self.dt, gz * self.dt))
        self.quat = quat_normalize(quat_multiply(self.quat, dq))
        fx, fy, fz = quat_rotate(self.quat, imu.accel)
        a = (fx + G_VEC[0], fy + G_VEC[1], fz + G_VEC[2])
        prev = self._prev_accel
        if prev is None:
            self._prev_accel = a
            return self.position
        vx = self.velocity[0] + 0.5 * (prev[0] + a[0]) * self.dt
        vy = self.velocity[1] + 0.5 * (prev[1] + a[1]) * self.dt
        vz = self.velocity[2] + 0.5 * (prev[2] + a[2]) * self.dt
        self.position = (
            self.position[0] + 0.5 * (self.velocity[0] + vx) * self.dt,
            self.position[1] + 0.5 * (self.velocity[1] + vy) * self.dt,
            self.position[2] + 0.5 * (self.velocity[2] + vz) * self.dt,
        )
        self.velocity = (vx, vy, vz)
        self._prev_accel = a
        return self.position
