"""Complementary attitude filter.

Gyro integration gives smooth short-term attitude but drifts; accelerometer
tilt and tilt-compensated magnetometer heading are noisy but drift-free.  Each
Euler angle is blended per step with weight alpha on the gyro path.  When a
reference direction is unobservable (near free-fall, or magnetic field nearly
vertical) that angle falls back to pure gyro for the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GravityUnobservable, MagneticDegeneracy
from .geometry import Quat, Vec3, euler_from_quat, quat_from_euler, wrap_angle
from .sensors import ImuSample
from .vehicle import GRAVITY


@dataclass(frozen=True)
class ComplementaryGain:
    alpha: float = 0.98

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class AttitudeEstimate:
    roll: float
    pitch: float
    yaw: float
    quat: Quat
    time: float

    @staticmethod
    def level(yaw: float = 0.0, time: float = 0.0) -> "AttitudeEstimate":
        yaw = wrap_angle(yaw)
        return AttitudeEstimate(0.0, 0.0, yaw, quat_from_euler(0.0, 0.0, yaw),
                                time)


def accel_roll_pitch(accel: Vec3) -> tuple[float, float]:
    """Tilt from specific force; valid only when gravity dominates."""
    ax, ay, az = accel
    if math.sqrt(ax * ax + ay * ay + az * az) <= 0.1 * GRAVITY:
        raise GravityUnobservable(
            "specific force too small to indicate the vertical")
    roll = math.atan2(ay, az)
    pitch = math.atan2(-ax, math.sqrt(ay * ay + az * az))
    return roll, pitch


def mag_yaw(mag: Vec3, roll: float, pitch: float) -> float:
    """Heading from the field direction after undoing roll and pitch."""
    mx, my, mz = mag
    sr, cr = math.sin(roll), math.cos(roll)
    sp, cp = math.sin(pitch), math.cos(pitch)
    # m' = Ry(pitch) * Rx(roll) * m leaves only the -yaw rotation applied
    hx = cp * mx + sp * sr * my + sp * cr * mz
    hy = cr * my - sr * mz
    if math.sqrt(hx * hx + hy * hy) < 1e-6:
        raise MagneticDegeneracy("field has no horizontal component here")
    return math.atan2(-hy, hx)


def _complementary(roll: float, pitch: float, yaw: float, gyro: Vec3,
                   accel: Vec3, mag: Vec3, alpha: float, dt: float,
                   ) -> tuple[float, float, float, Quat]:
    """One filter step: (roll, pitch, yaw, quat), with quat built from the
    blended angles before they are brought to canonical ranges."""
    # gyro rates to Euler-angle rates at the previous roll and pitch
    p, q, r = gyro
    sr, cr = math.sin(roll), math.cos(roll)
    sp, cp = math.sin(pitch), math.cos(pitch)
    if abs(cp) < 1e-9:  # gimbal lock: yaw/roll rates undefined
        cp = 1e-9 if cp >= 0.0 else -1e-9
    tp = sp / cp
    droll = p + (q * sr + r * cr) * tp
    dpitch = q * cr - r * sr
    dyaw = (q * sr + r * cr) / cp
    g_roll = wrap_angle(roll + droll * dt)
    g_pitch = pitch + dpitch * dt
    g_yaw = wrap_angle(yaw + dyaw * dt)

    alpha_rp = alpha
    try:
        m_roll, m_pitch = accel_roll_pitch(accel)
    except GravityUnobservable:
        m_roll, m_pitch = g_roll, g_pitch
        alpha_rp = 1.0

    alpha_y = alpha
    try:
        m_yaw = mag_yaw(mag, m_roll, m_pitch)
    except MagneticDegeneracy:
        m_yaw = g_yaw
        alpha_y = 1.0

    # blend: gyro angle plus (1 - alpha) of the wrapped measurement residual
    roll = wrap_angle(g_roll + (1.0 - alpha_rp) * wrap_angle(m_roll - g_roll))
    pitch = wrap_angle(g_pitch
                       + (1.0 - alpha_rp) * wrap_angle(m_pitch - g_pitch))
    yaw = wrap_angle(g_yaw + (1.0 - alpha_y) * wrap_angle(m_yaw - g_yaw))

    quat = quat_from_euler(roll, pitch, yaw)
    roll, pitch, yaw = euler_from_quat(quat)  # canonical ranges
    return roll, pitch, yaw, quat


def complementary_step(prev: AttitudeEstimate, imu: ImuSample,
                       gain: ComplementaryGain, dt: float) -> AttitudeEstimate:
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    roll, pitch, yaw, quat = _complementary(
        prev.roll, prev.pitch, prev.yaw, imu.gyro, imu.accel, imu.mag,
        gain.alpha, dt)
    return AttitudeEstimate(roll, pitch, yaw, quat, prev.time + dt)
