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

    @staticmethod
    def level(yaw: float = 0.0) -> "AttitudeEstimate":
        yaw = wrap_angle(yaw)
        return AttitudeEstimate(0.0, 0.0, yaw, quat_from_euler(0.0, 0.0, yaw))


def accel_roll_pitch(accel: Vec3) -> tuple[float, float] | None:
    """Tilt from specific force; None near free fall, where the specific
    force is too small to indicate the vertical."""
    ax, ay, az = accel
    if math.sqrt(ax * ax + ay * ay + az * az) <= 0.1 * GRAVITY:
        return None
    roll = math.atan2(ay, az)
    pitch = math.atan2(-ax, math.sqrt(ay * ay + az * az))
    return roll, pitch


def mag_yaw(mag: Vec3, roll: float, pitch: float) -> float | None:
    """Heading from the field direction after undoing roll and pitch; None
    when the field has no horizontal component."""
    mx, my, mz = mag
    sr, cr = math.sin(roll), math.cos(roll)
    sp, cp = math.sin(pitch), math.cos(pitch)
    # m' = Ry(pitch) * Rx(roll) * m leaves only the -yaw rotation applied
    hx = cp * mx + sp * sr * my + sp * cr * mz
    hy = cr * my - sr * mz
    if math.sqrt(hx * hx + hy * hy) < 1e-6:
        return None
    return math.atan2(-hy, hx)


def complementary_step(prev: AttitudeEstimate, imu: ImuSample,
                       gain: ComplementaryGain, dt: float) -> AttitudeEstimate:
    """One filter step; the quat is built from the blended angles before
    they are brought to canonical ranges."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    roll, pitch, yaw, alpha = prev.roll, prev.pitch, prev.yaw, gain.alpha
    # gyro rates to Euler-angle rates at the previous roll and pitch
    p, q, r = imu.gyro
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

    alpha_rp = alpha_y = alpha
    tilt = accel_roll_pitch(imu.accel)
    if tilt is None:   # gravity unobservable: roll and pitch follow the gyro
        m_roll, m_pitch, alpha_rp = g_roll, g_pitch, 1.0
    else:
        m_roll, m_pitch = tilt
    m_yaw = mag_yaw(imu.mag, m_roll, m_pitch)
    if m_yaw is None:   # magnetic degeneracy: yaw follows the gyro
        m_yaw, alpha_y = g_yaw, 1.0

    # blend: gyro angle plus (1 - alpha) of the wrapped measurement residual
    roll = wrap_angle(g_roll + (1.0 - alpha_rp) * wrap_angle(m_roll - g_roll))
    pitch = wrap_angle(g_pitch
                       + (1.0 - alpha_rp) * wrap_angle(m_pitch - g_pitch))
    yaw = wrap_angle(g_yaw + (1.0 - alpha_y) * wrap_angle(m_yaw - g_yaw))

    quat = quat_from_euler(roll, pitch, yaw)
    roll, pitch, yaw = euler_from_quat(quat)  # canonical ranges
    return AttitudeEstimate(roll, pitch, yaw, quat)
