"""Inertial and magnetic sensor models.

Accelerometers report specific force (gravity shows up as +g on body z at
rest), gyros report body rates, and the magnetometer reports a unit vector
toward magnetic north (world +x) in the body frame.  Biases are constant per
run; noise is white Gaussian drawn from a per-instrument seeded stream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Quat, Vec3, quat_conjugate, quat_rotate
from .vehicle import G_VEC, TrueState

MAG_WORLD: Vec3 = (1.0, 0.0, 0.0)

_CHUNK = 4096  # samples per noise draw; 9 normals per sample


@dataclass(frozen=True)
class SensorParams:
    gyro_noise_std: float = 0.005    # [rad/s] per axis
    accel_noise_std: float = 0.05    # [m/s^2] per axis
    mag_noise_std: float = 0.005     # per axis, on a unit vector
    gyro_bias: Vec3 = (0.0, 0.0, 0.01)   # [rad/s]
    accel_bias: Vec3 = (0.02, 0.0, 0.0)  # [m/s^2]

    def __post_init__(self) -> None:
        for name in ("gyro_noise_std", "accel_noise_std", "mag_noise_std"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ImuSample:
    gyro: Vec3    # [rad/s] body frame
    accel: Vec3   # [m/s^2] specific force, body frame
    mag: Vec3     # unit vector, body frame
    time: float


class Imu:
    """One IMU + magnetometer unit with its own noise stream.

    Instruments sharing a seed but differing in imu_id produce independent
    noise while sharing the configured bias vectors.  Each sample consumes
    exactly nine standard normals in the order gyro xyz, accel xyz, mag xyz,
    which pins the output for a given (seed, imu_id, call sequence).
    """

    def __init__(self, params: SensorParams, seed: int, imu_id: int = 0):
        self.params = params
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(imu_id,)))
        # one sample's nine normals per next(), drawn _CHUNK samples at once
        self._noise = itertools.chain.from_iterable(
            rng.standard_normal((_CHUNK, 9)).tolist()
            for _ in itertools.count())

    def measure(self, state: TrueState) -> ImuSample:
        n = next(self._noise)
        p = self.params
        f, m = _body_fields(state.attitude, state.accel_world)
        return ImuSample(
            gyro=_corrupt(state.angular_rate, p.gyro_bias, p.gyro_noise_std,
                          n, 0),
            accel=_corrupt(f, p.accel_bias, p.accel_noise_std, n, 3),
            mag=_mag_reading(m, p.mag_noise_std, n, 6),
            time=state.time)


def _body_fields(attitude: Quat, accel_world: Vec3) -> tuple[Vec3, Vec3]:
    """True specific force and magnetic field in the body frame, which every
    IMU on the airframe reads before its own bias and noise."""
    qc = quat_conjugate(attitude)
    f_world = (accel_world[0] - G_VEC[0], accel_world[1] - G_VEC[1],
               accel_world[2] - G_VEC[2])
    return quat_rotate(qc, f_world), quat_rotate(qc, MAG_WORLD)


def _corrupt(v: Vec3, bias: Vec3, std: float, n: list[float],
             i: int) -> Vec3:
    """A gyro or accelerometer reading: v + bias + std * n[i:i+3]."""
    return (v[0] + bias[0] + std * n[i], v[1] + bias[1] + std * n[i + 1],
            v[2] + bias[2] + std * n[i + 2])


def _mag_reading(m: Vec3, std: float, n: list[float], i: int) -> Vec3:
    """m + std * n[i:i+3], renormalised unless noise cancelled the field."""
    mx = m[0] + std * n[i]
    my = m[1] + std * n[i + 1]
    mz = m[2] + std * n[i + 2]
    norm = math.sqrt(mx * mx + my * my + mz * mz)
    if norm > 1e-9:
        mx, my, mz = mx / norm, my / norm, mz / norm
    return (mx, my, mz)
