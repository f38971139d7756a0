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

from .geometry import Vec3, quat_conjugate, quat_rotate
from .vehicle import G_VEC, TrueState

MAG_WORLD: Vec3 = (1.0, 0.0, 0.0)

_CHUNK = 512  # samples per noise draw; 9 normals per sample


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


class Imu:
    """One IMU + magnetometer unit with its own noise stream.

    Instruments sharing a seed but differing in imu_id produce independent
    noise while sharing the configured bias vectors.  Each sample consumes
    exactly nine standard normals in the order gyro xyz, accel xyz, mag xyz,
    which pins the output for a given (seed, imu_id, call sequence).
    """

    def __init__(self, params: SensorParams, seed: int, imu_id: int = 0):
        self.params = params
        self._noise = _noise_stream(seed, imu_id)

    def measure(self, state: TrueState) -> ImuSample:
        n = next(self._noise)
        p = self.params
        # the true specific force and field in the body frame, then each
        # instrument's bias and noise
        qc = quat_conjugate(state.attitude)
        a = state.accel_world
        f = quat_rotate(qc, (a[0] - G_VEC[0], a[1] - G_VEC[1],
                             a[2] - G_VEC[2]))
        m = quat_rotate(qc, MAG_WORLD)
        w, gb, ab = state.angular_rate, p.gyro_bias, p.accel_bias
        sg, sa, sm = p.gyro_noise_std, p.accel_noise_std, p.mag_noise_std
        mx = m[0] + sm * n[6]
        my = m[1] + sm * n[7]
        mz = m[2] + sm * n[8]
        norm = math.sqrt(mx * mx + my * my + mz * mz)
        if norm > 1e-9:   # renormalise unless noise cancelled the field
            mx, my, mz = mx / norm, my / norm, mz / norm
        return ImuSample(
            gyro=(w[0] + gb[0] + sg * n[0], w[1] + gb[1] + sg * n[1],
                  w[2] + gb[2] + sg * n[2]),
            accel=(f[0] + ab[0] + sa * n[3], f[1] + ab[1] + sa * n[4],
                   f[2] + ab[2] + sa * n[5]),
            mag=(mx, my, mz))


def _noise_stream(seed: int, imu_id: int):
    """Nine normals per next() (one IMU sample), drawn _CHUNK at a time."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(imu_id,)))
    return itertools.chain.from_iterable(
        rng.standard_normal((_CHUNK, 9)).tolist() for _ in itertools.count())
