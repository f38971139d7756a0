"""Complementary filter: reference-vector recovery and blend identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facadesim.attitude import (
    AttitudeEstimate,
    ComplementaryGain,
    accel_roll_pitch,
    complementary_step,
    mag_yaw,
)
from facadesim.geometry import quat_from_euler, quat_rotate_inverse, wrap_angle
from facadesim.sensors import ImuSample
from facadesim.vehicle import GRAVITY

DT = 0.01


def rest_sample(roll, pitch, yaw, gyro=(0.0, 0.0, 0.0)):
    """Noise-free IMU output for a static body at the given attitude."""
    q = quat_from_euler(roll, pitch, yaw)
    accel = quat_rotate_inverse(q, (0.0, 0.0, GRAVITY))
    mag = quat_rotate_inverse(q, (1.0, 0.0, 0.0))
    return ImuSample(gyro=gyro, accel=accel, mag=mag)


def test_gain_validation():
    ComplementaryGain(0.0)
    ComplementaryGain(1.0)
    with pytest.raises(ValueError):
        ComplementaryGain(-0.1)
    with pytest.raises(ValueError):
        ComplementaryGain(1.1)


def test_level_constructor():
    a = AttitudeEstimate.level(0.5)
    assert (a.roll, a.pitch) == (0.0, 0.0)
    assert a.yaw == pytest.approx(0.5)
    assert a.quat == pytest.approx(quat_from_euler(0.0, 0.0, 0.5))


def test_accel_roll_pitch_recovers_static_tilt():
    rng = np.random.default_rng(0)
    for _ in range(200):
        roll = rng.uniform(-1.2, 1.2)
        pitch = rng.uniform(-1.2, 1.2)
        s = rest_sample(roll, pitch, rng.uniform(-math.pi, math.pi))
        r, p = accel_roll_pitch(s.accel)
        assert r == pytest.approx(roll, abs=1e-9)
        assert p == pytest.approx(pitch, abs=1e-9)


def test_accel_roll_pitch_rejects_free_fall():
    assert accel_roll_pitch((0.0, 0.0, 0.05 * GRAVITY)) is None
    # just above the threshold gives a tilt
    assert accel_roll_pitch((0.0, 0.0, 0.2 * GRAVITY)) == (0.0, 0.0)


def test_mag_yaw_recovers_heading_under_tilt():
    rng = np.random.default_rng(1)
    for _ in range(200):
        roll = rng.uniform(-1.2, 1.2)
        pitch = rng.uniform(-1.2, 1.2)
        yaw = rng.uniform(-math.pi + 1e-3, math.pi - 1e-3)
        s = rest_sample(roll, pitch, yaw)
        assert wrap_angle(mag_yaw(s.mag, roll, pitch) - yaw) == \
            pytest.approx(0.0, abs=1e-9)


def test_mag_yaw_degenerate_vertical_field():
    assert mag_yaw((0.0, 0.0, 1.0), 0.0, 0.0) is None


def test_alpha_one_is_pure_gyro_integration():
    """With alpha = 1 the measurements must not influence the output."""
    prev = AttitudeEstimate.level(0.2)
    gyro = (0.03, -0.02, 0.05)
    # wildly wrong accel/mag: pure gyro must ignore them entirely
    sample = ImuSample(gyro=gyro, accel=(5.0, 5.0, 5.0), mag=(0.0, 1.0, 0.0))
    out = complementary_step(prev, sample, ComplementaryGain(1.0), DT)
    p, q, r = gyro
    droll = p  # roll=pitch=0: map is identity at level attitude
    dpitch = q
    dyaw = r
    assert out.roll == pytest.approx(droll * DT, abs=1e-12)
    assert out.pitch == pytest.approx(dpitch * DT, abs=1e-12)
    assert out.yaw == pytest.approx(0.2 + dyaw * DT, abs=1e-12)


def test_alpha_zero_is_pure_measurement():
    rng = np.random.default_rng(2)
    for _ in range(50):
        roll = rng.uniform(-1.0, 1.0)
        pitch = rng.uniform(-1.0, 1.0)
        yaw = rng.uniform(-3.0, 3.0)
        sample = rest_sample(roll, pitch, yaw)
        prev = AttitudeEstimate.level(rng.uniform(-3.0, 3.0))
        out = complementary_step(prev, sample, ComplementaryGain(0.0), DT)
        assert out.roll == pytest.approx(roll, abs=1e-9)
        assert out.pitch == pytest.approx(pitch, abs=1e-9)
        assert wrap_angle(out.yaw - yaw) == pytest.approx(0.0, abs=1e-9)


def test_stationary_convergence_to_level():
    """From a wrong initial guess, rest measurements pull the estimate flat."""
    est = AttitudeEstimate(math.radians(5.0), math.radians(-3.0),
                           math.radians(10.0),
                           quat_from_euler(math.radians(5.0),
                                           math.radians(-3.0),
                                           math.radians(10.0)))
    sample = rest_sample(0.0, 0.0, 0.0)
    gain = ComplementaryGain(0.98)
    for _ in range(2000):
        est = complementary_step(est, sample, gain, DT)
    assert abs(math.degrees(est.roll)) < 0.1
    assert abs(math.degrees(est.pitch)) < 0.1
    assert abs(math.degrees(est.yaw)) < 0.1


def test_yaw_blend_wraps_across_pi():
    """179 deg estimate blended toward -179 deg must cross pi, not zero."""
    yaw0 = math.radians(179.0)
    est = AttitudeEstimate.level(yaw0)
    sample = rest_sample(0.0, 0.0, math.radians(-179.0))
    out = complementary_step(est, sample, ComplementaryGain(0.9), DT)
    assert abs(out.yaw) > math.radians(178.9)
    # and repeated steps converge to -179 without passing through 0
    for _ in range(500):
        est = complementary_step(est, sample, ComplementaryGain(0.9), DT)
        assert abs(est.yaw) > math.radians(178.0)
    assert wrap_angle(est.yaw - math.radians(-179.0)) == \
        pytest.approx(0.0, abs=1e-6)


def test_gyro_bias_bounded_by_measurement_leg():
    """Constant rate bias reaches the alpha/(1-alpha) fixed point, not drift."""
    bias = 0.01
    gain = ComplementaryGain(0.98)
    est = AttitudeEstimate.level(0.0)
    sample = rest_sample(0.0, 0.0, 0.0, gyro=(0.0, 0.0, bias))
    for _ in range(5000):
        est = complementary_step(est, sample, gain, DT)
    expect = gain.alpha * bias * DT / (1.0 - gain.alpha)
    assert abs(est.yaw) < 0.01
    assert est.yaw == pytest.approx(expect, rel=0.05)


def test_free_fall_falls_back_to_gyro():
    est = AttitudeEstimate.level(0.0)
    sample = ImuSample(gyro=(0.1, 0.0, 0.0), accel=(0.0, 0.0, 0.0),
                       mag=(1.0, 0.0, 0.0))
    out = complementary_step(est, sample, ComplementaryGain(0.5), DT)
    # roll advances by the gyro increment; no measurement pull
    assert out.roll == pytest.approx(0.1 * DT, abs=1e-12)


def test_gimbal_guard_survives_vertical_pitch():
    q = quat_from_euler(0.0, math.pi / 2.0 - 1e-12, 0.0)
    est = AttitudeEstimate(0.0, math.pi / 2.0 - 1e-12, 0.0, q)
    sample = ImuSample(gyro=(0.0, 0.0, 0.5), accel=(-GRAVITY, 0.0, 0.0),
                       mag=(0.0, 0.0, -1.0))
    out = complementary_step(est, sample, ComplementaryGain(1.0), DT)
    assert math.isfinite(out.roll) and math.isfinite(out.yaw)


def test_dt_validation():
    est = AttitudeEstimate.level(0.0)
    with pytest.raises(ValueError):
        complementary_step(est, rest_sample(0, 0, 0), ComplementaryGain(), 0.0)


@given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2), st.floats(-3.0, 3.0),
       st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_step_output_quat_is_unit(roll, pitch, yaw, alpha):
    est = AttitudeEstimate.level(0.0)
    sample = rest_sample(roll, pitch, yaw)
    out = complementary_step(est, sample, ComplementaryGain(alpha), DT)
    w, x, y, z = out.quat
    assert math.isclose(w * w + x * x + y * y + z * z, 1.0, abs_tol=1e-9)
