"""IMU and magnetometer models: exactness at zero noise, seeded streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facadesim import sensors
from facadesim.geometry import quat_from_euler, quat_rotate_inverse, v_norm
from facadesim.sensors import MAG_WORLD, Imu, SensorParams
from facadesim.vehicle import GRAVITY, TrueState


def quiet(gyro_bias=(0.0, 0.0, 0.0), accel_bias=(0.0, 0.0, 0.0)):
    return SensorParams(gyro_noise_std=0.0, accel_noise_std=0.0,
                        mag_noise_std=0.0, gyro_bias=gyro_bias,
                        accel_bias=accel_bias)


def attitude_state(roll, pitch, yaw, angular_rate=(0.0, 0.0, 0.0),
                   accel_world=(0.0, 0.0, 0.0)):
    return TrueState(position=(0.0, 0.0, 2.0), velocity=(0.0, 0.0, 0.0),
                     attitude=quat_from_euler(roll, pitch, yaw),
                     angular_rate=angular_rate, accel_world=accel_world)


def test_rest_sample_measures_gravity_up_body_z():
    imu = Imu(quiet(), seed=0)
    s = imu.measure(attitude_state(0.0, 0.0, 0.0))
    assert s.accel == pytest.approx((0.0, 0.0, GRAVITY), abs=1e-12)
    assert s.gyro == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
    assert s.mag == pytest.approx(MAG_WORLD, abs=1e-12)


def test_specific_force_under_known_tilt():
    imu = Imu(quiet(), seed=0)
    pitch = 0.3
    s = imu.measure(attitude_state(0.0, pitch, 0.0))
    # static body pitched nose-up sees gravity partly on -x
    assert s.accel[0] == pytest.approx(-GRAVITY * math.sin(pitch), abs=1e-12)
    assert s.accel[2] == pytest.approx(GRAVITY * math.cos(pitch), abs=1e-12)


def test_specific_force_during_acceleration():
    imu = Imu(quiet(), seed=0)
    a = (1.0, -0.5, 0.25)
    s = imu.measure(attitude_state(0.0, 0.0, 0.0, accel_world=a))
    assert s.accel == pytest.approx((a[0], a[1], a[2] + GRAVITY), abs=1e-12)


def test_gyro_passthrough_and_bias():
    imu = Imu(quiet(gyro_bias=(0.01, -0.02, 0.03)), seed=0)
    s = imu.measure(attitude_state(0, 0, 0, angular_rate=(0.1, 0.2, 0.3)))
    assert s.gyro == pytest.approx((0.11, 0.18, 0.33), abs=1e-12)


def test_accel_bias_is_body_frame_additive():
    imu = Imu(quiet(accel_bias=(0.02, 0.0, 0.0)), seed=0)
    s = imu.measure(attitude_state(0.0, 0.0, 1.0))
    assert s.accel[0] == pytest.approx(0.02, abs=1e-12)


def test_mag_rotates_with_yaw():
    imu = Imu(quiet(), seed=0)
    yaw = 1.2
    s = imu.measure(attitude_state(0.0, 0.0, yaw))
    assert s.mag == pytest.approx(
        (math.cos(yaw), -math.sin(yaw), 0.0), abs=1e-12)


def test_same_seed_same_stream():
    params = SensorParams()
    state = attitude_state(0.05, -0.02, 0.3)
    a = [Imu(params, seed=42).measure(state) for _ in range(1)][0]
    b = Imu(params, seed=42).measure(state)
    assert a == b


def test_imu_id_decorrelates_noise():
    params = SensorParams()
    state = attitude_state(0.0, 0.0, 0.0)
    s0 = Imu(params, seed=5, imu_id=0).measure(state)
    s1 = Imu(params, seed=5, imu_id=1).measure(state)
    assert s0.accel != s1.accel
    assert s0.gyro != s1.gyro


def test_sequence_is_reproducible_across_chunks():
    """Draws must be stable across the internal refill boundary."""
    params = SensorParams()
    state = attitude_state(0.0, 0.0, 0.0)
    imu_a = Imu(params, seed=9)
    seq_a = [imu_a.measure(state).accel for _ in range(5000)]
    imu_b = Imu(params, seed=9)
    seq_b = [imu_b.measure(state).accel for _ in range(5000)]
    assert seq_a == seq_b


@pytest.mark.parametrize("chunk", [4096, 512])
def test_noise_stream_is_one_draw_whatever_the_chunk(chunk, monkeypatch):
    """Generator.standard_normal gives the same stream in chunks of any
    size, so `_CHUNK` sets only the memory a stream holds."""
    monkeypatch.setattr(sensors, "_CHUNK", chunk)
    stream = sensors._noise_stream(7, 1)
    got = [next(stream) for _ in range(5000)]
    rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(1,)))
    assert got == rng.standard_normal((5000, 9)).tolist()


def test_noise_statistics_match_configured_std():
    params = SensorParams(gyro_noise_std=0.01, accel_noise_std=0.05,
                          mag_noise_std=0.0, gyro_bias=(0.0, 0.0, 0.0),
                          accel_bias=(0.0, 0.0, 0.0))
    imu = Imu(params, seed=11)
    state = attitude_state(0.0, 0.0, 0.0)
    n = 20000
    gx = np.empty(n)
    ax = np.empty(n)
    for k in range(n):
        s = imu.measure(state)
        gx[k] = s.gyro[0]
        ax[k] = s.accel[0]
    assert abs(float(np.mean(gx))) < 4.0 * 0.01 / math.sqrt(n)
    assert float(np.std(gx)) == pytest.approx(0.01, rel=0.05)
    assert float(np.std(ax)) == pytest.approx(0.05, rel=0.05)


def test_params_validation():
    with pytest.raises(ValueError):
        SensorParams(gyro_noise_std=-1.0)
    with pytest.raises(ValueError):
        SensorParams(accel_noise_std=-0.1)
    with pytest.raises(ValueError):
        SensorParams(mag_noise_std=-0.1)


@given(st.floats(-1.3, 1.3), st.floats(-1.3, 1.3), st.floats(-3.1, 3.1),
       st.integers(0, 1000))
@settings(max_examples=80, deadline=None)
def test_mag_is_always_unit_norm(roll, pitch, yaw, seed):
    imu = Imu(SensorParams(), seed=seed)
    s = imu.measure(attitude_state(roll, pitch, yaw))
    assert v_norm(s.mag) == pytest.approx(1.0, abs=1e-9)


def test_noisy_mag_still_body_consistent():
    """Noiseless mag equals the world axis rotated into the body frame."""
    rng = np.random.default_rng(3)
    imu = Imu(quiet(), seed=0)
    for _ in range(50):
        roll, pitch, yaw = rng.uniform(-1.2, 1.2, 3)
        state = attitude_state(roll, pitch, yaw)
        s = imu.measure(state)
        assert s.mag == pytest.approx(
            quat_rotate_inverse(state.attitude, MAG_WORLD), abs=1e-12)
