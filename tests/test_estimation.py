"""Kalman filter against a dense numpy oracle; dead-reckoning drift laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facadesim.attitude import AttitudeEstimate, ComplementaryGain
from facadesim.errors import InvalidScenario
from facadesim.estimation import (
    DeadReckoner,
    EstimatedState,
    InertialEstimator,
    KalmanConfig,
    KalmanState,
    dead_reckon,
    diag3,
    kalman_predict,
    kalman_update,
    world_accel,
)
from facadesim.geometry import (
    euler_from_quat,
    quat_from_euler,
    quat_rotate_inverse,
    v_dist,
)
from facadesim.sensors import ImuSample, SensorParams, Imu
from facadesim.vehicle import (
    GRAVITY,
    TrueState,
    VehicleParams,
    VelocityCommand,
    step_dynamics,
)

DT = 0.01

F = np.array([[1.0, DT, 0.5 * DT * DT], [0.0, 1.0, DT], [0.0, 0.0, 1.0]])
H = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])


def np_predict(x, P, Q):
    return F @ x, F @ P @ F.T + Q


def np_update(x, P, R, z, joseph=False):
    S = H @ P @ H.T + R
    K = P @ H.T @ np.linalg.inv(S)
    x2 = x + K @ (z - H @ x)
    IKH = np.eye(3) - K @ H
    if joseph:
        P2 = IKH @ P @ IKH.T + K @ R @ K.T
    else:
        P2 = IKH @ P
    return x2, P2


def as_np(state):
    return np.array(state.x), np.array(state.P)


def random_cycle_inputs(rng):
    x = rng.uniform(-5, 5, 3)
    A = rng.uniform(-1, 1, (3, 3))
    P = A @ A.T + 0.1 * np.eye(3)
    q = rng.uniform(0.0, 0.1, 3)
    r = rng.uniform(0.01, 0.5)
    z = rng.uniform(-3, 3, 2)
    return x, P, q, r, z


def test_predict_matches_numpy_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        x, P, q, r, z = random_cycle_inputs(rng)
        cfg = KalmanConfig(Q=diag3(*q), R=((r, 0.0), (0.0, r)))
        st_in = KalmanState(x=tuple(x), P=tuple(map(tuple, P)))
        out = kalman_predict(st_in, cfg, DT)
        ex, eP = np_predict(x, P, np.diag(q))
        gx, gP = as_np(out)
        assert np.allclose(gx, ex, atol=1e-12)
        assert np.allclose(gP, eP, atol=1e-12)


def test_update_matches_numpy_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        x, P, q, r, z = random_cycle_inputs(rng)
        cfg = KalmanConfig(Q=diag3(*q), R=((r, 0.0), (0.0, r)))
        st_in = KalmanState(x=tuple(x), P=tuple(map(tuple, P)))
        out = kalman_update(st_in, tuple(z), cfg)
        ex, eP = np_update(x, P, r * np.eye(2), z)
        gx, gP = as_np(out)
        assert np.allclose(gx, ex, atol=1e-10)
        # the implementation symmetrizes; compare to the symmetrized oracle
        assert np.allclose(gP, 0.5 * (eP + eP.T), atol=1e-10)


def test_update_equals_joseph_form():
    """Simple-form posterior covariance within 1e-8 of the Joseph form."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(300):
        x, P, q, r, z = random_cycle_inputs(rng)
        cfg = KalmanConfig(Q=diag3(*q), R=((r, 0.0), (0.0, r)))
        st_in = KalmanState(x=tuple(x), P=tuple(map(tuple, P)))
        out = kalman_update(st_in, tuple(z), cfg)
        _, jP = np_update(x, P, r * np.eye(2), z, joseph=True)
        _, gP = as_np(out)
        worst = max(worst, float(np.max(np.abs(gP - jP))))
    assert worst <= 1e-8


def minors_psd(P, tol=-1e-9):
    m1 = P[0][0]
    m2 = P[0][0] * P[1][1] - P[0][1] * P[1][0]
    m3 = (P[0][0] * (P[1][1] * P[2][2] - P[1][2] * P[2][1])
          - P[0][1] * (P[1][0] * P[2][2] - P[1][2] * P[2][0])
          + P[0][2] * (P[1][0] * P[2][1] - P[1][1] * P[2][0]))
    return m1 >= tol and m2 >= tol and m3 >= tol


def test_covariance_stays_symmetric_psd():
    rng = np.random.default_rng(3)
    cfg = KalmanConfig()
    state = KalmanState(x=(0.0, 0.0, 0.0), P=cfg.P0)
    for k in range(20000):
        state = kalman_predict(state, cfg, DT)
        z = rng.normal(0.0, 0.3, 2)
        state = kalman_update(state, (z[0], z[1]), cfg)
        P = state.P
        for i in range(3):
            for j in range(i):
                assert P[i][j] == P[j][i]
        if k % 100 == 0:
            assert minors_psd(P)
    assert minors_psd(state.P)


def test_update_singular_innovation_raises():
    cfg = KalmanConfig(R=((0.0, 0.0), (0.0, 0.0)))
    state = KalmanState(x=(0.0, 0.0, 0.0), P=diag3(1.0, 1.0, 0.0))
    with pytest.raises(InvalidScenario):
        kalman_update(state, (0.1, 0.2), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        KalmanConfig(Q=((1.0, 0.5, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    with pytest.raises(ValueError):
        KalmanConfig(Q=diag3(-1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        kalman_predict(KalmanState(x=(0, 0, 0), P=diag3(1, 1, 1)),
                       KalmanConfig(), 0.0)


def test_for_accel_noise_sets_R():
    cfg = KalmanConfig.for_accel_noise(0.05)
    assert cfg.R[0][0] == pytest.approx(0.0025)
    assert cfg.R[1][1] == pytest.approx(0.0025)
    assert cfg.R[0][1] == 0.0


# -- dead reckoning -----------------------------------------------------------

def test_dead_reckon_constant_accel_is_exact():
    """Trapezoidal integration is exact for piecewise-linear velocity."""
    a = (0.3, -0.2, 0.1)
    n = 500
    trace = dead_reckon([a] * (n + 1), DT)
    t = n * DT
    expect = tuple(0.5 * ai * t * t for ai in a)
    assert trace[-1] == pytest.approx(expect, abs=1e-12)
    assert trace[0] == (0.0, 0.0, 0.0)
    assert len(trace) == n + 1


def test_dead_reckon_linear_ramp():
    c = 0.4
    n = 1000
    stream = [(c * k * DT, 0.0, 0.0) for k in range(n + 1)]
    trace = dead_reckon(stream, DT)
    t = n * DT
    # v is exact (trapezoid of a line); p picks up the O(dt^2) rule error
    expect = c * t ** 3 / 6.0
    assert trace[-1][0] == pytest.approx(expect, abs=c * t * DT * DT)


def test_dead_reckon_validation():
    with pytest.raises(ValueError):
        dead_reckon([], DT)
    with pytest.raises(ValueError):
        dead_reckon([(0, 0, 0)], 0.0)


def test_dead_reckon_noise_follows_t_to_three_halves():
    """Double-integrated white noise: RMS position grows as t^1.5."""
    rng = np.random.default_rng(7)
    sigma = 0.05
    t1, t2 = 5.0, 20.0
    n2 = int(t2 / DT)
    n1 = int(t1 / DT)
    finals1 = []
    finals2 = []
    for _ in range(200):
        noise = rng.normal(0.0, sigma, n2 + 1)
        stream = [(float(v), 0.0, 0.0) for v in noise]
        trace = dead_reckon(stream, DT)
        finals1.append(trace[n1][0])
        finals2.append(trace[-1][0])
    rms1 = float(np.sqrt(np.mean(np.square(finals1))))
    rms2 = float(np.sqrt(np.mean(np.square(finals2))))
    ratio = rms2 / rms1
    assert (t2 / t1) ** 1.5 * 0.85 <= ratio <= (t2 / t1) ** 1.5 * 1.15
    # absolute scale: Var = sigma^2 dt t^3 / 3
    expect2 = sigma * math.sqrt(DT * t2 ** 3 / 3.0)
    assert rms2 == pytest.approx(expect2, rel=0.15)


def test_dead_reckoner_streaming_matches_batch():
    """The online reckoner agrees with the batch helper on level flight."""
    rng = np.random.default_rng(8)
    n = 400
    accels = [tuple(rng.uniform(-1, 1, 3)) for _ in range(n)]
    samples = [
        ImuSample(gyro=(0.0, 0.0, 0.0),
                  accel=(a[0], a[1], a[2] + GRAVITY), mag=(1.0, 0.0, 0.0),
                  time=k * DT)
        for k, a in enumerate(accels)
    ]
    reck = DeadReckoner((0.0, 0.0, 0.0), quat_from_euler(0, 0, 0), dt=DT)
    last = None
    for s in samples:
        last = reck.step(s)
    batch = dead_reckon(accels, DT)
    assert last == pytest.approx(batch[-1], abs=1e-9)


def test_world_accel_inverts_sensor_model():
    rng = np.random.default_rng(9)
    for _ in range(100):
        roll, pitch, yaw = rng.uniform(-1.0, 1.0, 3)
        a_world = tuple(rng.uniform(-3, 3, 3))
        q = quat_from_euler(roll, pitch, yaw)
        f_body = quat_rotate_inverse(
            q, (a_world[0], a_world[1], a_world[2] + GRAVITY))
        att = AttitudeEstimate(roll, pitch, yaw, q, 0.0)
        sample = ImuSample(gyro=(0, 0, 0), accel=f_body,
                           mag=(1, 0, 0), time=0.0)
        assert world_accel(sample, att) == pytest.approx(a_world, abs=1e-9)


# -- closed pipelines -----------------------------------------------------------

def noiseless_params():
    return SensorParams(gyro_noise_std=0.0, accel_noise_std=0.0,
                        mag_noise_std=0.0, gyro_bias=(0.0, 0.0, 0.0),
                        accel_bias=(0.0, 0.0, 0.0))


def test_estimator_tracks_truth_without_noise():
    """Pure-gyro attitude plus the Kalman cascade reproduce a clean flight."""
    params = VehicleParams()
    sensors = noiseless_params()
    imu1 = Imu(sensors, seed=0, imu_id=0)
    imu2 = Imu(sensors, seed=0, imu_id=1)
    est = InertialEstimator(KalmanConfig.for_accel_noise(1e-6),
                            ComplementaryGain(1.0), (0.0, 0.0, 2.0),
                            initial_yaw=0.5, dt=DT)
    true = TrueState.at_rest((0.0, 0.0, 2.0), yaw=0.5)
    worst_pos = 0.0
    worst_att = 0.0
    for k in range(2000):
        phase = (k // 400) % 4
        cmd = VelocityCommand(
            v_body=[(1.5, 0, 0), (0, 1.0, 0.2), (-0.5, 0, 0), (0, 0, 0)][phase],
            yaw_rate=[0.0, 0.5, -0.3, 0.0][phase])
        s1 = imu1.measure(true)
        s2 = imu2.measure(true)
        out = est.step(s1, s2)
        worst_pos = max(worst_pos, v_dist(out.position, true.position))
        tr, tp, ty = euler_from_quat(true.attitude)
        worst_att = max(worst_att, abs(out.attitude.roll - tr),
                        abs(out.attitude.pitch - tp))
        true = step_dynamics(true, cmd, params, DT)
    assert worst_att < 1e-9
    assert worst_pos < 0.05


def test_estimator_shared_covariance_matches_per_axis_filters():
    """One covariance for three axes is exact: each axis equals its own
    kalman_predict -> kalman_update chain, bit for bit."""
    cfg = KalmanConfig.for_accel_noise(0.05)
    start = (1.0, -2.0, 3.0)
    imu1 = Imu(SensorParams(), seed=4, imu_id=0)
    imu2 = Imu(SensorParams(), seed=4, imu_id=1)
    est = InertialEstimator(cfg, ComplementaryGain(0.98), start,
                            initial_yaw=0.3, dt=DT)
    axes = [KalmanState(x=(start[i] + cfg.x0[0], cfg.x0[1], cfg.x0[2]),
                        P=cfg.P0) for i in range(3)]
    true = TrueState.at_rest(start, yaw=0.3)
    max_rate = max_tilt = 0.0
    for k in range(500):
        phase = (k // 100) % 4
        cmd = VelocityCommand(
            v_body=[(2.0, 0, 0.3), (0, -1.5, 0), (-1.0, 1.0, -0.2),
                    (0, 0, 0)][phase],
            yaw_rate=[0.4, -0.6, 0.2, 0.0][phase])
        s1 = imu1.measure(true)
        s2 = imu2.measure(true)
        out = est.step(s1, s2)
        a1 = world_accel(s1, out.attitude)
        a2 = world_accel(s2, out.attitude)
        for i in range(3):
            axes[i] = kalman_update(kalman_predict(axes[i], cfg, DT),
                                    (a1[i], a2[i]), cfg)
        assert out.position == tuple(a.x[0] for a in axes)
        assert out.velocity == tuple(a.x[1] for a in axes)
        max_rate = max(max_rate, max(abs(g) for g in s1.gyro))
        max_tilt = max(max_tilt, abs(s1.accel[0]), abs(s1.accel[1]))
        true = step_dynamics(true, cmd, VehicleParams(), DT)
    assert max_rate > 0.1 and max_tilt > 0.1   # the stream did manoeuvre


def test_estimator_state_shape():
    est = InertialEstimator(KalmanConfig(), ComplementaryGain(0.98),
                            (1.0, 2.0, 3.0), initial_yaw=0.1, dt=DT)
    s = est.state()
    assert isinstance(s, EstimatedState)
    assert s.position == pytest.approx((1.0, 2.0, 3.0))
    assert s.velocity == pytest.approx((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        InertialEstimator(KalmanConfig(), ComplementaryGain(), (0, 0, 0),
                          dt=0.0)
    with pytest.raises(ValueError):
        DeadReckoner((0, 0, 0), quat_from_euler(0, 0, 0), dt=-1.0)


@given(st.floats(0.001, 0.2), st.floats(0.001, 1.0))
@settings(max_examples=50, deadline=None)
def test_predict_monotone_covariance_growth(q2, p0):
    """Prediction can only add uncertainty on the diagonal."""
    cfg = KalmanConfig(Q=diag3(0.0, 0.0, q2))
    state = KalmanState(x=(0.0, 0.0, 0.0), P=diag3(p0, p0, p0))
    out = kalman_predict(state, cfg, DT)
    for i in range(3):
        assert out.P[i][i] >= state.P[i][i] - 1e-15
