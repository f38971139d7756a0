"""The mission's step kernel equals the per-layer API it is built from.

`run_hover` and `run_mission` drive `mission._step_kernel`, which calls the
private scalar cores of the sensor, attitude, estimation, control and
vehicle modules directly.  The public functions wrap the same cores, so a
loop that composes `Imu.measure` -> `InertialEstimator.step` /
`DeadReckoner.step` -> `track_waypoint` -> `step_dynamics` is the
reference: every trace must match it bit for bit, sign of zero included.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facadesim.attitude import ComplementaryGain
from facadesim.control import PidGains, PidState, track_waypoint
from facadesim.estimation import DeadReckoner, InertialEstimator, KalmanConfig
from facadesim.geometry import quat_from_euler
from facadesim.mission import _step_kernel
from facadesim.planner import Waypoint
from facadesim.sensors import Imu, SensorParams
from facadesim.vehicle import (
    GRAVITY,
    TrueState,
    VehicleParams,
    VelocityCommand,
    step_dynamics,
)

STEPS = 150
# an avoidance-like override: faster than v_max and yawing faster than
# yaw_rate_max, so the plant's clamps run; it also resets the tracking PID
OVERRIDE = VelocityCommand(v_body=(0.5, 4.0, -0.3), yaw_rate=2.0)


def _overridden(k: int) -> bool:
    return k % 50 >= 45


def _row(true: TrueState, est_pos, quat, yaw, dr_pos, v_body, yaw_rate):
    return (true.position + true.velocity + true.attitude + true.angular_rate
            + true.accel_world + (true.time,) + est_pos + quat + (yaw,)
            + dr_pos + v_body + (yaw_rate,))


def kernel_traces(run: dict) -> np.ndarray:
    sense, track, reset_track, fly, true_state = _step_kernel(
        run["sensors"], run["seed"], run["kalman"], run["alpha"],
        run["start"], run["yaw"], run["dt"], run["gains"], run["vehicle"],
        run["kp_yaw"])
    wp = Waypoint(run["setpoint"], 0.0, 0)
    rows = []
    for k in range(STEPS):
        est_pos, dr_pos, quat, yaw = sense()
        true = true_state()
        if _overridden(k):
            reset_track()
            v_body, yaw_rate = OVERRIDE.v_body, OVERRIDE.yaw_rate
        else:
            v_body, yaw_rate = track(wp)
        rows.append(_row(true, est_pos, quat, yaw, dr_pos, v_body, yaw_rate))
        fly(v_body, yaw_rate)
    return np.array(rows, dtype=np.float64)


def composed_traces(run: dict) -> np.ndarray:
    sensors, seed, dt, vehicle = (run["sensors"], run["seed"], run["dt"],
                                  run["vehicle"])
    imu1 = Imu(sensors, seed, imu_id=0)
    imu2 = Imu(sensors, seed, imu_id=1)
    estimator = InertialEstimator(run["kalman"],
                                  ComplementaryGain(run["alpha"]),
                                  run["start"], initial_yaw=run["yaw"], dt=dt)
    reckoner = DeadReckoner(run["start"],
                            quat_from_euler(0.0, 0.0, run["yaw"]), dt=dt)
    true = TrueState.at_rest(run["start"], yaw=run["yaw"])
    wp = Waypoint(run["setpoint"], 0.0, 0)
    pid = PidState()
    rows = []
    for k in range(STEPS):
        s1 = imu1.measure(true)
        est = estimator.step(s1, imu2.measure(true))
        dr_pos = reckoner.step(s1)
        if _overridden(k):
            pid = PidState()
            cmd = OVERRIDE
        else:
            cmd, pid = track_waypoint(est, wp, run["gains"], pid, dt,
                                      v_max=vehicle.v_max,
                                      kp_yaw=run["kp_yaw"],
                                      yaw_rate_max=vehicle.yaw_rate_max)
        att = est.attitude
        rows.append(_row(true, est.position, att.quat, att.yaw, dr_pos,
                         cmd.v_body, cmd.yaw_rate))
        true = step_dynamics(true, cmd, vehicle, dt)
    return np.array(rows, dtype=np.float64)


def assert_kernel_matches_api(run: dict) -> None:
    got, want = kernel_traces(run), composed_traces(run)
    if got.tobytes() != want.tobytes():
        same = got.view(np.int64) == want.view(np.int64)
        step, col = np.argwhere(~same)[0]
        raise AssertionError(f"step {step}, column {col}: kernel "
                             f"{got[step, col]!r} != API {want[step, col]!r}")


def _std(hi):
    return st.one_of(st.just(0.0), st.floats(0.0, hi))


def _vec(lo, hi):
    return st.tuples(*(st.floats(lo, hi) for _ in range(3)))


@st.composite
def _sensor_params(draw):
    return SensorParams(
        gyro_noise_std=draw(_std(0.02)), accel_noise_std=draw(_std(0.2)),
        mag_noise_std=draw(_std(0.02)),
        gyro_bias=draw(st.one_of(st.just((0.0, 0.0, 0.0)),
                                 _vec(-0.05, 0.05))),
        accel_bias=draw(st.one_of(st.just((0.0, 0.0, 0.0)),
                                  _vec(-0.5, 0.5))))


@st.composite
def _kalman_configs(draw):
    q = draw(_vec(1e-8, 0.1))
    p0 = draw(_vec(1e-8, 1.0))
    r00, r11 = (draw(st.floats(1e-6, 0.1)) for _ in range(2))
    r01 = draw(st.floats(-0.5, 0.5)) * math.sqrt(r00 * r11)
    return KalmanConfig(
        Q=((q[0], 0.0, 0.0), (0.0, q[1], 0.0), (0.0, 0.0, q[2])),
        R=((r00, r01), (r01, r11)), x0=draw(_vec(-0.1, 0.1)),
        P0=((p0[0], 0.0, 0.0), (0.0, p0[1], 0.0), (0.0, 0.0, p0[2])))


_POINTS = st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
                    st.floats(-1.0, 20.0))


@given(sensors=_sensor_params(), kalman=_kalman_configs(),
       alpha=st.floats(0.0, 1.0), start=_POINTS, setpoint=_POINTS,
       yaw=st.floats(-4.0, 4.0), dt=st.floats(0.002, 0.05),
       seed=st.integers(0, 2**32 - 1))
# IMU 1's accel bias cancels gravity: the accelerometer cannot give tilt
@example(sensors=SensorParams(0.0, 0.0, 0.0, (0.0, 0.0, 0.0),
                              (0.0, 0.0, -GRAVITY)),
         kalman=KalmanConfig(), alpha=0.98, start=(0.0, 0.0, 2.0),
         setpoint=(0.0, 0.0, 2.0), yaw=0.0, dt=0.01, seed=0)
# a measured pitch of 90 deg leaves the field no horizontal component
@example(sensors=SensorParams(0.0, 0.0, 0.0, (0.0, 0.0, 0.0),
                              (-GRAVITY, 0.0, -GRAVITY)),
         kalman=KalmanConfig(), alpha=0.5, start=(1.0, 2.0, 3.0),
         setpoint=(1.0, 2.0, 3.0), yaw=0.0, dt=0.01, seed=1)
# a setpoint below ground: the plant clamps at z = 0
@example(sensors=SensorParams(), kalman=KalmanConfig(), alpha=0.98,
         start=(0.0, 0.0, 0.05), setpoint=(0.0, 0.0, -1.0), yaw=0.0,
         dt=0.01, seed=2)
# a far setpoint and a large yaw error: tracking speed and yaw rate clamp
@example(sensors=SensorParams(), kalman=KalmanConfig(), alpha=0.98,
         start=(0.0, 0.0, 2.0), setpoint=(40.0, -30.0, 10.0), yaw=3.0,
         dt=0.01, seed=3)
# no noise, no bias, at rest: zero gyro, the small-angle rotation branch
@example(sensors=SensorParams(0.0, 0.0, 0.0, (0.0, 0.0, 0.0),
                              (0.0, 0.0, 0.0)),
         kalman=KalmanConfig(), alpha=1.0, start=(5.0, 5.0, 5.0),
         setpoint=(5.0, 5.0, 5.0), yaw=0.0, dt=0.01, seed=4)
@settings(max_examples=60, deadline=None)
def test_kernel_equals_composed_api(sensors, kalman, alpha, start, setpoint,
                                    yaw, dt, seed):
    assert_kernel_matches_api(dict(
        sensors=sensors, seed=seed, kalman=kalman, alpha=alpha, start=start,
        setpoint=setpoint, yaw=yaw, dt=dt, gains=PidGains(),
        vehicle=VehicleParams(), kp_yaw=0.8))

