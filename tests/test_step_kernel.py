"""The mission's step kernel equals the per-layer API, and calls no helper.

`run_hover` and `run_mission` drive the generator `mission._step_kernel`
returns, whose step is straight-line arithmetic of its own.  The
public functions of the sensor, attitude, estimation, control and vehicle
modules compute the same step separately, so a loop that composes
`Imu.measure` -> `InertialEstimator.step` / `DeadReckoner.step` ->
`track_waypoint` -> `step_dynamics` is the reference: every trace must
match it bit for bit, sign of zero included.
"""

import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facadesim import mission, world
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
    _lag,
    step_dynamics,
)

STEPS = 150
# an avoidance-like override: faster than v_max, so the plant's speed
# clamp runs, and flown at yaw rate 0; it also resets the tracking PID
OVERRIDE = VelocityCommand(v_body=(0.5, 4.0, -0.3), yaw_rate=0.0)
# at dt 0.01 s from rest, straight down at the speed whose lagged step
# accelerates at -g: the thrust vanishes and the plant holds its tilt
FREE_FALL = VelocityCommand(
    v_body=(0.0, 0.0, -GRAVITY * 0.01 / _lag(VehicleParams.tau, 0.01)),
    yaw_rate=0.0)


def _overridden(k: int) -> bool:
    return k % 50 >= 45


# the kernel's locals holding the true position, velocity, attitude,
# angular rate and world acceleration
_TRUE = ("px", "py", "pz", "vx", "vy", "vz", "qw", "qx", "qy", "qz",
         "wx", "wy", "wz", "ax", "ay", "az")


def _row(true: tuple, est_pos, quat, yaw, dr_pos, v_body, yaw_rate):
    return true + est_pos + quat + (yaw,) + dr_pos + v_body + (yaw_rate,)


def kernel_traces(run: dict) -> np.ndarray:
    """Each step reads the true state it senses from the generator's frame,
    then sends the waypoint or the override.  The command a step flew is
    read back from the frame too, whose locals `v_body` and `yaw_rate`
    hold it."""
    kernel = _step_kernel(
        run["sensors"], run["seed"], run["kalman"], run["alpha"],
        run["start"], run["yaw"], run["dt"], run["gains"], run["vehicle"],
        run["kp_yaw"])
    wp = Waypoint(run["setpoint"], 0.0, 0)
    est_pos, dr_pos, quat, yaw, _, _ = next(kernel)
    rows = []
    for k in range(STEPS):
        state = kernel.gi_frame.f_locals
        true = tuple(state[name] for name in _TRUE)
        sensed = kernel.send(run["override"].v_body if _overridden(k)
                             else wp)
        flown = kernel.gi_frame.f_locals
        rows.append(_row(true, est_pos, quat, yaw, dr_pos, flown["v_body"],
                         flown["yaw_rate"]))
        est_pos, dr_pos, quat, yaw, _, _ = sensed
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
            cmd = run["override"]
        else:
            cmd, pid = track_waypoint(est, wp, run["gains"], pid, dt,
                                      v_max=vehicle.v_max,
                                      kp_yaw=run["kp_yaw"],
                                      yaw_rate_max=vehicle.yaw_rate_max)
        att = est.attitude
        rows.append(_row(true.position + true.velocity + true.attitude
                         + true.angular_rate + true.accel_world,
                         est.position, att.quat, att.yaw, dr_pos,
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
    return KalmanConfig(q=draw(_vec(1e-8, 0.1)), r=draw(st.floats(1e-6, 0.1)),
                        p0=draw(_vec(1e-8, 1.0)))


_POINTS = st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
                    st.floats(-1.0, 20.0))


@given(sensors=_sensor_params(), kalman=_kalman_configs(),
       alpha=st.floats(0.0, 1.0), start=_POINTS, setpoint=_POINTS,
       yaw=st.floats(-4.0, 4.0), dt=st.floats(0.002, 0.05),
       seed=st.integers(0, 2**32 - 1), override=st.just(OVERRIDE))
# IMU 1's accel bias cancels gravity: the accelerometer cannot give tilt
@example(sensors=SensorParams(0.0, 0.0, 0.0, (0.0, 0.0, 0.0),
                              (0.0, 0.0, -GRAVITY)),
         kalman=KalmanConfig(), alpha=0.98, start=(0.0, 0.0, 2.0),
         setpoint=(0.0, 0.0, 2.0), yaw=0.0, dt=0.01, seed=0,
         override=OVERRIDE)
# a measured pitch of 90 deg leaves the field no horizontal component
@example(sensors=SensorParams(0.0, 0.0, 0.0, (0.0, 0.0, 0.0),
                              (-GRAVITY, 0.0, -GRAVITY)),
         kalman=KalmanConfig(), alpha=0.5, start=(1.0, 2.0, 3.0),
         setpoint=(1.0, 2.0, 3.0), yaw=0.0, dt=0.01, seed=1,
         override=OVERRIDE)
# a setpoint below ground: the plant clamps at z = 0
@example(sensors=SensorParams(), kalman=KalmanConfig(), alpha=0.98,
         start=(0.0, 0.0, 0.05), setpoint=(0.0, 0.0, -1.0), yaw=0.0,
         dt=0.01, seed=2, override=OVERRIDE)
# a far setpoint and a large yaw error: tracking speed and yaw rate clamp
@example(sensors=SensorParams(), kalman=KalmanConfig(), alpha=0.98,
         start=(0.0, 0.0, 2.0), setpoint=(40.0, -30.0, 10.0), yaw=3.0,
         dt=0.01, seed=3, override=OVERRIDE)
# no noise, no bias, at rest: zero gyro, the small-angle rotation branch
@example(sensors=SensorParams(0.0, 0.0, 0.0, (0.0, 0.0, 0.0),
                              (0.0, 0.0, 0.0)),
         kalman=KalmanConfig(), alpha=1.0, start=(5.0, 5.0, 5.0),
         setpoint=(5.0, 5.0, 5.0), yaw=0.0, dt=0.01, seed=4,
         override=OVERRIDE)
# run_hover's filter: its gains reach a fixed point at step 19 and replay
@example(sensors=SensorParams(),
         kalman=KalmanConfig.for_accel_noise(SensorParams().accel_noise_std),
         alpha=0.98, start=(0.0, 0.0, 2.0), setpoint=(0.0, 0.0, 2.0),
         yaw=0.0, dt=0.01, seed=0, override=OVERRIDE)
# alpha 0 takes the measured pitch of 90 deg at once: the attitude step's
# gimbal-lock clamp
@example(sensors=SensorParams(0.0, 0.0, 0.0, (0.0, 0.0, 0.0),
                              (-GRAVITY, 0.0, -GRAVITY)),
         kalman=KalmanConfig(), alpha=0.0, start=(1.0, 2.0, 3.0),
         setpoint=(1.0, 2.0, 3.0), yaw=0.0, dt=0.01, seed=5,
         override=OVERRIDE)
# no noise, no bias, at rest until the override: the plant's free fall
@example(sensors=SensorParams(0.0, 0.0, 0.0, (0.0, 0.0, 0.0),
                              (0.0, 0.0, 0.0)),
         kalman=KalmanConfig(), alpha=1.0, start=(5.0, 5.0, 5.0),
         setpoint=(5.0, 5.0, 5.0), yaw=0.0, dt=0.01, seed=6,
         override=FREE_FALL)
# alpha 1.0 skips the measurement, so only the skip wraps the gyro pitch:
# here it lands on -pi at one step and wraps to pi
@example(sensors=SensorParams(0.0, 0.0, 0.0, (0.0, 0.0, 0.0),
                              (0.0, 0.0, 0.0)),
         kalman=KalmanConfig(), alpha=1.0, start=(0.0, 0.0, 0.0),
         setpoint=(0.0, 0.0, 1.0), yaw=0.0, dt=0.0078125, seed=0,
         override=FREE_FALL)
# the same skip with the shipped noise: the gyro pitch reaches -3.58 at
# one step and wraps to 2.70
@example(sensors=SensorParams(), kalman=KalmanConfig(), alpha=1.0,
         start=(0.0, 0.0, 2.0), setpoint=(3.0, 1.5, 2.0), yaw=1.0,
         dt=0.0078125, seed=7, override=FREE_FALL)
@settings(max_examples=60, deadline=None)
def test_kernel_equals_composed_api(sensors, kalman, alpha, start, setpoint,
                                    yaw, dt, seed, override):
    assert_kernel_matches_api(dict(
        sensors=sensors, seed=seed, kalman=kalman, alpha=alpha, start=start,
        setpoint=setpoint, yaw=yaw, dt=dt, gains=PidGains(),
        vehicle=VehicleParams(), kp_yaw=0.8, override=override))


def _is_math_or_builtin(call: ast.Call) -> bool:
    """`math.f(...)`, or a bare name bound in `mission` to a math function,
    or min, max, abs or next."""
    f = call.func
    if isinstance(f, ast.Attribute):
        return (isinstance(f.value, ast.Name) and f.value.id == "math"
                and callable(getattr(math, f.attr, None)))
    if not isinstance(f, ast.Name):
        return False
    if f.id in ("min", "max", "abs", "next"):
        return f.id not in vars(mission)   # the builtin, not a shadow
    return vars(mission).get(f.id, None) is getattr(math, f.id, False)


# a valid run: `_step_kernel(**_RUN)` returns the kernel's generator
_RUN = dict(sensors=SensorParams(), seed=0, kalman=KalmanConfig(),
            alpha=0.98, start=(0.0, 0.0, 2.0), yaw=0.0, dt=0.01,
            gains=PidGains(), vehicle=VehicleParams(), kp_yaw=0.8)


def test_kernel_steps_call_only_math_and_streams():
    """The step, the `while True:` body of the kernel's generator, calls no
    helper: a call added back to a core or a geometry function fails here."""
    tree = ast.parse(inspect.getsource(_step_kernel(**_RUN).gi_code))
    loops = [w for w in ast.walk(tree) if isinstance(w, ast.While)
             and isinstance(w.test, ast.Constant) and w.test.value is True]
    assert len(loops) == 1
    calls = [c for c in ast.walk(loops[0]) if isinstance(c, ast.Call)]
    assert calls
    bad = [ast.unparse(c.func) for c in calls if not _is_math_or_builtin(c)]
    assert not bad, f"the step calls {bad}"


def test_kernel_state_is_in_one_frame():
    """`_step_kernel` and its generator define no closure and bind no
    `nonlocal`: the state stays fast locals of one generator frame, not
    cells shared by nested functions."""
    kernel = _step_kernel(**_RUN)
    assert inspect.isgenerator(kernel)
    for code in (_step_kernel.__code__, kernel.gi_code):
        fn = ast.parse(inspect.getsource(code)).body[0]
        bad = [ast.unparse(n).splitlines()[0] for n in ast.walk(fn)
               if isinstance(n, (ast.Nonlocal, ast.Lambda, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and n is not fn]
        assert not bad, f"{code.co_name}: {bad}"
        assert not code.co_cellvars and not code.co_freevars, code.co_name


@pytest.mark.parametrize("bad", [
    dict(seed=-1), dict(alpha=-0.1), dict(alpha=1.5), dict(alpha=math.nan),
    dict(dt=0.0), dict(dt=-0.01)], ids=str)
def test_bad_arguments_raise_at_the_call(bad):
    """A generator body runs only at its first next(): the checks run in
    `_step_kernel` itself, so the call raises, with nothing advanced."""
    with pytest.raises(ValueError):
        _step_kernel(**{**_RUN, **bad})


_FRAMES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_mission_loop_reads_no_enum_member_and_builds_no_frame():
    """The body of `run_mission`'s `while True:` loop, and the `_hidden` and
    `_in_reach` culls it calls each step, read no `MissionPhase.<member>`
    and build no comprehension or generator.  The exception of the
    watchdog's `raise` is built once and is exempt."""
    tree = ast.parse(inspect.getsource(mission.run_mission))
    loops = [w for w in ast.walk(tree) if isinstance(w, ast.While)
             and isinstance(w.test, ast.Constant) and w.test.value is True]
    assert len(loops) == 1
    raised = {id(n) for r in ast.walk(loops[0]) if isinstance(r, ast.Raise)
              for n in ast.walk(r)}
    assert raised
    body = [n for n in ast.walk(loops[0]) if id(n) not in raised]
    bad = [ast.unparse(n) for n in body
           if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
           and isinstance(n.value, ast.Name)
           and n.value.id == "MissionPhase"]
    bad += [ast.unparse(n) for n in body if isinstance(n, _FRAMES)]
    for fn in (mission._hidden, world._in_reach):
        bad += [ast.unparse(n) for n in ast.walk(ast.parse(
            inspect.getsource(fn))) if isinstance(n, _FRAMES)]
    assert not bad, f"the mission step runs {bad}"


def test_mission_loop_state_is_in_fast_locals():
    """`run_mission` defines no closure and binds no `nonlocal`, and its
    `while True:` body loads no name that a post-loop generator made a
    closure cell: each step reads and writes fast locals only."""
    fn = ast.parse(inspect.getsource(mission.run_mission)).body[0]
    bad = [ast.unparse(n).splitlines()[0] for n in ast.walk(fn)
           if isinstance(n, (ast.Nonlocal, ast.Lambda, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and n is not fn]
    assert not bad, bad
    loops = [w for w in ast.walk(fn) if isinstance(w, ast.While)
             and isinstance(w.test, ast.Constant) and w.test.value is True]
    assert len(loops) == 1
    cells = set(mission.run_mission.__code__.co_cellvars)
    loaded = {n.id for n in ast.walk(loops[0])
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert loaded and not loaded & cells, sorted(loaded & cells)
