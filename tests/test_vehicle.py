"""Plant dynamics against closed-form solutions of the velocity-lag ODE."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facadesim.geometry import (
    euler_from_quat,
    quat_from_euler,
    quat_rotate,
    quat_rotate_inverse,
    v_norm,
    wrap_angle,
)
from facadesim.vehicle import (
    G_VEC,
    GRAVITY,
    TrueState,
    VehicleParams,
    VelocityCommand,
    step_dynamics,
)

DT = 0.01


def run_plant(state, commands, params, dt=DT):
    states = [state]
    for cmd in commands:
        state = step_dynamics(state, cmd, params, dt)
        states.append(state)
    return states


def test_at_rest_state():
    s = TrueState.at_rest((1.0, 2.0, 3.0), yaw=0.7)
    assert s.position == (1.0, 2.0, 3.0)
    assert s.velocity == (0.0, 0.0, 0.0)
    assert euler_from_quat(s.attitude) == pytest.approx((0.0, 0.0, 0.7))
    assert s.accel_world == (0.0, 0.0, 0.0)


def test_dt_must_be_positive():
    s = TrueState.at_rest((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        step_dynamics(s, VelocityCommand(), VehicleParams(), 0.0)
    with pytest.raises(ValueError):
        step_dynamics(s, VelocityCommand(), VehicleParams(), -0.01)


def test_velocity_follows_exact_exponential():
    """Vertical commands leave the body level, exposing the pure lag law."""
    params = VehicleParams(v_max=5.0, tau=0.3)
    cmd = VelocityCommand(v_body=(0.0, 0.0, 2.0))
    s = TrueState.at_rest((0.0, 0.0, 1.0), yaw=0.0)
    n = 250
    for k in range(1, n + 1):
        s = step_dynamics(s, cmd, params, DT)
        expect = 2.0 * (1.0 - math.exp(-k * DT / params.tau))
        assert s.velocity[2] == pytest.approx(expect, abs=1e-12)
        assert s.velocity[0] == pytest.approx(0.0, abs=1e-12)


def test_position_matches_summed_series():
    """Position is the dt-weighted sum of the exact velocity sequence."""
    params = VehicleParams(v_max=5.0, tau=0.4)
    cmd = VelocityCommand(v_body=(0.0, 0.0, 1.5))
    s = TrueState.at_rest((0.0, 0.0, 3.0), yaw=0.0)
    n = 400
    for _ in range(n):
        s = step_dynamics(s, cmd, params, DT)
    a = math.exp(-DT / params.tau)
    # p = p0 + dt * sum_{k=1..n} v_cmd (1 - a^k)
    expect = 3.0 + DT * (1.5 * n - 1.5 * a * (1.0 - a ** n) / (1.0 - a))
    assert s.position[2] == pytest.approx(expect, abs=1e-9)


def test_step_matches_lag_update_under_tilt():
    """Each step applies the lag toward the command in the current frame."""
    params = VehicleParams(v_max=5.0, tau=0.3)
    cmd = VelocityCommand(v_body=(2.0, -0.5, 0.3))
    s = TrueState.at_rest((0.0, 0.0, 2.0), yaw=0.4)
    alpha = 1.0 - math.exp(-DT / params.tau)
    for _ in range(200):
        v_cmd = quat_rotate(s.attitude, cmd.v_body)
        expect = tuple(s.velocity[i] + (v_cmd[i] - s.velocity[i]) * alpha
                       for i in range(3))
        s = step_dynamics(s, cmd, params, DT)
        assert s.velocity == pytest.approx(expect, abs=1e-12)


def test_zero_tau_tracks_command_immediately():
    params = VehicleParams(tau=0.0)
    s = TrueState.at_rest((0.0, 0.0, 1.0))
    s = step_dynamics(s, VelocityCommand(v_body=(1.0, 0.0, 0.0)), params, DT)
    assert s.velocity[0] == pytest.approx(1.0)


def test_ground_plane_clamp():
    params = VehicleParams()
    s = TrueState.at_rest((0.0, 0.0, 0.05))
    cmd = VelocityCommand(v_body=(0.0, 0.0, -3.0))
    for _ in range(200):
        s = step_dynamics(s, cmd, params, DT)
        assert s.position[2] >= 0.0
    assert s.position[2] == 0.0


def test_speed_clamp_preserves_direction():
    params = VehicleParams(v_max=1.0, tau=1e-12)
    s = TrueState.at_rest((0.0, 0.0, 5.0))
    s = step_dynamics(s, VelocityCommand(v_body=(3.0, 4.0, 0.0)), params, DT)
    v = s.velocity
    assert v_norm(v) == pytest.approx(1.0, abs=1e-9)
    assert v[1] / v[0] == pytest.approx(4.0 / 3.0)


def test_yaw_rate_clamp_and_integration():
    params = VehicleParams(yaw_rate_max=0.5)
    s = TrueState.at_rest((0.0, 0.0, 2.0), yaw=0.0)
    for k in range(100):
        s = step_dynamics(s, VelocityCommand(yaw_rate=2.0), params, DT)
    assert euler_from_quat(s.attitude)[2] == pytest.approx(0.5 * 1.0, abs=1e-9)


def test_command_is_body_frame():
    params = VehicleParams(tau=1e-12)
    yaw = math.pi / 2.0
    s = TrueState.at_rest((0.0, 0.0, 2.0), yaw=yaw)
    s = step_dynamics(s, VelocityCommand(v_body=(1.0, 0.0, 0.0)), params, DT)
    # body +x at yaw 90 deg is world +y
    assert s.velocity[0] == pytest.approx(0.0, abs=1e-9)
    assert s.velocity[1] == pytest.approx(1.0, abs=1e-9)


def test_accel_world_is_velocity_difference_quotient():
    params = VehicleParams()
    s = TrueState.at_rest((0.0, 0.0, 2.0))
    cmd = VelocityCommand(v_body=(2.0, -1.0, 0.5))
    for _ in range(50):
        prev_v = s.velocity
        s = step_dynamics(s, cmd, params, DT)
        expect = tuple((s.velocity[i] - prev_v[i]) / DT for i in range(3))
        assert s.accel_world == pytest.approx(expect, abs=1e-12)


def varied_commands(n):
    cmds = []
    for k in range(n):
        phase = k // 100
        vx = [2.0, 0.0, -1.0, 0.5][phase % 4]
        vy = [0.0, 1.5, 0.0, -0.5][phase % 4]
        wz = [0.0, 0.8, -0.4, 0.0][phase % 4]
        cmds.append(VelocityCommand(v_body=(vx, vy, 0.2), yaw_rate=wz))
    return cmds


def test_tilt_hides_horizontal_specific_force():
    """Thrust-vector tilt puts the whole specific force on body z."""
    params = VehicleParams()
    s = TrueState.at_rest((0.0, 0.0, 2.0))
    for cmd in varied_commands(600):
        s = step_dynamics(s, cmd, params, DT)
        f_world = (s.accel_world[0] - G_VEC[0],
                   s.accel_world[1] - G_VEC[1],
                   s.accel_world[2] - G_VEC[2])
        fb = quat_rotate_inverse(s.attitude, f_world)
        assert abs(fb[0]) < 1e-9
        assert abs(fb[1]) < 1e-9
        assert fb[2] == pytest.approx(v_norm(f_world), abs=1e-9)


def test_body_rates_integrate_back_to_attitude():
    """Forward Z-Y-X kinematics at step-start angles recover each step."""
    params = VehicleParams()
    s = TrueState.at_rest((0.0, 0.0, 2.0), yaw=0.3)
    roll, pitch, yaw = euler_from_quat(s.attitude)
    for cmd in varied_commands(600):
        s = step_dynamics(s, cmd, params, DT)
        p, q, r = s.angular_rate
        sr, cr = math.sin(roll), math.cos(roll)
        sp, cp = math.sin(pitch), math.cos(pitch)
        droll = p + (q * sr + r * cr) * sp / cp
        dpitch = q * cr - r * sr
        dyaw = (q * sr + r * cr) / cp
        roll = wrap_angle(roll + droll * DT)
        pitch = pitch + dpitch * DT
        yaw = wrap_angle(yaw + dyaw * DT)
        er, ep, ey = euler_from_quat(s.attitude)
        assert roll == pytest.approx(er, abs=1e-9)
        assert pitch == pytest.approx(ep, abs=1e-9)
        assert abs(wrap_angle(yaw - ey)) < 1e-9
        roll, pitch, yaw = er, ep, ey


def test_hover_state_is_level_and_forceless():
    params = VehicleParams()
    s = TrueState.at_rest((0.0, 0.0, 2.0), yaw=1.0)
    for _ in range(100):
        s = step_dynamics(s, VelocityCommand(), params, DT)
    r, p, y = euler_from_quat(s.attitude)
    assert r == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(0.0, abs=1e-12)
    assert y == pytest.approx(1.0, abs=1e-12)
    fb = quat_rotate_inverse(s.attitude,
                             (0.0 - G_VEC[0], -G_VEC[1], -G_VEC[2]))
    assert fb[2] == pytest.approx(GRAVITY)


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
       st.floats(-1, 1), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_step_invariants(vx, vy, vz, wz, yaw_q):
    params = VehicleParams(v_max=3.0)
    s = TrueState.at_rest((0.0, 0.0, 1.0), yaw=yaw_q * 0.5)
    cmd = VelocityCommand(v_body=(vx, vy, vz), yaw_rate=wz)
    for _ in range(20):
        prev = s
        s = step_dynamics(s, cmd, params, DT)
        assert s.position[2] >= 0.0
        assert v_norm(s.velocity) <= max(v_norm(prev.velocity),
                                         params.v_max) + 1e-9
