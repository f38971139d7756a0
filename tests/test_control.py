"""Waypoint PID, sector classification, and the avoidance override."""

import math

import pytest

from facadesim.attitude import AttitudeEstimate
from facadesim.control import (
    _FRESH_LANES,
    _FRESH_PID,
    ObstacleSectors,
    PidGains,
    PidState,
    _pid,
    _sectors,
    avoidance_command,
    classify_sectors,
    track_waypoint,
)
from facadesim.estimation import EstimatedState
from facadesim.geometry import Rect, yaw_of
from facadesim.planner import Waypoint
from facadesim.vehicle import TrueState, VehicleParams, step_dynamics
from facadesim.world import SCAN_N_BINS, LaserScan

DT = 0.01


def est_at(x, y, z, yaw=0.0):
    return EstimatedState(position=(x, y, z), velocity=(0.0, 0.0, 0.0),
                          attitude=AttitudeEstimate.level(yaw))


def scan_of(bins):
    """Sparse scan: {index: range}; bin i points at i - 135 deg."""
    ranges = [math.inf] * SCAN_N_BINS
    for i, r in bins.items():
        ranges[i] = r
    return LaserScan(tuple(ranges))


# -- scalar PID ---------------------------------------------------------------

def test_gains_validation():
    with pytest.raises(ValueError):
        PidGains(kp=-0.1)
    with pytest.raises(ValueError):
        PidGains(ki=-1e-9)
    with pytest.raises(ValueError):
        PidGains(kd=-2.0)


def test_fresh_pid_is_the_default_pid_state():
    assert _FRESH_PID == (0.0, 0.0, False)
    assert PidState(*_FRESH_PID) == PidState()
    assert _FRESH_LANES == (_FRESH_PID,) * 3


def test_pid_first_step_has_no_derivative_kick():
    g = PidGains(kp=2.0, ki=0.5, kd=10.0)
    out, st = _pid(g, _FRESH_PID, 3.0, DT)
    integral, prev_error, initialized = st
    assert out == pytest.approx(2.0 * 3.0 + 0.5 * 3.0 * DT)
    assert initialized
    assert prev_error == 3.0
    assert integral == pytest.approx(3.0 * DT)


def test_pid_second_step_arithmetic():
    g = PidGains(kp=2.0, ki=0.5, kd=0.25)
    _, st = _pid(g, _FRESH_PID, 3.0, DT)
    out, st2 = _pid(g, st, 2.0, DT)
    integral = 3.0 * DT + 2.0 * DT
    assert out == pytest.approx(2.0 * 2.0 + 0.5 * integral
                                + 0.25 * (2.0 - 3.0) / DT)
    assert st2[0] == pytest.approx(integral)


def test_pid_integral_windup_clamp():
    g = PidGains(kp=0.0, ki=1.0, kd=0.0)
    st = _FRESH_PID
    for _ in range(3):
        out, st = _pid(g, st, 1000.0, 1.0)
    assert st[0] == 100.0
    assert out == pytest.approx(100.0)


def test_pid_rejects_bad_dt():
    with pytest.raises(ValueError):
        _pid(PidGains(), _FRESH_PID, 1.0, 0.0)
    with pytest.raises(ValueError):
        _pid(PidGains(), _FRESH_PID, 1.0, -0.01)


# -- waypoint tracking ----------------------------------------------------------

def test_track_waypoint_heads_straight_at_goal():
    wp = Waypoint((3.0, 4.0, 0.0), 0.0, 0)
    cmd, _ = track_waypoint(est_at(0, 0, 0), wp, PidGains(), PidState(), DT)
    # 5 m away: PID output saturates at v_max 3, direction preserved
    assert cmd.v_body[0] == pytest.approx(1.8, abs=1e-6)
    assert cmd.v_body[1] == pytest.approx(2.4, abs=1e-6)
    assert cmd.v_body[2] == 0.0


def test_track_waypoint_rotates_into_body_frame():
    wp = Waypoint((3.0, 4.0, 0.0), 0.0, 0)
    cmd, _ = track_waypoint(est_at(0, 0, 0, yaw=math.pi / 2), wp,
                            PidGains(), PidState(), DT)
    assert cmd.v_body[0] == pytest.approx(2.4, abs=1e-6)
    assert cmd.v_body[1] == pytest.approx(-1.8, abs=1e-6)


def test_track_waypoint_vertical_component():
    wp = Waypoint((0.0, 0.0, 0.1), 0.0, 0)
    cmd, _ = track_waypoint(est_at(0, 0, 0), wp, PidGains(), PidState(), DT)
    assert cmd.v_body[0] == 0.0
    assert cmd.v_body[2] == pytest.approx(0.1, rel=1e-3)


def test_track_waypoint_at_goal_commands_zero_velocity():
    wp = Waypoint((1.0, 1.0, 1.0), 0.5, 0)
    cmd, _ = track_waypoint(est_at(1, 1, 1), wp, PidGains(), PidState(), DT)
    assert cmd.v_body == (0.0, 0.0, 0.0)
    assert cmd.yaw_rate == pytest.approx(0.5)


def test_track_waypoint_yaw_rate_clamped():
    wp = Waypoint((1.0, 1.0, 1.0), math.pi, 0)
    cmd, _ = track_waypoint(est_at(1, 1, 1), wp, PidGains(), PidState(), DT,
                            yaw_rate_max=1.0)
    assert cmd.yaw_rate == 1.0
    cmd, _ = track_waypoint(est_at(1, 1, 1, yaw=math.pi), wp, PidGains(),
                            PidState(), DT)
    assert cmd.yaw_rate == pytest.approx(0.0)


def test_step_response_settles_quickly_without_overshoot():
    """10 m position step, true state fed back: settled well inside 30 s."""
    s = TrueState.at_rest((0.0, 0.0, 2.0))
    wp = Waypoint((10.0, 0.0, 2.0), 0.0, 0)
    params = VehicleParams()
    pid = PidState()
    xs, ts = [], []
    t = 0.0
    for _ in range(3000):
        est = EstimatedState(position=s.position, velocity=s.velocity,
                             attitude=AttitudeEstimate.level(
                                 yaw_of(s.attitude)))
        cmd, pid = track_waypoint(est, wp, PidGains(), pid, DT)
        s = step_dynamics(s, cmd, params, DT)
        t += DT
        xs.append(s.position[0])
        ts.append(t)
    overshoot = max(xs) - 10.0
    assert overshoot < 0.2 * 10.0
    assert abs(xs[-1] - 10.0) < 0.05
    bad = [i for i, x in enumerate(xs) if abs(x - 10.0) > 0.2]
    settled = ts[bad[-1] + 1] if bad else ts[0]
    assert settled <= 30.0


# -- sector classification --------------------------------------------------------

def test_single_front_return():
    s = classify_sectors(scan_of({135: 1.5}), None, (0, 0), 0.0)
    assert s == ObstacleSectors(dist_front=1.5)
    assert s.any_active


def test_left_and_right_sectors():
    s = classify_sectors(scan_of({0: 2.0, 270: 2.5}), None, (0, 0), 0.0)
    assert s == ObstacleSectors(dist_left=2.5, dist_right=2.0)


def test_sector_edges_are_inclusive_front():
    # bins 90 and 180 lie exactly on the +-45 deg sector edges, and the
    # bins next to them, 89 and 181, lie outside the front
    s = classify_sectors(scan_of({90: 1.0, 180: 1.2}), None, (0, 0), 0.0)
    assert s == ObstacleSectors(dist_front=1.0)
    s = classify_sectors(scan_of({89: 1.0, 181: 1.2}), None, (0, 0), 0.0)
    assert s == ObstacleSectors(dist_left=1.2, dist_right=1.0)


def test_engage_threshold_is_strict():
    s = classify_sectors(scan_of({135: 3.0}), None, (0, 0), 0.0, d_engage=3.0)
    assert not s.any_active
    s = classify_sectors(scan_of({135: 2.999}), None, (0, 0), 0.0,
                         d_engage=3.0)
    assert s == ObstacleSectors(dist_front=2.999)


def test_scan_beyond_engage_is_clear():
    # every bin at or beyond d_engage: the early exit gives the default
    s = classify_sectors(scan_of({0: 3.0, 135: 3.0, 270: 7.5}), None, (0, 0),
                         0.0, d_engage=3.0)
    assert s == ObstacleSectors()


def test_nearest_return_wins_per_sector():
    s = classify_sectors(scan_of({101: 2.0, 135: 0.7, 169: 1.4}), None,
                         (0, 0), 0.0)
    assert s.dist_front == 0.7


def test_building_returns_masked_out():
    mask = Rect(2.0, 0.0, 1.0, 1.0)
    scan = scan_of({135: 1.5})
    # hit point (1.5, 0) lands inside the mask: ignored
    assert not classify_sectors(scan, mask, (0, 0), 0.0).any_active
    # same scan rotated away from the building engages normally
    assert classify_sectors(scan, mask, (0, 0), math.pi / 2).dist_front == 1.5
    # and so does the same pose with the drone shifted off the mask
    assert classify_sectors(scan, mask, (0, 5.0), 0.0).dist_front == 1.5


@pytest.mark.parametrize("hits, mask", [
    ([], None),
    ([(135, 1.5)], Rect(2.0, 0.0, 1.0, 1.0)),   # the mask holds the hit
    ([(0, 3.0), (135, 3.0), (270, 7.5)], None),  # at or beyond d_engage
    ([(135, 1.5), (0, 3.0)], Rect(2.0, 0.0, 1.0, 1.0)),
])
def test_sectors_with_no_active_return_are_the_clear_instance(hits, mask):
    """The mission skips `_sectors` on a step whose cast hit nothing, which
    is exact only if these inputs all give clear sectors."""
    s = _sectors(hits, mask, 0.0, 0.0, 0.0, 3.0)
    assert s == ObstacleSectors()


# -- avoidance ------------------------------------------------------------------

def first_out(dist):
    e = 1.0 / dist
    return PidGains().kp * e + PidGains().ki * e * DT


def test_any_active_reads_the_distances():
    assert not ObstacleSectors().any_active
    for field in ("dist_left", "dist_right", "dist_front"):
        assert ObstacleSectors(**{field: 2.0}).any_active


def test_avoidance_idle_when_clear():
    """Clear sectors give no command and fresh lanes, whatever the lanes
    were: the mission sets exactly that on a step whose cast hit nothing."""
    for lanes in (_FRESH_LANES,
                  ((0.02, 0.5, True), _FRESH_PID, (-0.01, 2.0, True)),
                  ((1.0, 1.0, True),) * 3):
        cmd, next_lanes = avoidance_command(ObstacleSectors(), PidGains(),
                                            lanes, DT)
        assert cmd is None
        assert next_lanes == _FRESH_LANES


def test_avoidance_direction_table():
    g = PidGains()
    left, _ = avoidance_command(ObstacleSectors(dist_left=2.0),
                                g, _FRESH_LANES, DT)
    assert left[1] == pytest.approx(-first_out(2.0))
    right, _ = avoidance_command(ObstacleSectors(dist_right=2.0),
                                 g, _FRESH_LANES, DT)
    assert right[1] == pytest.approx(first_out(2.0))
    front, _ = avoidance_command(ObstacleSectors(dist_front=1.0),
                                 g, _FRESH_LANES, DT)
    assert front[1] == pytest.approx(first_out(1.0))
    for v_body in (left, right, front):
        assert v_body[0] == 0.0
        assert v_body[2] == 0.0
        # avoidance never yaws: it returns a body velocity and no yaw rate
        assert isinstance(v_body, tuple) and len(v_body) == 3


def test_avoidance_backs_out_when_boxed_in():
    sectors = ObstacleSectors(dist_left=1.0, dist_right=2.0, dist_front=4.0)
    v_body, _ = avoidance_command(sectors, PidGains(), _FRESH_LANES, DT)
    assert v_body[0] == pytest.approx(-first_out(1.0))
    assert v_body[1] == 0.0


def test_avoidance_opposing_sectors_combine():
    sectors = ObstacleSectors(dist_left=1.0, dist_front=2.0)
    v_body, _ = avoidance_command(sectors, PidGains(), _FRESH_LANES, DT)
    assert v_body[1] == pytest.approx(first_out(2.0) - first_out(1.0))


def test_avoidance_speed_clamped():
    sectors = ObstacleSectors(dist_front=0.1)
    v_body, _ = avoidance_command(sectors, PidGains(), _FRESH_LANES, DT,
                                  v_max=3.0)
    assert v_body[1] == pytest.approx(3.0)


def test_avoidance_threads_state_and_resets_idle_lanes():
    sectors = ObstacleSectors(dist_right=2.0)
    _, lanes = avoidance_command(sectors, PidGains(), _FRESH_LANES, DT)
    left, (_, _, initialized), front = lanes
    assert initialized
    assert left == _FRESH_PID
    assert front == _FRESH_PID
    _, (_, (integral, _, _), _) = avoidance_command(sectors, PidGains(),
                                                    lanes, DT)
    assert integral == pytest.approx(2 * 0.5 * DT)


def test_avoidance_never_pulls_toward_obstacle():
    # receding obstacle: derivative term would go negative, output clamps at 0
    near = ObstacleSectors(dist_front=0.5)
    far = ObstacleSectors(dist_front=10.0)
    _, lanes = avoidance_command(near, PidGains(), _FRESH_LANES, DT)
    v_body, _ = avoidance_command(far, PidGains(), lanes, DT)
    assert v_body[1] == 0.0
