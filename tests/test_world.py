"""Scene queries: planar scan against a marching-ray oracle, visibility."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facadesim.control import classify_sectors
from facadesim.geometry import quat_from_euler
from facadesim.vehicle import TrueState
from facadesim.world import (
    SCAN_ANGLE_MAX,
    SCAN_ANGLE_MIN,
    BuildingSpec,
    CameraModel,
    FaultDecal,
    LaserScan,
    Obstacle,
    Scene,
    decal_world_center,
    face_normal,
    simulate_scan,
    visible_decals,
)


def pose(x, y, z, yaw=0.0, roll=0.0, pitch=0.0):
    return TrueState(position=(x, y, z), velocity=(0, 0, 0),
                     attitude=quat_from_euler(roll, pitch, yaw),
                     angular_rate=(0, 0, 0), accel_world=(0, 0, 0), time=0.0)


def march_scan(scene, state, n_bins, range_max, step=2e-3):
    """Independent reference scan: sample each ray until a solid contains it."""
    x0, y0, z = state.position
    import facadesim.geometry as geo
    yaw = geo.yaw_of(state.attitude)
    fp = scene.building.footprint()
    t = np.arange(step, range_max + step, step)
    out = []
    for i in range(n_bins):
        ang = SCAN_ANGLE_MIN + i * (SCAN_ANGLE_MAX - SCAN_ANGLE_MIN) / (n_bins - 1)
        dx, dy = math.cos(yaw + ang), math.sin(yaw + ang)
        px = x0 + t * dx
        py = y0 + t * dy
        inside = np.zeros(t.shape, dtype=bool)
        if z <= scene.building.height:
            inside |= ((np.abs(px - fp.cx) <= fp.hx)
                       & (np.abs(py - fp.cy) <= fp.hy))
        for o in scene.obstacles:
            if z <= o.height:
                inside |= (np.hypot(px - o.center_xy[0], py - o.center_xy[1])
                           <= o.radius)
        hits = np.nonzero(inside)[0]
        out.append(float(t[hits[0]]) if hits.size else range_max)
    return out


# -- validation ---------------------------------------------------------------

def test_building_validation():
    with pytest.raises(ValueError):
        BuildingSpec(length=-1.0, width=5.0, height=5.0)
    with pytest.raises(ValueError):
        BuildingSpec(length=1.0, width=0.0, height=5.0)
    fp = BuildingSpec(length=10.0, width=6.0, height=5.0).footprint()
    assert (fp.hx, fp.hy) == (5.0, 3.0)


def test_decal_validation():
    with pytest.raises(ValueError):
        FaultDecal(0, "roof", (0.0, 1.0))
    with pytest.raises(ValueError):
        FaultDecal(0, "east", (0.0, 1.0), extent_uv=(0.0, 0.1))
    b = BuildingSpec(10.0, 6.0, 5.0)
    with pytest.raises(ValueError):
        Scene(b, decals=(FaultDecal(0, "east", (2.95, 1.0),
                                    extent_uv=(0.2, 0.2)),))
    with pytest.raises(ValueError):
        Scene(b, decals=(FaultDecal(0, "north", (0.0, 4.95),
                                    extent_uv=(0.2, 0.2)),))
    with pytest.raises(ValueError):
        Scene(b, decals=(FaultDecal(0, "east", (0.0, 1.0)),
                         FaultDecal(0, "west", (0.0, 1.0))))


def test_obstacle_validation():
    with pytest.raises(ValueError):
        Obstacle(0, (0.0, 0.0), radius=0.0, height=1.0)
    with pytest.raises(ValueError):
        Obstacle(0, (0.0, 0.0), radius=0.5, height=0.0)
    b = BuildingSpec(10.0, 6.0, 5.0)
    with pytest.raises(ValueError):
        Scene(b, obstacles=(Obstacle(0, (5.2, 0.0), 0.5, 2.0),))


def test_camera_validation():
    with pytest.raises(ValueError):
        CameraModel(hfov=0.0)
    with pytest.raises(ValueError):
        CameraModel(vfov=math.pi)
    with pytest.raises(ValueError):
        CameraModel(max_range=0.0)


def test_decal_world_center_all_faces():
    b = BuildingSpec(10.0, 6.0, 5.0, center_xy=(1.0, 2.0))
    assert decal_world_center(b, FaultDecal(0, "north", (2.0, 1.5))) == \
        (3.0, 5.0, 1.5)
    assert decal_world_center(b, FaultDecal(0, "south", (-1.0, 0.5))) == \
        (0.0, -1.0, 0.5)
    assert decal_world_center(b, FaultDecal(0, "east", (1.0, 2.0))) == \
        (6.0, 3.0, 2.0)
    assert decal_world_center(b, FaultDecal(0, "west", (-2.0, 4.0))) == \
        (-4.0, 0.0, 4.0)


def test_face_normals_point_outward():
    b = BuildingSpec(10.0, 6.0, 5.0)
    for face in ("north", "south", "east", "west"):
        c = decal_world_center(b, FaultDecal(0, face, (0.0, 1.0)))
        n = face_normal(face)
        outside = (c[0] + 0.1 * n[0], c[1] + 0.1 * n[1])
        assert not b.footprint().contains(*outside)


def test_laser_scan_validation():
    with pytest.raises(ValueError):
        LaserScan(-1.0, 1.0, 5, 10.0, (1.0, 2.0))
    # one bin has no angular step, and no bin has no minimum range
    with pytest.raises(ValueError):
        LaserScan(-1.0, 1.0, 1, 10.0, (1.0,))
    with pytest.raises(ValueError):
        LaserScan(-1.0, 1.0, 0, 10.0, ())
    s = LaserScan(-1.0, 1.0, 3, 10.0, (1.0, 2.0, 3.0))
    assert s.angle_of(0) == -1.0
    assert s.angle_of(2) == 1.0
    assert s.angle_of(1) == pytest.approx(0.0)


# -- scan ---------------------------------------------------------------------

def scan_scene():
    return Scene(BuildingSpec(10.0, 6.0, 5.0),
                 obstacles=(Obstacle(0, (9.0, 2.0), 0.4, 3.0),
                            Obstacle(1, (-8.0, -4.0), 0.8, 8.0)))


@pytest.mark.parametrize("x,y,z,yaw", [
    (9.0, -4.0, 1.5, 2.2),
    (-8.5, 2.0, 1.0, -0.4),
    (0.0, 7.5, 2.5, -1.7),
    (9.0, 2.8, 1.0, 3.0),
    (0.0, -8.0, 4.0, 0.5),
])
def test_scan_matches_marching_oracle(x, y, z, yaw):
    scene = scan_scene()
    state = pose(x, y, z, yaw)
    got = simulate_scan(scene, state, n_bins=91, range_max=15.0)
    ref = march_scan(scene, state, n_bins=91, range_max=15.0)
    for g, r in zip(got.ranges, ref):
        if r >= 15.0:
            assert g == 15.0
        else:
            assert g == pytest.approx(r, abs=5e-3)


def test_scan_above_all_solids_is_clear():
    scene = scan_scene()
    got = simulate_scan(scene, pose(0.0, 8.0, 9.0, 0.0))
    assert all(r == got.range_max for r in got.ranges)
    # the tall cylinder is still visible at 6 m altitude
    got6 = simulate_scan(scene, pose(-8.0, -1.0, 6.0, -math.pi / 2))
    assert min(got6.ranges) < 3.0


def test_scan_rear_blind_spot():
    scene = Scene(BuildingSpec(10.0, 6.0, 5.0))
    # building squarely behind the drone: bearing 180 deg, outside +-135
    got = simulate_scan(scene, pose(9.0, 0.0, 1.0, 0.0))
    assert all(r == got.range_max for r in got.ranges)
    # turning around brings it into the front sector
    got_back = simulate_scan(scene, pose(9.0, 0.0, 1.0, math.pi))
    mid = got_back.n_bins // 2
    assert got_back.ranges[mid] == pytest.approx(4.0, abs=1e-9)


def test_scan_ignores_tilt():
    scene = scan_scene()
    a = simulate_scan(scene, pose(8.0, -5.0, 1.2, 1.0))
    b = simulate_scan(scene, pose(8.0, -5.0, 1.2, 1.0, roll=0.3, pitch=-0.2))
    assert a.ranges == pytest.approx(b.ranges, abs=1e-9)


def test_scan_mirror_symmetry():
    b = BuildingSpec(10.0, 6.0, 5.0, center_xy=(1.0, 1.5))
    mirrored = BuildingSpec(10.0, 6.0, 5.0, center_xy=(1.0, -1.5))
    obs = Obstacle(0, (7.0, 3.0), 0.5, 4.0)
    obs_m = Obstacle(0, (7.0, -3.0), 0.5, 4.0)
    s1 = simulate_scan(Scene(b, obstacles=(obs,)), pose(9.0, 5.0, 1.0, -2.0))
    s2 = simulate_scan(Scene(mirrored, obstacles=(obs_m,)),
                       pose(9.0, -5.0, 1.0, 2.0))
    assert s1.ranges == pytest.approx(tuple(reversed(s2.ranges)), abs=1e-9)


def test_scan_validation():
    scene = scan_scene()
    with pytest.raises(ValueError):
        simulate_scan(scene, pose(0, 8, 1), n_bins=1)
    with pytest.raises(ValueError):
        simulate_scan(scene, pose(0, 8, 1), range_max=0.0)
    # `distance < nan` is False, so a NaN reach would cull every solid
    for reach in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            simulate_scan(scene, pose(0, 8, 1), reach=reach)


# The examples put the pose exactly `reach` from the west face of
# scan_scene's footprint (x = -5) and from the surface of obstacle 0
# (centre (9, 2), radius 0.4), with a bin pointing straight at it.  Both
# hits round to just below `reach` (2.4999999999999996 and
# 2.0999999999999996), so a cull without its margin would drop them.
@given(st.floats(-14.0, 14.0), st.floats(-14.0, 14.0), st.floats(0.2, 4.5),
       st.floats(-math.pi, math.pi),
       st.floats(0.0, 20.0, exclude_min=True))
@example(-7.5, 0.0, 1.0, 0.12217304763960302, -5.0 - -7.5)
@example(11.5, 2.0, 1.0, math.pi, math.hypot(11.5 - 9.0, 0.0) - 0.4)
@settings(max_examples=60, deadline=None)
def test_scan_reach_cull_is_exact_below_reach(x, y, z, yaw, reach):
    scene = scan_scene()
    state = pose(x, y, z, yaw)
    full = simulate_scan(scene, state)
    culled = simulate_scan(scene, state, reach=reach)
    for c, f in zip(culled.ranges, full.ranges):
        assert c >= f
        if f < reach:
            assert c == f
    mask = scene.building.footprint().expanded(0.5)
    assert (classify_sectors(culled, mask, (x, y), yaw, d_engage=reach)
            == classify_sectors(full, mask, (x, y), yaw, d_engage=reach))


@given(st.floats(6.0, 14.0), st.floats(-14.0, 14.0), st.floats(0.2, 4.5),
       st.floats(-math.pi, math.pi))
@example(10.0, 0.0, 2.0, 1e-310)   # subnormal ray component: 1/d overflows
@settings(max_examples=40, deadline=None)
def test_scan_ranges_bounded_and_positive(x, y, z, yaw):
    scene = scan_scene()
    got = simulate_scan(scene, pose(x, y, z, yaw))
    assert all(0.0 < r <= got.range_max for r in got.ranges)


# -- camera visibility ----------------------------------------------------------

def vis_scene():
    return Scene(BuildingSpec(10.0, 6.0, 5.0),
                 decals=(FaultDecal(0, "east", (0.0, 1.5)),),
                 obstacles=(Obstacle(7, (6.8, 0.0), 0.4, 3.0),))


def test_decal_visible_head_on():
    scene = vis_scene()
    cam = CameraModel()
    # decal at (5, 0, 1.5); camera 3 m east facing west
    state = pose(8.0, 2.5, 1.5, math.pi)
    assert visible_decals(scene, state, cam) == [0]


def test_decal_not_visible_through_back_face():
    scene = vis_scene()
    cam = CameraModel()
    state = pose(-8.0, 0.0, 1.5, 0.0)   # west side looking east
    assert visible_decals(scene, state, cam) == []


def test_decal_outside_range():
    scene = vis_scene()
    cam = CameraModel(max_range=2.0)
    state = pose(8.0, 0.5, 1.5, math.pi)
    assert visible_decals(scene, state, cam) == []


def test_decal_outside_horizontal_fov():
    scene = vis_scene()
    # decal bearing from this pose is atan2(2.5, 3) ~ 39.8 deg off-axis:
    # inside the default 45 deg half-fov, outside a 20 deg one
    state = pose(8.0, 2.5, 1.5, math.pi)
    assert visible_decals(scene, state, CameraModel()) == [0]
    assert visible_decals(scene, state, CameraModel(
        hfov=math.radians(40.0))) == []


def test_decal_outside_vertical_fov():
    scene = vis_scene()
    cam = CameraModel(vfov=math.radians(30.0))
    level = pose(8.0, 2.5, 1.8, math.pi)   # 0.3 m above the decal
    assert visible_decals(scene, level, cam) == [0]
    high = pose(8.0, 2.5, 4.8, math.pi)    # 3.3 m above, looking level
    assert visible_decals(scene, high, cam) == []


def test_decal_occluded_by_cylinder():
    scene = vis_scene()
    cam = CameraModel()
    # the cylinder at (6.8, 0) sits exactly on the sight line at this pose
    state = pose(8.6, 0.0, 1.5, math.pi)
    assert visible_decals(scene, state, cam) == []
    # stepping sideways restores the view around the cylinder
    state2 = pose(8.0, 2.5, 1.5, math.pi)
    assert visible_decals(scene, state2, cam) == [0]


def test_tilt_moves_frustum():
    scene = Scene(BuildingSpec(10.0, 6.0, 5.0),
                  decals=(FaultDecal(0, "east", (0.0, 1.5)),))
    cam = CameraModel(vfov=math.radians(30.0))
    high = pose(8.0, 0.0, 4.8, math.pi)
    assert visible_decals(scene, high, cam) == []
    # pitching the nose down brings the low decal back into the vertical fov
    down = pose(8.0, 0.0, 4.8, math.pi, pitch=0.9)
    assert visible_decals(scene, down, cam) == [0]
