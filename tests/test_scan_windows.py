"""The windowed scalar scan against the all-bin numpy cast it replaced.

`world._scan_hits` casts only the bins inside each solid's angular window.
The oracle below is the earlier numpy scan: every solid at the scan's
altitude, every bin, no cull.  Below `reach` the two must agree bit for
bit; at or beyond it the windowed scan may only read further.  The mission
feeds the hits straight into `control._sectors`, which must give the same
sectors as the public `simulate_scan` -> `classify_sectors` chain.
"""

import math
import pathlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facadesim.config import load_config
from facadesim.control import _sectors, classify_sectors
from facadesim.geometry import Rect, quat_from_euler, yaw_of
from facadesim.planner import avoidance_polygon
from facadesim.vehicle import TrueState
from facadesim.world import (
    SCAN_ANGLE_MAX,
    SCAN_ANGLE_MIN,
    SCAN_N_BINS,
    SCAN_RANGE_MAX,
    BuildingSpec,
    Obstacle,
    Scene,
    _scan_hits,
    simulate_scan,
)

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


# -- oracle: the all-bin numpy cast -------------------------------------------

def _rect_ray_distances(rect, ox, oy, dx, dy):
    """Slab-method distances from (ox,oy) along unit rays; inf where missed."""
    # over: 1/d of a subnormal d is inf, handled below as a parallel ray
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_x = 1.0 / dx
        inv_y = 1.0 / dy
        tx1 = (rect.cx - rect.hx - ox) * inv_x
        tx2 = (rect.cx + rect.hx - ox) * inv_x
        ty1 = (rect.cy - rect.hy - oy) * inv_y
        ty2 = (rect.cy + rect.hy - oy) * inv_y
    # rays parallel to a slab: inside it -> (-inf, inf), outside -> no hit
    in_x = np.abs(ox - rect.cx) <= rect.hx
    in_y = np.abs(oy - rect.cy) <= rect.hy
    tx_lo = np.where(np.isfinite(tx1), np.minimum(tx1, tx2),
                     np.where(in_x, -np.inf, np.inf))
    tx_hi = np.where(np.isfinite(tx1), np.maximum(tx1, tx2),
                     np.where(in_x, np.inf, -np.inf))
    ty_lo = np.where(np.isfinite(ty1), np.minimum(ty1, ty2),
                     np.where(in_y, -np.inf, np.inf))
    ty_hi = np.where(np.isfinite(ty1), np.maximum(ty1, ty2),
                     np.where(in_y, np.inf, -np.inf))
    t_near = np.maximum(tx_lo, ty_lo)
    t_far = np.minimum(tx_hi, ty_hi)
    dist = np.where(t_near > 0.0, t_near, t_far)
    miss = (t_far < t_near) | (t_far <= 0.0)
    return np.where(miss, np.inf, dist)


def _circle_ray_distances(cx, cy, radius, ox, oy, dx, dy):
    ocx = cx - ox
    ocy = cy - oy
    b = ocx * dx + ocy * dy
    c = ocx * ocx + ocy * ocy - radius * radius
    disc = b * b - c
    safe = np.maximum(disc, 0.0)
    root = np.sqrt(safe)
    t = np.where(c > 0.0, b - root, b + root)
    miss = (disc < 0.0) | (t <= 0.0)
    return np.where(miss, np.inf, t)


def oracle_scan(scene, state, angle_min=SCAN_ANGLE_MIN,
                angle_max=SCAN_ANGLE_MAX, n_bins=SCAN_N_BINS,
                range_max=SCAN_RANGE_MAX):
    ox, oy, z = state.position
    angles = np.linspace(angle_min, angle_max, n_bins)
    cos_b, sin_b = np.cos(angles), np.sin(angles)
    yaw = yaw_of(state.attitude)
    cy, sy = math.cos(yaw), math.sin(yaw)
    dx = cy * cos_b - sy * sin_b
    dy = sy * cos_b + cy * sin_b
    best = np.full(n_bins, np.inf)
    if z <= scene.building.height:
        best = np.minimum(best, _rect_ray_distances(
            scene.building.footprint(), ox, oy, dx, dy))
    for o in scene.obstacles:
        if z <= o.height:
            best = np.minimum(best, _circle_ray_distances(
                o.center_xy[0], o.center_xy[1], o.radius, ox, oy, dx, dy))
    return np.maximum(np.minimum(best, range_max), 1e-6).tolist()


# -- scenes -------------------------------------------------------------------

def scan_scene():
    return Scene(BuildingSpec(10.0, 6.0, 5.0),
                 obstacles=(Obstacle(0, (9.0, 2.0), 0.4, 3.0),
                            Obstacle(1, (-8.0, -4.0), 0.8, 8.0)))


def _shipped(name):
    cfg = load_config(CONFIG_DIR / f"{name}.yaml")
    return cfg.scene(), avoidance_polygon(cfg.building, cfg.plan)


SCENES = {
    "scan": (scan_scene(),
             BuildingSpec(10.0, 6.0, 5.0).footprint().expanded(0.5)),
    "default": _shipped("default"),
    "obstacle_course": _shipped("obstacle_course"),
}


def pose(x, y, z, yaw):
    return TrueState(position=(x, y, z), velocity=(0, 0, 0),
                     attitude=quat_from_euler(0.0, 0.0, yaw),
                     angular_rate=(0, 0, 0), accel_world=(0, 0, 0), time=0.0)


reaches = st.one_of(st.floats(0.0, 20.0, exclude_min=True),
                    st.just(math.inf))


# -- windowed scan == oracle below reach --------------------------------------

# The first three examples put a bin's ray on the edge of a solid's window,
# where the one-bin padding keeps it in (each fails without it):
#   - bin 14 at yaw pi is tangent to obstacle 0;
#   - bin 42 at yaw 0 passes through the footprint's south-east corner;
#   - obstacle 1 sits 0.87 m behind the pose, so its window straddles the
#     +-pi rear blind spot and reaches both ends of the scan; bin 1 is
#     tangent to it.
# Then: the pose is inside obstacle 0's radius, so every bin sees it; bin 135
# (angle 0) at yaw 0 runs along the footprint's north edge, and with the
# building dead ahead, with dy == 0.0 exactly (a parallel ray); yaw 1e-310
# makes bin 135's dy subnormal, so 1/dy overflows to inf.
@given(st.sampled_from(sorted(SCENES)), st.floats(-14.0, 14.0),
       st.floats(-14.0, 14.0), st.floats(0.2, 4.5),
       st.floats(-math.pi, math.pi), reaches)
@example("scan", 7.796073638864404, 0.77297166946525, 1.0, math.pi, 3.0)
@example("scan", 5.133823198951505, -0.44650124881728015, 1.0, 0.0, 3.0)
@example("scan", -7.186732972226053, -4.309482571234302, 1.0, 0.0, 3.0)
@example("scan", 9.0, 2.1, 1.0, 0.7, 3.0)
@example("scan", -7.0, 3.0, 1.0, 0.0, math.inf)
@example("scan", -8.0, 0.0, 1.0, 0.0, 3.0)
@example("scan", -8.0, 0.0, 2.0, 1e-310, 3.0)
@settings(max_examples=150, deadline=None)
def test_windowed_scan_matches_all_bin_oracle(name, x, y, z, yaw, reach):
    scene = SCENES[name][0]
    state = pose(x, y, z, yaw)
    got = simulate_scan(scene, state, reach=reach).ranges
    ref = oracle_scan(scene, state)
    for i, (g, r) in enumerate(zip(got, ref)):
        if r < reach:
            assert g == r, (i, g, r)
        else:
            assert g >= r, (i, g, r)


def test_windowed_scan_matches_oracle_on_coarse_and_wide_scans():
    # few bins make the padding wider than the window; a scan wider than
    # 2 pi sees one direction in two bins
    scene = scan_scene()
    for n_bins, lo, hi in ((2, -0.75 * math.pi, 0.75 * math.pi),
                           (7, -math.pi, math.pi),
                           (91, -2.0 * math.pi, 2.0 * math.pi)):
        for x, y, yaw in ((7.0, 1.6, 0.0), (-7.0, -4.0, 2.5),
                          (0.0, -7.0, -1.0), (9.0, 2.1, 0.3)):
            state = pose(x, y, 1.0, yaw)
            got = simulate_scan(scene, state, angle_min=lo, angle_max=hi,
                                n_bins=n_bins).ranges
            ref = oracle_scan(scene, state, angle_min=lo, angle_max=hi,
                              n_bins=n_bins)
            assert list(got) == ref


# -- the mission's sparse path == the public API ------------------------------

@given(st.sampled_from(sorted(SCENES)), st.floats(-14.0, 14.0),
       st.floats(-14.0, 14.0), st.floats(0.2, 4.5),
       st.floats(-math.pi, math.pi), st.floats(0.5, 6.0),
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.2, 0.2),
       st.booleans())
@example("obstacle_course", 11.5, 2.0, 1.5, math.pi, 3.0, 0.1, -0.1, 0.05,
         True)
@example("default", 6.5, 0.0, 1.5, math.pi, 3.0, 0.0, 0.0, 0.0, True)
@settings(max_examples=120, deadline=None)
def test_sparse_sectors_match_public_api(name, x, y, z, yaw, d_engage, ex,
                                         ey, eyaw, masked):
    scene, polygon = SCENES[name]
    mask: Rect | None = polygon if masked else None
    state = pose(x, y, z, yaw)
    est = (x + ex, y + ey)
    hits = _scan_hits(scene, scene.building.footprint(), x, y, z,
                      state.attitude, SCAN_ANGLE_MIN, SCAN_ANGLE_MAX,
                      SCAN_N_BINS, SCAN_RANGE_MAX, d_engage)
    step = (SCAN_ANGLE_MAX - SCAN_ANGLE_MIN) / (SCAN_N_BINS - 1)
    sparse = _sectors(hits, SCAN_ANGLE_MIN, step, mask, est[0], est[1],
                      yaw + eyaw, d_engage)
    public = classify_sectors(simulate_scan(scene, state, reach=d_engage),
                              mask, est, yaw + eyaw, d_engage)
    assert sparse == public

