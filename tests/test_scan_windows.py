"""The windowed scalar scan against the all-bin numpy cast it replaced.

`world._scan_hits` casts only the bins inside each solid's angular window.
The oracle below is the earlier numpy scan: every solid at the scan's
altitude, every bin, no cull.  Below `reach` the two must agree bit for
bit; at or beyond it the windowed scan may only read further.  The mission
feeds the hits straight into `control._sectors`, which must give the same
sectors as the public `simulate_scan` -> `classify_sectors` chain, also
when it skips the scans in which every solid in reach lies deep inside the
mask (`mission._hidden`).
"""

import math
import pathlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facadesim import world
from facadesim.config import apply_overrides, config_from_dict, load_raw
from facadesim.control import _sectors, classify_sectors
from facadesim.geometry import TWO_PI, Rect, quat_from_euler, yaw_of
from facadesim.mission import _MASK_MARGIN, _hidden, _mask_insets
from facadesim.planner import avoidance_polygon
from facadesim.vehicle import TrueState
from facadesim.world import (
    SCAN_ANGLE_MAX,
    SCAN_ANGLE_MIN,
    SCAN_N_BINS,
    _REACH_MARGIN,
    BuildingSpec,
    Obstacle,
    Scene,
    _scan_hits,
    _window_bins,
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


def oracle_scan(scene, state):
    ox, oy, z = state.position
    angles = np.linspace(SCAN_ANGLE_MIN, SCAN_ANGLE_MAX, SCAN_N_BINS)
    cos_b, sin_b = np.cos(angles), np.sin(angles)
    yaw = yaw_of(state.attitude)
    cy, sy = math.cos(yaw), math.sin(yaw)
    dx = cy * cos_b - sy * sin_b
    dy = sy * cos_b + cy * sin_b
    best = np.full(SCAN_N_BINS, np.inf)
    if z <= scene.building.height:
        best = np.minimum(best, _rect_ray_distances(
            scene.building.footprint(), ox, oy, dx, dy))
    for o in scene.obstacles:
        if z <= o.height:
            best = np.minimum(best, _circle_ray_distances(
                o.center_xy[0], o.center_xy[1], o.radius, ox, oy, dx, dy))
    return np.maximum(best, 1e-6).tolist()


# -- scenes -------------------------------------------------------------------

def scan_scene():
    return Scene(BuildingSpec(10.0, 6.0, 5.0),
                 obstacles=(Obstacle(0, (9.0, 2.0), 0.4, 3.0),
                            Obstacle(1, (-8.0, -4.0), 0.8, 8.0)))


def _shipped(name, *overrides):
    cfg = config_from_dict(apply_overrides(
        load_raw(CONFIG_DIR / f"{name}.yaml"), list(overrides)))
    return cfg.scene(), avoidance_polygon(cfg.building, cfg.plan)


OFF_CENTRE = BuildingSpec(6.0, 6.0, 5.0, center_xy=(1.4, 0.0))

SCENES = {
    "scan": (scan_scene(),
             BuildingSpec(10.0, 6.0, 5.0).footprint().expanded(0.5)),
    "off_centre": (Scene(OFF_CENTRE), OFF_CENTRE.footprint().expanded(0.5)),
    "default": _shipped("default"),
    "obstacle_course": _shipped("obstacle_course"),
}


def pose(x, y, z, yaw):
    return TrueState(position=(x, y, z), velocity=(0, 0, 0),
                     attitude=quat_from_euler(0.0, 0.0, yaw),
                     angular_rate=(0, 0, 0), accel_world=(0, 0, 0))


reaches = st.one_of(st.floats(0.0, 20.0, exclude_min=True),
                    st.just(math.inf))


# -- windowed scan == oracle below reach --------------------------------------

# Two examples put a bin's ray on the edge of a cylinder's window, where
# the one-bin padding keeps it in (each fails without it):
#   - bin 14 at yaw pi is tangent to obstacle 0;
#   - obstacle 1 sits 0.87 m behind the pose, so its window straddles the
#     +-pi rear blind spot and reaches both ends of the scan; bin 1 is
#     tangent to it.
# Between them, bin 42 at yaw 0 passes through the footprint's south-east
# corner, 2.56 m away.  The corner lies 87.00 deg off the bearing of the
# nearest point, 0.44 bin inside the 87.44 deg of acos(d/reach), so this
# one passes without the padding.
# Then: the pose is inside obstacle 0's radius, so every bin sees it; bin 135
# (angle 0) at yaw 0 runs along the footprint's north edge, and with the
# building dead ahead, with dy == 0.0 exactly (a parallel ray); yaw 1e-310
# makes bin 135's dy subnormal, so 1/dy overflows to inf.  Then x = 4.4 is
# the off-centre footprint's east wall (1.4 + 3.0) yet lies
# 3.0000000000000004 from its centre: `Rect.contains` puts the pose
# outside, and the pose is its own nearest point, which gives no bearing.
# Then obstacle 1 stands 1 m dead astern, so its window reaches both ends
# of the scan by ten bins.  Last, the pose stands 4e-6 m off obstacle 0's
# surface, so its window is within 0.26 deg of a half turn, and at yaw
# 0.5 deg the padding casts bin 224, 90.5 deg off the bearing: its ray
# meets the obstacle only behind the pose.
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
@example("off_centre", 4.4, 0.0, 1.0, math.pi, math.inf)
@example("scan", -7.0, -4.0, 1.0, 0.0, math.inf)
@example("scan", 9.400004, 2.0, 1.0, math.radians(0.5), math.inf)
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


def test_window_bins_of_a_window_ahead():
    # +-2.86 deg about the heading, padded by one bin: -3 to 3 deg
    assert list(_window_bins((-0.05, 0.05), 0.0)) == list(range(132, 139))
    assert list(_window_bins((1.0 - 0.05, 1.0 + 0.05), 1.0)) == list(
        range(132, 139))


def test_window_bins_across_the_rear_blind_spot_reach_both_ends():
    """A window about the bearing straight astern wraps through +-pi: its
    part below -pi takes a second turn of the shift and reaches the first
    bins, its part above the last ones."""
    half = math.radians(50.5)   # padded: 128.5 to 231.5 deg, or -128.5
    for yaw in (0.0, 1.0, -2.5):
        bearing = yaw + math.pi
        assert list(_window_bins((bearing - half, bearing + half), yaw)) == [
            *range(0, 7), *range(264, SCAN_N_BINS)]


def test_window_bins_of_a_full_turn_are_every_bin():
    for window in ((1.0, 1.0 + TWO_PI), (-math.inf, math.inf)):
        assert list(_window_bins(window, 0.4)) == list(range(SCAN_N_BINS))


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
    solids = world._in_reach(scene, scene.building.footprint(), x, y, z,
                             d_engage)
    hits = _scan_hits(solids, x, y, yaw_of(state.attitude), d_engage)
    sparse = _sectors(hits, mask, est[0], est[1], yaw + eyaw, d_engage)
    public = classify_sectors(simulate_scan(scene, state, reach=d_engage),
                              mask, est, yaw + eyaw, d_engage)
    assert sparse == public


# -- hidden solids: every one in reach is cast, or none ----------------------

def occluded_scene():
    """Obstacle 1 stands inside the mask (inset 0.4 m) on the line from the
    footprint's north-east corner to obstacle 0, which stands outside it."""
    return Scene(BuildingSpec(10.0, 6.0, 5.0),
                 obstacles=(Obstacle(0, (6.8, 4.8), 0.3, 3.0),
                            Obstacle(1, (5.4, 3.4), 0.2, 3.0)))


OCCLUDER_SCENES = {
    **SCENES,
    "occluded": (occluded_scene(),
                 BuildingSpec(10.0, 6.0, 5.0).footprint().expanded(1.0)),
    # the mask is the footprint, so no solid has a positive inset
    "no_buffer": _shipped("obstacle_course", "plan.buffer=0"),
}


def _in_reach(scene, fp, x, y, z, reach):
    """The solids `_scan_hits` would cast: at the scan's altitude, nearer
    than reach plus its margin."""
    cull = reach + _REACH_MARGIN
    solids = [fp] if (z <= scene.building.height
                      and fp.distance_to(x, y) < cull) else []
    return solids + [o for o in scene.obstacles if z <= o.height
                     and math.hypot(o.center_xy[0] - x, o.center_xy[1] - y)
                     - o.radius < cull]


def mission_hits(scene, insets, state, est, est_yaw, reach, d_engage):
    """The pairs `run_mission`'s scan gives at a true pose and an estimate
    (its reach is d_engage): none if no solid is in reach or `_hidden` holds
    for all of them, else those of every solid in reach."""
    x, y, z = state.position
    solids = world._in_reach(scene, scene.building.footprint(), x, y, z,
                             reach)
    if not solids or _hidden(insets, solids, est, est_yaw, (x, y),
                             yaw_of(state.attitude), d_engage):
        return []
    return _scan_hits(solids, x, y, yaw_of(state.attitude), reach)


def occluders(insets, *slack_args):
    """The solids of `insets` that `_hidden` hides, each taken alone."""
    return [s for s in insets if _hidden(insets, [s], *slack_args)]


@given(st.sampled_from(sorted(OCCLUDER_SCENES)), st.floats(-14.0, 14.0),
       st.floats(-14.0, 14.0), st.floats(0.2, 4.5),
       st.floats(-math.pi, math.pi), reaches)
@settings(max_examples=100, deadline=None)
def test_nothing_in_reach_casts_nothing(name, x, y, z, yaw, reach):
    """`world._in_reach` is the cull above, and with no solid in it the scan
    has no pairs: so `run_mission` may skip `_hidden` and the scan."""
    scene = OCCLUDER_SCENES[name][0]
    fp = scene.building.footprint()
    solids = world._in_reach(scene, fp, x, y, z, reach)
    assert solids == _in_reach(scene, fp, x, y, z, reach)
    if not solids:
        assert _scan_hits(solids, x, y, yaw_of(pose(x, y, z, yaw).attitude),
                          reach) == []


# The example is the pose of `test_occluders_leave_a_visible_solid_cast`:
# the footprint and obstacle 1 are hidden, obstacle 0 ahead is not.
@given(st.sampled_from(sorted(OCCLUDER_SCENES)), st.floats(-14.0, 14.0),
       st.floats(-14.0, 14.0), st.floats(0.2, 4.5),
       st.floats(-math.pi, math.pi), reaches, st.sets(st.integers(-1, 1)))
@example("occluded", 5.1, 3.1, 1.5, math.pi / 4, 3.0, {-1, 1})
@settings(max_examples=150, deadline=None)
def test_hidden_solids_cast_all_or_none(name, x, y, z, yaw, reach, picks):
    """Hiding a set of solids (-1 picks the footprint, i obstacle i) gives
    no pairs if it holds every solid in reach, else the pairs without it."""
    scene = OCCLUDER_SCENES[name][0]
    fp = scene.building.footprint()
    solids = [fp, *scene.obstacles]
    hidden = [solids[i + 1] for i in sorted(picks) if i + 1 < len(solids)]
    state = pose(x, y, z, yaw)
    # an exact estimate: a 1e-3 m slack, under each hidden solid's 1 m inset
    got = mission_hits(scene, dict.fromkeys(hidden, 1.0), state, (x, y),
                       yaw_of(state.attitude), reach, 3.0)
    args = (world._in_reach(scene, fp, x, y, z, reach), x, y,
            yaw_of(state.attitude), reach)
    if all(s in hidden for s in _in_reach(scene, fp, x, y, z, reach)):
        assert got == []
    else:
        assert sorted(got) == sorted(_scan_hits(*args))


def test_occluders_leave_a_visible_solid_cast():
    scene, mask = OCCLUDER_SCENES["occluded"]
    fp = scene.building.footprint()
    x, y, z, d_engage = 5.1, 3.1, 1.5, 3.0
    state = pose(x, y, z, math.pi / 4)
    yaw = yaw_of(state.attitude)
    insets = _mask_insets(mask, fp, scene.obstacles)
    assert occluders(insets, (x, y), yaw, (x, y), yaw, d_engage) == [
        fp, scene.obstacles[1]]
    assert _in_reach(scene, fp, x, y, z, d_engage) == [fp, *scene.obstacles]
    assert not _hidden(insets, [fp, *scene.obstacles], (x, y), yaw, (x, y),
                       yaw, d_engage)
    args = (world._in_reach(scene, fp, x, y, z, d_engage), x, y, yaw,
            d_engage)
    full = sorted(_scan_hits(*args))
    assert len(full) == 57
    assert sorted(mission_hits(scene, insets, state, (x, y), yaw, d_engage,
                               d_engage)) == full


# The first four examples put the slack (error + margin) within 1e-9 of an
# inset: the footprint's 1 m in "default", obstacle 1's 0.4 m in
# "occluded", each side.  The next two put the pose 5e-7 m inside the
# footprint's east wall, facing out, so the bins ahead read the 1e-6 m
# floor, 5e-7 m beyond the wall; the estimate is off by 1 m less or more
# than 1e-9, so without the margin the footprint, the one solid in reach,
# would be hidden and its scan skipped, and the floored return lands
# outside the mask.  Then obstacle 1 stands between the pose and obstacle 0
# in the bins ahead; obstacle 0 stands between the pose and obstacle 1; and
# a pose by the wall with no buffer.
@given(st.sampled_from(sorted(OCCLUDER_SCENES)), st.floats(-14.0, 14.0),
       st.floats(-14.0, 14.0), st.floats(0.2, 4.5),
       st.floats(-math.pi, math.pi), st.floats(0.5, 6.0),
       st.floats(-1.2, 1.2), st.floats(-1.2, 1.2), st.floats(-0.2, 0.2))
@example("default", 7.2, 1.0, 1.5, math.pi, 3.0,
         -(1.0 - _MASK_MARGIN - 1e-9), 0.3, 0.0)
@example("default", 7.2, 1.0, 1.5, math.pi, 3.0,
         -(1.0 - _MASK_MARGIN + 1e-9), 0.3, 0.0)
@example("occluded", 5.9, 3.4, 1.5, math.pi, 3.0,
         0.4 - _MASK_MARGIN - 1e-9, 0.0, 0.0)
@example("occluded", 5.9, 3.4, 1.5, math.pi, 3.0,
         0.4 - _MASK_MARGIN + 1e-9, 0.0, 0.0)
@example("default", 6.0 - 5e-7, 0.0, 1.5, 0.0, 3.0, 1.0 - 1e-9, 0.0, 0.0)
@example("default", 6.0 - 5e-7, 0.0, 1.5, 0.0, 3.0, 1.0 + 1e-9, 0.0, 0.0)
@example("occluded", 5.1, 3.1, 1.5, math.pi / 4, 3.0, 0.01, -0.01, 0.0)
@example("occluded", 8.0, 6.0, 1.5, -0.75 * math.pi, 4.0, 0.05, 0.0, 0.01)
@example("no_buffer", 4.2, 0.5, 1.5, math.pi, 3.0, 0.0, 0.0, 0.0)
@settings(max_examples=200, deadline=None)
def test_occluder_only_solids_keep_the_sectors(name, x, y, z, yaw, d_engage,
                                               ex, ey, eyaw):
    """Skipping the scans `_hidden` names keeps the sectors: a scan is
    skipped only if every solid in reach is hidden, and a hidden solid cast
    in full gives only returns the mask drops, though it still shadows the
    solids behind it."""
    scene, mask = OCCLUDER_SCENES[name]
    state = pose(x, y, z, yaw)
    est, est_yaw = (x + ex, y + ey), yaw + eyaw
    fp = scene.building.footprint()
    hits = mission_hits(scene, _mask_insets(mask, fp, scene.obstacles), state,
                        est, est_yaw, d_engage, d_engage)
    sparse = _sectors(hits, mask, est[0], est[1], est_yaw, d_engage)
    public = classify_sectors(simulate_scan(scene, state, reach=d_engage),
                              mask, est, est_yaw, d_engage)
    assert sparse == public


def test_mask_insets_and_occluders():
    scene, mask = OCCLUDER_SCENES["occluded"]
    fp = scene.building.footprint()
    insets = _mask_insets(mask, fp, scene.obstacles)
    assert [(s, round(d, 12)) for s, d in insets.items()] == [
        (fp, 1.0), (scene.obstacles[1], 0.4)]
    no_buffer, flush = OCCLUDER_SCENES["no_buffer"]
    assert _mask_insets(flush, no_buffer.building.footprint(),
                        no_buffer.obstacles) == {}
    origin = (0.0, 0.0)
    # slack: position error 0.5 m, or 3 m times a yaw error of 0.1 rad taken
    # the short way round, plus the margin
    assert occluders(insets, (0.0, 0.5), 0.0, origin, 0.0, 3.0) == [fp]
    assert occluders(insets, origin, math.pi - 0.05, origin,
                     0.05 - math.pi, 3.0) == [fp, scene.obstacles[1]]
    assert occluders(insets, origin, 0.2, origin, 0.0, 3.0) == [fp]
    assert occluders(insets, origin, 0.0, origin, 0.0, 3.0) == [
        fp, scene.obstacles[1]]
    # a diverged estimate gives a NaN slack: every solid is cast in full
    assert occluders(insets, (math.nan, 0.0), 0.0, origin, 0.0, 3.0) == []
