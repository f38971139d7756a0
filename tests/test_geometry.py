"""Quaternion and planar-geometry kernel against scipy and brute force."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from facadesim.geometry import (
    Rect,
    euler_from_quat,
    quat_conjugate,
    quat_from_euler,
    quat_from_rotvec,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_rotate_inverse,
    segment_circle_interval,
    wrap_angle,
    yaw_of,
)
from oracles import ray_rect_distance, segment_hits_circle

angles = st.floats(-10.0, 10.0, allow_nan=False)
unit_range = st.floats(-1.0, 1.0, allow_nan=False)


def scipy_rot(q):
    # scipy stores quaternions scalar-last
    return Rotation.from_quat([q[1], q[2], q[3], q[0]])


def random_quat(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return tuple(q)


# -- angles -------------------------------------------------------------------

@given(angles)
def test_wrap_angle_range_and_equivalence(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi + 1e-15
    # wrapped angle differs from the input by a whole number of turns
    k = (a - w) / (2.0 * math.pi)
    assert abs(k - round(k)) < 1e-9


def test_wrap_angle_pinned_values():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(math.radians(179.0) - math.radians(-179.0)) == \
        pytest.approx(math.radians(-2.0))


# -- quaternions vs scipy -----------------------------------------------------

def test_quat_from_euler_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(200):
        roll, pitch, yaw = rng.uniform(-math.pi, math.pi, 3)
        pitch = float(np.clip(pitch, -1.5, 1.5))
        q = quat_from_euler(roll, pitch, yaw)
        ref = Rotation.from_euler("ZYX", [yaw, pitch, roll]).as_quat()
        got = np.array([q[1], q[2], q[3], q[0]])
        if np.dot(got, ref) < 0.0:
            got = -got
        assert np.allclose(got, ref, atol=1e-12)


def test_quat_rotate_matches_scipy():
    rng = np.random.default_rng(2)
    for _ in range(200):
        q = random_quat(rng)
        v = tuple(rng.uniform(-5, 5, 3))
        assert np.allclose(quat_rotate(q, v), scipy_rot(q).apply(v),
                           atol=1e-12)
        assert np.allclose(quat_rotate_inverse(q, v),
                           scipy_rot(q).apply(v, inverse=True), atol=1e-12)


def test_quat_multiply_matches_scipy():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = random_quat(rng), random_quat(rng)
        got = quat_multiply(a, b)
        ref = (scipy_rot(a) * scipy_rot(b)).as_quat()
        got_xyzw = np.array([got[1], got[2], got[3], got[0]])
        if np.dot(got_xyzw, ref) < 0.0:
            got_xyzw = -got_xyzw
        assert np.allclose(got_xyzw, ref, atol=1e-12)


def test_quat_from_rotvec_matches_scipy():
    rng = np.random.default_rng(4)
    for scale in (1.0, 1e-3, 1e-9, 1e-14):
        for _ in range(50):
            r = tuple(rng.uniform(-1, 1, 3) * scale)
            q = quat_from_rotvec(r)
            ref = Rotation.from_rotvec(r).as_quat()
            got = np.array([q[1], q[2], q[3], q[0]])
            if np.dot(got, ref) < 0.0:
                got = -got
            assert np.allclose(got, ref, atol=1e-12)


def test_euler_quat_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(300):
        roll, pitch, yaw = rng.uniform(-math.pi + 1e-3, math.pi - 1e-3, 3)
        pitch = float(np.clip(pitch, -math.pi / 2 + 1e-3, math.pi / 2 - 1e-3))
        r, p, y = euler_from_quat(quat_from_euler(roll, pitch, yaw))
        assert math.isclose(r, roll, abs_tol=1e-9)
        assert math.isclose(p, pitch, abs_tol=1e-9)
        assert math.isclose(y, yaw, abs_tol=1e-9)


@given(st.floats(-3, 3), st.floats(-1.4, 1.4), st.floats(-3, 3),
       st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4))
def test_quat_rotate_preserves_norm(roll, pitch, yaw, x, y, z):
    q = quat_from_euler(roll, pitch, yaw)
    v = (x, y, z)
    w = quat_rotate(q, v)
    assert math.isclose(np.linalg.norm(w), np.linalg.norm(v),
                        rel_tol=1e-12, abs_tol=1e-12)


@given(st.floats(-3, 3), st.floats(-1.4, 1.4), st.floats(-3, 3))
def test_rotate_then_inverse_is_identity(roll, pitch, yaw):
    q = quat_from_euler(roll, pitch, yaw)
    v = (1.0, -2.0, 0.5)
    w = quat_rotate_inverse(q, quat_rotate(q, v))
    assert np.allclose(w, v, atol=1e-12)


def test_quat_normalize_rejects_zero():
    with pytest.raises(ValueError):
        quat_normalize((0.0, 0.0, 0.0, 0.0))


def test_yaw_of_matches_euler():
    rng = np.random.default_rng(6)
    for _ in range(100):
        q = random_quat(rng)
        assert yaw_of(q) == pytest.approx(euler_from_quat(q)[2])


def test_conjugate_inverts_rotation():
    q = quat_from_euler(0.3, -0.2, 1.1)
    qc = quat_conjugate(q)
    prod = quat_multiply(q, qc)
    assert np.allclose(prod, (1.0, 0.0, 0.0, 0.0), atol=1e-12)


# -- rectangles ---------------------------------------------------------------

def test_rect_contains_and_distance():
    r = Rect(1.0, 2.0, 3.0, 0.5)
    assert r.contains(1.0, 2.0)
    assert r.contains(4.0, 2.5)          # corner inclusive
    assert not r.contains(4.01, 2.0)
    assert r.distance_to(1.0, 2.0) == 0.0
    assert r.distance_to(5.0, 2.0) == pytest.approx(1.0)
    assert r.distance_to(4.0 + 3.0, 2.5 + 4.0) == pytest.approx(5.0)


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_rect_nearest_point_is_inside_and_closest(x, y):
    r = Rect(0.0, 0.0, 2.0, 1.0)
    px, py = r.nearest_point(x, y)
    assert r.contains(px, py)
    assert math.hypot(px - x, py - y) == pytest.approx(r.distance_to(x, y))


def test_rect_expanded():
    r = Rect(0.0, 0.0, 1.0, 2.0).expanded(0.5)
    assert (r.hx, r.hy) == (1.5, 2.5)


# -- ray casting vs marching oracle ------------------------------------------

def march_ray(ox, oy, dx, dy, rect, t_max=50.0, step=1e-3):
    """Brute-force first boundary crossing of the rect, on the grid
    step, 2 step, ... up to t_max that repeated `t += step` gives: cumsum
    adds in sequence, so it builds the same floats."""
    t = np.cumsum(np.full(int(t_max / step) + 2, step))
    t = t[t <= t_max]
    inside = ((np.abs(ox + t * dx - rect.cx) <= rect.hx)
              & (np.abs(oy + t * dy - rect.cy) <= rect.hy))
    (flips,) = np.nonzero(inside != rect.contains(ox, oy))
    return float(t[flips[0]]) if flips.size else math.inf


@pytest.mark.parametrize("seed", range(5))
def test_ray_rect_distance_against_marching(seed):
    rng = np.random.default_rng(seed)
    rect = Rect(rng.uniform(-2, 2), rng.uniform(-2, 2),
                rng.uniform(0.5, 3), rng.uniform(0.5, 3))
    for _ in range(40):
        ox, oy = rng.uniform(-8, 8, 2)
        ang = rng.uniform(-math.pi, math.pi)
        dx, dy = math.cos(ang), math.sin(ang)
        got = ray_rect_distance(ox, oy, dx, dy, rect)
        ref = march_ray(ox, oy, dx, dy, rect)
        if math.isinf(ref):
            assert math.isinf(got) or got > 49.0
        else:
            assert got == pytest.approx(ref, abs=2e-3)


def test_ray_rect_axis_parallel_rays():
    rect = Rect(0.0, 0.0, 1.0, 1.0)
    # along +x at a y level crossing the rect
    assert ray_rect_distance(-3.0, 0.0, 1.0, 0.0, rect) == pytest.approx(2.0)
    # parallel ray outside the y slab never hits
    assert math.isinf(ray_rect_distance(-3.0, 2.0, 1.0, 0.0, rect))
    # origin inside reports the exit
    assert ray_rect_distance(0.0, 0.0, 0.0, 1.0, rect) == pytest.approx(1.0)


def test_segment_hits_circle_cases():
    assert segment_hits_circle(-2, 0, 2, 0, 0, 0, 0.5)
    assert not segment_hits_circle(-2, 0, 2, 0, 0, 1.0, 0.5)
    # endpoint closest
    assert segment_hits_circle(-2, 0, -1, 0, 0, 0, 1.2)
    assert not segment_hits_circle(-2, 0, -1, 0, 0, 0, 0.9)


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
# tangent: bb^2 - aa cc cancels to -4.4e-16 here, and the segment was missed
@example(-0.5, 0.7818636975862079, -0.5, -1.0)
# the line crosses the circle, but the whole segment lies beyond it
@example(2.5, -0.25, 3.0, -0.25)
@settings(max_examples=60)
def test_segment_circle_interval_matches_predicate(ax, ay, bx, by):
    center = (0.5, -0.25)
    r = 1.0
    got = segment_circle_interval((ax, ay), (bx, by), center, r)
    hit = segment_hits_circle(ax, ay, bx, by, center[0], center[1], r)
    assert (got is not None) == hit
    if got is not None:
        t0, t1 = got
        assert 0.0 <= t0 <= t1 <= 1.0
        for t in (t0, t1, 0.5 * (t0 + t1)):
            x = ax + t * (bx - ax)
            y = ay + t * (by - ay)
            assert math.hypot(x - center[0], y - center[1]) <= r + 1e-6
