"""Scalar 3D math kernel: vectors as plain tuples, quaternions as (w, x, y, z).

Everything here is hand-rolled on floats so the 100 Hz simulation loop does not
pay numpy's per-call overhead for 3-element operations.  World frame is
right-handed with z up, x east; yaw 0 faces +x.  Euler angles are intrinsic
Z-Y-X (yaw, pitch, roll).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Vec3 = tuple[float, float, float]
Quat = tuple[float, float, float, float]

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.remainder(a, TWO_PI)
    if r <= -math.pi:
        r = math.pi
    return r


def angle_diff(a: float, b: float) -> float:
    """Shortest signed rotation taking b to a, in (-pi, pi]."""
    return wrap_angle(a - b)


# -- vectors ----------------------------------------------------------------

def v_norm(a: Vec3) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def v_dist(a: Vec3, b: Vec3) -> float:
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


# -- quaternions ------------------------------------------------------------

QUAT_IDENTITY: Quat = (1.0, 0.0, 0.0, 0.0)


def quat_normalize(q: Quat) -> Quat:
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    if n == 0.0:
        raise ValueError("cannot normalize zero quaternion")
    return (q[0] / n, q[1] / n, q[2] / n, q[3] / n)


def quat_multiply(a: Quat, b: Quat) -> Quat:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_conjugate(q: Quat) -> Quat:
    return (q[0], -q[1], -q[2], -q[3])


def quat_rotate(q: Quat, v: Vec3) -> Vec3:
    """Rotate v by q: body -> world for a body-attitude quaternion."""
    w, x, y, z = q
    # t = 2 * (q_vec x v)
    tx = 2.0 * (y * v[2] - z * v[1])
    ty = 2.0 * (z * v[0] - x * v[2])
    tz = 2.0 * (x * v[1] - y * v[0])
    # v' = v + w*t + q_vec x t
    return (
        v[0] + w * tx + (y * tz - z * ty),
        v[1] + w * ty + (z * tx - x * tz),
        v[2] + w * tz + (x * ty - y * tx),
    )


def quat_rotate_inverse(q: Quat, v: Vec3) -> Vec3:
    """Rotate v by the inverse of q: world -> body."""
    return quat_rotate(quat_conjugate(q), v)


def quat_from_euler(roll: float, pitch: float, yaw: float) -> Quat:
    """Quaternion for intrinsic Z-Y-X rotation R = Rz(yaw) Ry(pitch) Rx(roll)."""
    cr, sr = math.cos(roll * 0.5), math.sin(roll * 0.5)
    cp, sp = math.cos(pitch * 0.5), math.sin(pitch * 0.5)
    cy, sy = math.cos(yaw * 0.5), math.sin(yaw * 0.5)
    return (
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    )


def euler_from_quat(q: Quat) -> tuple[float, float, float]:
    """(roll, pitch, yaw) of a unit quaternion; pitch clamped to [-pi/2, pi/2]."""
    w, x, y, z = q
    roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    s = 2.0 * (w * y - z * x)
    s = max(-1.0, min(1.0, s))
    pitch = math.asin(s)
    yaw = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return roll, pitch, yaw


def quat_from_rotvec(r: Vec3) -> Quat:
    """Quaternion for a rotation vector (axis * angle)."""
    angle = v_norm(r)
    if angle < 1e-12:
        # first-order expansion keeps integration smooth near zero rate
        return quat_normalize((1.0, 0.5 * r[0], 0.5 * r[1], 0.5 * r[2]))
    h = 0.5 * angle
    s = math.sin(h) / angle
    return (math.cos(h), r[0] * s, r[1] * s, r[2] * s)


def yaw_of(q: Quat) -> float:
    w, x, y, z = q
    return math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))


# -- planar shapes ----------------------------------------------------------

@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in the xy plane: center and half extents."""

    cx: float
    cy: float
    hx: float
    hy: float

    def contains(self, x: float, y: float) -> bool:
        return abs(x - self.cx) <= self.hx and abs(y - self.cy) <= self.hy

    def expanded(self, margin: float) -> "Rect":
        return Rect(self.cx, self.cy, self.hx + margin, self.hy + margin)

    def distance_to(self, x: float, y: float) -> float:
        """Euclidean distance from a point to the rectangle (0 inside)."""
        dx = max(abs(x - self.cx) - self.hx, 0.0)
        dy = max(abs(y - self.cy) - self.hy, 0.0)
        return math.hypot(dx, dy)

    def nearest_point(self, x: float, y: float) -> tuple[float, float]:
        px = min(max(x, self.cx - self.hx), self.cx + self.hx)
        py = min(max(y, self.cy - self.hy), self.cy + self.hy)
        return px, py


def ray_rect_distance(ox: float, oy: float, dx: float, dy: float, rect: Rect) -> float:
    """Distance along a unit 2D ray to an axis-aligned rectangle, inf if missed.

    Origins inside the rectangle report the exit distance.
    """
    tmin, tmax = -math.inf, math.inf
    for o, d, lo, hi in (
        (ox, dx, rect.cx - rect.hx, rect.cx + rect.hx),
        (oy, dy, rect.cy - rect.hy, rect.cy + rect.hy),
    ):
        if d == 0.0:
            if o < lo or o > hi:
                return math.inf
            continue
        t1, t2 = (lo - o) / d, (hi - o) / d
        if t1 > t2:
            t1, t2 = t2, t1
        tmin = max(tmin, t1)
        tmax = min(tmax, t2)
    if tmax < tmin or tmax < 0.0:
        return math.inf
    return tmin if tmin > 0.0 else tmax


def ray_circle_distance(ox: float, oy: float, dx: float, dy: float,
                        cx: float, cy: float, r: float) -> float:
    """Distance along a unit 2D ray to a circle, inf if missed."""
    fx, fy = ox - cx, oy - cy
    b = fx * dx + fy * dy
    c = fx * fx + fy * fy - r * r
    disc = b * b - c
    if disc < 0.0:
        return math.inf
    root = math.sqrt(disc)
    t = -b - root
    if t < 0.0:
        t = -b + root
    return t if t >= 0.0 else math.inf


def segment_hits_circle(ax: float, ay: float, bx: float, by: float,
                        cx: float, cy: float, r: float) -> bool:
    """True if the 2D segment a-b passes within r of (cx, cy)."""
    vx, vy = bx - ax, by - ay
    wx, wy = cx - ax, cy - ay
    vv = vx * vx + vy * vy
    t = 0.0 if vv == 0.0 else max(0.0, min(1.0, (wx * vx + wy * vy) / vv))
    ex, ey = ax + t * vx - cx, ay + t * vy - cy
    return ex * ex + ey * ey <= r * r


def segment_circle_interval(a: tuple[float, float], b: tuple[float, float],
                            center: tuple[float, float],
                            r: float) -> tuple[float, float] | None:
    """Parameter range [t0, t1] of segment a-b inside a circle, or None."""
    vx, vy = b[0] - a[0], b[1] - a[1]
    fx, fy = a[0] - center[0], a[1] - center[1]
    aa = vx * vx + vy * vy
    cc = fx * fx + fy * fy - r * r
    if aa == 0.0:
        return (0.0, 1.0) if cc <= 0.0 else None
    bb = fx * vx + fy * vy
    disc = bb * bb - aa * cc
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    t0 = max((-bb - root) / aa, 0.0)
    t1 = min((-bb + root) / aa, 1.0)
    if t0 > t1:
        return None
    return (t0, t1)
