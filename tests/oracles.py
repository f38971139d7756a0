"""Reference implementations that only the tests use.

Each is written independently of the simulator's own arithmetic, so a
test that compares the two checks one against the other rather than a
core against itself.
"""

import math

from facadesim.geometry import Rect

_FACE_NORMALS = {
    "north": (0.0, 1.0, 0.0),
    "south": (0.0, -1.0, 0.0),
    "east": (1.0, 0.0, 0.0),
    "west": (-1.0, 0.0, 0.0),
}


def face_normal(face: str):
    """Outward unit normal of a facade."""
    return _FACE_NORMALS[face]


def dead_reckon(accel_stream, dt: float):
    """Trapezoidal double integration of world accelerations from the origin.

    v_k = v_(k-1) + dt (a_(k-1) + a_k) / 2 and
    p_k = p_(k-1) + dt (v_(k-1) + v_k) / 2, axis by axis.
    """
    stream = list(accel_stream)
    if not stream:
        raise ValueError("accel_stream must be nonempty")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    pos = [0.0, 0.0, 0.0]
    vel = [0.0, 0.0, 0.0]
    trace = [tuple(pos)]
    for prev, a in zip(stream, stream[1:]):
        for i in range(3):
            v_new = vel[i] + dt * (prev[i] + a[i]) / 2.0
            pos[i] += dt * (vel[i] + v_new) / 2.0
            vel[i] = v_new
        trace.append(tuple(pos))
    return trace


def ray_rect_distance(ox: float, oy: float, dx: float, dy: float,
                      rect: Rect) -> float:
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


def segment_hits_circle(ax: float, ay: float, bx: float, by: float,
                        cx: float, cy: float, r: float) -> bool:
    """True if the 2D segment a-b passes within r of (cx, cy)."""
    vx, vy = bx - ax, by - ay
    wx, wy = cx - ax, cy - ay
    vv = vx * vx + vy * vy
    t = 0.0 if vv == 0.0 else max(0.0, min(1.0, (wx * vx + wy * vy) / vv))
    ex, ey = ax + t * vx - cx, ay + t * vy - cy
    return ex * ex + ey * ey <= r * r


def error_stats(rows, first: int):
    """Max and rms distance of columns first..first+2 from columns 1..3 as a
    running float loop gives them: a NaN row never beats the max, and the
    squares add in row order."""
    worst = acc = 0.0
    for rec in rows:
        dx = rec[first] - rec[1]
        dy = rec[first + 1] - rec[2]
        dz = rec[first + 2] - rec[3]
        e2 = dx * dx + dy * dy + dz * dz
        acc += e2
        if e2 > worst:
            worst = e2
    return math.sqrt(worst), math.sqrt(acc / len(rows))


def cylinder_clearance(o, x: float, y: float, z: float) -> float:
    """Distance from a point to a vertical cylinder standing on the ground,
    branch by branch: straight up over its top inside the rim (0.0 for a
    height that is not above it), straight out at or below the top, and to
    the top's edge otherwise."""
    dx = x - o.center_xy[0]
    dy = y - o.center_xy[1]
    horiz = math.sqrt(dx * dx + dy * dy) - o.radius
    dz = z - o.height
    if horiz <= 0.0:
        return dz if dz > 0.0 else 0.0
    if dz <= 0.0:
        return horiz
    return math.sqrt(horiz * horiz + dz * dz)


def flown_folds(rows, obstacles, footprint: Rect, height: float):
    """A mission's minimum obstacle clearance (None with no obstacle or no
    flown row) and footprint entry, as a float loop over the true positions,
    columns 1..3, of every row but the last: the final Done row ends the
    run before a fly step."""
    flown = rows[:-1]
    clear = min((cylinder_clearance(o, *row[1:4])
                 for row in flown for o in obstacles), default=None)
    entered = any(row[3] <= height
                  and abs(row[1] - footprint.cx) <= footprint.hx
                  and abs(row[2] - footprint.cy) <= footprint.hy
                  for row in flown)
    return clear, entered


def row_phases(times, transitions):
    """Each row's phase: the `to` of the last (t, from, to) transition, in
    log order, whose t is at or before the row's t; None before the first."""
    phases = []
    for t in times:
        phase = None
        for u, _, to in transitions:
            if u <= t:
                phase = to
        phases.append(phase)
    return phases
