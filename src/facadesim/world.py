"""Static scene: building box, facade fault decals, cylindrical obstacles.

Queries are pure.  The laser scan is planar at the drone's altitude with a
rear blind spot; camera visibility is geometric (frustum + facing +
occlusion), no rendering.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TWO_PI,
    Rect,
    Vec3,
    quat_rotate_inverse,
    segment_circle_interval,
    wrap_angle,
    yaw_of,
)
from .vehicle import TrueState

FACES = ("north", "south", "east", "west")

_FACE_NORMALS: dict[str, Vec3] = {
    "north": (0.0, 1.0, 0.0),
    "south": (0.0, -1.0, 0.0),
    "east": (1.0, 0.0, 0.0),
    "west": (-1.0, 0.0, 0.0),
}

SCAN_ANGLE_MIN = -0.75 * math.pi
SCAN_ANGLE_MAX = 0.75 * math.pi
SCAN_N_BINS = 271
SCAN_RANGE_MAX = 20.0
# [m] A ray never meets a solid nearer than the solid's horizontal distance
# from the pose, but the computed slab and circle distances can undershoot
# it by float rounding (under 1e-12 m at scene scale), so the scan's
# `reach` cull keeps solids up to this much beyond `reach`.
_REACH_MARGIN = 1e-6


@dataclass(frozen=True)
class BuildingSpec:
    length: float            # extent along +x [m]
    width: float             # extent along +y [m]
    height: float            # extent along +z [m], base at z=0
    center_xy: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.length <= 0 or self.width <= 0 or self.height <= 0:
            raise ValueError("building dimensions must be positive")

    def footprint(self) -> Rect:
        return Rect(self.center_xy[0], self.center_xy[1],
                    0.5 * self.length, 0.5 * self.width)


@dataclass(frozen=True)
class FaultDecal:
    """Simulated crack patch on one facade.

    u is the signed horizontal offset from the facade's center (along +x for
    north/south faces, along +y for east/west), v is height above ground.
    """

    id: int
    face: str
    center_uv: tuple[float, float]
    extent_uv: tuple[float, float] = (0.2, 0.2)

    def __post_init__(self) -> None:
        if self.face not in FACES:
            raise ValueError(f"face must be one of {FACES}, got {self.face!r}")
        if self.extent_uv[0] <= 0 or self.extent_uv[1] <= 0:
            raise ValueError("decal extent must be positive")


@dataclass(frozen=True)
class Obstacle:
    """Vertical cylinder standing on the ground."""

    id: int
    center_xy: tuple[float, float]
    radius: float
    height: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("obstacle radius must be positive")
        if self.height <= 0:
            raise ValueError("obstacle height must be positive")


@dataclass(frozen=True)
class CameraModel:
    hfov: float = math.radians(90.0)
    vfov: float = math.radians(60.0)
    max_range: float = 15.0

    def __post_init__(self) -> None:
        if not 0.0 < self.hfov < math.pi:
            raise ValueError("hfov must be in (0, pi)")
        if not 0.0 < self.vfov < math.pi:
            raise ValueError("vfov must be in (0, pi)")
        if self.max_range <= 0:
            raise ValueError("max_range must be positive")


@dataclass(frozen=True)
class Scene:
    building: BuildingSpec
    decals: tuple[FaultDecal, ...] = ()
    obstacles: tuple[Obstacle, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "decals", tuple(self.decals))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        ids = [d.id for d in self.decals]
        if len(set(ids)) != len(ids):
            raise ValueError("decal ids must be unique")
        oids = [o.id for o in self.obstacles]
        if len(set(oids)) != len(oids):
            raise ValueError("obstacle ids must be unique")
        b = self.building
        for d in self.decals:
            half = 0.5 * b.length if d.face in ("north",
                                                "south") else 0.5 * b.width
            u, v = d.center_uv
            eu, ev = d.extent_uv
            if abs(u) + eu > half + 1e-9:
                raise ValueError(f"decal {d.id} extends past its facade")
            if v - ev < -1e-9 or v + ev > b.height + 1e-9:
                raise ValueError(f"decal {d.id} extends past its facade")
        fp = b.footprint()
        for o in self.obstacles:
            if fp.distance_to(o.center_xy[0], o.center_xy[1]) < o.radius:
                raise ValueError(
                    f"obstacle {o.id} intersects the building footprint")


def face_normal(face: str) -> Vec3:
    return _FACE_NORMALS[face]


def decal_world_center(building: BuildingSpec, decal: FaultDecal) -> Vec3:
    cx, cy = building.center_xy
    hx = 0.5 * building.length
    hy = 0.5 * building.width
    u, v = decal.center_uv
    if decal.face == "north":
        return (cx + u, cy + hy, v)
    if decal.face == "south":
        return (cx + u, cy - hy, v)
    if decal.face == "east":
        return (cx + hx, cy + u, v)
    return (cx - hx, cy + u, v)


@dataclass(frozen=True)
class LaserScan:
    angle_min: float
    angle_max: float
    n_bins: int
    range_max: float
    ranges: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n_bins < 2:
            raise ValueError("n_bins must be at least 2")
        if len(self.ranges) != self.n_bins:
            raise ValueError("ranges length must equal n_bins")

    def angle_of(self, i: int) -> float:
        step = (self.angle_max - self.angle_min) / (self.n_bins - 1)
        return self.angle_min + i * step


@functools.cache
def _bin_trig(angle_min: float, angle_max: float, n_bins: int):
    angles = np.linspace(angle_min, angle_max, n_bins)
    return np.cos(angles).tolist(), np.sin(angles).tolist()


def _rect_window(rect: Rect, x: float, y: float, radius: float):
    """Bearings from (x, y) that meet the rectangle within `radius`.

    The part inside the disc is convex, so its extreme bearings are those
    of the edges' ends clipped to the disc; from outside they span under
    pi, so bearings taken from the nearest point's do not wrap.
    """
    if rect.contains(x, y):
        return -math.inf, math.inf
    nx, ny = rect.nearest_point(x, y)
    ref = math.atan2(ny - y, nx - x)
    lo = hi = 0.0
    x0, x1 = rect.cx - rect.hx, rect.cx + rect.hx
    y0, y1 = rect.cy - rect.hy, rect.cy + rect.hy
    corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    for a, b in zip(corners, corners[1:] + corners[:1]):
        for t in segment_circle_interval(a, b, (x, y), radius) or ():
            ang = wrap_angle(math.atan2(a[1] + t * (b[1] - a[1]) - y,
                                        a[0] + t * (b[0] - a[0]) - x) - ref)
            lo, hi = min(lo, ang), max(hi, ang)
    return ref + lo, ref + hi


def _window_bins(window, yaw: float, angle_min: float, step: float,
                 n_bins: int):
    """Bins whose angle plus yaw lies in `window` (mod 2 pi).

    The window is padded by one bin a side, far more than the rounding of
    the bearings and bin angles.
    """
    lo, hi = window[0] - yaw - step, window[1] - yaw + step
    if hi - lo >= TWO_PI:
        return range(n_bins)
    bins: list[int] = []
    shift = math.ceil((angle_min - hi) / TWO_PI) * TWO_PI
    while lo + shift <= angle_min + (n_bins - 1) * step:
        first = math.ceil((lo + shift - angle_min) / step)
        last = math.floor((hi + shift - angle_min) / step)
        bins += range(max(first, 0), min(last, n_bins - 1) + 1)
        shift += TWO_PI
    return bins


def _slab(lo: float, hi: float, d: float, inside: bool):
    """Entry and exit distances of a unit ray through one slab."""
    # 1/d of a zero or subnormal d is +-inf: a ray parallel to the slab
    inv = 1.0 / d if d else math.copysign(math.inf, d)
    t1, t2 = lo * inv, hi * inv
    if math.isfinite(t1):
        return (t1, t2) if t1 < t2 else (t2, t1)
    return (-math.inf, math.inf) if inside else (math.inf, -math.inf)


def _scan_hits(scene: Scene, footprint: Rect, x: float, y: float, z: float,
               attitude, angle_min: float, angle_max: float, n_bins: int,
               range_max: float, reach: float) -> list[tuple[int, float]]:
    """(bin, range) of the bins that `simulate_scan` ray-casts and that hit.

    A cylinder at centre distance D > r is cast within asin(r/D) of its
    bearing, the footprint within `_rect_window`, a solid around the pose
    at every bin.
    """
    cull = reach + _REACH_MARGIN
    casts: list = []
    if z <= scene.building.height and footprint.distance_to(x, y) < cull:
        casts.append((footprint, _rect_window(footprint, x, y, cull)))
    for o in scene.obstacles:
        ocx, ocy = o.center_xy[0] - x, o.center_xy[1] - y
        dist = math.hypot(ocx, ocy)
        if z <= o.height and dist - o.radius < cull:
            c = ocx * ocx + ocy * ocy - o.radius * o.radius
            half = (math.inf if c <= 0.0 or dist <= o.radius
                    else math.asin(o.radius / dist))
            bearing = math.atan2(ocy, ocx)
            casts.append(((ocx, ocy, c), (bearing - half, bearing + half)))
    if not casts:
        return []

    cos_b, sin_b = _bin_trig(angle_min, angle_max, n_bins)
    # bins rotate with yaw only; scan plane stays horizontal under tilt
    yaw = yaw_of(attitude)
    cy, sy = math.cos(yaw), math.sin(yaw)
    step = (angle_max - angle_min) / (n_bins - 1)
    best: dict[int, float] = {}
    for solid, window in casts:
        for i in _window_bins(window, yaw, angle_min, step, n_bins):
            dx = cy * cos_b[i] - sy * sin_b[i]
            dy = sy * cos_b[i] + cy * sin_b[i]
            if isinstance(solid, Rect):
                x_in, x_out = _slab(solid.cx - solid.hx - x,
                                    solid.cx + solid.hx - x, dx,
                                    abs(x - solid.cx) <= solid.hx)
                y_in, y_out = _slab(solid.cy - solid.hy - y,
                                    solid.cy + solid.hy - y, dy,
                                    abs(y - solid.cy) <= solid.hy)
                t_near, t_far = max(x_in, y_in), min(x_out, y_out)
                if t_far < t_near or t_far <= 0.0:
                    continue
                t = t_near if t_near > 0.0 else t_far
            else:
                ocx, ocy, c = solid
                b = ocx * dx + ocy * dy
                disc = b * b - c
                if disc < 0.0:
                    continue
                root = math.sqrt(disc)
                t = b - root if c > 0.0 else b + root
                if t <= 0.0:
                    continue
            if t < best.get(i, math.inf):
                best[i] = t
    return [(i, max(min(t, range_max), 1e-6)) for i, t in best.items()]


def simulate_scan(scene: Scene, pose: TrueState,
                  angle_min: float = SCAN_ANGLE_MIN,
                  angle_max: float = SCAN_ANGLE_MAX,
                  n_bins: int = SCAN_N_BINS,
                  range_max: float = SCAN_RANGE_MAX,
                  reach: float = math.inf) -> LaserScan:
    """Planar range scan at the drone's altitude, body-frame bins.

    Only solids whose horizontal distance from the pose is below
    `reach` + 1e-6 m are ray-cast, and of each only the bins in its
    angular window; every other bin reads `range_max`, like a miss.  Every
    bin whose full-scan range is below `reach` is therefore bit-identical
    to the full scan, and every other bin reads at least its full-scan
    range.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be at least 2")
    if range_max <= 0:
        raise ValueError("range_max must be positive")
    if not reach > 0.0:
        raise ValueError(f"reach must be positive, got {reach}")
    x, y, z = pose.position
    ranges = [range_max] * n_bins
    for i, r in _scan_hits(scene, scene.building.footprint(), x, y, z,
                           pose.attitude, angle_min, angle_max, n_bins,
                           range_max, reach):
        ranges[i] = r
    return LaserScan(angle_min, angle_max, n_bins, range_max, tuple(ranges))


def _occluded(scene: Scene, start: Vec3, end: Vec3) -> bool:
    for o in scene.obstacles:
        hit = segment_circle_interval((start[0], start[1]), (end[0], end[1]),
                                      o.center_xy, o.radius)
        if hit is None:
            continue
        t0, t1 = hit
        z0 = start[2] + t0 * (end[2] - start[2])
        z1 = start[2] + t1 * (end[2] - start[2])
        if min(z0, z1) <= o.height:
            return True
    return False


def visible_decals(scene: Scene, pose: TrueState,
                   camera: CameraModel) -> list[int]:
    """Ids of decals inside the frustum, on a facing facade, unoccluded."""
    out: list[int] = []
    tan_h = math.tan(0.5 * camera.hfov)
    tan_v = math.tan(0.5 * camera.vfov)
    px, py, pz = pose.position
    for d in scene.decals:
        c = decal_world_center(scene.building, d)
        view = (c[0] - px, c[1] - py, c[2] - pz)
        dist = math.sqrt(view[0] ** 2 + view[1] ** 2 + view[2] ** 2)
        if dist > camera.max_range or dist < 1e-9:
            continue
        n = _FACE_NORMALS[d.face]
        if n[0] * view[0] + n[1] * view[1] + n[2] * view[2] >= 0.0:
            continue  # back face
        bx, by, bz = quat_rotate_inverse(pose.attitude, view)
        if bx <= 1e-9:
            continue
        if abs(by) > bx * tan_h or abs(bz) > bx * tan_v:
            continue
        if _occluded(scene, pose.position, c):
            continue
        out.append(d.id)
    return out
