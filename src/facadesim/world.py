"""Static scene: building box, facade fault decals, cylindrical obstacles.

Queries are pure.  The laser scan is planar at the drone's altitude with a
rear blind spot; camera visibility is geometric (frustum + facing +
occlusion), no rendering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Rect,
    Vec3,
    quat_rotate_inverse,
    segment_circle_interval,
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
        if len(self.ranges) != self.n_bins:
            raise ValueError("ranges length must equal n_bins")

    def angle_of(self, i: int) -> float:
        step = (self.angle_max - self.angle_min) / (self.n_bins - 1)
        return self.angle_min + i * step


_BIN_CACHE: dict[tuple[float, float, int], tuple[np.ndarray, np.ndarray]] = {}


def _bin_trig(angle_min: float, angle_max: float, n_bins: int):
    key = (angle_min, angle_max, n_bins)
    hit = _BIN_CACHE.get(key)
    if hit is None:
        angles = np.linspace(angle_min, angle_max, n_bins)
        hit = (np.cos(angles), np.sin(angles))
        _BIN_CACHE[key] = hit
    return hit


def _rect_ray_distances(rect: Rect, ox: float, oy: float, dx: np.ndarray,
                        dy: np.ndarray) -> np.ndarray:
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


def _circle_ray_distances(cx: float, cy: float, radius: float, ox: float,
                          oy: float, dx: np.ndarray,
                          dy: np.ndarray) -> np.ndarray:
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


def simulate_scan(scene: Scene, pose: TrueState,
                  angle_min: float = SCAN_ANGLE_MIN,
                  angle_max: float = SCAN_ANGLE_MAX,
                  n_bins: int = SCAN_N_BINS,
                  range_max: float = SCAN_RANGE_MAX) -> LaserScan:
    """Planar range scan at the drone's altitude, body-frame bins."""
    if n_bins < 2:
        raise ValueError("n_bins must be at least 2")
    if range_max <= 0:
        raise ValueError("range_max must be positive")
    z = pose.position[2]
    solids: list = []
    if z <= scene.building.height:
        solids.append(scene.building.footprint())
    for o in scene.obstacles:
        if z <= o.height:
            solids.append(o)
    if not solids:
        return LaserScan(angle_min, angle_max, n_bins, range_max,
                         (range_max,) * n_bins)

    cos_b, sin_b = _bin_trig(angle_min, angle_max, n_bins)
    # bins rotate with yaw only; scan plane stays horizontal under tilt
    yaw = yaw_of(pose.attitude)
    cy, sy = math.cos(yaw), math.sin(yaw)
    dx = cy * cos_b - sy * sin_b
    dy = sy * cos_b + cy * sin_b
    ox, oy = pose.position[0], pose.position[1]

    best = np.full(n_bins, np.inf)
    for s in solids:
        if isinstance(s, Rect):
            d = _rect_ray_distances(s, ox, oy, dx, dy)
        else:
            d = _circle_ray_distances(s.center_xy[0], s.center_xy[1],
                                      s.radius, ox, oy, dx, dy)
        best = np.minimum(best, d)
    ranges = np.minimum(best, range_max)
    ranges = np.maximum(ranges, 1e-6)
    return LaserScan(angle_min, angle_max, n_bins, range_max,
                     tuple(ranges.tolist()))


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
