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
    TWO_PI,
    Quat,
    Rect,
    Vec3,
    quat_rotate_inverse,
    segment_circle_interval,
    yaw_of,
)
from .vehicle import TrueState

_FACE_NORMALS: dict[str, Vec3] = {
    "north": (0.0, 1.0, 0.0),
    "south": (0.0, -1.0, 0.0),
    "east": (1.0, 0.0, 0.0),
    "west": (-1.0, 0.0, 0.0),
}
FACES = tuple(_FACE_NORMALS)

SCAN_ANGLE_MIN = -0.75 * math.pi
SCAN_ANGLE_MAX = 0.75 * math.pi
SCAN_N_BINS = 271
SCAN_STEP = (SCAN_ANGLE_MAX - SCAN_ANGLE_MIN) / (SCAN_N_BINS - 1)
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

    def distance_to(self, x: float, y: float) -> float:
        """Horizontal distance from a point to the surface (negative inside)."""
        return math.hypot(self.center_xy[0] - x,
                          self.center_xy[1] - y) - self.radius


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
    ranges: tuple[float, ...]   # one per bin, SCAN_ANGLE_MIN to SCAN_ANGLE_MAX

    def __post_init__(self) -> None:
        if len(self.ranges) != SCAN_N_BINS:
            raise ValueError(f"a scan has {SCAN_N_BINS} bins, "
                             f"got {len(self.ranges)}")


_BIN_ANGLES = np.linspace(SCAN_ANGLE_MIN, SCAN_ANGLE_MAX, SCAN_N_BINS)
_BIN_COS = np.cos(_BIN_ANGLES).tolist()
_BIN_SIN = np.sin(_BIN_ANGLES).tolist()


def _window_bins(window, yaw: float):
    """Bins whose angle plus yaw lies in `window` (mod 2 pi).

    The window is padded by one bin a side, far more than the rounding of
    the bearings and bin angles.
    """
    lo, hi = window[0] - yaw - SCAN_STEP, window[1] - yaw + SCAN_STEP
    if hi - lo >= TWO_PI:
        return range(SCAN_N_BINS)
    bins: list[int] = []
    shift = math.ceil((SCAN_ANGLE_MIN - hi) / TWO_PI) * TWO_PI
    while lo + shift <= SCAN_ANGLE_MIN + (SCAN_N_BINS - 1) * SCAN_STEP:
        first = math.ceil((lo + shift - SCAN_ANGLE_MIN) / SCAN_STEP)
        last = math.floor((hi + shift - SCAN_ANGLE_MIN) / SCAN_STEP)
        bins += range(max(first, 0), min(last, SCAN_N_BINS - 1) + 1)
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


def _reaches(solid, height: float, x: float, y: float, z: float,
             reach: float) -> bool:
    """Whether `_scan_hits` casts `solid`, `height` tall, from (x, y, z)."""
    return z <= height and solid.distance_to(x, y) < reach + _REACH_MARGIN


def _in_reach(scene: Scene, footprint: Rect, x: float, y: float, z: float,
              reach: float) -> list:
    """The solids `_scan_hits` casts from (x, y, z): the footprint, then the
    obstacles, that reach up to z and lie within reach + 1e-6 m."""
    solids: list = []
    if _reaches(footprint, scene.building.height, x, y, z, reach):
        solids.append(footprint)
    for o in scene.obstacles:
        if _reaches(o, o.height, x, y, z, reach):
            solids.append(o)
    return solids


def _scan_hits(solids: list, x: float, y: float, yaw: float,
               reach: float) -> list[tuple[int, float]]:
    """(bin, range) of the bins that `simulate_scan` ray-casts and that hit,
    each range floored at 1e-6 m.

    `solids` are the ones `_in_reach` keeps at the pose for this reach.
    Each is cast within a half-angle of one bearing: a cylinder at centre
    distance D > r within asin(r/D) of its centre, the footprint at
    distance d within acos(d/reach) of its nearest point, and a solid
    around the pose, or on whose wall it stands, at every bin.  The
    footprint is convex, so all of it lies beyond the line through that
    point normal to the bearing, and its part within reach lies within
    acos(d/reach) of the bearing.
    """
    cull = reach + _REACH_MARGIN
    cos_b, sin_b = _BIN_COS, _BIN_SIN
    # bins rotate with yaw only; scan plane stays horizontal under tilt
    cy, sy = math.cos(yaw), math.sin(yaw)
    best: dict[int, float] = {}
    get, inf = best.get, math.inf
    for solid in solids:
        rect = isinstance(solid, Rect)
        if rect:
            nx, ny = solid.nearest_point(x, y)
            # a pose on a wall to within rounding is its own nearest point
            half = (math.inf if solid.contains(x, y) or (nx, ny) == (x, y)
                    else math.acos(solid.distance_to(x, y) / cull))
            bearing = math.atan2(ny - y, nx - x)
        else:
            ocx, ocy = solid.center_xy[0] - x, solid.center_xy[1] - y
            dist, radius = math.hypot(ocx, ocy), solid.radius
            c = ocx * ocx + ocy * ocy - radius * radius
            half = (math.inf if c <= 0.0 or dist <= radius
                    else math.asin(radius / dist))
            bearing = math.atan2(ocy, ocx)
        window = (bearing - half, bearing + half)
        for i in _window_bins(window, yaw):
            dx = cy * cos_b[i] - sy * sin_b[i]
            dy = sy * cos_b[i] + cy * sin_b[i]
            if rect:
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
                b = ocx * dx + ocy * dy
                disc = b * b - c
                if disc < 0.0:
                    continue
                root = math.sqrt(disc)
                t = b - root if c > 0.0 else b + root
                if t <= 0.0:
                    continue
            if t < get(i, inf):   # so t is not NaN
                best[i] = t if t > 1e-6 else 1e-6
    return list(best.items())


def simulate_scan(scene: Scene, pose: TrueState,
                  reach: float = math.inf) -> LaserScan:
    """Planar range scan at the drone's altitude, body-frame bins.

    Only solids whose horizontal distance from the pose is below
    `reach` + 1e-6 m are ray-cast, and of each only the bins within a
    half-angle of one bearing that holds all of the solid within reach
    (`_scan_hits`); every other bin reads inf, like a miss, and no hit is
    clipped.  Every bin whose full-scan range is below `reach` is therefore
    bit-identical to the full scan, and every other bin reads at least its
    full-scan range.
    """
    if not reach > 0.0:
        raise ValueError(f"reach must be positive, got {reach}")
    x, y, z = pose.position
    ranges = [math.inf] * SCAN_N_BINS
    solids = _in_reach(scene, scene.building.footprint(), x, y, z, reach)
    for i, r in _scan_hits(solids, x, y, yaw_of(pose.attitude), reach):
        ranges[i] = r
    return LaserScan(tuple(ranges))


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


def visible_decals(scene: Scene, position: Vec3, attitude: Quat,
                   camera: CameraModel) -> list[int]:
    """Ids of decals inside the frustum, on a facing facade, unoccluded."""
    out: list[int] = []
    tan_h = math.tan(0.5 * camera.hfov)
    tan_v = math.tan(0.5 * camera.vfov)
    px, py, pz = position
    for d in scene.decals:
        c = decal_world_center(scene.building, d)
        vx, vy, vz = view = (c[0] - px, c[1] - py, c[2] - pz)
        dist = math.sqrt(vx * vx + vy * vy + vz * vz)
        if dist > camera.max_range or dist < 1e-9:
            continue
        n = _FACE_NORMALS[d.face]
        if n[0] * view[0] + n[1] * view[1] + n[2] * view[2] >= 0.0:
            continue  # back face
        bx, by, bz = quat_rotate_inverse(attitude, view)
        if bx <= 1e-9:
            continue
        if abs(by) > bx * tan_h or abs(bz) > bx * tan_v:
            continue
        if _occluded(scene, position, c):
            continue
        out.append(d.id)
    return out
