"""Path planning: layered perimeter rings plus straight return legs.

The inspection path is an axis-aligned rectangular ring offset from the
building footprint, repeated at increasing altitudes, traversed
counter-clockwise from the point nearest home.  Every waypoint keeps the
camera pointed at the nearest point of the footprint, so a view ray cast
along the yaw always hits the building.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Rect, Vec3, v_dist, wrap_angle
from .world import BuildingSpec


@dataclass(frozen=True)
class PlanParams:
    standoff: float = 3.0           # lateral distance ring-to-facade [m]
    buffer: float = 1.0             # avoidance mask inflation [m]
    layer_height: float = 3.0       # vertical spacing between rings [m]
    first_layer_alt: float = 1.5    # altitude of the lowest ring [m]
    waypoint_spacing: float = 2.0   # max gap between ring waypoints [m]

    def __post_init__(self) -> None:
        for name in ("standoff", "layer_height", "first_layer_alt",
                     "waypoint_spacing"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.buffer < 0:
            raise ValueError("buffer must be non-negative")


@dataclass(frozen=True)
class Waypoint:
    position: Vec3
    yaw: float
    layer: int   # ring index; -1 on the return-home leg


WaypointPath = tuple[Waypoint, ...]


def facing_yaw(footprint: Rect, x: float, y: float) -> float:
    """Yaw whose view ray from (x, y) hits the footprint."""
    nx, ny = footprint.nearest_point(x, y)
    if abs(nx - x) < 1e-12 and abs(ny - y) < 1e-12:
        # on or inside the footprint: face its center
        nx, ny = footprint.cx, footprint.cy
        if abs(nx - x) < 1e-12 and abs(ny - y) < 1e-12:
            return 0.0
    return math.atan2(ny - y, nx - x)


def layer_altitudes(building: BuildingSpec, params: PlanParams) -> list[float]:
    alts = []
    z = params.first_layer_alt
    while z < building.height:
        alts.append(z)
        z += params.layer_height
    return alts


def _ring_points(footprint: Rect, standoff: float,
                 spacing: float) -> list[tuple[float, float]]:
    """Counter-clockwise loop over the offset rectangle, corners included."""
    xmin = footprint.cx - footprint.hx - standoff
    xmax = footprint.cx + footprint.hx + standoff
    ymin = footprint.cy - footprint.hy - standoff
    ymax = footprint.cy + footprint.hy + standoff
    corners = [(xmax, ymin), (xmax, ymax), (xmin, ymax), (xmin, ymin)]
    pts: list[tuple[float, float]] = []
    for i in range(4):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % 4]
        edge_len = abs(bx - ax) + abs(by - ay)
        n_seg = max(1, math.ceil(edge_len / spacing - 1e-9))
        for k in range(n_seg):
            f = k / n_seg
            pts.append((ax + f * (bx - ax), ay + f * (by - ay)))
    return pts


def plan_size(b: BuildingSpec, p: PlanParams) -> float:
    """About how many waypoints generate_perimeter_path returns, a ring per
    layer, computed without building them; inf when a value is too large for
    a float, or a layer_height under one ulp of the height may not climb."""
    try:
        if p.layer_height < math.ulp(b.height):
            return math.inf
        layers = (b.height - p.first_layer_alt) / p.layer_height + 1.0
        return layers * (2.0 * (b.length + b.width + 4.0 * p.standoff)
                         / p.waypoint_spacing + 5.0)
    except OverflowError:
        return math.inf


def generate_perimeter_path(building: BuildingSpec, params: PlanParams,
                            home: Vec3) -> WaypointPath:
    """Entry climb, stacked rings with climbs between, return-home leg."""
    alts = layer_altitudes(building, params)
    if not alts:
        raise ValueError("building shorter than the first layer altitude")
    fp = building.footprint()
    ring = _ring_points(fp, params.standoff, params.waypoint_spacing)

    hx, hy = home[0], home[1]
    start = min(range(len(ring)),
                key=lambda i: math.hypot(ring[i][0] - hx, ring[i][1] - hy))
    loop = ring[start:] + ring[:start]
    loop.append(loop[0])

    path: list[Waypoint] = []
    home_yaw = facing_yaw(fp, hx, hy)
    path.append(Waypoint((hx, hy, alts[0]), home_yaw, 0))
    # each closed loop ends where it began, so the hop to the next layer's
    # first waypoint is a vertical climb in place
    for k, z in enumerate(alts):
        for x, y in loop:
            path.append(Waypoint((x, y, z), facing_yaw(fp, x, y), k))
    return tuple(path) + home_leg(home, home_yaw, alts[-1])


def home_leg(home: Vec3, yaw: float, z: float) -> WaypointPath:
    """Across to above home at altitude z, then straight down."""
    return (Waypoint((home[0], home[1], z), yaw, -1),
            Waypoint((home[0], home[1], 0.0), yaw, -1))


def avoidance_polygon(building: BuildingSpec, params: PlanParams) -> Rect:
    """Laser returns with hit points inside this rectangle are ignored."""
    return building.footprint().expanded(params.buffer)


def plan_return_path(start: Vec3, fault_position: Vec3,
                     fault_yaw: float) -> WaypointPath:
    """Climb to the fault altitude, then fly straight to the capture pose."""
    yaw = wrap_angle(fault_yaw)
    target = Waypoint(fault_position, yaw, -1)
    if v_dist(start, fault_position) < 1e-9:
        return (target,)
    climb = (start[0], start[1], fault_position[2])
    if v_dist(climb, fault_position) < 1e-9:
        return (Waypoint(climb, yaw, -1),)
    return (Waypoint(climb, yaw, -1), target)
