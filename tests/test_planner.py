"""Perimeter path generation: ring geometry, yaw aim, return legs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facadesim.geometry import v_dist, wrap_angle
from facadesim.planner import (
    PlanParams,
    Waypoint,
    avoidance_polygon,
    facing_yaw,
    generate_perimeter_path,
    layer_altitudes,
    plan_return_path,
)
from facadesim.world import BuildingSpec
from oracles import ray_rect_distance


def ring_waypoints(path):
    return [wp for wp in path[1:] if wp.layer >= 0]


def test_params_validation():
    with pytest.raises(ValueError):
        PlanParams(standoff=0.0)
    with pytest.raises(ValueError):
        PlanParams(buffer=-0.1)
    with pytest.raises(ValueError):
        PlanParams(layer_height=0.0)
    with pytest.raises(ValueError):
        PlanParams(first_layer_alt=-1.0)
    with pytest.raises(ValueError):
        PlanParams(waypoint_spacing=0.0)


def test_facing_yaw_cardinal_and_corner():
    fp = BuildingSpec(10.0, 6.0, 5.0).footprint()
    assert facing_yaw(fp, 10.0, 0.0) == pytest.approx(math.pi)
    assert facing_yaw(fp, 0.0, 10.0) == pytest.approx(-math.pi / 2)
    assert facing_yaw(fp, -9.0, 0.0) == pytest.approx(0.0)
    # corner region aims at the corner itself
    assert facing_yaw(fp, 9.0, 7.0) == pytest.approx(-3 * math.pi / 4)
    # inside the footprint the view falls back to the center
    assert facing_yaw(fp, 0.5, 0.5) == pytest.approx(math.atan2(-0.5, -0.5))
    assert facing_yaw(fp, 0.0, 0.0) == 0.0


def test_layer_altitudes_cover_facade():
    b = BuildingSpec(20.0, 10.0, 9.0)
    assert layer_altitudes(b, PlanParams()) == [1.5, 4.5, 7.5]
    low = BuildingSpec(20.0, 10.0, 1.6)
    assert layer_altitudes(low, PlanParams()) == [1.5]
    with pytest.raises(ValueError):
        generate_perimeter_path(BuildingSpec(20.0, 10.0, 1.0), PlanParams(),
                                home=(16.0, 0.0, 0.0))


def test_ring_rectangle_exact():
    """20x10x9 building with 3 m standoff: ring corners at (+-13, +-8)."""
    b = BuildingSpec(20.0, 10.0, 9.0)
    path = generate_perimeter_path(b, PlanParams(), home=(16.0, 0.0, 0.0))
    ring = ring_waypoints(path)
    for cx, cy in ((13.0, -8.0), (13.0, 8.0), (-13.0, 8.0), (-13.0, -8.0)):
        best = min(max(abs(wp.position[0] - cx), abs(wp.position[1] - cy))
                   for wp in ring)
        assert best < 1e-9
    for wp in ring:
        x, y = wp.position[0], wp.position[1]
        on_x = abs(abs(x) - 13.0) < 1e-9 and abs(y) <= 8.0 + 1e-9
        on_y = abs(abs(y) - 8.0) < 1e-9 and abs(x) <= 13.0 + 1e-9
        assert on_x or on_y
    assert sorted({wp.position[2] for wp in ring}) == [1.5, 4.5, 7.5]
    for wp in ring:
        assert wp.position[2] == pytest.approx(1.5 + 3.0 * wp.layer)


def test_path_structure():
    b = BuildingSpec(20.0, 10.0, 9.0)
    home = (16.0, 0.0, 0.0)
    path = generate_perimeter_path(b, PlanParams(), home=home)
    # entry point hovers over home at the first ring altitude
    assert path[0].position == (16.0, 0.0, 1.5)
    assert path[0].layer == 0
    # run_mission starts the drone at this yaw
    assert path[0].yaw == facing_yaw(b.footprint(), *home[:2])
    assert path[0].yaw == pytest.approx(math.pi)
    # ring: 13 + 8 segments per side pair, closed loop per layer
    per_layer = 2 * (13 + 8) + 1
    assert len(path) == 1 + 3 * per_layer + 2
    for k in range(3):
        first = path[1 + k * per_layer]
        last = path[1 + (k + 1) * per_layer - 1]
        assert first.position == last.position
    # loop starts at the ring point nearest home
    assert path[1].position == (13.0, 0.0, 1.5)
    # return leg: home at the top altitude, then touchdown
    assert path[-2].position == (16.0, 0.0, 7.5)
    assert path[-1].position == (16.0, 0.0, 0.0)
    assert path[-2].layer == -1 and path[-1].layer == -1


def test_waypoint_spacing_bound():
    b = BuildingSpec(20.0, 10.0, 9.0)
    path = generate_perimeter_path(b, PlanParams(), home=(16.0, 0.0, 0.0))
    for a, bwp in zip(path[1:], path[2:]):
        if a.layer == bwp.layer and bwp.layer >= 0:
            assert v_dist(a.position, bwp.position) <= 2.0 + 1e-6


def test_every_view_ray_hits_the_building():
    b = BuildingSpec(20.0, 10.0, 9.0)
    fp = b.footprint()
    path = generate_perimeter_path(b, PlanParams(), home=(16.0, 0.0, 0.0))
    for wp in path:
        d = ray_rect_distance(wp.position[0], wp.position[1],
                              math.cos(wp.yaw), math.sin(wp.yaw), fp)
        assert math.isfinite(d)


def test_ring_clears_avoidance_mask():
    b = BuildingSpec(20.0, 10.0, 9.0)
    params = PlanParams()
    mask = avoidance_polygon(b, params)
    assert (mask.hx, mask.hy) == (11.0, 6.0)
    path = generate_perimeter_path(b, params, home=(16.0, 0.0, 0.0))
    for wp in ring_waypoints(path):
        assert not mask.contains(wp.position[0], wp.position[1])


@given(st.floats(2.0, 40.0), st.floats(2.0, 30.0), st.floats(2.0, 20.0),
       st.floats(0.5, 5.0), st.floats(0.7, 3.0))
@settings(max_examples=60, deadline=None)
def test_ring_invariants(length, width, height, standoff, spacing):
    b = BuildingSpec(length, width, height)
    params = PlanParams(standoff=standoff, waypoint_spacing=spacing,
                        first_layer_alt=1.0)
    home = (0.5 * length + standoff + 4.0, 3.0, 0.0)
    path = generate_perimeter_path(b, params, home=home)
    fp = b.footprint()
    ring = ring_waypoints(path)
    assert ring
    for wp in ring:
        x, y = wp.position[0], wp.position[1]
        d = fp.distance_to(x, y)
        assert standoff - 1e-9 <= d <= standoff * math.sqrt(2.0) + 1e-9
        assert wp.position[2] < height
        # rays aimed at a corner can graze the footprint tangentially, so
        # test against a hair-expanded rectangle
        assert math.isfinite(ray_rect_distance(
            x, y, math.cos(wp.yaw), math.sin(wp.yaw), fp.expanded(1e-9)))
    for a, bwp in zip(path[1:], path[2:]):
        if a.layer == bwp.layer and bwp.layer >= 0:
            assert v_dist(a.position, bwp.position) <= spacing + 1e-6


def test_plan_return_path_branches():
    start = (10.0, 2.0, 7.5)
    fault = (4.0, -1.0, 1.5)
    path = plan_return_path(start, fault, fault_yaw=math.pi)
    assert len(path) == 2
    assert path[0].position == (10.0, 2.0, 1.5)
    assert path[1].position == fault
    assert all(wp.layer == -1 and wp.yaw == pytest.approx(math.pi)
               for wp in path)
    # already above the fault: single climb-to-target leg
    drop = plan_return_path((4.0, -1.0, 7.5), fault, 0.0)
    assert len(drop) == 1
    assert drop[0].position == fault
    # already at the fault
    stay = plan_return_path(fault, fault, 0.0)
    assert stay == (Waypoint(fault, 0.0, -1),)
    # yaw is stored wrapped
    wrapped = plan_return_path(start, fault, fault_yaw=7.0)
    assert wrapped[0].yaw == pytest.approx(wrap_angle(7.0))
