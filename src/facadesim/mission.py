"""Two-phase mission loop: inspect the whole building, then revisit faults.

A single 100 Hz clock drives sensing, estimation, control, and capture
checks.  Control closes on the estimated state everywhere; ground truth is
read only by the sensor models, the laser scan, the visibility oracle, and
the loggers.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import astuple, dataclass
from math import asin, atan2, cos, pi, remainder, sin, sqrt

import numpy as np

from .attitude import ComplementaryGain
from .config import MAX_LEG_STEPS, MissionParams, ScenarioConfig
from .control import (
    _FRESH_LANES,
    _FRESH_PID,
    I_MAX,
    KP_YAW,
    PidGains,
    _sectors,
    avoidance_command,
)
from .errors import MissionAborted
from .estimation import KalmanConfig, _filter_start
from .geometry import TWO_PI, Vec3, v_dist, wrap_angle, yaw_of
from .perception import CaptureRecord, Classifier, filter_fault_coordinates
from .planner import (
    Waypoint,
    avoidance_polygon,
    generate_perimeter_path,
    home_leg,
    plan_return_path,
)
from .sensors import MAG_WORLD, SensorParams, _noise_stream
from .vehicle import G_VEC, GRAVITY, TrueState, VehicleParams, _lag
from .world import _in_reach, _scan_hits, visible_decals

# The loop does not call these four, but they stay names of this module:
# perfbench/workloads.py wraps them here in its traced runs.
from .control import classify_sectors, track_waypoint  # noqa: F401
from .vehicle import step_dynamics  # noqa: F401
from .world import simulate_scan  # noqa: F401


# The phase names the loop holds, compares with `is` and logs; a run starts
# from "Idle", which only its first transition names.
_INSPECTING = "Inspecting"
_RETURNING_HOME = "ReturningHome"
_DETECTING = "Detecting"
_HOLDING = "Holding"
_DONE = "Done"

ARRIVAL_TOL = 0.3   # [m] a waypoint is reached once the estimate is this near


@dataclass(frozen=True)
class FaultEntry:
    id: int
    position: Vec3   # estimated pose logged at capture time
    yaw: float


@dataclass(frozen=True)
class MissionReport:
    faults: tuple[FaultEntry, ...]
    inspection_duration: float
    detection_durations: tuple[float, ...]
    min_obstacle_clearance: float | None   # None when the scene has none


@dataclass
class MissionResult:
    report: MissionReport
    captures: tuple[CaptureRecord, ...]
    trajectory: np.ndarray                 # float64 rows: t, true, est, dr xyz
    transitions: list[tuple[float, str, str]]   # (t, from, to)
    engaged: list[bool]                    # avoidance active, per step
    entered_footprint: bool
    # ground truth sampled as each fault hold expires: (fault id, t, xyz, yaw)
    hold_end_poses: list[tuple[int, float, Vec3, float]]


def _cylinder_clearance(o, x, y, z):
    dx, dy = x - o.center_xy[0], y - o.center_xy[1]
    horiz = np.sqrt(dx * dx + dy * dy) - o.radius
    dz = z - o.height
    return np.where(horiz <= 0.0, np.where(dz > 0.0, dz, 0.0),
                    np.where(dz <= 0.0, horiz,
                             np.sqrt(horiz * horiz + dz * dz)))


# [m] Added to the slack of `_hidden`: it covers the 1e-6 m floor of a
# scan range and the rounding of the ray and mask arithmetic (under 1e-12 m
# at scene scale).
_MASK_MARGIN = 1e-3


def _mask_insets(mask, footprint, obstacles) -> dict:
    """{solid: inset} of the solids lying wholly inside the mask.

    The inset is the least distance, along x or along y, from a point of
    the solid to the mask's edge; the footprint's is the plan's buffer.
    """
    boxes = [(footprint, *astuple(footprint))]   # (cx, cy, hx, hy)
    boxes += [(o, *o.center_xy, o.radius, o.radius) for o in obstacles]
    insets = {solid: min(mask.hx - abs(cx - mask.cx) - hx,
                         mask.hy - abs(cy - mask.cy) - hy)
              for solid, cx, cy, hx, hy in boxes}
    return {solid: d for solid, d in insets.items() if d > 0.0}


def _hidden(insets, solids, est_pos, est_yaw: float, true_pos,
            true_yaw: float, d_engage: float) -> bool:
    """Whether every return below d_engage of `solids` maps into the mask.

    `_sectors` tests the point est + r u(est_yaw + angle) for r < d_engage.
    It lies within the slack (Chebyshev distance) of the true hit point, so
    a solid whose inset exceeds the slack only hides other solids' returns.
    The mission skips a scan whose solids are all hidden, and casts every
    one otherwise, since a hidden solid still shadows the ones behind it.
    """
    slack = (max(abs(est_pos[0] - true_pos[0]), abs(est_pos[1] - true_pos[1]))
             + d_engage * abs(wrap_angle(est_yaw - true_yaw)) + _MASK_MARGIN)
    for solid in solids:
        if not slack < insets.get(solid, -math.inf):
            return False
    return True


def _step_kernel(sensors: SensorParams, seed: int, kalman: KalmanConfig,
                 alpha: float, start: Vec3, yaw: float, dt: float,
                 gains: PidGains, vehicle: VehicleParams, kp_yaw: float):
    """One run's sense -> estimate -> track -> fly step, as a generator.

    next() senses step 0.  send(cmd) tracks cmd when it is a Waypoint, or
    flies the body velocity cmd at yaw rate 0 with a fresh tracking PID,
    then senses the next step.  Both yield (est position, dr position, est
    quat, est yaw, true position, true attitude).  The arguments are
    checked here, not at next().
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    ComplementaryGain(alpha)   # rejects an alpha outside [0, 1]
    # rejects dt <= 0; InertialEstimator starts from it too
    filter_start = _filter_start(kalman, start, yaw, dt)
    return _kernel_steps(sensors, seed, filter_start, alpha, start, yaw, dt,
                         gains, vehicle, kp_yaw)


def _kernel_steps(sensors: SensorParams, seed: int, filter_start,
                  alpha: float, start: Vec3, yaw: float, dt: float,
                  gains: PidGains, vehicle: VehicleParams, kp_yaw: float):
    """`_step_kernel`'s generator: the whole state is its local floats.

    Each step is straight-line arithmetic calling only math functions and
    next() on the streams.  It computes what Imu.measure,
    InertialEstimator.step, DeadReckoner.step, track_waypoint and
    step_dynamics compute, operand for operand, each fallback a branch on
    the same threshold; `x if x < hi else hi` is min(hi, x), NaN included.
    Both IMUs share one world -> body rotation, IMU 2's unread gyro and
    magnetometer are skipped, at alpha 1.0 so is IMU 1's attitude
    measurement, which the blend weighs 0.0, and the Kalman gains are
    replayed.
    """
    noise1, noise2 = _noise_stream(seed, 0), _noise_stream(seed, 1)
    attitude, axes, gain_stream = filter_start
    (px, py, pz), (vx, vy, vz), (qw, qx, qy, qz), (wx, wy, wz), \
        (ax, ay, az) = astuple(TrueState.at_rest(start, yaw=yaw))
    roll, pitch, yaw, (ew, ex, ey, ez) = astuple(attitude)
    (kpx, kvx, kax), (kpy, kvy, kay), (kpz, kvz, kaz) = axes
    # the dead reckoner starts from the true state, with no previous accel
    dqw, dqx, dqy, dqz = qw, qx, qy, qz
    (dpx, dpy, dpz), (dvx, dvy, dvz) = start, (vx, vy, vz)
    dax = day = daz = 0.0
    dr_has_accel = False
    integral, prev_error, initialized = _FRESH_PID
    gb0, gb1, gb2 = sensors.gyro_bias
    ab0, ab1, ab2 = sensors.accel_bias
    sg, sa, sm = (sensors.gyro_noise_std, sensors.accel_noise_std,
                  sensors.mag_noise_std)
    g0, g1, g2 = G_VEC
    m0, m1, m2 = MAG_WORLD
    g_floor, k_meas = 0.1 * GRAVITY, 1.0 - alpha
    h, lag = 0.5 * dt * dt, _lag(vehicle.tau, dt)
    v_max, yaw_rate_max = vehicle.v_max, vehicle.yaw_rate_max
    kp, ki, kd = gains.kp, gains.ki, gains.kd

    while True:
        # Imu.measure: specific force and MAG_WORLD rotated to the body by
        # the conjugate attitude (qw, ix, iy, iz), then bias and noise
        ix, iy, iz = -qx, -qy, -qz
        fx, fy, fz = ax - g0, ay - g1, az - g2
        tx = 2.0 * (iy * fz - iz * fy)
        ty = 2.0 * (iz * fx - ix * fz)
        tz = 2.0 * (ix * fy - iy * fx)
        bx = fx + qw * tx + (iy * tz - iz * ty)
        by = fy + qw * ty + (iz * tx - ix * tz)
        bz = fz + qw * tz + (ix * ty - iy * tx)
        # IMU 1 alone drives attitude and dead reckoning
        n0, n1, n2, n3, n4, n5, n6, n7, n8 = next(noise1)
        p, q, r = wx + gb0 + sg * n0, wy + gb1 + sg * n1, wz + gb2 + sg * n2
        a1x, a1y, a1z = (bx + ab0 + sa * n3, by + ab1 + sa * n4,
                         bz + ab2 + sa * n5)
        n = next(noise2)
        a2x, a2y, a2z = (bx + ab0 + sa * n[3], by + ab1 + sa * n[4],
                         bz + ab2 + sa * n[5])

        # complementary_step: gyro rates to Euler-angle rates at the
        # previous roll and pitch
        sr, cr = sin(roll), cos(roll)
        sp, cp = sin(pitch), cos(pitch)
        if -1e-9 < cp < 1e-9:   # gimbal lock: yaw/roll rates undefined
            cp = 1e-9 if cp >= 0.0 else -1e-9
        tp = sp / cp
        qr = q * sr + r * cr
        droll = p + qr * tp
        dpitch = q * cr - r * sr
        dyaw = qr / cp
        g_roll = remainder(roll + droll * dt, TWO_PI)
        g_roll = pi if g_roll <= -pi else g_roll
        g_pitch = pitch + dpitch * dt
        g_yaw = remainder(yaw + dyaw * dt, TWO_PI)
        g_yaw = pi if g_yaw <= -pi else g_yaw
        if k_meas == 0.0:
            # alpha 1.0: the blend adds 0.0 times each residual, +-0.0, to a
            # gyro angle; only g_pitch is not wrapped yet
            roll, yaw = g_roll, g_yaw
            pitch = remainder(g_pitch, TWO_PI)
            pitch = pi if pitch <= -pi else pitch
        else:
            # MAG_WORLD in the body frame, with IMU 1's noise
            tx = 2.0 * (iy * m2 - iz * m1)
            ty = 2.0 * (iz * m0 - ix * m2)
            tz = 2.0 * (ix * m1 - iy * m0)
            mx = m0 + qw * tx + (iy * tz - iz * ty) + sm * n6
            my = m1 + qw * ty + (iz * tx - ix * tz) + sm * n7
            mz = m2 + qw * tz + (ix * ty - iy * tx) + sm * n8
            norm = sqrt(mx * mx + my * my + mz * mz)
            if norm > 1e-9:   # renormalise unless noise cancelled the field
                mx, my, mz = mx / norm, my / norm, mz / norm
            if sqrt(a1x * a1x + a1y * a1y + a1z * a1z) <= g_floor:
                # gravity unobservable: roll and pitch follow the gyro
                m_roll, m_pitch, k_rp = g_roll, g_pitch, 0.0
            else:
                m_roll = atan2(a1y, a1z)
                m_pitch = atan2(-a1x, sqrt(a1y * a1y + a1z * a1z))
                k_rp = k_meas
            sr, cr = sin(m_roll), cos(m_roll)
            sp, cp = sin(m_pitch), cos(m_pitch)
            hx = cp * mx + sp * sr * my + sp * cr * mz
            hy = cr * my - sr * mz
            if sqrt(hx * hx + hy * hy) < 1e-6:
                # magnetic degeneracy: yaw follows the gyro
                m_yaw, k_y = g_yaw, 0.0
            else:
                m_yaw, k_y = atan2(-hy, hx), k_meas
            # blend: gyro angle plus (1 - alpha) of the wrapped residual
            e = remainder(m_roll - g_roll, TWO_PI)
            e = pi if e <= -pi else e
            roll = remainder(g_roll + k_rp * e, TWO_PI)
            roll = pi if roll <= -pi else roll
            e = remainder(m_pitch - g_pitch, TWO_PI)
            e = pi if e <= -pi else e
            pitch = remainder(g_pitch + k_rp * e, TWO_PI)
            pitch = pi if pitch <= -pi else pitch
            e = remainder(m_yaw - g_yaw, TWO_PI)
            e = pi if e <= -pi else e
            yaw = remainder(g_yaw + k_y * e, TWO_PI)
            yaw = pi if yaw <= -pi else yaw
        cr, sr = cos(roll * 0.5), sin(roll * 0.5)
        cp, sp = cos(pitch * 0.5), sin(pitch * 0.5)
        cy, sy = cos(yaw * 0.5), sin(yaw * 0.5)
        ew = cy * cp * cr + sy * sp * sr
        ex = cy * cp * sr - sy * sp * cr
        ey = cy * sp * cr + sy * cp * sr
        ez = sy * cp * cr - cy * sp * sr
        # the angles back from the quat, in canonical ranges
        roll = atan2(2.0 * (ew * ex + ey * ez),
                     1.0 - 2.0 * (ex * ex + ey * ey))
        s = 2.0 * (ew * ey - ez * ex)
        s = s if s < 1.0 else 1.0
        pitch = asin(s if s > -1.0 else -1.0)
        yaw = atan2(2.0 * (ew * ez + ex * ey), 1.0 - 2.0 * (ey * ey + ez * ez))

        # InertialEstimator.step: both world accelerations, gravity added
        # back, update the three [p, v, a] axes with the step's gain
        tx = 2.0 * (ey * a1z - ez * a1y)
        ty = 2.0 * (ez * a1x - ex * a1z)
        tz = 2.0 * (ex * a1y - ey * a1x)
        w1x = a1x + ew * tx + (ey * tz - ez * ty) + g0
        w1y = a1y + ew * ty + (ez * tx - ex * tz) + g1
        w1z = a1z + ew * tz + (ex * ty - ey * tx) + g2
        tx = 2.0 * (ey * a2z - ez * a2y)
        ty = 2.0 * (ez * a2x - ex * a2z)
        tz = 2.0 * (ex * a2y - ey * a2x)
        w2x = a2x + ew * tx + (ey * tz - ez * ty) + g0
        w2y = a2y + ew * ty + (ez * tx - ex * tz) + g1
        w2z = a2z + ew * tz + (ex * ty - ey * tx) + g2
        (p02, p12, p22), c = next(gain_stream)
        u = c * (w1x - kax) + c * (w2x - kax)
        kpx, kvx, kax = (kpx + dt * kvx + h * kax + p02 * u,
                         kvx + dt * kax + p12 * u, kax + p22 * u)
        u = c * (w1y - kay) + c * (w2y - kay)
        kpy, kvy, kay = (kpy + dt * kvy + h * kay + p02 * u,
                         kvy + dt * kay + p12 * u, kay + p22 * u)
        u = c * (w1z - kaz) + c * (w2z - kaz)
        kpz, kvz, kaz = (kpz + dt * kvz + h * kaz + p02 * u,
                         kvz + dt * kaz + p12 * u, kaz + p22 * u)

        # DeadReckoner.step: turn by the gyro's rotation vector
        r0, r1, r2 = p * dt, q * dt, r * dt
        angle = sqrt(r0 * r0 + r1 * r1 + r2 * r2)
        if angle < 1e-12:   # first-order expansion, normalised (norm >= 1)
            rx, ry, rz = 0.5 * r0, 0.5 * r1, 0.5 * r2
            norm = sqrt(1.0 + rx * rx + ry * ry + rz * rz)
            rw, rx, ry, rz = 1.0 / norm, rx / norm, ry / norm, rz / norm
        else:
            half = 0.5 * angle
            s = sin(half) / angle
            rw, rx, ry, rz = cos(half), r0 * s, r1 * s, r2 * s
        uw = dqw * rw - dqx * rx - dqy * ry - dqz * rz
        ux = dqw * rx + dqx * rw + dqy * rz - dqz * ry
        uy = dqw * ry - dqx * rz + dqy * rw + dqz * rx
        uz = dqw * rz + dqx * ry - dqy * rx + dqz * rw
        norm = sqrt(uw * uw + ux * ux + uy * uy + uz * uz)
        dqw, dqx, dqy, dqz = uw / norm, ux / norm, uy / norm, uz / norm
        tx = 2.0 * (dqy * a1z - dqz * a1y)
        ty = 2.0 * (dqz * a1x - dqx * a1z)
        tz = 2.0 * (dqx * a1y - dqy * a1x)
        cax = a1x + dqw * tx + (dqy * tz - dqz * ty) + g0
        cay = a1y + dqw * ty + (dqz * tx - dqx * tz) + g1
        caz = a1z + dqw * tz + (dqx * ty - dqy * tx) + g2
        if dr_has_accel:   # trapezoid rule: velocity, then position
            ux = dvx + 0.5 * (dax + cax) * dt
            uy = dvy + 0.5 * (day + cay) * dt
            uz = dvz + 0.5 * (daz + caz) * dt
            dpx += 0.5 * (dvx + ux) * dt
            dpy += 0.5 * (dvy + uy) * dt
            dpz += 0.5 * (dvz + uz) * dt
            dvx, dvy, dvz = ux, uy, uz
        dax, day, daz, dr_has_accel = cax, cay, caz, True
        cmd = yield ((kpx, kpy, kpz), (dpx, dpy, dpz), (ew, ex, ey, ez), yaw,
                     (px, py, pz), (qw, qx, qy, qz))

        if cmd.__class__ is Waypoint:
            # track_waypoint: a PID on the distance gives the speed, and
            # the velocity points straight at cmd, rotated to the body frame
            sx, sy, sz = cmd.position
            dx, dy, dz = sx - kpx, sy - kpy, sz - kpz
            dist = sqrt(dx * dx + dy * dy + dz * dz)
            # dist >= 0 and dt > 0, so only the upper clamp can bind; it
            # maps a NaN integral to I_MAX
            integral = integral + dist * dt
            integral = integral if integral < I_MAX else I_MAX
            prev = dist if not initialized else prev_error
            speed = kp * dist + ki * integral + kd * ((dist - prev) / dt)
            prev_error, initialized = dist, True
            speed = speed if speed < v_max else v_max
            speed = speed if speed > 0.0 else 0.0
            if dist > 1e-9 and speed > 0.0:
                k = speed / dist
                ux, uy, uz = dx * k, dy * k, dz * k
                ix, iy, iz = -ex, -ey, -ez
                tx = 2.0 * (iy * uz - iz * uy)
                ty = 2.0 * (iz * ux - ix * uz)
                tz = 2.0 * (ix * uy - iy * ux)
                v_body = (ux + ew * tx + (iy * tz - iz * ty),
                          uy + ew * ty + (iz * tx - ix * tz),
                          uz + ew * tz + (ix * ty - iy * tx))
            else:
                v_body = (0.0, 0.0, 0.0)
            yaw_err = remainder(cmd.yaw - yaw, TWO_PI)
            yaw_err = pi if yaw_err <= -pi else yaw_err
            yaw_rate = kp_yaw * yaw_err
            yaw_rate = yaw_rate if yaw_rate < yaw_rate_max else yaw_rate_max
            yaw_rate = (yaw_rate if yaw_rate > -yaw_rate_max
                        else -yaw_rate_max)
        else:   # an override; tracking resumes with a fresh PID
            integral, prev_error, initialized = _FRESH_PID
            v_body, yaw_rate = cmd, 0.0

        # step_dynamics: clamp the speed; v_max > 0, so speed > 0 here.
        # track already clamped yaw_rate, and 0.0 needs no clamp
        bx, by, bz = v_body
        speed = sqrt(bx * bx + by * by + bz * bz)
        if speed > v_max:
            k = v_max / speed
            bx, by, bz = bx * k, by * k, bz * k
        # lag toward the command rotated to the world frame
        tx = 2.0 * (qy * bz - qz * by)
        ty = 2.0 * (qz * bx - qx * bz)
        tz = 2.0 * (qx * by - qy * bx)
        v0x, v0y, v0z = vx, vy, vz
        vx = v0x + (bx + qw * tx + (qy * tz - qz * ty) - v0x) * lag
        vy = v0y + (by + qw * ty + (qz * tx - qx * tz) - v0y) * lag
        vz = v0z + (bz + qw * tz + (qx * ty - qy * tx) - v0z) * lag
        px += vx * dt
        py += vy * dt
        pz += vz * dt
        if pz < 0.0:   # ground plane
            pz = 0.0
            vz = 0.0 if 0.0 > vz else vz
        ax = (vx - v0x) / dt
        ay = (vy - v0y) / dt
        az = (vz - v0z) / dt
        # the step-start angles; yaw integrates the rate
        roll0 = atan2(2.0 * (qw * qx + qy * qz),
                      1.0 - 2.0 * (qx * qx + qy * qy))
        s = 2.0 * (qw * qy - qz * qx)
        s = s if s < 1.0 else 1.0
        pitch0 = asin(s if s > -1.0 else -1.0)
        yaw0 = atan2(2.0 * (qw * qz + qx * qy),
                     1.0 - 2.0 * (qy * qy + qz * qz))
        yaw1 = remainder(yaw0 + yaw_rate * dt, TWO_PI)
        yaw1 = pi if yaw1 <= -pi else yaw1
        # roll/pitch that align body z with the thrust direction accel - g,
        # expressed in the yaw-aligned frame
        tz = az + GRAVITY
        c, s = cos(-yaw1), sin(-yaw1)
        fx = c * ax - s * ay
        fy = s * ax + c * ay
        n = sqrt(fx * fx + fy * fy + tz * tz)
        if n < 1e-9:   # free fall: tilt undefined, hold previous
            roll1, pitch1 = roll0, pitch0
        else:
            s = fy / n
            s = s if s < 1.0 else 1.0
            roll1 = -asin(s if s > -1.0 else -1.0)
            pitch1 = atan2(fx, tz)
        cr, sr = cos(roll1 * 0.5), sin(roll1 * 0.5)
        cp, sp = cos(pitch1 * 0.5), sin(pitch1 * 0.5)
        cy, sy = cos(yaw1 * 0.5), sin(yaw1 * 0.5)
        qw = cy * cp * cr + sy * sp * sr
        qx = cy * cp * sr - sy * sp * cr
        qy = cy * sp * cr + sy * cp * sr
        qz = sy * cp * cr - cy * sp * sr
        norm = sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        qw, qx, qy, qz = qw / norm, qx / norm, qy / norm, qz / norm
        # body rates from Euler-angle rates at the step-start angles
        droll = remainder(roll1 - roll0, TWO_PI)
        droll = pi if droll <= -pi else droll
        dyaw = remainder(yaw1 - yaw0, TWO_PI)
        dyaw = pi if dyaw <= -pi else dyaw
        droll, dpitch, dyaw = droll / dt, (pitch1 - pitch0) / dt, dyaw / dt
        sr, cr = sin(roll0), cos(roll0)
        sp, cp = sin(pitch0), cos(pitch0)
        wx = droll - dyaw * sp
        wy = dpitch * cr + dyaw * cp * sr
        wz = -dpitch * sr + dyaw * cp * cr


def run_mission(cfg: ScenarioConfig,
                inspection_only: bool = False) -> MissionResult:
    scene = cfg.scene()
    fp = scene.building.footprint()
    mask = avoidance_polygon(cfg.building, cfg.plan)
    insets = _mask_insets(mask, fp, scene.obstacles)
    camera = cfg.camera()
    mp = cfg.mission
    dt, d_engage, arrival_tol = mp.dt, mp.d_engage, ARRIVAL_TOL
    watchdog_s, capture_interval_s = mp.watchdog_s, mp.capture_interval_s
    gains, v_max = PidGains(), cfg.vehicle.v_max
    home = cfg.home
    wps = generate_perimeter_path(cfg.building, cfg.plan, home)
    home_yaw = wps[0].yaw   # the entry climb faces the building from home

    kernel = _step_kernel(
        cfg.sensors, cfg.seed, cfg.kalman(), cfg.alpha, home, home_yaw, dt,
        gains, cfg.vehicle, KP_YAW)
    classifier = Classifier(cfg.classifier, cfg.seed)

    phase = _INSPECTING
    transitions = [(0.0, "Idle", phase)]
    idx = 0
    last_advance = 0.0
    last_capture = -capture_interval_s   # a capture is due on the first step
    captures: list[CaptureRecord] = []
    fault_poses: list[tuple[Vec3, float]] = []
    detect_i = 0
    hold_until = 0.0
    table = array("d")   # (t, true xyz, est xyz, dr xyz) per step
    engaged: list[bool] = []
    hold_end_poses: list[tuple[int, float, Vec3, float]] = []
    lanes = _FRESH_LANES
    est_pos, dr_pos, est_quat, est_yaw, true_pos, true_att = next(kernel)
    steps = 0

    while True:
        t = steps * dt

        if ((phase is _INSPECTING or phase is _RETURNING_HOME)
                and t - last_capture >= capture_interval_s - 1e-9):
            last_capture = t
            seen = tuple(visible_decals(scene, true_pos, true_att, camera))
            label = classifier.label(seen)
            captures.append(CaptureRecord(
                image_id=f"img_{len(captures):06d}", time=t,
                est_position=est_pos, est_quat=est_quat,
                visible_decals=seen, label=label))

        # phase machine; a single step may retire several coincident
        # waypoints.  Each branch that ends in a phase change names it `to`
        while phase is not _DONE:
            if phase is _HOLDING:
                if t < hold_until - 1e-9:
                    break
                hold_end_poses.append(
                    (detect_i, t, true_pos, yaw_of(true_att)))
                detect_i += 1
                to = _DETECTING
            elif v_dist(est_pos, wps[idx].position) >= arrival_tol:
                break
            elif idx + 1 < len(wps):
                idx += 1
                last_advance = t
                if phase is not _INSPECTING or wps[idx].layer != -1:
                    continue   # the leg goes on in the same phase
                to = _RETURNING_HOME
            elif phase is _DETECTING:
                if detect_i < len(fault_poses):
                    hold_until = t + mp.hold_s
                    to = _HOLDING
                else:
                    to = _DONE
            else:   # the inspection ring and its return leg are flown
                fault_poses = filter_fault_coordinates(captures,
                                                       mp.merge_radius)
                to = (_DETECTING if fault_poses and not inspection_only
                      else _DONE)
            if to is _DETECTING:
                # a leg to fault detect_i's capture pose, or home after the
                # last; it restarts the watchdog
                if detect_i < len(fault_poses):
                    wps = plan_return_path(est_pos, *fault_poses[detect_i])
                else:
                    wps = home_leg(home, home_yaw, est_pos[2])
                idx = 0
                last_advance = t
            transitions.append((t, phase, to))
            phase = to

        table.extend((t, *true_pos, *est_pos, *dr_pos))
        if phase is _DONE:
            break

        # a hold is not a leg: the leg after it restarts the watchdog
        if phase is not _HOLDING and t - last_advance > watchdog_s:
            raise MissionAborted(
                f"waypoint {idx} not reached within {watchdog_s:.0f} s "
                f"(phase {phase}, t={t:.2f} s)",
                time=t, phase=phase, waypoint_index=idx,
                position=true_pos)

        solids = _in_reach(scene, fp, *true_pos, d_engage)
        hits = []
        if solids:
            true_yaw = yaw_of(true_att)
            if not _hidden(insets, solids, est_pos, est_yaw, true_pos,
                           true_yaw, d_engage):
                hits = _scan_hits(solids, true_pos[0], true_pos[1], true_yaw,
                                  d_engage)
        if hits:
            sectors = _sectors(hits, mask, est_pos[0], est_pos[1], est_yaw,
                               d_engage)
            cmd, lanes = avoidance_command(sectors, gains, lanes, dt, v_max)
        else:   # all sectors clear: what avoidance_command returns then
            cmd, lanes = None, _FRESH_LANES
        engaged.append(cmd is not None)
        (est_pos, dr_pos, est_quat, est_yaw, true_pos,
         true_att) = kernel.send(wps[idx] if cmd is None else cmd)
        steps += 1

    trajectory = np.frombuffer(table).reshape(-1, 10)
    # the true poses flown from: every row's but the last, Done, which
    # stops the loop before a fly step
    x, y, z = trajectory[:-1, 1:4].T
    with np.errstate(over="ignore", invalid="ignore"):
        clear = [_cylinder_clearance(o, x, y, z) for o in scene.obstacles]
        min_clear = float(np.min(clear)) if clear and len(z) else None
        entered_fp = bool(np.any((z <= scene.building.height)
                                 & fp.contains(x, y)))
    # every inspection ends on its return leg; each leg to a fault starts
    # in Detecting and ends when its hold does
    inspection_duration = next(t for t, frm, _ in transitions
                               if frm is _RETURNING_HOME)
    leg_starts = [t for t, _, to in transitions if to is _DETECTING]
    hold_ends = [t for t, frm, _ in transitions if frm is _HOLDING]
    report = MissionReport(
        faults=tuple(FaultEntry(i, p, y)
                     for i, (p, y) in enumerate(fault_poses)),
        inspection_duration=inspection_duration,
        detection_durations=tuple(
            end - start for start, end in zip(leg_starts, hold_ends)),
        min_obstacle_clearance=min_clear,
    )
    return MissionResult(report=report, captures=tuple(captures),
                         trajectory=trajectory, transitions=transitions,
                         engaged=engaged, entered_footprint=entered_fp,
                         hold_end_poses=hold_end_poses)


@dataclass
class HoverResult:
    """Station-keeping traces: distance of each pipeline from the setpoint."""

    times: np.ndarray        # float64, one entry per step, as are the rest
    est_err: np.ndarray      # Kalman estimate vs setpoint
    dr_err: np.ndarray       # dead-reckoning vs setpoint
    true_err: np.ndarray     # ground truth vs setpoint


def run_hover(duration_s: float = 120.0, seed: int = 0,
              alpha: float = ComplementaryGain.alpha) -> HoverResult:
    """Hold a hover at (0, 0, 2) with control closed on the Kalman estimate.

    The drone starts at rest on the setpoint; both estimators start exact.
    Sensors, gains, plant, filter and dt are the defaults a scenario gets.
    Deviation of each position pipeline from the setpoint is the hover
    position error.
    """
    dt = MissionParams.dt
    steps = duration_s / dt   # inf for a finite duration near the float max
    if not (0 < steps < math.inf and 1 <= round(steps) <= MAX_LEG_STEPS):
        raise ValueError(f"duration_s must round to 1 to {MAX_LEG_STEPS:,} "
                         f"steps of {dt} s, got {duration_s}")
    sensors = SensorParams()
    setpoint = (0.0, 0.0, 2.0)
    kernel = _step_kernel(
        sensors, seed, KalmanConfig.for_accel_noise(sensors.accel_noise_std),
        alpha, setpoint, 0.0, dt, PidGains(), VehicleParams(), KP_YAW)
    wp = Waypoint(setpoint, 0.0, 0)
    est_pos, dr_pos, _, _, true_pos, _ = next(kernel)

    log = array("d")   # (est xyz, dr xyz, true xyz) per step
    for _ in range(round(steps)):
        log.extend((*est_pos, *dr_pos, *true_pos))
        est_pos, dr_pos, _, _, true_pos, _ = kernel.send(wp)
    # each pipeline's distance from the setpoint, as v_dist computes it
    dx, dy, dz = (np.frombuffer(log).reshape(-1, 3, 3) - setpoint).T
    return HoverResult(np.arange(len(log) // 9) * dt,
                       *np.sqrt(dx * dx + dy * dy + dz * dz))
