"""Known answers for the estimators: errors a stated law or a perfect
sensor fixes in advance, not errors read off the code.

The Kalman filter measures only acceleration (H = [0, 0, 1] on each axis),
so its position is the double integral of the fused accelerometer noise.
"""

import dataclasses
import math
from pathlib import Path

import pytest

from facadesim.config import MissionParams, load_config
from facadesim.control import KP_YAW, PidGains
from facadesim.estimation import KalmanConfig
from facadesim.mission import _step_kernel, run_mission
from facadesim.sensors import SensorParams
from facadesim.vehicle import VehicleParams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SIGMA_A = 0.05          # [m/s^2] accelerometer noise std, per axis
NOISE_LAW_T = 120.0     # [s]
NOISE_LAW_SEEDS = range(20)
# The squared error of each axis at t, over the seeds, is a variance times a
# chi-square variable of one degree of freedom.  The mean of n = 60 of them
# (20 seeds x 3 axes) has a relative spread of sqrt(2 / n), and its square
# root, the RMS, half that: 1 / sqrt(2 n) = 1 / sqrt(120), about 9%.  The
# bound allows three such spreads, 27%.
NOISE_LAW_TOL = 3.0 / math.sqrt(2 * 3 * len(NOISE_LAW_SEEDS))


def test_open_loop_error_follows_the_random_walk_law():
    """Truth at rest at (0, 0, 2), accelerometer noise only, alpha 1.0: the
    3-D RMS error of the estimate at t is sqrt(3) (sigma_a / sqrt(2))
    sqrt(dt / 3) t^{3/2}, the random walk of double-integrated white noise
    (Groves, Principles of GNSS, Inertial, and Multisensor Integrated
    Navigation Systems, 2nd ed., 2013, ch. 4) on the mean of two IMUs."""
    dt, start = MissionParams.dt, (0.0, 0.0, 2.0)
    sensors = SensorParams(0.0, SIGMA_A, 0.0, (0.0, 0.0, 0.0),
                           (0.0, 0.0, 0.0))
    squared = []
    for seed in NOISE_LAW_SEEDS:
        kernel = _step_kernel(
            sensors, seed, KalmanConfig.for_accel_noise(SIGMA_A), 1.0, start,
            0.0, dt, PidGains(), VehicleParams(), KP_YAW)
        # step 0's estimate, then one more per zero command: the estimate
        # after NOISE_LAW_T / dt filter steps
        est_pos, _, _, _, true_pos, _ = next(kernel)
        for _ in range(round(NOISE_LAW_T / dt) - 1):
            est_pos, _, _, _, true_pos, _ = kernel.send((0.0, 0.0, 0.0))
        assert true_pos == start
        squared += [(e - s) ** 2 for e, s in zip(est_pos, start)]
    rms = math.sqrt(3.0 * sum(squared) / len(squared))
    law = (math.sqrt(3.0) * SIGMA_A / math.sqrt(2.0) * math.sqrt(dt / 3.0)
           * NOISE_LAW_T ** 1.5)
    assert law == pytest.approx(4.648, abs=1e-3)
    assert abs(rms / law - 1.0) <= NOISE_LAW_TOL, (rms, law)


@pytest.mark.parametrize("name", ["default", "obstacle_course"])
def test_perfect_sensors_keep_the_estimate_on_the_truth(name):
    """With every noise and bias zero, the Kalman estimate stays within
    0.01 m of the true position at every step of the inspection."""
    cfg = dataclasses.replace(
        load_config(CONFIG_DIR / f"{name}.yaml"),
        sensors=SensorParams(0.0, 0.0, 0.0, (0.0, 0.0, 0.0),
                             (0.0, 0.0, 0.0)))
    rows = run_mission(cfg, inspection_only=True).trajectory.tolist()
    worst = max(math.dist(row[1:4], row[4:7]) for row in rows)
    assert worst < 0.01
