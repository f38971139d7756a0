"""Capture records, crack labeling, and fault-coordinate filtering.

No pixels exist: an "image" is a geometric visibility event carrying the
drone's estimated pose.  The classifier labels a capture crack when a fault
decal was truly visible, and flips that label with probability 1 - accuracy
from a stream drawn from the run seed; at accuracy 1.0 it never flips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Quat, Vec3, yaw_of

LABEL_CRACK = "crack"
LABEL_NOT_CRACK = "not_crack"
CAPTURE_INTERVAL_S = 10.0   # [s] of sim time between captures
MERGE_RADIUS = 2.0          # [m] crack sightings this close are one fault


@dataclass(frozen=True)
class CaptureRecord:
    image_id: str                      # "img_%06d", strictly increasing
    time: float
    est_position: Vec3
    est_quat: Quat
    visible_decals: tuple[int, ...]    # ground truth, sim-internal
    label: str

    def __post_init__(self) -> None:
        if self.label not in (LABEL_CRACK, LABEL_NOT_CRACK):
            raise ValueError(f"unknown label {self.label!r}")


@dataclass(frozen=True)
class ClassifierSpec:
    accuracy: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")


class Classifier:
    """Labels visibility events; each call consumes one uniform.

    The uniforms come from the run seed with spawn key 7, beside the IMUs'
    keys 0 and 1, so one seed drives every random stream of a run.
    """

    def __init__(self, spec: ClassifierSpec, seed: int):
        self.spec = spec
        self._rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(7,)))

    def label(self, visible_decals) -> str:
        truth = LABEL_CRACK if visible_decals else LABEL_NOT_CRACK
        if self._rng.random() < self.spec.accuracy:
            return truth
        return LABEL_CRACK if truth == LABEL_NOT_CRACK else LABEL_NOT_CRACK


def filter_fault_coordinates(records, merge_radius: float = MERGE_RADIUS,
                             ) -> list[tuple[Vec3, float]]:
    """Estimated (position, yaw) of crack captures, nearby repeats merged.

    Records are taken in capture order; a crack capture within merge_radius
    of an already-kept fault is treated as a re-sighting of it.
    """
    if merge_radius < 0.0:
        raise ValueError("merge_radius must be non-negative")
    kept: list[tuple[Vec3, float]] = []
    for rec in records:
        if rec.label != LABEL_CRACK:
            continue
        p = rec.est_position
        dup = False
        for (kx, ky, kz), _ in kept:
            dx = p[0] - kx
            dy = p[1] - ky
            dz = p[2] - kz
            if dx * dx + dy * dy + dz * dz <= merge_radius * merge_radius:
                dup = True
                break
        if not dup:
            kept.append((p, yaw_of(rec.est_quat)))
    return kept
