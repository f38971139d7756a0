"""Capture cadence, classifier behavior, fault deduplication."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facadesim.config import apply_overrides, config_from_dict, load_raw
from facadesim.geometry import quat_from_euler, v_dist
from facadesim.mission import run_mission
from facadesim.perception import (
    LABEL_CRACK,
    LABEL_NOT_CRACK,
    CaptureRecord,
    Classifier,
    ClassifierSpec,
    filter_fault_coordinates,
)

from oracles import row_phases


def record(i, pos, label, yaw=0.0):
    return CaptureRecord(image_id=f"img_{i:06d}", time=10.0 * i,
                         est_position=pos,
                         est_quat=quat_from_euler(0.0, 0.0, yaw),
                         visible_decals=(), label=label)


# -- cadence --------------------------------------------------------------------

def _due_steps(result, interval):
    """Times of the steps on which a capture is due: the step started in an
    inspection phase (the previous row's, or Inspecting at t = 0) and at
    least the interval, less 1e-9 s, has passed since the last capture."""
    due, last, phase = [], -interval, "Inspecting"
    times = result.trajectory[:, 0].tolist()
    for t, row_phase in zip(times, row_phases(times, result.transitions)):
        if (phase in ("Inspecting", "ReturningHome")
                and t - last >= interval - 1e-9):
            due.append(t)
            last = t
        phase = row_phase
    return due


def test_captures_fall_on_the_due_steps(default_run, obstacle_run):
    for cfg, result in (default_run, obstacle_run):
        times = [rec.time for rec in result.captures]
        assert times
        assert _due_steps(result,
                          cfg.mission.capture_interval_s) == times


def test_a_capture_falls_every_interval_of_steps(config_dir):
    """The rule's 1e-9 s of slack absorbs the rounding of t = steps * dt:
    at a 0.1 s interval and dt 0.01, t - last reads 0.09999999999999998 at
    step 30, and that step still captures."""
    cfg = config_from_dict(apply_overrides(
        load_raw(config_dir / "default.yaml"),
        ["mission.capture_interval_s=0.1"]))
    result = run_mission(cfg, inspection_only=True)
    steps = [round(rec.time / cfg.mission.dt) for rec in result.captures]
    assert len(steps) > 3
    assert steps == list(range(0, 10 * len(steps), 10))


def test_capture_record_label_validated():
    with pytest.raises(ValueError):
        record(0, (0.0, 0.0, 0.0), "maybe_crack")


# -- classifier -------------------------------------------------------------------

def test_classifier_spec_validation():
    with pytest.raises(ValueError):
        ClassifierSpec(accuracy=1.5)
    with pytest.raises(ValueError):
        ClassifierSpec(accuracy=-0.1)


def test_oracle_never_flips():
    """At accuracy 1.0 the classifier is an oracle."""
    cls = Classifier(ClassifierSpec(accuracy=1.0), seed=0)
    for i in range(1000):
        visible = (3,) if i % 3 == 0 else ()
        want = LABEL_CRACK if visible else LABEL_NOT_CRACK
        assert cls.label(visible) == want


def test_noisy_flip_rate_matches_accuracy():
    cls = Classifier(ClassifierSpec(accuracy=0.95), seed=1)
    n = 10_000
    hits = sum(cls.label((1,)) == LABEL_CRACK for _ in range(n))
    assert 0.94 <= hits / n <= 0.96


def test_noisy_flips_both_directions():
    cls = Classifier(ClassifierSpec(accuracy=0.9), seed=2)
    false_pos = sum(cls.label(()) == LABEL_CRACK for _ in range(5000))
    assert 0.08 <= false_pos / 5000 <= 0.12


def test_noisy_stream_is_reproducible():
    spec = ClassifierSpec(accuracy=0.5)
    a = Classifier(spec, seed=7)
    b = Classifier(spec, seed=7)
    seq = [(1,) if i % 2 else () for i in range(300)]
    assert [a.label(v) for v in seq] == [b.label(v) for v in seq]


def test_run_seeds_give_different_label_streams():
    spec = ClassifierSpec(accuracy=0.5)
    a = Classifier(spec, seed=1)
    b = Classifier(spec, seed=2)
    seq = [()] * 300
    assert [a.label(v) for v in seq] != [b.label(v) for v in seq]


def test_flip_decisions_independent_of_truth():
    """One uniform per call: the flip pattern ignores what was visible."""
    spec = ClassifierSpec(accuracy=0.8)
    cracks = Classifier(spec, seed=3)
    blanks = Classifier(spec, seed=3)
    for _ in range(500):
        saw_crack = cracks.label((1,)) == LABEL_CRACK
        said_blank = blanks.label(()) == LABEL_NOT_CRACK
        assert saw_crack == said_blank


# -- fault filtering ---------------------------------------------------------------

def test_filter_skips_non_crack_records():
    recs = [record(0, (0.0, 0.0, 1.0), LABEL_NOT_CRACK),
            record(1, (5.0, 0.0, 1.0), LABEL_CRACK)]
    faults = filter_fault_coordinates(recs)
    assert len(faults) == 1
    assert faults[0][0] == (5.0, 0.0, 1.0)


def test_filter_merges_resightings_keeps_earliest():
    recs = [record(0, (5.0, 0.0, 1.0), LABEL_CRACK, yaw=1.2),
            record(1, (6.5, 0.0, 1.0), LABEL_CRACK, yaw=0.3),
            record(2, (5.0, 9.0, 1.0), LABEL_CRACK, yaw=-2.0)]
    faults = filter_fault_coordinates(recs, merge_radius=2.0)
    assert len(faults) == 2
    assert faults[0] == ((5.0, 0.0, 1.0), pytest.approx(1.2))
    assert faults[1] == ((5.0, 9.0, 1.0), pytest.approx(-2.0))


def test_filter_dedup_uses_all_three_axes():
    recs = [record(0, (5.0, 0.0, 1.0), LABEL_CRACK),
            record(1, (5.0, 0.0, 4.5), LABEL_CRACK)]
    assert len(filter_fault_coordinates(recs, merge_radius=2.0)) == 2
    assert len(filter_fault_coordinates(recs, merge_radius=4.0)) == 1


def test_filter_radius_boundary_inclusive():
    recs = [record(0, (0.0, 0.0, 0.0), LABEL_CRACK),
            record(1, (2.0, 0.0, 0.0), LABEL_CRACK)]
    assert len(filter_fault_coordinates(recs, merge_radius=2.0)) == 1
    assert len(filter_fault_coordinates(recs, merge_radius=1.999)) == 2


def test_filter_zero_radius_merges_exact_duplicates_only():
    recs = [record(0, (1.0, 1.0, 1.0), LABEL_CRACK),
            record(1, (1.0, 1.0, 1.0), LABEL_CRACK),
            record(2, (1.0, 1.0, 1.0 + 1e-9), LABEL_CRACK)]
    assert len(filter_fault_coordinates(recs, merge_radius=0.0)) == 2


def test_filter_rejects_negative_radius():
    with pytest.raises(ValueError):
        filter_fault_coordinates([], merge_radius=-0.1)


def test_filter_reports_yaw_from_quaternion():
    rec = CaptureRecord("img_000000", 0.0, (1.0, 2.0, 3.0),
                        quat_from_euler(0.2, -0.1, 2.5), (0,), LABEL_CRACK)
    faults = filter_fault_coordinates([rec])
    assert faults[0][1] == pytest.approx(2.5)
    blank = CaptureRecord("img_000001", 0.0, (0.0, 0.0, 0.0),
                          (1.0, 0.0, 0.0, 0.0), (), LABEL_NOT_CRACK)
    assert filter_fault_coordinates([blank]) == []


@given(st.lists(st.tuples(st.floats(-20, 20), st.floats(-20, 20),
                          st.floats(0, 10)), max_size=25),
       st.floats(0.1, 8.0))
@settings(max_examples=60, deadline=None)
def test_filter_partition_properties(points, radius):
    recs = [record(i, p, LABEL_CRACK) for i, p in enumerate(points)]
    faults = filter_fault_coordinates(recs, merge_radius=radius)
    kept = [f[0] for f in faults]
    # kept faults are mutually separated
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            assert v_dist(kept[i], kept[j]) > radius
    # every crack capture is explained by some kept fault
    for p in points:
        assert any(v_dist(p, k) <= radius + 1e-12 for k in kept)
