"""The benchmark's traced layers name attributes that exist in facadesim.

`perfbench/workloads.py` wraps these attributes by name in a traced run,
and its after-hooks read attributes of the wrapped functions' results, so
a rename or reshape here would otherwise surface only when `--trace 1`
runs.  The module is imported read-only from `perfbench/`; it imports no
facadesim code at import time.
"""

import collections
import importlib
import math
import sys
from pathlib import Path

import pytest

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    import workloads
finally:
    sys.path.remove(_PERFBENCH)


@pytest.mark.parametrize(
    "owner,attr", [(o, a) for o, a, _ in workloads._TRACED_FUNCTIONS],
    ids=lambda v: v)
def test_traced_function_resolves(owner, attr):
    module = importlib.import_module(f"facadesim.{owner}")
    assert callable(getattr(module, attr, None)), f"facadesim.{owner}.{attr}"


@pytest.mark.parametrize(
    "owner,cls,attr", [(o, c, a) for o, c, a, _ in workloads._TRACED_METHODS],
    ids=lambda v: v)
def test_traced_method_resolves(owner, cls, attr):
    module = importlib.import_module(f"facadesim.{owner}")
    klass = getattr(module, cls, None)
    assert isinstance(klass, type), f"facadesim.{owner}.{cls}"
    assert callable(getattr(klass, attr, None)), \
        f"facadesim.{owner}.{cls}.{attr}"


class _HookRecorder:
    """Stands in for perfbench's tracer: keeps the after-hooks, counts."""

    def __init__(self):
        self.after = {}
        self.counters = collections.Counter()

    def patch(self, owner, attr, name, after=None):
        getattr(owner, attr)   # raises, as the tracer does, if it is gone
        if after is not None:
            self.after[name] = after

    def count(self, name, n=1):
        self.counters[name] += n

    def count_dataclass_inits(self, modules):
        pass


def test_after_hooks_read_scan_and_sector_results():
    """`.ranges` of a `simulate_scan` result, `.any_active` of a
    `classify_sectors` one: the hooks read both and count the near pose."""
    root = Path(__file__).resolve().parents[1]
    workload = workloads.make_workload("mission_obstacles", root, seed=0)
    workload.setup()
    tracer = _HookRecorder()
    workload.install_trace(tracer)
    assert set(tracer.after) == {"world.simulate_scan",
                                 "control.classify_sectors"}

    fs, cfg = workload.fs, workload.cfg
    obstacle = cfg.obstacles[0]
    # 1 m from the cylinder's surface, facing it, below its top
    position = (obstacle.center_xy[0] + obstacle.radius + 1.0,
                obstacle.center_xy[1], 1.5)
    pose = fs["vehicle"].TrueState.at_rest(position, yaw=math.pi)
    scene = cfg.scene()
    scan = fs["world"].simulate_scan(scene, pose)
    tracer.after["world.simulate_scan"]((scene, pose), scan)
    sectors = fs["control"].classify_sectors(scan, None, position, math.pi,
                                             cfg.mission.d_engage)
    tracer.after["control.classify_sectors"](
        (scan, None, position, math.pi, cfg.mission.d_engage), sectors)
    assert tracer.counters["world.simulate_scan.useful"] == 1
    assert tracer.counters["control.classify_sectors.bins_below_engage"] > 0
    assert tracer.counters["control.classify_sectors.active"] == 1
