"""Host-speed gauge: a fixed reference loop sampled while a workload runs.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes (other tenants, frequency
changes).  Process CPU time drifts with it, so it is no steadier than wall
time.  The gauge measures that drift: every `PERIOD_S` of wall time a
timer signal runs `reference_work`, a fixed loop of the kind of work the
simulator does (Python float math, calls, attribute reads, small numpy
operations), and records how long it took.  A run's host times divided by
the mean reference time, and multiplied by `REFERENCE_S`, give the times
the run would have had on a host on which the reference takes
`REFERENCE_S`: the run's time at a fixed host speed.

The reference never touches facadesim or its random state, and the time
spent in it is taken off the gauge's clock, so the timed workload sees
the same inputs and the same clock as without the gauge.  Garbage
collection is held off while it runs, so its time does not depend on the
workload's heap.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1            # wall time between reference samples
REFERENCE_LOOPS = 700     # about 1 ms of reference work per sample
# Mean reference time on the host the benchmark was defined on (a 2-vCPU
# share of an x86-64 server); scaled times are seconds at that speed.
REFERENCE_S = 0.9e-3


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


_A = np.array([[0.9, 0.1, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 0.9]])
_V = np.array([0.3, -0.2, 1.0])


def _blend(p: _Point, q: _Point, w: float) -> _Point:
    return _Point(p.x + w * (q.x - p.x), p.y + w * (q.y - p.y))


def reference_work() -> float:
    """A fixed amount of simulator-like work; returns a checksum."""
    p, q = _Point(0.0, 1.0), _Point(2.0, -1.0)
    acc = 0.0
    v = _V
    for i in range(REFERENCE_LOOPS):
        p = _blend(p, q, 0.01)
        acc += math.hypot(p.x, p.y) * math.cos(i * 1e-3)
        if i % 8 == 0:
            v = _A @ v
            acc += float(np.dot(v, v))
    return acc


class SpeedGauge:
    """Samples `reference_work` on a wall-clock timer inside `running()`.

    `clock()` is `time.perf_counter()` less the time spent in the
    reference, so intervals timed with it exclude the gauge's own work.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []   # seconds of each reference run
        self.spent = 0.0                 # seconds inside the timer handler
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        if self._busy:      # a tick that arrives during the last one
            return
        self._busy = True
        t_enter = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
            self.spent += time.perf_counter() - t_enter
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Sample the host while the body runs; stop before leaving.

        One sample is taken on entry, so even a body shorter than the
        period has one.
        """
        self._tick(signal.SIGALRM, None)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mean_s(self) -> float:
        if not self.samples:
            raise ValueError("the gauge took no samples")
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        """Factor from this run's host seconds to reference-speed seconds."""
        return REFERENCE_S / self.mean_s()
