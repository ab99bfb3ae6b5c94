"""Speed-adjusted timing on a host whose speed drifts.

The reference machine, a virtual machine on a shared host, slows down in two
ways, each by up to a half and each for longer than a run lasts, so medians
over a run do not help:
- The host takes CPU time from the virtual CPUs (steal), mostly when both
  are busy, as they are while the CLI's thread pools run.  Wall time grows;
  process CPU time does not, since the kernel leaves steal out of it.
- Every instruction runs slower, most likely because other tenants share the
  physical cores.  Wall time and CPU time grow alike.
So an operation is timed in process CPU time (all threads), which drops the
first, and scaled by how much slower a fixed calibration loop ran around it
than REFERENCE_S, which drops the second.  The loop belongs to the
benchmark, not to the program, and runs in CPU time on one thread before and
after every operation and, for long single-threaded operations, on a timer
while the operation runs.  The wall time is kept beside it.

The calibration mixes, in equal parts, pure interpreter work, small numpy
calls and vectorised numpy, as the program's hot paths do.  Over three
minutes in which the host's speed changed twofold, that mix tracked the
E-step and select_tasks with a slope of 1.0 on log time, where the small
numpy calls alone slowed down half as much again as they did.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

CAL_REPEATS = 5
# The scale of every adjusted time: a calibration sample on the reference
# machine (Intel Xeon 2-vCPU virtual machine, Python 3.11, numpy 2.4), where
# samples ranged from about 2.4 to 7 ms as the host's speed changed.
REFERENCE_S = 0.004
_SMALL = np.linspace(0.5, 3.0, 64)
_LARGE = np.linspace(0.5, 3.0, 20000)


def _calibration_loop():
    """About 1 ms each of interpreter, small-numpy and vectorised work."""
    acc = 0
    for i in range(12000):
        acc += (i * 7) % 13
    for i in range(500):
        acc += float(np.log(_SMALL + i)[i & 63])
    for i in range(20):
        acc += float(np.log(_LARGE + i).sum())
    return acc


def calibration_sample():
    """Median CPU seconds of this thread over CAL_REPEATS calibration loops."""
    times = []
    for _ in range(CAL_REPEATS):
        t = time.thread_time()
        _calibration_loop()
        times.append(time.thread_time() - t)
    return statistics.median(times)


class Timing:
    """Wall seconds of one block, and its CPU seconds at the reference speed."""

    wall = 0.0
    adjusted = 0.0


def _clocks():
    return time.perf_counter(), time.process_time()


class SpeedProbe:
    """Times blocks and scales them to the reference speed.

    enabled=False measures wall time only (adjusted equals wall).
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.samples = []  # every calibration sample of the run
        self._last = None  # (perf_counter at its end, seconds)
        self._marks = None  # (clocks before, clocks after, seconds) per sample

    def _sample(self):
        before = _clocks()
        seconds = calibration_sample()
        after = _clocks()
        self.samples.append(seconds)
        self._last = (after[0], seconds)
        return before, after, seconds

    def _on_alarm(self, signum, frame):
        self._marks.append(self._sample())

    def measure(self, block, interval=None):
        """Run block(); return (its value, a Timing).

        interval: seconds between samples taken on SIGALRM while the block
        runs, or None to sample only at its start and end.  Use a timer only
        when the block runs on the main thread alone: pool threads would
        keep working while the sample runs.
        """
        timing = Timing()
        if not self.enabled:
            t = time.perf_counter()
            value = block()
            timing.wall = timing.adjusted = time.perf_counter() - t
            return value, timing
        # A sample taken just before, with nothing in between, is reused.
        if self._last is None or time.perf_counter() - self._last[0] > 0.05:
            self._sample()
        timer = interval is not None
        if timer:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = _clocks()
        self._marks = [(start, start, self._last[1])]
        if timer:
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            value = block()
        finally:
            end = _clocks()
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            marks, self._marks = self._marks, None
        marks.append((end, end, self._sample()[2]))
        # The block ran between samples; each stretch runs at the mean
        # speed of the two samples around it.
        for (_, (w0, p0), c0), ((w1, p1), _, c1) in zip(marks, marks[1:]):
            timing.wall += w1 - w0
            timing.adjusted += (p1 - p0) * 2.0 * REFERENCE_S / (c0 + c1)
        return value, timing
