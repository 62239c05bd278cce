"""Correction of timings for the speed the machine runs at, sampled as the run goes.

On a shared host the interpreter's speed drifts by tens of percent over
tens of seconds, which would swamp any change to the program.  While a
workload runs, a timer interrupts it every ``INTERVAL_S`` and times a
fixed kernel: the reference evaluator's join, meet and implication on
a few small partitions, allocation-heavy Python like the program's own.
Each operation's latency is then

    (wall time - kernel time inside it) * NOMINAL_KERNEL_S / local kernel time

where the local kernel time is the mean of the samples taken during
the operation and of ``around`` samples on each side.  The host's speed
also changes within a fraction of a second, hence the short interval.
Timings are thus "seconds on a machine where the kernel takes
NOMINAL_KERNEL_S", comparable across runs and hosts.  The report keeps
the raw wall-clock figures beside them.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from array import array

import reference as ref

INTERVAL_S = 0.02
NOMINAL_KERNEL_S = 0.4e-3
_PARTITIONS = [ref.from_rgs(rgs) for rgs in (
    (0, 0, 1, 1, 2), (0, 1, 0, 2, 1), (0, 1, 2, 3, 4),
    (0, 0, 0, 1, 1), (0, 1, 1, 1, 2), (0, 0, 0, 0, 0),
)]


def kernel_seconds():
    """One timed run of the kernel, with the collector held off so the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for a in _PARTITIONS:
            for b in _PARTITIONS:
                ref.meet(a, b)
                ref.join(a, b)
                ref.implies(a, b)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times the kernel on a SIGALRM timer while in its ``with`` block."""

    def __init__(self):
        self.starts = array("d")
        self.seconds = array("d")
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that lands inside another is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self.seconds.append(kernel_seconds())
        self.starts.append(start)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._tick(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        return False

    def normalize(self, starts, ends, around=2):
        """Corrected latency of each operation ``[starts[i], ends[i]]``."""
        out = array("d")
        ticks, kernel = self.starts, self.seconds
        last = len(ticks) - 1
        for start, end in zip(starts, ends):
            first = bisect.bisect_left(ticks, start)
            after = bisect.bisect_left(ticks, end)
            inside = sum(kernel[first:after])
            window = kernel[max(0, first - around):min(last, after + around - 1) + 1]
            out.append((end - start - inside) * NOMINAL_KERNEL_S * len(window) / sum(window))
        return out


def corrected(run):
    """Run ``run()`` between kernel samples; return its result and the speed factor."""
    before = statistics.median(kernel_seconds() for _ in range(3))
    result = run()
    after = statistics.median(kernel_seconds() for _ in range(3))
    return result, NOMINAL_KERNEL_S * 2 / (before + after)
