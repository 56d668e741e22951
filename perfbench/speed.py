"""Machine speed sampled while the benchmark runs, to rescale its times.

The benchmark was set up on a 2-vCPU virtual machine whose speed changes
by up to 1.5x for seconds to minutes at a time, as other guests load the
host.  A pure-Python loop slowed the same way, so the change is the
machine's, not the program's.  A run of 15 s can fall wholly in a slow
stretch, so neither medians nor minima over one run remove it.

The probe runs a fixed reference kernel (a Python loop and small numpy
operations, the mix a ``solve_ivp`` right-hand side executes) from a
SIGALRM handler every ``INTERVAL`` seconds while tasks run.  The handler
runs in the main thread between bytecodes, so it sees the speed the
program sees at that moment.  A time measured over an interval is rescaled
to the reference speed: the handler's own time inside the interval is
subtracted, and the rest is multiplied by ``REFERENCE_S`` over the mean
kernel time sampled in the interval.  The result reads as seconds on the
set-up machine in its fast mode; a change to the program moves it as it
moves the raw time, since the kernel does not depend on the program.
Hypervisor steal, which the kernel rarely sees, and work that contention
slows more than the kernel (large arrays) still move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.2         # seconds between samples
MIN_SAMPLES = 5        # an interval with fewer samples borrows its neighbours'
# Mean kernel time in the fast mode of the set-up machine (Xeon, 2 vCPU,
# Python 3.11, numpy 2): it fixes the scale of the rescaled times.
REFERENCE_S = 0.00085

_SMALL = np.arange(8.0)


def reference_kernel():
    s = 0.0
    for i in range(8000):
        s += i * 0.5
    y = _SMALL
    for _ in range(160):
        y = np.sin(y) * 0.5 + y
    return s + float(y[0])


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self):
        reference_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _span(self, t0, t1):
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return lo, hi

    def busy(self, t0, t1):
        """Seconds the handler ran inside [t0, t1)."""
        lo, hi = self._span(t0, t1)
        return sum(self.durations[lo:hi])

    def factor(self, t0, t1):
        """Reference kernel time over its mean time sampled around [t0, t1)."""
        lo, hi = self._span(t0, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        if lo == hi:
            raise RuntimeError("the speed probe took no samples")
        return REFERENCE_S / statistics.mean(self.durations[lo:hi])

    def run_factor(self):
        """Reference kernel time over its median time over the whole run."""
        return REFERENCE_S / statistics.median(self.durations)

    def rescale(self, t0, t1, seconds):
        """``seconds`` measured over [t0, t1) in this process, less the
        handler's time, rescaled to the reference speed."""
        return (seconds - self.busy(t0, t1)) * self.factor(t0, t1)
