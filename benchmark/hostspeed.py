"""Host-speed sampler: a fixed kernel timed every 10 ms during measurement.

The benchmark runs on shared hosts whose speed changes by up to 2x from one
stretch of 50 ms - 1 s to the next, in CPU time as much as in elapsed time
(contention for the core and its caches, not preemption).  A fixed
pure-Python kernel that uses no ``spinlind`` code runs from a SIGALRM
handler every ``INTERVAL_S``, also while a calculation is running.  An
interval's time is then measured in "reference seconds":

    (elapsed time - kernel time inside it) * NOMINAL_S * mean(1 / kernel time)

over the kernel samples inside the interval, padded with the nearest ones
outside it to at least ``MIN_SAMPLES``.  That is seconds on a host that runs
the kernel in ``NOMINAL_S``.  A change to ``spinlind`` moves the result; a
change of host speed slows the kernel as much as the calculation and
largely cancels.  The handler runs between Python bytecodes, so a long call
into numpy delays a sample but is not interrupted.
"""

from __future__ import annotations

import bisect
import signal
import time

NOMINAL_S = 1.5e-4         # the kernel's time on a quiet 2-core x86-64 host
INTERVAL_S = 0.01
MIN_SAMPLES = 4


def kernel() -> float:
    """Fixed interpreter-bound work (dict, int and float operations)."""
    acc = {}
    for i in range(900):
        key = (i * 7919) % 61
        acc[key] = acc.get(key, 0.0) + (i & 15) * 0.5
    return sum(acc.values())


class Speed:
    """Kernel samples (start time and duration) taken by a timer."""

    def __init__(self):
        self.at = []
        self.took = []
        self._busy = False

    def _sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self._busy = False

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer; a second call does nothing."""
        if signal.getsignal(signal.SIGALRM) != self._sample:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def kernel_time(self, start: float, end: float) -> float:
        """Time the kernel took inside [start, end]."""
        lo = bisect.bisect_left(self.at, start)
        return sum(self.took[lo:bisect.bisect_left(self.at, end)])

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end] (see module doc)."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        net = (end - start) - self.kernel_time(start, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            before = start - self.at[lo - 1] if lo > 0 else float("inf")
            after = self.at[hi] - end if hi < len(self.at) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        speed = sum(1.0 / d for d in self.took[lo:hi]) / (hi - lo)
        return net * NOMINAL_S * speed
