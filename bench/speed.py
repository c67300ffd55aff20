"""Host-speed probe, so that timings from a shared host can be compared.

On a host shared with other tenants the same packbound operation runs up to
1.8 times slower in one minute than in the next; the whole process slows,
CPU time included.  The probe times a fixed pure-Python kernel (big-integer
arithmetic with shifts, as in mpmath's python backend, and Fraction sums, as
in the exact layers) on SIGALRM every INTERVAL_S seconds while an operation
runs, in the same thread.  A timing is then reported at reference speed:

    (measured s - probe s inside them) * NOMINAL_S / mean kernel time

where the mean is over the kernel samples taken during the timed call.
NOMINAL_S is about the kernel time on an uncontended 2-core host, where the
reported value is then about the measured one.  The kernel does not touch
packbound or mpmath, so no change to the program can change the reference.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

INTERVAL_S = 0.05
NOMINAL_S = 0.001       # kernel time on an uncontended host


def kernel():
    """Fixed work: 256-bit products with shifts, then a Fraction sum."""
    x, y, acc = (1 << 255) + 12345, (1 << 254) + 678901, 0
    for i in range(1500):
        x = (x * y) >> 254
        acc += x & 0xFFFF
        y ^= i
    f = Fraction(0)
    for k in range(1, 150):
        f += Fraction(k, k * k + 1)
    return acc, f


class SpeedProbe:
    """Kernel samples taken on a timer while the probe runs.

    ``spent`` is the total time spent in samples, so a caller can take
    the probe's own time out of an interval it timed.
    """

    def __init__(self):
        self.samples = []       # kernel durations
        self._starts = []       # perf_counter at the start of each sample
        self._cumulative = [0.0]
        self._previous = None
        self._busy = False

    @property
    def spent(self):
        return self._cumulative[-1]

    def sample(self, *_):
        if self._busy:          # the timer fired inside a sample: skip it
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self._busy = False
        self.samples.append(elapsed)
        self._starts.append(start)
        self._cumulative.append(self._cumulative[-1] + elapsed)

    def spent_between(self, start, end):
        """Seconds of the samples that began within [start, end]; a sample
        interrupts the code it lands in, so it lies inside that interval."""
        first = bisect_left(self._starts, start)
        last = bisect_right(self._starts, end)
        return self._cumulative[last] - self._cumulative[first]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """(result, seconds at reference speed, speed factor) of fn(*args).

        The factor is NOMINAL_S over the mean kernel time of the samples
        taken during the call and of one taken just before and just after.
        """
        first = len(self.samples)
        self.sample()
        start, spent = time.perf_counter(), self.spent
        result = fn(*args)
        elapsed = time.perf_counter() - start - (self.spent - spent)
        self.sample()
        factor = NOMINAL_S / statistics.fmean(self.samples[first:])
        return result, elapsed * factor, factor
