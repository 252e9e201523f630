"""Machine-speed probe that puts timings on a common scale.

On the reference machine (2 vCPUs under KVM on a shared host) the speed of
single-threaded Python swings by ±20–40%, both from second to second and
over minutes, with the load on the host; every timing swings with it.
While a run measures, an interval timer interrupts it every ``EVERY_S``
seconds and times a fixed pure-Python kernel: ``Fraction`` arithmetic,
tuple comparisons and dictionary churn like tadet's.  The kernel's own time
is kept out of every timing by :meth:`SpeedProbe.clock`.  :meth:`seconds`
turns an interval of that clock into reference seconds: its length times
``REFERENCE_S / mean kernel time`` over the kernel samples taken during the
interval and the ``WINDOW_S`` seconds on either side, i.e. seconds at the
speed at which the kernel takes ``REFERENCE_S``.

The kernel uses nothing from tadet and is kept apart from tadet's state as
far as one process allows: it runs with the garbage collector off, so its
allocations never start a collection over tadet's objects, and its data
(a few hundred small objects) fits in a core's L2 cache, so how much of the
cache tadet has just evicted changes its time little.  What tadet can still
move is the kernel's first touch of its code and data after a sample; the
unscaled times are saved next to the scaled ones (``run.py --save``), so a
change that moves the kernel shows as a gap between the two.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0043  # median kernel time on the reference machine
EVERY_S = 0.1  # seconds between kernel samples
WINDOW_S = 1.0  # samples this far on either side of an interval count for it


def kernel() -> int:
    acc = Fraction(0)
    table: dict = {}
    for i in range(450):
        b = (Fraction(i % 7, 3), i & 1 == 0)
        c = (Fraction(i % 5), False)
        acc += b[0] + c[0] if b[0] < c[0] or (b[0] == c[0] and b[1]) else -c[0]
        table[(i % 97, i % 13)] = [b, c][i & 1]
    return len(table)


class SpeedProbe:
    """Samples the kernel on a timer while entered as a context manager."""

    def __init__(self):
        self.stamps: list[float] = []  # clock() at each sample
        self.prefix: list[float] = [0.0]  # running sums of kernel times
        self.spent = 0.0  # seconds spent in the kernel so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
        self.stamps.append(t0 - self.spent)
        self.prefix.append(self.prefix[-1] + dt)
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)  # so that even a short run has a sample

    def clock(self) -> float:
        """``time.perf_counter()`` minus the time spent in the kernel."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end] of :meth:`clock`.

        Uses the samples from ``WINDOW_S`` seconds before the interval to
        ``WINDOW_S`` seconds after it, so call it once sampling has ended."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if hi - lo < 3:
            lo, hi = 0, len(self.stamps)
        mean = (self.prefix[hi] - self.prefix[lo]) / (hi - lo)
        return (end - start) * REFERENCE_S / mean
