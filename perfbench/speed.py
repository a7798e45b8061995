"""The machine's own speed, measured beside the workload.

The shared VM the benchmark was written on changes speed by up to 2x
over tens of seconds, with nothing of ours running: the same
``verify all --nmax 8`` command took 8 to 19 s within one hour.  A wall
time alone thus measures the machine as much as the program.

So a run also times a fixed reference kernel, which lives here and not in
the package, every ``EVERY_S`` seconds: between queries, and inside a
query that runs longer than that (verify's take seconds), where an
interval timer's signal runs it.  Each latency is rescaled by the kernel
times taken within ``WINDOW_S`` of it:

    latency * NOMINAL_S / median(kernel times near the query)

which reads as the latency on a machine where the kernel takes
``NOMINAL_S``.  A change to the package moves the latency and leaves the
kernel alone, so it moves the rescaled value by the same share; a slower
moment of the machine slows both and cancels.  Kernel time spent inside a
timed call is subtracted from that call.  A set-up probe, a fresh
process, times the kernel itself once it is ready and rescales its own
set-up time by it (run.py).

The kernel is pure Python.  The simulator's numpy batches follow it only
in part: over sets of ten simulate runs, the log of a run's median wall
latency against the log of its median kernel time has slope 0.51 to
0.58 (0.64 to 0.99 on the other workloads), and a numpy kernel of the
batch's own array operations did not follow them at all.  Simulate's
latencies are therefore rescaled by the square root of the kernel ratio
(``Workload.speed_exponent``).
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# about the kernel's time on the 2-core VM (CPython 3.11) at its faster
# moments; only the unit of the rescaled values depends on it
NOMINAL_S = 0.004
# seconds between two kernel samples in a timed loop
EVERY_S = 0.2
# kernel samples within this many seconds of a query rescale it
WINDOW_S = 2.0
# samples taken together at the start and end of a loop
BURST = 5


def reference() -> int:
    """Fixed work like the package's hot paths.

    Integer polynomial products (``QPoly.__mul__``), tuple building,
    Fraction sums (the exact DPs) and dict lookups (the memo tables), all
    in pure Python, as nearly all of the package's time is.
    """
    a = tuple(range(1, 33))
    b = tuple(7919 * x for x in range(1, 33))
    for _ in range(20):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        a = tuple(c % 1000003 for c in out[: len(b)])
    f = Fraction(0)
    for k in range(1, 500):
        f += Fraction(k, k + 3)
    memo: dict[tuple[int, int], int] = {}
    for k in range(5000):
        memo[k, k & 7] = memo.get((k - 1, (k - 1) & 7), 0) + 1
    return a[0] + f.numerator + len(memo)


class Speed:
    """Kernel samples of one run and the rescaling they give."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoints, increasing
        self.secs: list[float] = []
        # total time spent sampling, to subtract from a timed call
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self, k: int = 1) -> None:
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # the kernel makes no cycles; keep the heap's size out of it
        try:
            for _ in range(k):
                t0 = perf_counter()
                reference()
                t1 = perf_counter()
                self.times.append((t0 + t1) / 2)
                self.secs.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()
        self._last = perf_counter()
        self.spent += self._last - start

    @contextlib.contextmanager
    def installed(self):
        """Let ``arm`` sample inside calls while the context lasts."""
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        try:
            yield self
        finally:
            self.disarm()
            signal.signal(signal.SIGALRM, old)

    def arm(self) -> None:
        """Sample every EVERY_S from now on, until ``disarm``."""
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def due(self) -> None:
        """Sample if ``EVERY_S`` has passed since the last sample."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def rescale(self, wall: float, t0: float, t1: float, exponent: float = 1.0) -> float:
        """A latency of ``wall`` seconds over [t0, t1], as it would read
        where the kernel takes NOMINAL_S, by the kernel times within
        WINDOW_S of it.

        ``exponent`` is how closely the workload follows the kernel: 1 for
        pure-Python work, less for work that slows less than the kernel.
        """
        lo = bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect_right(self.times, t1 + WINDOW_S)
        near = self.secs[lo:hi] or self.secs
        return wall * (NOMINAL_S / statistics.median(near)) ** exponent

    def median_s(self) -> float:
        return statistics.median(self.secs)
