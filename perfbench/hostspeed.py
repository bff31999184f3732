"""Host speed sampled while the operations run.

The benchmark shares a host whose speed drifts: a fixed interpreter loop
takes anywhere from 0.7 to 1.3 times its usual time, switching within a
second and holding a level for tens of seconds. Operation times swing with
it, by more than any bound a regression check could use.

``HostSpeed`` runs a fixed reference loop from a SIGALRM handler every
``PERIOD_S`` seconds, so samples fall inside the operations themselves.
An operation's cost is its time, minus the time spent in the handler, over
the mean reference time sampled during it: the same work costs the same on
a slow and on a fast stretch of the host. The loop is benchmark code, the
same on every commit, so the cost follows the program's own work; only the
caches the program leaves warm for the loop's float sum can move it a few
per cent.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.05
LOOP = 3000          # with the sum below about 0.75 ms, 1.5 % of the run
MIN_SAMPLES = 4      # an operation shorter than this many periods borrows its neighbours'
# 1.6 MB of float objects: summing them reads memory beyond the core's own
# caches, which the neighbours on the host contend for, as the program does
_FLOATS = [float(i) for i in range(50_000)]


def reference_loop() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    sum(_FLOATS)
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager: samples the reference loop while it is entered."""

    def __init__(self) -> None:
        self.at: list[float] = []      # when each sample started
        self.took: list[float] = []    # seconds the reference loop took
        self.busy = 0.0                # seconds spent in the handler so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        took = reference_loop()
        self.at.append(t0)
        self.took.append(took)
        self.busy += time.perf_counter() - t0

    def __enter__(self) -> HostSpeed:
        reference_loop()   # warm
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_s(self, t0: float, t1: float) -> float:
        """Mean reference time sampled in [t0, t1], or, when that holds fewer
        than MIN_SAMPLES, of the MIN_SAMPLES samples nearest its middle."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.at, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return statistics.fmean(self.took[lo:hi])
