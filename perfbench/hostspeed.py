"""Host speed gauge: a fixed reference kernel timed every few ms of CPU time.

The benchmark runs on shared hosts whose speed drifts by up to a factor of
two within seconds (other guests on the same cores, clock changes), and CPU
time alone does not remove that. While a ``Gauge`` is started, a
profiling timer interrupts the process every ``INTERVAL_S`` of its CPU time
and runs ``kernel()``, a fixed mix of small numpy calls and interpreter work
like the program's own, timing it. ``factor(t0, t1)`` is the kernel's
nominal time over its mean time near an interval, and a figure times that
factor is the figure at nominal host speed. The kernel does not depend on
the program, so a change to the program moves normalized figures as it moves
raw ones.

``cpu()`` and ``wall()`` are clocks that leave out the time spent in the
kernel. ``cpu()`` reads the thread's CPU clock: while a process-wide
profiling timer is armed, the process CPU clock on Linux advances in
scheduler ticks (a 100 us kernel run read as 0), while the thread clock stays
exact. The benchmark runs one thread, so the two count the same work.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

import numpy as np

INTERVAL_S = 0.01  # CPU seconds between kernel runs
NOMINAL_S = 140e-6  # CPU seconds of one kernel run at nominal host speed, a fixed round figure
MIN_PROBES = 3  # kernel runs a factor rests on, widened around short intervals

_MATRIX = np.random.default_rng(0).normal(size=(8, 8)) / 3
_VECTOR = np.ones(8)


def kernel() -> float:
    """Small matrix products and nonlinearities under a Python loop, like a d=8 recurrence."""
    x, total, seen = _VECTOR, 0, {}
    for i in range(20):
        x = np.tanh(x @ _MATRIX) * 0.5 + x * 0.5
        total += i % 7
        seen[i & 7] = total
    return float(x[0])


class Gauge:
    def __init__(self) -> None:
        self.kernel_cpu = 0.0  # CPU seconds spent in the kernel, left out of cpu()
        self.kernel_wall = 0.0
        self.stamps = array("d")  # cpu() at each kernel run
        self.times = array("d")  # CPU seconds of each kernel run
        self._previous = None

    def cpu(self) -> float:
        return time.thread_time() - self.kernel_cpu

    def wall(self) -> float:
        return time.perf_counter() - self.kernel_wall

    def _run_kernel(self) -> float:
        start_cpu, start_wall = time.thread_time(), time.perf_counter()
        kernel()
        elapsed = time.thread_time() - start_cpu
        self.kernel_cpu += elapsed
        self.kernel_wall += time.perf_counter() - start_wall
        return elapsed

    def _probe(self, signum, frame) -> None:
        stamp = self.cpu()
        self._run_kernel()  # warms the caches the program's work has taken over
        self.times.append(self._run_kernel())
        self.stamps.append(stamp)

    def start(self) -> None:
        if self._previous is not None:
            raise RuntimeError("gauge is already running")
        self._run_kernel()  # warm, so the first timed run is not a cold one
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self._previous = None

    def factor(self, t0: float, t1: float) -> float:
        """Nominal over measured kernel time for the ``cpu()`` interval [t0, t1]; 1 without runs."""
        n = len(self.stamps)
        if n == 0:
            return 1.0
        lo, hi = bisect.bisect_left(self.stamps, t0), bisect.bisect_right(self.stamps, t1)
        while hi - lo < min(MIN_PROBES, n):  # widen toward the nearer neighbour
            if lo > 0 and (hi == n or t0 - self.stamps[lo - 1] <= self.stamps[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S * (hi - lo) / sum(self.times[lo:hi])

