"""Time measured against the host's current speed.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent within seconds (other tenants; it is not scheduling: CPU time tracks
wall time).  A fixed, benchmark-owned calibration kernel run every TICK_S
seconds inside a timed pass (or set-up) samples that speed.  Each stretch of the pass
between two kernel runs is scaled by REF_KERNEL_S over the mean of the
kernel times that bracket it, so a pass is reported in reference-host
seconds: the time it would take on this host when the kernel takes
REF_KERNEL_S.  The kernel's own time is left out of the pass.

The kernel is pure Python (the package's time is mostly interpreter work
around small numpy calls, and set-up is mostly imports), so the clock loads
nothing that set-up is timed for; it calls nothing of the package, so a
change to the program cannot change the scale it is measured on.
"""

from __future__ import annotations

import cmath
import math
import signal
import statistics
from time import perf_counter

TICK_S = 0.1
# Near the kernel's median time inside passes on the 2-core development host
# (Intel Xeon, 2.1 GHz), so reference seconds read like that host's typical
# wall seconds; a fixed constant, so that every run uses one scale.
REF_KERNEL_S = 0.0025


def kernel() -> None:
    """Run the fixed calibration work once."""
    acc = 0j
    for n in range(-1500, 1500):
        alpha = 0.3 + 6.283185307179586 * n
        acc += cmath.exp(0.25j * alpha) / cmath.sqrt(9.0 - alpha * alpha + 0j)
    rows = [[math.sin(i + 2.0 * j) for j in range(24)] for i in range(24)]
    for k in range(24):                       # one elimination sweep
        pivot = rows[k][k] + 8.0
        for i in range(k + 1, 24):
            f = rows[i][k] / pivot
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    counts: dict = {}
    for i in range(3000):
        key = str(i % 97)
        counts[key] = counts.get(key, 0) + i
    if not cmath.isfinite(acc + sum(rows[-1]) + len(counts)):
        raise ArithmeticError("calibration kernel diverged")


class Ticker:
    """Runs the kernel at the start and end of a pass and every TICK_S in
    between (from SIGALRM, so it lands wherever the pass is)."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []   # (start, end) of each kernel run
        self._busy = False

    def _tick(self, *_):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            kernel()
            self.ticks.append((t0, perf_counter()))
        finally:
            self._busy = False

    def __enter__(self) -> "Ticker":
        self.ticks.clear()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def work_seconds(self) -> float:
        """Wall time of the pass with the kernel runs taken out."""
        return sum(b[0] - a[1] for a, b in zip(self.ticks, self.ticks[1:]))

    def reference_seconds(self) -> float:
        """The pass's work time in reference-host seconds."""
        total = 0.0
        for a, b in zip(self.ticks, self.ticks[1:]):
            kernel_s = 0.5 * ((a[1] - a[0]) + (b[1] - b[0]))
            total += (b[0] - a[1]) * REF_KERNEL_S / kernel_s
        return total

    def slowdown(self) -> float:
        """Median kernel time over REF_KERNEL_S (1 = the reference speed)."""
        return statistics.median(e - s for s, e in self.ticks) / REF_KERNEL_S
