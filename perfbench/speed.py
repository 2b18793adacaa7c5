"""Host-speed calibration for end-to-end times.

On a shared 2-vCPU host the speed of every Python process swings by up to
1.9x within seconds, with no CPU steal to show for it.  A fixed pure-Python
kernel that never touches bchkit is timed between jobs, and each job's time is
scaled by ``REFERENCE_S / (kernel time around the job)``: times are reported
at a fixed reference speed, the kernel's best time on the host where the
benchmark was defined (Intel Xeon, 2 vCPUs, Python 3.11).  Over a noisy 30 s
stretch there, evolve()'s raw time per window varied by 34.5% (quartile
spread) while its ratio to the kernel's time varied by 2.7%.

CLI calls are scaled by the kernel timed in this process around them: their
own start-up noise (about 10% per call) is not tracked by the kernel, and
timing the kernel inside each CLI process made it worse.  Set-up probes time
the kernel inside the probe, around the timed import and build: over ten
runs of 15 probes, that gave quartile spreads of 0.04-0.09 (evolve-drive) and
0.06 (fold-chain), against 0.06-0.17 scaled by this process's kernel and
0.08-0.18 unscaled.

A change to bchkit moves its own time and not the kernel's, so a scaled
metric moves by the same factor as the raw one; the raw figures are printed
beside the scaled ones.
"""

from __future__ import annotations

import bisect
import cmath
import time

LOOPS = 2000
REFERENCE_S = 0.00055
EVERY_S = 0.1  # at most one kernel sample per this much wall time
WINDOW_S = 0.5  # samples this close to a job's interval set its scale


def kernel() -> complex:
    acc, z = 0j, 0.3 + 0.1j
    for k in range(LOOPS):
        acc = acc * 0.5 + cmath.exp(z * (k & 7)) / (1.0 + abs(z))
    return acc


def median(values: list) -> float:
    # not statistics.median: set-up probes import this module, and statistics
    # would pull in modules that bchkit's own import might then find loaded
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def kernel_seconds(reps: int) -> list:
    """Times of ``reps`` kernel runs, in seconds."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


class SpeedClock:
    """Kernel timings along a pass, and the scale they give each interval."""

    def __init__(self):
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        self.kernel_s += kernel_seconds(1)
        self.starts.append(start)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time near [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        window = self.kernel_s[lo:hi]
        if not window:  # no sample close by: take the nearest one
            i = min(bisect.bisect_left(self.starts, start), len(self.starts) - 1)
            window = [self.kernel_s[i]]
        return REFERENCE_S / median(window)

    def median_factor(self) -> float:
        """REFERENCE_S over the median of every kernel sample of the pass."""
        return REFERENCE_S / median(self.kernel_s)
