"""Host-speed correction for timings taken on a shared machine.

While a neighbour keeps the host busy, the same pure-Python code runs up to
1.7 times slower, in phases that last from seconds to minutes (see
README.md).  A pass therefore samples the host's speed as it runs: every
20 ms a timer signal runs a fixed big-integer kernel, the same kind of
arithmetic as tornzeta's engines, and records how long it took.  An
interval's corrected duration is its busy time (kernel runs excluded)
scaled by REF_KERNEL_S / kernel time, averaged over the samples inside it.
The result is in reference seconds: what the interval takes while the core
is not shared.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# the kernel's time on an unshared core of the 2.1 GHz Xeon the benchmark
# was written on (CPython 3.11.7)
REF_KERNEL_S = 80e-6
INTERVAL_S = 0.02
NEAREST = 5  # samples used for an interval that holds none
_ONE = 1 << 230


def kernel() -> int:
    acc = 0
    for i in range(1, 600):
        acc += _ONE // (i * (i + 3))
    return acc


class SpeedSampler:
    """Kernel timings at fixed intervals, on the monotonic clock."""

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self.starts: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self, *_signal_args) -> None:
        t = self._clock()
        kernel()
        self.starts.append(t)
        self.kernel_s.append(self._clock() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def corrected(self, a: float, b: float) -> float:
        """Reference seconds for the interval [a, b] of the monotonic clock.

        Uses the samples taken inside the interval, or the NEAREST samples
        to it when it holds none; there must be at least one sample.
        """
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        inside = self.kernel_s[lo:hi]
        if inside:
            speed = inside
        else:
            near = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - b))
            speed = [self.kernel_s[i] for i in near[:NEAREST]]
        busy = (b - a) - sum(inside)
        return busy * REF_KERNEL_S * statistics.fmean(1 / k for k in speed)
