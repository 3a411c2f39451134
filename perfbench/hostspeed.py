"""Host-speed normalisation of the benchmark's times.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to about 1.8x over tens of seconds, as other tenants load it.  Raw times of
the same code then spread by 15-35% between runs.  To measure the program
rather than its neighbours, a child samples the host's speed all through a
pass: every INTERVAL_S a timer signal runs `probe`, a fixed piece of
pure-Python work of the kind superinv does (tuple keys, dict updates,
Fraction sums), and records how long it took.  A time is then reported
normalised, at the host speed at which the probe takes PROBE_NOMINAL_S:

    normalised = (raw - probe time inside) * PROBE_NOMINAL_S / probe time

where each stretch between two probes is scaled by the probes around it.
The probe is the benchmark's own code and calls nothing in superinv, so a
change to superinv moves a normalised time by the same factor as the raw
time.  Raw times are printed alongside.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# The probe's duration on a calm host of the kind the baseline was measured
# on (Python 3.11, a 2-vCPU Xeon VM); it only sets the scale of the times.
PROBE_NOMINAL_S = 0.0011


def probe() -> float:
    """Seconds taken by a fixed piece of work: 600 Fraction sums into a
    dict keyed by tuples."""
    start = time.monotonic()
    acc: dict = {}
    for i in range(600):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, 0) + Fraction(i % 13 + 1, i % 7 + 1)
    return time.monotonic() - start


class Sampler:
    """Runs `probe` on a wall-clock timer and keeps (start, seconds) pairs
    on the time.monotonic clock, which parent and child processes share."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_) -> None:
        start = time.monotonic()
        self.samples.append((start, probe()))

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def busy(self, start: float, end: float) -> float:
        """Raw seconds from start to end, less the probes run in between."""
        return end - start - sum(d for t, d in self.samples if start <= t < end)

    def normalised(self, start: float, end: float) -> float:
        """Seconds from start to end at the nominal host speed.  Each gap
        between two probes is scaled by the median of the four probes
        nearest to it, so that one probe slowed by a context switch
        moves no time much."""
        s = self.samples
        durations = [d for _, d in s]
        total = 0.0
        for i in range(-1, len(s)):
            gap_start = s[i][0] + s[i][1] if i >= 0 else float("-inf")
            gap_end = s[i + 1][0] if i + 1 < len(s) else float("inf")
            lo, hi = max(start, gap_start), min(end, gap_end)
            if hi > lo:
                near = durations[max(0, i - 1) : i + 3]
                total += (hi - lo) * PROBE_NOMINAL_S / statistics.median(near)
        return total
