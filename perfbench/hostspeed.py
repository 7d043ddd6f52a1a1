"""Correct item times for how fast a shared host ran the process meanwhile.

On the shared 2-vCPU host the benchmark was built on, a process's CPU slows
down by up to 1.8x for one to several seconds at a time, while other work
shares its physical core; over ten runs, the raw time of the fixed
g2-artifacts work ranged from 13.5 s to 18.8 s.  A probe times a fixed
pure-Python loop of `Fraction` arithmetic, the same kind of work as the
program's.  An interval's time is scaled by REFERENCE_S over the mean probe
time in and around it, which gives the time it would have taken at the
host's full speed.  The probes' own time is left out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# The probe at full speed on the reference host (Xeon, Python 3.11.7); it
# only scales the corrected times into seconds.
REFERENCE_S = 0.25e-3
INTERVAL_S = 0.05


def _probe_loop() -> None:
    total = Fraction(0)
    for i in range(1, 50):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)


class SpeedProbe:
    """Probe samples (start, seconds) of one process."""

    def __init__(self):
        self.samples = []
        self._sampling = False

    def sample(self, count: int = 1) -> None:
        if self._sampling:  # the timer fired during a sample
            return
        self._sampling = True
        try:
            for _ in range(count):
                start = time.perf_counter()
                _probe_loop()
                self.samples.append((start, time.perf_counter() - start))
        finally:
            self._sampling = False

    def start_timer(self) -> None:
        """Probe every INTERVAL_S from a signal handler, so that an item
        that runs for seconds is sampled while it runs."""
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def slowdown(self) -> float:
        """Mean probe time over REFERENCE_S: 1 at full speed."""
        return statistics.fmean(s for _, s in self.samples) / REFERENCE_S

    def corrected(self, start: float, end: float) -> float:
        """Seconds the perf_counter interval [start, end] would have taken at
        full speed, without the probes that ran inside it.  An interval with
        no probe inside takes the speed of the probes just before and after."""
        starts = [t for t, _ in self.samples]
        i, j = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
        inside = self.samples[i:j]
        around = inside or self.samples[max(0, i - 1):i + 1]
        busy = end - start - sum(s for _, s in inside)
        return busy * REFERENCE_S / statistics.fmean(s for _, s in around)
