"""Timing that does not move with the host's speed.

On a shared host the same Python code runs up to ~1.8x slower for
stretches of a fraction of a second to minutes, whatever the program
does.  :class:`SpeedProbe` measures that speed while the program runs:
a real-time interval timer interrupts the program every ``PERIOD_S`` and
times one fixed pure-Python probe (:func:`probe`) in the signal handler.
:meth:`SpeedProbe.seconds` turns a wall-clock interval into *reference
seconds*: the interval minus the probes inside it, scaled by how much
slower the probe ran around it than ``REFERENCE_PROBE_S``.  A change that
makes the program do less work lowers reference seconds as it lowers
wall seconds on a quiet host; a slow phase of the host raises wall
seconds but, to first order, not reference seconds.  The correction is
not exact (see perfbench/README.md, "Reference seconds").
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Optional

PERIOD_S = 0.01
# Probe samples from this far around an interval also count, so an
# interval shorter than the period still has a speed.
PAD_S = 0.02
# What one probe takes at the host's fast speed (2.1 GHz Xeon vCPU,
# Python 3.11); reference seconds are seconds at that speed.
REFERENCE_PROBE_S = 1.8e-4


def probe() -> int:
    """A fixed pure-Python loop.  Of the probes tried (heap, dict,
    attribute, float and JSON mixes), plain integer arithmetic slowed
    most nearly in step with the workloads on the slow phases."""
    total = 0
    for index in range(3000):
        total += index * index % 7
    return total


class SpeedProbe:
    """Samples the host's speed every ``PERIOD_S`` while it is entered."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous: Optional[object] = None

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        probe()
        self.starts.append(started)
        self.durations.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, start: float, end: float) -> List[float]:
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_right(self.starts, end)
        return self.durations[low:high]

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran around an
        interval: the median probe from ``PAD_S`` before to ``PAD_S``
        after it, over ``REFERENCE_PROBE_S``."""
        around = self._between(start - PAD_S, end + PAD_S)
        if not around:
            raise ValueError("no speed sample around the interval")
        return statistics.median(around) / REFERENCE_PROBE_S

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds the program spent from ``start`` to ``end``."""
        own = end - start - sum(self._between(start, end))
        return own / self.slowdown(start, end)
