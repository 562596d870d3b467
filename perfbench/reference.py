"""Reference seconds: wall time corrected for the drifting speed of the host.

On a shared host the speed of all code in a process drifts together, by
±15% over seconds to minutes.  A fixed pure-Python loop that does not
touch the package is timed before and after each measured piece of work,
and the piece's wall time is scaled by ``REFERENCE_S`` over the mean of
those two loop times.  Where the loop takes ``REFERENCE_S``, reference
seconds are wall seconds.

Measured on a 2-vCPU host, with the process pinned to one CPU:

- Over 100 s of CLI runs, the spread of 12 s medians fell from 57% of the
  median in wall time to 4% in reference time.
- Over 300 s of ``mc-occupancy`` ops, the spread of 10 s medians fell
  from 16% to 3%.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_LOOP = 30_000
REFERENCE_S = 0.0025


def reference_seconds(repeats: int = 3) -> float:
    """Median time of the reference loop: the current speed of this process."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class ScaledClock:
    """Sums measured pieces of work in wall and in reference seconds."""

    def __init__(self) -> None:
        self.loop = reference_seconds()
        self.wall = 0.0
        self.scaled = 0.0

    def add(self, wall: float) -> None:
        """Count a piece that just ended; its loop time before is the last one."""
        before, self.loop = self.loop, reference_seconds()
        self.wall += wall
        self.scaled += wall * REFERENCE_S / ((before + self.loop) / 2)
