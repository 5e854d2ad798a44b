"""Scale timings to a reference machine speed.

Hosts shared with other tenants change speed by tens of percent over
tens of seconds, for every process at once. Runs taken a minute apart
then differ by more than any bound worth keeping. So each measured block
is bracketed by a fixed pure-Python loop, timed before and after it.
The block's wall time is multiplied by ``REFERENCE_LOOP_S`` divided by
the loop's mean time: a run during a slow phase scales back by the
slowdown the loop saw. Raw wall times are printed next to the scaled
ones.

``REFERENCE_LOOP_S`` is a fixed constant, the loop's median time on a
2-CPU x86-64 development box. Scaled numbers are therefore comparable
between runs and commits on one host, not between hosts.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of the calibration loop (~20 ms on the reference box).
LOOP_N = 300_000
#: The loop's median time on the reference box, in seconds.
REFERENCE_LOOP_S = 0.0215


def _loop() -> int:
    total = 0
    for i in range(LOOP_N):
        total += i * i % 7
    return total


def loop_seconds(repeats: int = 3) -> float:
    """Median time of ``repeats`` calibration loops."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Calibrated:
    """Bracket a block with calibration loops::

        with Calibrated() as cal:
            ...timed work...
        scaled_seconds = raw_seconds * cal.factor
    """

    def __enter__(self) -> "Calibrated":
        self.before = loop_seconds()
        return self

    def __exit__(self, *exc) -> None:
        self.after = loop_seconds()

    @property
    def factor(self) -> float:
        """Reference loop time over the loop time seen around the block:
        below 1 when the host ran slow."""
        return REFERENCE_LOOP_S / ((self.before + self.after) / 2)
