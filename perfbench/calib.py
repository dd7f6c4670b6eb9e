"""Host-speed calibration: take other tenants' noise out of the timings.

On a shared host the same code runs up to twice as slow for spells of
seconds to minutes, which no median over a 35 s run removes.  So every
timing is bracketed by calibration probes -- a fixed pure-Python loop
timed in CPU seconds of its own thread (so waiting for the interpreter
lock or the scheduler does not count) -- and rescaled to a nominal host
on which the probe takes :data:`NOMINAL_S`::

    normalized = measured * NOMINAL_S / probe seconds around the measurement

Probes run on the measured core while the program is idle, never beside
it, so a change to the program moves the measured time and leaves the
probe alone: it moves the normalized time by the same factor.  The raw
times are kept in each run's detail record.
"""

from __future__ import annotations

import bisect
import time

#: CPU seconds the probe takes on a quiet host (a 2.0 GHz cloud vCPU).
NOMINAL_S = 0.025

_ARITH_ITERATIONS = 150_000
_DICT_ITERATIONS = 45_000


def probe() -> float:
    """CPU seconds of this thread for one fixed slice of interpreter work.

    Half integer arithmetic, half dict and string churn: under the same
    interference the first slows less than this program does and the
    second more, so their sum tracks it.
    """
    started = time.thread_time()
    acc = 0
    for i in range(_ARITH_ITERATIONS):
        acc += i * i % 7
    table: dict[int, int] = {}
    kept = []
    for i in range(_DICT_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc += len(str(i)) + (i * 7) % 13
        if not i & 63:
            kept.append(acc)
    if acc + len(kept) < 0:  # keep the work observable
        raise AssertionError
    return time.thread_time() - started


class Speed:
    """Calibration samples over time, and rescaling of intervals by them."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probes: list[float] = []

    def sample(self) -> None:
        now = time.perf_counter()
        seconds = probe()
        self.times.append(now)
        self.probes.append(seconds)

    def _around(self, start: float, end: float) -> float:
        """Mean probe time of the samples bracketing ``[start, end]``."""
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        window = self.probes[lo : hi + 1]
        return sum(window) / len(window)

    def scale(self, start: float, end: float) -> float:
        """``end - start`` rescaled to the nominal host."""
        return (end - start) * NOMINAL_S / self._around(start, end)
