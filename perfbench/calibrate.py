"""Machine-pace sampling, and times in nominal seconds.

The host this benchmark was tuned on (2 vCPUs, shared) switches between a
fast and a slow state every few seconds; in the slow state the same Python
code takes up to twice as long. Raw wall times of one call therefore spread
by 20-35% between runs, more than any useful bound.

While a timed call runs, a SIGALRM every INTERVAL_S of wall time runs a
small fixed kernel (pure Python, independent of the package) and records how
long it took: the machine's pace at that moment. A call's nominal time is
its wall time, less the time spent in the sampler, times the mean of
NOMINAL_PACE_S / pace over the samples: the time the call would have taken
had the machine run at the nominal pace throughout. On the tuning host this
cut the spread of per-command medians between 30-second windows from
20-36% to 1-2%. Raw wall times are printed next to the nominal ones.
"""

from __future__ import annotations

import math
import signal
import time

# kernel seconds that define the nominal pace: about its median on the
# 2-vCPU Xeon host the benchmark was tuned on
NOMINAL_PACE_S = 2.5e-4
INTERVAL_S = 0.02


def kernel() -> float:
    """Seconds of one run of the pace kernel: a short scalar RK4 loop over
    tuples with math calls, rendered to text, as the CLI's own loops are."""
    start = time.perf_counter()
    h, c = 1e-3, 0.5
    y = (0.1, 0.0)
    for _ in range(75):
        k1 = (y[1], y[0] + (2.0 + math.tanh(y[0])) * c)
        y1 = tuple(a + 0.5 * h * b for a, b in zip(y, k1))
        k2 = (y1[1], y1[0] + (2.0 + math.tanh(y1[0])) * c)
        y = tuple(a + h * b for a, b in zip(y, k2))
    ",".join(repr(v) for v in y)
    return time.perf_counter() - start


class PaceSampler:
    """Samples the pace during one call; not reentrant, main thread only."""

    def __init__(self) -> None:
        self.paces: list[float] = []
        self.sampling_s = 0.0
        self._start = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        begun = time.perf_counter()
        self.paces.append(kernel())
        self.sampling_s += time.perf_counter() - begun

    def start(self) -> None:
        self.paces = [kernel()]
        self.sampling_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """(wall seconds less sampling, nominal seconds) since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.paces.append(kernel())
        busy = wall - self.sampling_s
        return busy, busy * nominal_factor(self.paces)


def nominal_factor(paces: list[float]) -> float:
    """Mean of NOMINAL_PACE_S / pace: work done per wall second, relative to
    the nominal pace, averaged over equal stretches of wall time."""
    return sum(NOMINAL_PACE_S / p for p in paces) / len(paces)
