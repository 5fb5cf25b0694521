"""Host speed, sampled by a fixed canary while the benchmark measures.

On a shared host the speed of this process drifts by up to 1.8x within a
minute: CPU time stays equal to wall time, but every instruction takes longer
while other tenants load the same physical cores.  Medians over a run do not
absorb a slow spell that lasts the whole run.  A fixed canary -- small numpy
and pure-Python work that never touches the package -- measures that speed.
``Sampler`` runs it from a SIGALRM interval timer on the measuring thread,
while the solver runs.  A timed operation is then reported as its wall time
minus the canary time spent inside it, rescaled by ``REFERENCE_S`` over the
mean canary duration of the same window: seconds at the speed the host has
when it is quiet.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Mean canary duration, under the sampler, in quiet spells on a 2-core
# Intel Xeon VM with Python 3.11 and numpy 2.4; busy spells read 0.9-1.3 ms.
REFERENCE_S = 0.6e-3
TICK_S = 0.02

_BASE = np.arange(64, dtype=float)


def canary() -> float:
    """Run the fixed canary once; its wall duration in seconds."""
    start = time.perf_counter()
    x = _BASE
    for _ in range(40):
        x = np.roll(x, 1) * 0.5 + np.maximum(x, 1.0) - x.mean()
    acc = 0
    for i in range(300):
        acc += i * i
    return time.perf_counter() - start


class Sampler:
    """Runs the canary every TICK_S of wall time while the context is open."""

    def __init__(self):
        self.durations: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        duration = canary()
        self.durations.append(duration)
        self.spent += duration

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first: int = 0) -> float:
        """REFERENCE_S over the mean canary duration from sample ``first`` on."""
        window = self.durations[first:]
        if not window:
            # a window shorter than one tick: fall back to the whole run
            window = self.durations or [REFERENCE_S]
        return REFERENCE_S * len(window) / sum(window)
