"""Time measured at a reference host speed.

The benchmark runs on shared hosts where the same work can take half as long
again while neighbours are busy, in spells of seconds to minutes. CPU time
grows with wall time in those spells, and the hosts expose no instruction
counters. So a fixed probe runs every ``INTERVAL_S`` from a ``SIGALRM``
handler, and the reference time of an interval is its wall time, less the
probes inside it, scaled by ``PROBE_REF_S`` over the mean probe time around
it: the time the interval would have taken on a host where the probe takes
exactly ``PROBE_REF_S``.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from time import perf_counter

INTERVAL_S = 0.1
PROBE_STEPS = 4500
PROBE_REF_S = 1e-3  # probe time on the reference host
MIN_SAMPLES = 8  # an interval's speed comes from at least this many probes
WARM_UP = 5  # unrecorded probes before the first recorded one

_SLOTS = dict.fromkeys(range(256), 0)


def probe() -> None:
    """Fixed pure-Python work, like the program's: integer arithmetic and dict
    updates. It allocates no container, so it never starts a collection."""
    slots = _SLOTS
    x = 1
    for _ in range(PROBE_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        slots[x & 255] += 1


class HostClock:
    """Probes the host's speed every ``INTERVAL_S`` while it is entered, or
    ``n`` times in a row on ``sample(n)``; ``reference(t0, t1)`` converts a
    ``perf_counter`` interval into reference seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        for _ in range(WARM_UP):  # the interpreter specialises the probe's code
            probe()

    def __enter__(self) -> HostClock:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = perf_counter()
            probe()
            self.durations.append(perf_counter() - t0)
            self.starts.append(t0)

    def reference(self, t0: float, t1: float) -> float:
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        own = t1 - t0 - sum(self.durations[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.starts))
        around = self.durations[lo:hi]
        if not around:
            return own
        return own * PROBE_REF_S * len(around) / sum(around)

    def mean_probe_s(self) -> float:
        return sum(self.durations) / len(self.durations) if self.durations else 0.0
