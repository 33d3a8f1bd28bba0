"""Host-speed correction for timings on a shared machine.

The benchmark runs on a few cores of a shared host, whose speed changes by
tens of percent within seconds as other tenants come and go.  A Sampler
runs a fixed probe (pure-Python graph search and integer arithmetic, the
kinds of work hamdec does) from a SIGALRM handler every INTERVAL seconds,
also in the middle of a call into hamdec, and records how long each probe
took.  A timed section is then reported in reference seconds:

    (measured seconds - time spent in probes) * mean(NOMINAL / probe time)

over the probes taken during the section, i.e. the time the section would
have taken had the host run the probe in NOMINAL seconds throughout.  The
probe never calls hamdec, so a faster hamdec still shows as less time.

Handlers run between bytecodes, so a probe waits for a long C call to
return; hamdec is pure Python.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

INTERVAL = 0.05
# Median probe time on the 2-vCPU Xeon VM the baseline was measured on.
NOMINAL = 0.004
# A section shorter than a few intervals is corrected with the probes
# nearest to it in time.
MIN_PROBES = 5

_rng = random.Random(7)
_N = 1500
_ADJ = [[_rng.randrange(_N) for _ in range(6)] for _ in range(_N)]
_ROWS = [[int((i * 7 + j * 3) % 5 != 0) for j in range(12)] for i in range(12)]


def probe() -> int:
    """Fixed work of a few milliseconds: a breadth-first search with a set
    and a queue, then Gray-code row sums and products of small ints."""
    seen = {0}
    queue = [0]
    for u in queue:
        for v in _ADJ[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    sums = [0] * 12
    total = 0
    for k in range(1, 1 << 10):
        j = (k & -k).bit_length() - 1
        for i in range(12):
            sums[i] += _ROWS[i][j]
        prod = 1
        for s in sums:
            prod *= s + 1
        total += prod
    return len(seen) + total


class Sampler:
    """Probes taken every INTERVAL seconds while the context is entered."""

    def __init__(self) -> None:
        self.times: list[float] = []      # end of each probe, perf_counter
        self.lengths: list[float] = []    # seconds each probe took
        self.spent = 0.0                  # seconds spent in the handler

    def _handler(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the caller's garbage is not probe time
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.times.append(t1)
        self.lengths.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter less the time spent in probes so far."""
        return time.perf_counter() - self.spent

    def reference_seconds(self, section: tuple[float, float, float]) -> float:
        """The seconds of a section (start, end, seconds outside the
        handler) at the nominal host speed.  Call it after the sampler has
        stopped, so that the probes following a short section are there."""
        t0, t1, seconds = section
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.times)):
            # widen towards the nearer neighbour in time
            if hi == len(self.times) or (lo > 0 and t0 - self.times[lo - 1]
                                         <= self.times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        if lo == hi:
            raise RuntimeError("no speed probes were taken")
        return seconds * statistics.fmean(NOMINAL / d for d in self.lengths[lo:hi])
