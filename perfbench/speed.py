"""Machine-speed probe for scaling timings on a shared machine.

On a shared host the speed the benchmark gets drifts by tens of percent
over seconds to minutes, with the load of other tenants.  The fastest or
median repeat of an operation only removes short dips; a run that is
slow throughout still reads slow.  So the runner times a fixed
interpreter-bound loop, which runs no program code, before every timed
group of calls and again whenever about `PROBE_EVERY_S` of operations
have run since the last probe.  Each timed interval is then divided by
the machine's slowdown around it:

    scaled seconds = wall seconds / slowdown(start, end) ** EXPONENT

where the slowdown is the median, over the probes taken from `WINDOW_S`
before the interval to `WINDOW_S` after it, of probe time over
`REFERENCE_S`.  One probe lasts about 20 ms and is itself jittery; the
median over a few seconds of probes follows the slow drift without that
jitter.  The probe suffers more from other tenants than the solvers do:
over ten 40-second runs per workload on a 2-core Intel Xeon VM (Python
3.11), log wall time against log slowdown had slopes 0.59-0.68 for
`twin_s` and `twinfast_s` on monitor-er1000 and marketing-rr
(correlation 0.86-0.94), hence `EXPONENT`.  A scaled time reads as the
time the call takes when the probe runs in `REFERENCE_S`, roughly an
unloaded core of that VM.  Since the probe runs no program code, a
slower or faster program moves the scaled time exactly as it moves the
wall time.

Writing the instance files in set-up is bound by the file system, not
by the CPU the probe measures, so that phase is left unscaled.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

REFERENCE_S = 0.02
EXPONENT = 0.6
PROBE_EVERY_S = 0.25
WINDOW_S = 2.0
_ITERATIONS = 100_000


def probe() -> float:
    """Seconds taken by one run of the fixed loop."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    keys = []
    for i in range(_ITERATIONS):
        k = (i * 2654435761) & 4095
        table[k] = table.get(k, 0) + 1
        if not i & 7:
            keys.append(k)
    total = sum(table[k] for k in keys)
    seconds = perf_counter() - t0
    if total <= 0:  # keeps the loop's result live
        raise AssertionError("speed probe computed nothing")
    return seconds


class Timeline:
    """The probes of one run, as (time, slowdown) in time order."""

    def __init__(self):
        self.times: list[float] = []
        self.slowdowns: list[float] = []

    def probe(self):
        seconds = probe()
        self.times.append(perf_counter())
        self.slowdowns.append(seconds / REFERENCE_S)

    def slowdown(self, start: float, end: float) -> float:
        """Median slowdown of the probes from `WINDOW_S` before `start` to
        `WINDOW_S` after `end`, always including the last probe before the
        interval and the first after it."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.times, end) + 1, len(self.times)))
        return statistics.median(self.slowdowns[lo:hi])

    def scale(self, start: float, end: float, writing: float = 0.0) -> float:
        """Scaled seconds of the interval [start, end], of which `writing`
        seconds were spent writing files and stay unscaled."""
        return writing + (end - start - writing) / self.slowdown(start, end) ** EXPONENT
