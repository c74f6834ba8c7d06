"""Host speed probe: reports op times at a fixed reference speed.

On a shared VM the speed of the CPU that the benchmark gets swings in
phases that last from seconds to tens of seconds.  On the 2-vCPU Xeon
VM this benchmark was tuned on, a fixed pure-Python loop took 0.18 s
in fast phases and 0.32 s in slow ones, and the slow phases lasted up
to 25 s, longer than a run.  No statistic over one run's wall times
removes that.

While a run is timed, a SIGALRM timer interrupts the process every
`INTERVAL_S` of wall time and times one fixed pure-Python probe loop.
An interval [t0, t1] of the run is then reported as its wall time minus
the probe time inside it, times the mean host speed over it: the mean
of `PROBE_REF_S` / probe duration over the probes in the interval,
widened about its middle to at least `MIN_WINDOW_S` for short ops.  The
work done in an interval is its wall time times the mean speed, so a
reported time is the time the interval would have taken at the host
speed at which one probe takes `PROBE_REF_S`, which is about the
fast-phase speed of that VM.  The
process runs no threads: the probe runs in the main thread, between
bytecodes of whatever is being timed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
MIN_WINDOW_S = 0.1
PROBE_REF_S = 0.00045


def probe_loop():
    """The fixed work whose duration measures the host's speed."""
    total, table = 0, {}
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
        total += i * i % 7
    return total


class SpeedProbe:
    """Context manager that samples the host speed while it is open."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._spent = [0.0]  # prefix sums of the probe durations

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self._spent.append(self._spent[-1] + t1 - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def probe_s(self, t0, t1):
        """Time the probe itself took between t0 and t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return self._spent[hi] - self._spent[lo]

    def speed(self, t0, t1):
        """Mean host speed over [t0, t1] relative to the reference."""
        widen = max(0.0, MIN_WINDOW_S - (t1 - t0)) / 2
        lo = bisect.bisect_left(self.starts, t0 - widen)
        hi = bisect.bisect_left(self.starts, t1 + widen)
        around = self.durations[lo:hi] or self.durations
        if not around:  # nothing sampled yet: report wall time
            return 1.0
        return statistics.fmean(PROBE_REF_S / d for d in around)

    def normalize(self, t0, t1):
        """Wall time of [t0, t1] without the probe, at reference speed."""
        return (t1 - t0 - self.probe_s(t0, t1)) * self.speed(t0, t1)

    def summary(self):
        return {"probes": len(self.durations),
                "host_slowdown_p50":
                    statistics.median(self.durations) / PROBE_REF_S
                    if self.durations else None,
                "probe_s": self._spent[-1]}
