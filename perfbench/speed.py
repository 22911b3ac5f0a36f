"""Machine-speed probes, so that times read the same on a busy machine.

A shared machine runs a process at a speed that depends on its neighbours:
on a 2-vCPU Xeon virtual machine, one round of enum-full with identical
inputs took 2.4 s in one minute and 5.0 s a few minutes later, and the
process's CPU time moved with it.  A time measured that way says more about
the neighbours than about the program.

So the worker runs a fixed pure-Python probe (a signed-permutation closure,
the same kind of work as the library's hot loops) every PROBE_INTERVAL_S
while it measures, from a SIGALRM handler, and records how long each probe
took.  A duration is then reported in reference seconds: every stretch of
real time between two probes is divided by the machine's slowdown at that
moment, the probe time of its neighbouring probes over PROBE_REFERENCE_S,
and so is the CPU time the process used in that stretch.  Probe time itself
is left out.  One reference second is what a second is on a machine that
runs the probe in PROBE_REFERENCE_S, which that machine does when it is
quiet.  A change to the library moves reference seconds as it moves real
ones; the load of other tenants moves them far less, though not to zero:
the probe slows more under contention than the library does, so reference
times read a few percent higher on a quiet machine than on a busy one.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

from inputs import closure_order

PROBE_INTERVAL_S = 0.25
PROBE_REFERENCE_S = 0.004
# the closure of W(D_7) elements (1,...,6) and c1 c2 (1,2): a group of order 1440
PROBE_GENERATORS = [(2, 3, 4, 5, 6, 1, 7), (-2, -1, 3, 4, 5, 6, 7)]
SMOOTHING = 2  # probes on each side of a stretch that set its slowdown


def probe() -> float:
    """Run the probe once; its duration in seconds."""
    t0 = time.perf_counter()
    closure_order(PROBE_GENERATORS, 10**6)
    return time.perf_counter() - t0


class SpeedClock:
    """Probes during a measurement and converts real intervals to reference seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.cpu_starts: list[float] = []
        self.cpu_durations: list[float] = []
        self._probing = False

    def _probe(self, *_signal) -> None:
        if self._probing:  # a tick that came while a slow probe still ran
            return
        self._probing = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        d = probe()
        self.cpu_durations.append(time.process_time() - c0)
        self.cpu_starts.append(c0)
        self.starts.append(t0)
        self.durations.append(d)
        self._probing = False

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def slowdown(self) -> float:
        """Median probe time over the reference, for the whole measurement."""
        return statistics.median(self.durations) / PROBE_REFERENCE_S

    def probe_seconds(self, a: float, b: float) -> float:
        """Real time spent probing inside [a, b]."""
        return sum(max(0.0, min(b, s + d) - max(a, s)) for s, d in zip(self.starts, self.durations))

    def _slowdown_after(self, i: int) -> float:
        """Slowdown for the stretch between probe i and probe i + 1."""
        return statistics.median(self.durations[max(0, i - SMOOTHING + 1) : i + SMOOTHING + 1]) / PROBE_REFERENCE_S

    def reference_seconds(self, a: float, b: float) -> float:
        """The real interval [a, b] of perf_counter time, probes left out, in reference seconds.

        [a, b] must lie between the first and the last probe.
        """
        total = 0.0
        k = len(self.starts)
        i = max(0, bisect.bisect_right(self.starts, a) - 1)
        while i < k - 1 and self.starts[i] < b:
            lo = max(a, self.starts[i] + self.durations[i])
            hi = min(b, self.starts[i + 1])
            if hi > lo:
                total += (hi - lo) / self._slowdown_after(i)
            i += 1
        return total

    def reference_cpu_seconds(self) -> float:
        """CPU time from the first probe to the last, probes left out, in reference seconds."""
        return sum(
            (self.cpu_starts[i + 1] - self.cpu_starts[i] - self.cpu_durations[i]) / self._slowdown_after(i)
            for i in range(len(self.starts) - 1)
        )
