"""Host-speed sampling: a fixed probe timed every few milliseconds during a pass.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third within a second (no steal time shows; CPU time equals wall time), so
raw times of identical code spread past any useful bound, however long the
run and whatever the median.  A ``Sampler`` therefore times a small fixed
probe from a ``SIGALRM`` handler every ``INTERVAL_S`` of wall time, in the
child's one thread, between bytecodes of whatever job is running.

* ``net_ns()`` is a clock that stops while a probe runs, so job times and
  trace spans read on it leave the probes out.
* ``reference_s(n0, n1)`` turns the net interval ``[n0, n1]`` into reference
  seconds: its length times the mean of ``REFERENCE_S / probe`` over the
  probes inside it and the nearest probe on each side.  That is the time the
  interval would take on a host where one probe takes ``REFERENCE_S``.

The probe uses only the standard library (``Fraction`` arithmetic, dict
updates, tuple sorting and set building: the mix linkchi's own jobs spend
their time in), so no change to linkchi moves it.  Probes take about 6% of a
pass.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

# Probe duration at the reference speed.  A round figure: on a 2-vCPU Intel
# Xeon at 2.0 GHz under CPython 3.11 a pass's median probe took 0.9-1.7 ms,
# as the host's speed drifted.
REFERENCE_S = 0.0010
# Wall time between probes.
INTERVAL_S = 0.025


def probe() -> int:
    """Fixed interpreter-bound work; returns a checksum so nothing is skipped."""
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i + 3) * Fraction(2 * i + 1, i + 5)
    buckets: dict[int, int] = {}
    for i in range(1500):
        buckets[i % 613] = buckets.get(i % 613, 0) + i
    rows = sorted((i * 7919 % 1009, i % 17, -i) for i in range(500))
    seen = {row[:2] for row in rows}
    return total.numerator % 1000003 + len(buckets) + len(seen)


class Sampler:
    """Times ``probe`` every ``INTERVAL_S`` from a timer signal, between ``start`` and ``stop``."""

    def __init__(self):
        self.spent_ns = 0  # time spent in probes so far
        self.at: list[int] = []  # net-clock reading at the end of each probe
        self.took: list[float] = []  # each probe's duration, in seconds
        self._busy = False

    def net_ns(self) -> int:
        """Nanoseconds on a clock that stands still while a probe runs."""
        return time.perf_counter_ns() - self.spent_ns

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection would scan the job's heap, not time the host
        t0 = time.perf_counter_ns()
        probe()
        took = time.perf_counter_ns() - t0
        if collecting:
            gc.enable()
        self.spent_ns += took
        self.at.append(self.net_ns())
        self.took.append(took / 1e9)
        self._busy = False

    def start(self) -> None:
        probe()  # warm-up, untimed
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self, n0: int, n1: int) -> float:
        """Mean of REFERENCE_S / probe over the probes that cover [n0, n1]."""
        lo = max(0, bisect.bisect_left(self.at, n0) - 1)
        hi = min(len(self.at), bisect.bisect_right(self.at, n1) + 1)
        cover = self.took[lo:hi]
        return sum(REFERENCE_S / t for t in cover) / len(cover)

    def reference_s(self, n0: int, n1: int) -> float:
        """The net interval [n0, n1] in reference seconds."""
        return (n1 - n0) / 1e9 * self.factor(n0, n1)
