"""Request times measured against a reference loop run beside them.

The benchmark's host is a few vCPUs of a shared machine. While neighbours
are busy it runs the same Python code 20-60 % slower, in stretches of
seconds to minutes, so wall times of identical runs taken minutes apart
differ by more than any useful bound. Between requests and every TICK_S
inside them, off the clock, `Meter` times `reference_work`, a fixed loop of
the kinds of operation heckeo spends its time on (dict-of-int polynomials,
tuples, `Fraction` arithmetic), using only the standard library. Each
request's wall time is then scaled by REF_S over the mean of the probes
around and inside it. The result is in reference seconds: the request's time on a host where
`reference_work` takes REF_S, which is about what it takes on a calm
2-vCPU VM with Python 3.11. A change to heckeo moves the request times and
leaves the reference loop alone.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.003  # nominal time of one reference_work() call
PROBE_EVERY = 0.05  # seconds of requests between two probes, at most
TICK_S = 0.1  # interval of the probes taken inside a request


def reference_work() -> int:
    poly: dict[int, int] = {}
    for i in range(40):
        a = {e: (e * i) % 7 + 1 for e in range(-3, 5)}
        for ea, ca in a.items():
            for eb in range(0, 6, 2):
                poly[ea + eb] = poly.get(ea + eb, 0) + ca * (eb + i)
    words = sorted({tuple((i * j) % 5 for j in range(6)) for i in range(600)})
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i % 11 + 1, i % 17 + 2) * Fraction(3, i + 1)
    return len(poly) + len(words) + acc.denominator % 7


def probe(reps: int = 1) -> float:
    """Wall seconds per reference_work() call, over `reps` calls."""
    t0 = time.perf_counter()
    for _ in range(reps):
        reference_work()
    return (time.perf_counter() - t0) / reps


class Meter:
    """Times the requests of one pass in reference seconds.

    The probes that bracket a request say how fast the host ran at its
    edges, but the host's speed can change twice within a 2-s request. So
    during a request a SIGALRM timer also runs the probe every TICK_S; each
    request is scaled by the mean of the probes around it and inside it,
    and the time of the probes inside it is taken off its wall time. With
    `probing` off the meter only records wall times, and no reference work
    runs, as in the profiled pass of a traced run."""

    def __init__(self, probing: bool = True):
        self.probing = probing
        # key, wall time less the ticks, index of the probe before, ticks inside
        self.samples: list[tuple[object, float, int, tuple[float, ...]]] = []
        self.probes: list[float] = []
        self._ticks: list[float] = []
        self._active = False
        self._last = -math.inf
        if probing:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._active:
            self._ticks.append(probe())

    def _probe(self) -> None:
        self.probes.append(probe())
        self._last = time.perf_counter()

    def time(self, key, fn, *args):
        if not self.probing:
            t0 = time.perf_counter()
            result = fn(*args)
            self.samples.append((key, time.perf_counter() - t0, -1, ()))
            return result
        if time.perf_counter() - self._last >= PROBE_EVERY:
            self._probe()
        self._ticks = []
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t0
            self._active = False
        ticks = tuple(self._ticks)
        self.samples.append((key, dt - sum(ticks), len(self.probes) - 1, ticks))
        return result

    def finish(self) -> list[tuple[object, float]]:
        """(key, reference seconds) of every request of the pass."""
        self._probe()
        return [(key, reference_seconds(dt, [self.probes[i], *ticks, self.probes[i + 1]]))
                for key, dt, i, ticks in self.samples]

    @property
    def wall_s(self) -> float:
        return sum(s[1] for s in self.samples)


def reference_seconds(dt: float, probes: list[float]) -> float:
    """Wall seconds dt, taken while the probes ran, in reference seconds."""
    return dt * REF_S * len(probes) / sum(probes)


def median_sum(samples: dict[object, list[float]]) -> float:
    """Sum over requests of each request's median over the run."""
    return sum(statistics.median(v) for v in samples.values())
