"""Speed probe: timings that hold still on a shared host.

On a small shared VM, wall time for the same work swings by up to 2x within
seconds as other tenants come and go, and no hardware counters are exposed.
``SpeedClock`` runs a fixed pure-Python probe every ``INTERVAL_S`` seconds of
wall time (SIGALRM, in the measured thread) and converts wall-clock instants
to *reference seconds*: each slice between two probes counts as its wall time
times ``REFERENCE_S`` over the probes' mean duration, and the probes
themselves count as zero.  Work that slows down with the probe reads the
same; work that gets faster or slower reads proportionally less or more.

Pure Python (no numpy), so a setup-timing child can load it before it times
``import hmmbandits``.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL_S = 0.01
# the probe's duration on an idle core of the 2-vCPU Xeon host the baseline
# was recorded on: reference seconds read as wall seconds on that idle host
REFERENCE_S = 50e-6


def _probe() -> int:
    x, acc = 1, []
    for _ in range(400):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc.append(x % 97)
    return sum(acc)


class SpeedClock:
    """Context manager that probes while active; convert instants afterwards."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._knots: tuple[list[float], list[float]] | None = None

    def _sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        _probe()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def knots(self) -> tuple[list[float], list[float]]:
        """Piecewise-linear map from wall instants to reference seconds."""
        if self._knots is None:
            xs, ys, ref = [], [], 0.0
            for i, (s, e) in enumerate(zip(self.starts, self.ends)):
                if i:
                    probe = (e - s + self.ends[i - 1] - self.starts[i - 1]) / 2
                    ref += (s - self.ends[i - 1]) * REFERENCE_S / probe
                xs += [s, e]
                ys += [ref, ref]
            self._knots = (xs, ys)
        return self._knots

    def reference(self, instant: float) -> float:
        xs, ys = self.knots()
        i = bisect.bisect_right(xs, instant)
        if i == 0:
            return ys[0]
        if i == len(xs):
            return ys[-1]
        x0, x1 = xs[i - 1], xs[i]
        if x1 == x0:
            return ys[i]
        return ys[i - 1] + (ys[i] - ys[i - 1]) * (instant - x0) / (x1 - x0)

    def elapsed(self, t0: float, t1: float) -> float:
        """Reference seconds between two wall instants taken while active."""
        return self.reference(t1) - self.reference(t0)
