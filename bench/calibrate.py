"""Host-speed calibration for the benchmark's timings.

The benchmark runs on small shared virtual machines whose speed drifts: on
the 2-core VM this benchmark was built on, a fixed pure-Python loop ran 30-45%
slower in some 10-15 s windows than in others, and single one-second calls
varied by +-15% between repeats.  Repetition inside one 30 s run does not
average that away, so every reported time is normalized to a nominal host
speed.

A ``Sampler`` interrupts the process every PERIOD_S of wall time (SIGALRM)
and times one small, fixed unit of interpreter work inside the handler.  A
measured interval is reported with the handler time taken out and scaled by
NOMINAL_S / (mean unit time during the interval and at its two ends).  Short
calls are thus scaled by the speed sampled just before and after them, long
calls by the speed sampled all through them.

The unit mixes the kinds of work the package does: JSON and number
formatting (the CLI), complex double-precision arithmetic in the
interpreter, and mpmath big-float series summation (the ``hyp2f1`` rescue
route).  It calls nothing in ``dswave``, so a
change to the package cannot move it.  Raw times are kept in the result
records next to the normalized ones.
"""
from __future__ import annotations

import bisect
import json
import signal
from time import perf_counter

import mpmath as mp

PERIOD_S = 0.05
# median unit time on the reference machine (Intel Xeon, 2 vCPUs, Python 3.11)
NOMINAL_S = 0.00144


_DOC = {"inputs": {"epsilon": 20.5, "m": 10.25, "j": 2}, "rows": [[0.1 * k, 1.0 / (k + 1)] for k in range(12)]}


def _work() -> complex:
    text = json.dumps(_DOC, sort_keys=True)
    for _ in range(3):
        rows = json.loads(text)["rows"]
        text = json.dumps({"rows": [[format(x, ".17g") for x in row] for row in rows]}, sort_keys=True)
        text = json.dumps({"rows": [[float(x) for x in row] for row in json.loads(text)["rows"]]})
    z, acc = 0.3 + 0.1j, 0j
    for i in range(800):
        acc += z * (i + 1.5) / (z + i)
        z = z * 0.9999 + 0.0001j
    with mp.workdps(60):
        a, b, x = mp.mpc(0.75, -300), mp.mpc(0.75, -700), mp.mpf(0.25)
        term = total = mp.mpc(1)
        for n in range(12):
            term = term * (a + n) * (b + n) / ((n + 1.5) * (n + 1)) * x
            total += term
    return acc + complex(total)


class Sampler:
    """Samples host speed from a SIGALRM handler while active (a context
    manager; main thread only)."""

    def __init__(self) -> None:
        self.at: list[float] = []  # start of each unit
        self.took: list[float] = []  # its duration
        self.stolen = 0.0  # total time spent in the handler
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _work()
        t1 = perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.stolen += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def mark(self) -> tuple[float, float]:
        """Start of an interval, for ``interval``."""
        return perf_counter(), self.stolen

    def interval(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, time spent outside the handler) since ``mark``."""
        t1 = perf_counter()
        t0, stolen0 = mark
        return t0, t1, t1 - t0 - (self.stolen - stolen0)

    def factor(self, start: float, end: float) -> float:
        """Scale to nominal speed for an interval, from the units run during
        it and the nearest unit on each side.  Call it once units after the
        interval exist (at the latest after leaving the context)."""
        lo = max(0, bisect.bisect_left(self.at, start) - 1)
        hi = bisect.bisect_right(self.at, end) + 1
        units = self.took[lo:hi]
        return NOMINAL_S * len(units) / sum(units)
