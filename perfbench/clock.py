"""Calibrated time: op durations scaled to a nominal machine speed.

On a shared machine the speed of one CPU wanders by up to 2x over a few
seconds, for reasons outside this process (measured on a 2-vCPU VM with no
steal time: a fixed 12 ms op ran 29 to 62 times per half second within one
minute, on either CPU). Raw wall times of two 30-second runs then differ by
20-40%, which would swamp most changes to the program.

So the benchmark keeps sampling the speed of a fixed reference unit of work,
`reference_work`, which does not touch `cqs`: one unit every TICK_S, from a
SIGALRM handler, for as long as the clock runs, during ops and between them
alike. The handler's own time is taken out of the op's time, and out of
every traced span open while it ran (`sampled_s` is the running total the
tracer subtracts). So short and long ops are calibrated from samples of one
kind: single units interleaved with other work.

An op's calibrated time is its time times NOMINAL_S over the mean unit time
sampled during it, or, for an op too short to be sampled MIN_IN_OP times,
over the median of the samples within WINDOW_S of it. It reads as the time
the op would take on a machine that runs one unit in NOMINAL_S. The program cannot change the
reference unit, so a slower or faster program moves calibrated times as it
moves wall times, while a noisy neighbour slows op and unit alike.

The unit is half a pure integer loop on locals and half small interpreter
work of the kinds the program does: calls of small functions, short-lived
tuples, a small dict and int-to-str conversion. Nothing it allocates
outlives the unit. Each half alone left one workload drifting with the host
(a 2-vCPU VM whose raw speed swung 1.6x between runs):

- the integer loop alone: `chains` code slows more than it when the host is
  busy, so `wide` read 9-17% faster in quiet periods;
- the call/tuple/dict work alone: the 2 ms `documents` analyze ops read about
  10% slower on a fast host (spreads up to 0.13);
- both halves: over five seeds, no metric spread, as (Q3 - Q1) / median,
  by more than 0.13 on `wide` or 0.09 on `documents`.

A unit of random reads over 20 MB tracked no op kind (drift 19-32% over
40-second windows), so the drift does not come from memory traffic. A
heavier unit that kept hundreds of objects alive and sorted them ran about
12% slower inside traced `sweep` ops than inside untraced ones, hiding most
of the tracing overhead; units that keep nothing alive do not (1% in paired
traced and untraced `sweep` ops).
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

NOMINAL_S = 0.00025
TICK_S = 0.01
WINDOW_S = 0.5
MIN_IN_OP = 3


def _pair(x: int) -> tuple[int, int]:
    return x, x + 1


def _mix(t: tuple[int, int]) -> int:
    return t[0] * 3 + t[1]


def _bump(d: dict, k: int) -> int:
    return d.get(k, 0) + 1


def reference_work() -> int:
    """Fixed interpreter-bound work: an integer loop on locals, then small
    calls, tuples, a dict and str()."""
    a, b, acc = 1, 1, 0
    for i in range(1400):
        a, b = b, (a + b) & 1023
        acc ^= a + i
    d: dict[int, int] = {}
    for i in range(330):
        v = _mix(_pair(i))
        d[v & 63] = _bump(d, v & 63)
        acc += len(str(v))
    return acc + sum(d.values())


class SpeedClock:
    """Reference-unit samples over the run, and the calibration they give.
    Sampling starts when the clock is made and ends at `stop`."""

    def __init__(self) -> None:
        self.mid: list[float] = []  # sample midpoints, increasing
        self.unit: list[float] = []  # seconds per reference unit
        self.sampled_s = 0.0  # handler time over the whole run
        self._op = (0, 0.0)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self) -> None:
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.mid.append((t0 + t1) / 2)
        self.unit.append(t1 - t0)
        self.sampled_s += t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def begin_op(self) -> None:
        self._op = (len(self.unit), self.sampled_s)

    def end_op(self) -> tuple[float, float | None]:
        """(seconds the sampling took, in-op calibration factor or None)."""
        first, before = self._op
        in_op = self.unit[first:]
        factor = NOMINAL_S / statistics.fmean(in_op) if len(in_op) >= MIN_IN_OP else None
        return self.sampled_s - before, factor

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median unit time sampled around [start, end]."""
        if not self.unit:
            self._sample()
        lo = bisect_left(self.mid, start - WINDOW_S)
        hi = bisect_right(self.mid, end + WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest one
            lo = min(lo, len(self.unit) - 1)
            hi = lo + 1
        return NOMINAL_S / statistics.median(self.unit[lo:hi])
