"""Library-call timing at a fixed reference speed.

The speed of the 2-core development box drifts by 20-75% over spans of
a fraction of a second to minutes, because other load on its host takes
cache and cycles from it.  Wall time and CPU time drift alike, and medians
over a 30 s run differ by that much from run to run.

So between library calls, at least every REF_EVERY seconds, the clock times
a fixed reference loop of interpreter work and shift-XOR on ~200-bit ints,
as the library's factorization and CLI paths do.  A call's time at
reference speed is its measured time scaled by REF_SECONDS over the mean of
the reference times just before and just after it.  Host drift cancels to
first order; a change to the library does not, because the loop never calls
the library.  Callers keep the measured times as well.

A call that runs for seconds sees the speed change many times while it
runs, so for such a call the reference loop also runs inside it: an
interval timer interrupts the call every SAMPLE_EVERY seconds, and the
signal handler times the loop in the same thread.  The handler's own time
is taken out of the call's measured time, and the call is scaled by
REF_SECONDS times the mean reference speed (1 / reference time) over its
samples, which weighs each slice of the call by the speed it ran at.
"""

from __future__ import annotations

import bisect
import signal
from statistics import mean
from time import perf_counter

REF_SECONDS = 0.0006  # about the loop's median on the development box, busy
REF_EVERY = 0.1  # seconds between reference timings, at most
SAMPLE_EVERY = 0.05  # seconds between reference timings inside a sampled call

_WIDE = (1 << 185) | 0x3039
_MASK = (1 << 400) - 1


def reference_seconds() -> float:
    """Fastest of three timings of the reference loop."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = chars = 0
        for k in range(1_500):
            acc = (acc ^ (_WIDE << (k & 63))) & _MASK
            chars += len(str(k))
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Times library calls and, between them, the reference loop."""

    def __init__(self):
        self.ref_at: list[float] = []
        self.ref_seconds: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.ref_at.append(perf_counter())
        self.ref_seconds.append(reference_seconds())

    def timed(self, call, *, sampled: bool = False):
        """Run call(); return (start, seconds, result, exception or None).

        With sampled=True the reference loop also runs inside the call, and
        seconds leaves out the time it took there.
        """
        if perf_counter() - self.ref_at[-1] >= REF_EVERY:
            self.sample()
        handler_s = 0.0

        def on_alarm(signum, frame):
            nonlocal handler_s
            h0 = perf_counter()
            self.sample()
            handler_s += perf_counter() - h0

        if sampled:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        t0 = perf_counter()
        try:
            out, exc = call(), None
        except Exception as err:  # a failed operation is counted, not fatal
            out, exc = None, err
        finally:
            t1 = perf_counter()
            if sampled:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        return t0, t1 - t0 - handler_s, out, exc

    def scale(self, start: float, end: float) -> float:
        """REF_SECONDS over the reference time around, or inside, [start, end].

        Call sample() first, so that every timed call has a timing after it.
        """
        before = bisect.bisect_right(self.ref_at, start) - 1
        after = bisect.bisect_left(self.ref_at, end)
        if after - before > 2:  # samples inside a sampled call
            return REF_SECONDS * mean(1 / r for r in self.ref_seconds[before + 1:after])
        ref = (self.ref_seconds[max(before, 0)] + self.ref_seconds[min(after, len(self.ref_at) - 1)]) / 2
        return REF_SECONDS / ref
