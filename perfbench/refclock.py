"""A clock in reference seconds: real time rescaled by the host's speed.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x, in CPU time as well as wall time, in phases from under a second to
tens of seconds.  A fixed 1.1 s task read anywhere from 1.1 s to 2.2 s, so
a run of 30 s could land wholly in a slow or a fast phase and no sampling
inside the run removed that from its figures.

``RefClock`` follows the speed as it changes.  Every TICK_S a SIGALRM
handler times ``calibrate``, a fixed pure-Python Fraction kernel that is the
benchmark's own code (no change to ``irgames`` can make it faster or
slower).  Between ticks the clock advances at CAL_REF_S divided by the
median of the last SPEED_WINDOW kernel times, so one reference second is
the time the host takes for 1 / CAL_REF_S runs of the kernel.  CAL_REF_S is
about the kernel's time on the 2-core host the bounds were set on, where
reference and real seconds stay within a third of each other.
The time spent in the handler itself is left out.

Python runs signal handlers in the main thread between bytecodes, so the
kernel runs on the core that is running the timed code (or, while the
process waits for a child, on a core beside it).  A call that stays in C
for longer than a tick is scaled at the speed measured before it.  Code
that kept every core busy would slow the kernel as well and read faster in
reference seconds than in real ones; the benchmark logs both for each full
pass.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque
from fractions import Fraction

TICK_S = 0.02
SPEED_WINDOW = 5
CAL_REF_S = 0.00025  # one calibrate at the reference speed


def calibrate() -> Fraction:
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i)
    return total


class RefClock:
    """Reference seconds, counted while the clock is entered."""

    def __init__(self) -> None:
        self.kernel_s: deque[float] = deque(maxlen=SPEED_WINDOW)
        self.ticks = 0
        self.ref = 0.0
        self.rate = 1.0
        self.last = time.perf_counter()
        self.previous = None

    def __enter__(self) -> "RefClock":
        for _ in range(SPEED_WINDOW):
            start = time.perf_counter()
            calibrate()
            self.kernel_s.append(time.perf_counter() - start)
        self.rate = CAL_REF_S / statistics.median(self.kernel_s)
        self.last = time.perf_counter()
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.ref += (start - self.last) * self.rate
        calibrate()
        self.last = time.perf_counter()
        self.kernel_s.append(self.last - start)
        self.rate = CAL_REF_S / statistics.median(self.kernel_s)
        self.ticks += 1

    def now(self) -> float:
        # A tick between the reads below would mix two states; read again.
        while True:
            ticks = self.ticks
            value = self.ref + (time.perf_counter() - self.last) * self.rate
            if ticks == self.ticks:
                return value
