"""A gauge of the host's speed while a run goes on.

On a shared host other tenants slow every process down, by up to 2x, in
spells that last from under a second to minutes; process CPU time grows
with wall time through them, so it shows nothing.  While a ``Gauge`` is
entered, a timer signal interrupts the run every INTERVAL_S seconds, ops
included, and times a fixed piece of pure-Python rational arithmetic (the
kind of work qsecfan does).  A sample's host speed is the work's nominal
time over its measured time, and it is tagged with the phase of the run
it fell in; ``clock`` leaves the time spent sampling out.  A phase's wall
time times the mean speed of its samples is its time in nominal seconds:
the time it would take on this host running at its nominal speed.  The
speed changes within seconds, so each phase is scaled by its own samples.
The gauge's code is independent of qsecfan, so a change to the program
moves wall and nominal times alike.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Seconds of one sample on a 2.0 GHz Xeon vCPU that no other tenant slows
# down (CPython 3.11): about the fastest of thousands of samples.
NOMINAL_S = 0.00125
INTERVAL_S = 0.1


def _work() -> float:
    t0 = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(60):
        x = (x * Fraction(7, 5) + Fraction(i, 3)) / Fraction(11, 7)
        x = x.limit_denominator(10**12)
    return time.perf_counter() - t0


class Gauge:
    def __init__(self):
        self.phase = None  # tag of the samples taken from now on
        self.samples = []  # (phase, host speed), 1 = nominal
        self.stolen = 0.0  # seconds spent sampling
        self._sampling = False
        self._previous = None

    def clock(self) -> float:
        """perf_counter less the time spent sampling so far."""
        return time.perf_counter() - self.stolen

    def sample(self):
        """Take one sample now.  The cyclic collector is off meanwhile,
        so a collection of the program's objects cannot land in it."""
        if self._sampling:  # the timer fired during a sample taken by hand
            return
        self._sampling = True
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append((self.phase, NOMINAL_S / _work()))
        finally:
            if enabled:
                gc.enable()
            self.stolen += time.perf_counter() - t0
            self._sampling = False

    def speed(self, phase) -> float:
        """Mean host speed over the samples of ``phase``, or over all
        samples when none fell in it."""
        speeds = [v for p, v in self.samples if p == phase] or [v for _, v in self.samples]
        return statistics.fmean(speeds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
