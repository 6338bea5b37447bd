"""Times at a fixed machine speed.

On a shared VM the speed the host gives a process drifts by up to 2x within
seconds (on the 2-vCPU Xeon VM the bounds were set on, a fixed loop took 7 ms
at one moment and 14 ms at another), which moves every time in a run alike.  So
each timed call runs under a Speedometer: a SIGALRM timer interrupts the call
every PERIOD_S, and the handler times a small fixed reference kernel.  The
call's time is then scaled by REFERENCE_S over the mean kernel time, sampled
once before the call, at every tick and once after it: the scaled time is the
call's time at the speed the kernel had when REFERENCE_S was fixed.

The kernel is the benchmark's own code, so a change to the library moves the
scaled times as it moves the raw ones; only the machine's speed cancels.
Kernel times are read on the thread's CPU clock, so a tick that waits for the
interpreter lock while harness worker threads run does not read as a slow
machine; on that VM slow spells were slower execution, not lost CPU time,
and showed on that clock too.  The ticks' own time is subtracted from the
call's time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
# A round figure near the kernel's median thread CPU time on the machine the
# bounds were set on (2-vCPU VM, Intel Xeon, Python 3.11.7).  It only fixes
# the unit: it cancels out of every comparison between two runs.
REFERENCE_S = 0.001


def reference_kernel() -> Fraction:
    """Fraction, big-int and dict work like the library's hot paths."""
    total = Fraction(0)
    x = 0x9E3779B97F4A7C15
    counts: dict[int, int] = {}
    for i in range(1, 250):
        x = (x * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        total += Fraction(x.bit_count(), i)
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
    return total


def kernel_s() -> float:
    start = time.thread_time()
    reference_kernel()
    return time.thread_time() - start


class Speedometer:
    """Time the block it wraps and sample the machine's speed meanwhile.

    After the block, `raw_s` is its wall time less the ticks' own time
    `ticks_s`, and `scale` is REFERENCE_S over the mean kernel time;
    `raw_s * scale` is the block's time at the reference speed.  Use it from
    the main thread only.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.raw_s = 0.0
        self.scale = 1.0
        self.ticks_s = 0.0
        self._start = 0.0
        self._previous = None

    def __enter__(self) -> Speedometer:
        self.samples = [kernel_s()]
        self.ticks_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def _tick(self, signum: int, frame: object) -> None:
        start = time.thread_time()
        self.samples.append(kernel_s())
        self.ticks_s += time.thread_time() - start

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.raw_s = time.perf_counter() - self._start - self.ticks_s
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_s())
        self.scale = REFERENCE_S / statistics.fmean(self.samples)
