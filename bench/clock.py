"""In-process host-speed probe: times measured on a shared host, rescaled.

On a shared host the same single-threaded work can take 1.5x longer from one
minute to the next, because another tenant's load slows the core we run on;
the slowdown switches on and off within a fraction of a second.  A median
over repetitions cannot remove that drift, so the benchmark measures the
host's speed while the work runs and reports times at a fixed reference
speed.

``SpeedProbe`` interrupts the process every ``PERIOD_S`` seconds (SIGALRM)
and times a fixed pure-Python kernel.  ``SpeedProbe.clocks`` turns those
samples into two clocks over the process's ``perf_counter`` timeline: the
work clock, which stands still while a probe runs, and the reference clock,
which also runs at the speed the probes read.  A stretch between two probes
that took twice ``REF_PROBE_S`` each counts half its seconds on the
reference clock, so a span's reference duration is its duration on a host on
which the kernel takes ``REF_PROBE_S``.  A change that makes the program do
more work still lengthens it in proportion.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
# Median duration of ``_kernel`` on the 2-vCPU Xeon (2.0 GHz) host this
# benchmark was written on; it only fixes the unit of the rescaled times.
REF_PROBE_S = 5.0e-4


def _kernel():
    """Fraction and small-int arithmetic, like the interpreter-bound layers."""
    s = Fraction(0)
    for i in range(1, 80):
        s += Fraction(i % 7, i)
    x = 0
    for i in range(1250):
        x += (i * 7919) % 13
    return s, x


class SpeedProbe:
    """Times ``_kernel`` every ``PERIOD_S`` seconds while started."""

    def __init__(self):
        self.samples = []  # (start, end) of each probe, perf_counter seconds

    def _probe(self, signum, frame):
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter()))

    def start(self) -> None:
        for _ in range(5):  # warm the kernel's code paths before they are timed
            _kernel()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def median_probe_s(self) -> float:
        return statistics.median(b - a for a, b in self.samples)

    def clocks(self):
        """(work, ref): functions from a perf_counter time to clock seconds."""
        if not self.samples:
            raise RuntimeError("no speed probe ran")
        starts = [a for a, _ in self.samples]
        ends = [b for _, b in self.samples]
        speeds = [b - a for a, b in self.samples]
        # between probes k and k+1 the host runs at the mean of their readings
        gaps = [(d0 + d1) / 2.0 for d0, d1 in zip(speeds, speeds[1:])] + [speeds[-1]]
        work_at, ref_at = [0.0], [0.0]  # clock readings at each probe's start
        for k in range(len(starts) - 1):
            gap = starts[k + 1] - ends[k]
            work_at.append(work_at[-1] + gap)
            ref_at.append(ref_at[-1] + gap * REF_PROBE_S / gaps[k])

        def reading(t: float, at: list, scaled: bool) -> float:
            k = bisect.bisect_right(starts, t) - 1
            if k < 0:  # before the first probe: at its speed
                return at[0] + (t - starts[0]) * (REF_PROBE_S / speeds[0] if scaled else 1.0)
            if t <= ends[k]:  # inside a probe: the clocks stand still
                return at[k]
            return at[k] + (t - ends[k]) * (REF_PROBE_S / gaps[k] if scaled else 1.0)

        return (lambda t: reading(t, work_at, False)), (lambda t: reading(t, ref_at, True))
