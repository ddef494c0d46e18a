"""Machine-speed samples, to take the shared machine's speed out of the timings.

The benchmark runs on virtual machines whose cores the host shares with other
tenants.  On a 2-core KVM guest, a fixed kernel ran at one of two speeds,
about 2.5 and 4 ms, switching every few seconds; single 25 s passes of the
same work took 20-28 s.  Such swings are wider than any bound worth gating
on.  So while untraced passes run, a timer signal interrupts the main thread
every ``PERIOD`` seconds, between two bytecodes, and runs one fixed
calibration kernel.  The kernel calls neither nearex nor anything nearex
configures; it does the same kind of work (small LAPACK solves behind Python
calls).  Each item's time is then rescaled to the speed at which the kernel
takes ``KERNEL_REF_S``, by the machine's mean speed around the item:

    adjusted = raw * mean(KERNEL_REF_S / kernel CPU time) over the kernel runs around it

Averaging speeds, not kernel times, is what rescales time spent at changing
speeds correctly.  Averaging kernel times rescaled study passes by too little
when the speed changed within them: pass-to-pass spread at one seed was 2.3%
against 1.5%, and whole runs at the fast speed read about 5% lower.

The kernel is timed by its thread's CPU time, not by the clock.  Time it
spends waiting for a core, whether the program's own threads and worker
processes hold the cores or anything else in the guest does, is not counted.
Running slower on a core is, and that is what the host's other tenants
cause.  With two busy processes competing for the two cores, the kernel's
clock time rose by up to a third while its CPU time stayed in its usual
range.  Kernel runs are not subtracted from the items: they add about 1.6%
(4 ms every 0.25 s) to the time of serial code, and at most that to code
that keeps several cores busy.

Set-up times are rescaled in the same way, by the median of five kernel runs
made in the set-up process once set-up has returned and the program is idle.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np
import scipy.linalg

PERIOD = 0.25
WINDOW = 0.5  # kernel samples this close to an item describe its speed
KERNEL_REF_S = 0.004  # reference speed: about the kernel's time on the baseline's 2-core VM
KERNEL_LOOPS = 120


class SpeedProbe:
    """Samples of the calibration kernel's CPU time, taken by a timer signal."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        self._b = rng.normal(size=8) + 0j
        self.starts = []
        self.seconds = []
        self._previous = None

    def kernel(self):
        """Fixed work: small complex LU solves behind Python calls, plus dict work."""
        acc = 0.0
        for _ in range(KERNEL_LOOPS):
            lu = scipy.linalg.lu_factor(self._a, check_finite=False)
            x = scipy.linalg.lu_solve(lu, self._b, check_finite=False)
            d = {j: j * 1.5 for j in range(20)}
            acc += abs(x[0]) + sum(d.values())
        return acc

    def kernel_cpu_s(self):
        """CPU time of one kernel run in this thread."""
        c0 = time.thread_time()
        self.kernel()
        return time.thread_time() - c0

    def sample(self):
        self.starts.append(time.perf_counter())
        self.seconds.append(self.kernel_cpu_s())

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def _between(self, t0, t1):
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return self.seconds[lo:hi]

    def adjust(self, start, seconds):
        """An interval's time at reference speed."""
        near = self._between(start - WINDOW, start + seconds + WINDOW)
        if not near:  # never happens while the timer runs; keep the nearest sample
            i = min(bisect.bisect_left(self.starts, start), len(self.starts) - 1)
            near = [self.seconds[i]]
        return seconds * KERNEL_REF_S * float(np.mean(1.0 / np.asarray(near)))

    def slowdown(self):
        """Median kernel CPU time over the reference time, for the record."""
        return float(np.median(self.seconds)) / KERNEL_REF_S
