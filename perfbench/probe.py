"""Same-thread host-speed probe and the speed correction built on it.

The benchmark runs on small shared VMs whose core speed drifts by more
than a tenth within minutes, and whose kernels account no steal time,
so neither wall time nor CPU time compares across runs.  The probe
samples the speed of the thread doing the work: a ``SIGPROF`` interval
timer fires about every :data:`INTERVAL_S` of process CPU time and its
handler times :func:`kernel`, a fixed piece of numpy and interpreter
work that touches no program code.  An op's corrected time is::

    (op wall time - run-queue wait - probe time inside the op)
        * K_REF / mean kernel time

over the probe samples inside the op, widened to neighbouring samples
until at least :data:`MIN_SAMPLES` are covered.  ``K_REF`` is a fixed
constant, so corrected times are seconds at one reference speed.

The run-queue wait (:class:`common.RunDelay`) is the time
the thread was runnable while another task of the same VM held the
vCPU.  The kernel cannot see it: ``SIGPROF`` fires on the scheduler
tick, just after the thread was scheduled, so the kernel is almost
never preempted, while a busy loop on the same vCPU stretched the ops
1.8x.  Waiting that is not contention (I/O, sleeps) stays in the op.

Only the benchmark installs the probe; the program uses no ``SIGPROF``.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

import numpy as np

from common import RunDelay

INTERVAL_S = 0.02
"""Process CPU time between probe samples."""

K_REF = 6.0e-4
"""Reference kernel time (s): corrected seconds are at this speed.  The
kernel takes ~0.4 ms in a tight loop but ~0.6 ms inside the handler,
where the workload has evicted its caches; 0.6 ms keeps corrected
seconds close to wall seconds on a typical 2-vCPU x86 VM."""

MIN_SAMPLES = 3

_RNG = np.random.default_rng(2011)
_MATRIX = _RNG.standard_normal((12, 12)) + 12.0 * np.eye(12)
_RHS = _RNG.standard_normal(12)
_SOLVES = 16
_LOOP = 4200


def kernel() -> float:
    """Fixed work: small dense solves plus a pure-Python loop."""
    x = _RHS
    for _ in range(_SOLVES):
        x = np.linalg.solve(_MATRIX, x)
        x = x / (1.0 + float(np.abs(x).max()))
    acc = 0.0
    for i in range(_LOOP):
        acc += (i % 7) * 0.5
    return acc + float(x[0])


class Probe:
    """Samples kernel time on ``SIGPROF``; one per process, created on
    the main thread (the handler always runs there)."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")
        self.run_delay = RunDelay()
        self.active = False

    def _on_prof(self, signum, frame) -> None:
        d0 = self.run_delay()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0 - (self.run_delay() - d0))

    def start(self) -> "Probe":
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.active = True
        return self

    def stop(self) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, signal.SIG_IGN)
            self.active = False

    def samples(self) -> "Samples":
        return Samples(list(self.starts), list(self.durations))


class Samples:
    """Probe samples sorted by start time; ``perf_counter`` timestamps,
    which are system-wide on Linux, so samples of several processes
    merge into one timeline."""

    def __init__(self, starts, durations):
        order = sorted(range(len(starts)), key=starts.__getitem__)
        self.starts = [starts[i] for i in order]
        self.durations = [durations[i] for i in order]
        self._cum = [0.0]
        for d in self.durations:
            self._cum.append(self._cum[-1] + d)

    def merged(self, other: "Samples") -> "Samples":
        return Samples(self.starts + other.starts, self.durations + other.durations)

    def __len__(self) -> int:
        return len(self.starts)

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def probe_time(self, t0: float, t1: float) -> float:
        """Probe seconds spent inside ``[t0, t1)``."""
        lo, hi = self._range(t0, t1)
        return self._cum[hi] - self._cum[lo]

    def mean_kernel(self, t0: float, t1: float) -> float:
        """Mean kernel time over the samples in the window, widened
        symmetrically to at least ``MIN_SAMPLES`` samples."""
        n = len(self.starts)
        if n == 0:
            raise RuntimeError("no probe samples were recorded")
        lo, hi = self._range(t0, t1)
        need = min(MIN_SAMPLES, n)
        while hi - lo < need:
            if lo > 0:
                lo -= 1
            if hi - lo < need and hi < n:
                hi += 1
        return (self._cum[hi] - self._cum[lo]) / (hi - lo)

    def speed(self, t0: float, t1: float) -> float:
        """Host speed relative to the reference (1.0 = reference)."""
        return K_REF / self.mean_kernel(t0, t1)

    def corrected(self, t0: float, t1: float, waited: float = 0.0) -> float:
        """Reference-speed seconds of the work done in ``[t0, t1)``, of
        which ``waited`` seconds were run-queue wait."""
        return (t1 - t0 - waited - self.probe_time(t0, t1)) * self.speed(t0, t1)

