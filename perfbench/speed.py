"""Machine-speed probes: fixed numpy kernels timed around an operation.

The shared 2-vCPU box this benchmark was tuned on changes speed by up to
1.5x in phases of a few seconds, with no other work in the container.  That
moved the median of raw operation seconds by about 25% from run to run.  A
probe runs a kernel that does not depend on symmix around each operation;
dividing the operation's own time by the probe's median time cancels most of
the machine's phases.

``SpeedProbe`` runs exponentials and a dot product on 256-vectors (about
0.5 ms) just before the operation, every 50 ms during it from a SIGALRM
handler, and just after it.  The handler's time is taken out of the
operation's time.  The handler runs between bytecodes only, so a long numpy
call delays the next sample.  The kernel's arrays fit in the L1 cache, and
each sample before or after an operation is the second of two back-to-back
passes, so what symmix left in the caches barely changes its time.  It
tracks operations made of many small numpy calls.

``MemoryProbe`` is for operations that allocate and stream arrays of
hundreds of MiB: their time goes to page faults and memory bandwidth, which
the host's phases move differently from the CPU's speed.  Its kernel
allocates a fresh array of ``mib`` MiB, fills it, sums it and frees it.  It
runs three times before and three times after the operation, never during
it: a pass during the operation would compete with it for memory, so its
time would depend on symmix's own footprint.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_ITERATIONS = 30


class SpeedProbe:
    # the kernel's time, about, on the machine the baseline was measured on;
    # set-up seconds are rescaled to it (see run.setup_seconds)
    nominal_s = 5e-4
    interval_s = 0.05

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a, self._b, self._w = rng.random((3, 256))
        self._during: list[float] = []

    def kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(_ITERATIONS):
            e = np.exp(1.3j * self._a)
            s = e.real * self._b + e.imag * self._a
            float(np.dot(self._w, s * s))
        return time.perf_counter() - start

    def sample(self) -> list[float]:
        """Kernel seconds taken before or after an operation."""
        self.kernel()
        return [self.kernel()]

    def _tick(self, signum, frame):
        self._during.append(self.kernel())

    def time(self, call):
        """Run ``call``; return (its seconds without the probe's, probe median seconds, output)."""
        before = self.sample()
        self._during = []
        if self.interval_s:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        start = time.perf_counter()
        try:
            out = call()
        finally:
            if self.interval_s:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            elapsed = time.perf_counter() - start
            if self.interval_s:
                signal.signal(signal.SIGALRM, previous)
        during = self._during
        ref = statistics.median([*before, *during, *self.sample()])
        return elapsed - sum(during), ref, out


class MemoryProbe(SpeedProbe):
    nominal_s = 2e-2
    interval_s = None

    def __init__(self, mib: int):
        super().__init__()
        self._size = mib * 2 ** 20 // 8

    def kernel(self) -> float:
        start = time.perf_counter()
        a = np.empty(self._size)
        a.fill(1.0)
        float(a.sum())
        del a
        return time.perf_counter() - start

    def sample(self) -> list[float]:
        return [self.kernel() for _ in range(3)]


def probe_for(memory_mib: int) -> SpeedProbe:
    return MemoryProbe(memory_mib) if memory_mib else SpeedProbe()
