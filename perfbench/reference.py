"""A fixed reference kernel that reads the host's current speed.

The 2-core host the benchmark was built on runs a fixed kernel up to 1.7x
slower or faster for seconds to a minute at a time, and CPU time follows
wall time, so the swings are in the speed of the core, not in scheduling.
A workload timing taken in a slow spell says more about the spell than
about diskflow.  Each repetition therefore times this kernel just before
and just after set-up, between steps every REF_EVERY seconds (that time is
taken out of the step timings) and just after the run, and scales every
timing it reports by

    REF_S / (median of the kernel's timings around the timed region)

that is, to the host speed at which the kernel takes REF_S seconds.  Set-up
takes 20-200 ms and the speed can change within a second, so set-up is
scaled by the timings either side of it alone.  The raw
timings are kept in the detail record.

The kernel mixes the kinds of work a diskflow step does, on arrays of the
benchmark's grid sizes: interpreted Python, real FFTs along the grid axis,
elementwise products and reductions, banded Cholesky solves, and many calls
on small arrays.  It uses no diskflow code, so a change to diskflow never
changes the scale, and it holds references to the numpy and scipy functions
taken at construction, so the tracer's wraps never see it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REF_S = 0.03     # kernel time, in seconds, at the nominal host speed
SAMPLES = 2      # kernel timings on each side of the timed region
REF_EVERY = 0.2  # seconds of stepping between two timings inside the run


class Reference:
    def __init__(self):
        import numpy as np
        import scipy.linalg

        rng = np.random.default_rng(0)
        n = 4096
        self._a = rng.random((n, 9))
        self._v = rng.random(n)
        ab = np.zeros((3, n))
        ab[0, 2:], ab[1, 1:], ab[2] = 0.1, -1.0, 4.0
        self._cb = scipy.linalg.cholesky_banded(ab)
        self._rfft, self._irfft = np.fft.rfft, np.fft.irfft
        self._solve = scipy.linalg.cho_solve_banded
        self._ones = np.ones(16)
        self.samples = []
        self.run()  # first call pays for page faults and lazy imports

    def run(self):
        s = 0
        for i in range(30000):
            s += i
        a = self._a
        for _ in range(20):
            c = self._irfft(self._rfft(a, axis=0), n=a.shape[0], axis=0)
            float((c * a).sum())
        for _ in range(80):
            self._solve((self._cb, False), self._v)
        x = self._ones
        for _ in range(1500):
            x = x * 1.0001 + 0.5
            float(x.sum())

    def measure(self, n=SAMPLES):
        """Time the kernel n times; the timings are kept."""
        for _ in range(n):
            t0 = perf_counter()
            self.run()
            self.samples.append(perf_counter() - t0)

    def scale(self, start, stop):
        """Factor that takes a timing to the nominal speed, from the kernel
        timings samples[start:stop] taken around it."""
        return REF_S / statistics.median(self.samples[start:stop])
