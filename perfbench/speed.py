"""The machine's current speed, from a fixed reference kernel.

On a shared host this machine's speed drifts by 20-30% within minutes (a
fixed 4 ms loop ran 3.3 ms at best in one 10 s window and 4.2 ms at best two
minutes later), so raw times of runs made minutes apart disagree by more than
any useful regression bound.  The benchmark therefore interleaves ~30 ms runs
of a kernel that no pwlab change can touch (a Python loop, 192x192 matrix
products, 65536-point FFTs and elementwise work, on fixed inputs) with the
work it measures, all on one CPU (run.py pins itself before starting any
child), and scales each segment of the work between two kernel samples by
REF_NOMINAL_S / (the kernel's mean time in those samples).  The result is
the time the work would take at the speed where the kernel takes
REF_NOMINAL_S.  The raw times are reported beside the scaled ones.

Launching an interpreter slows with the host's load less than this kernel
does, so set-up time has a reference of its own: a launch of the same
interpreter that imports numpy alone (LAUNCH_REF_CODE) just before each
measured launch.  Set-up time is the median over launches of measured ÷
reference, times LAUNCH_REF_NOMINAL_S; over 5 verify runs its spread was
0.038 against 0.21 for the raw median launch.
"""
from __future__ import annotations

import resource
import statistics
import time

import numpy as np

REF_NOMINAL_S = 0.025      # kernel time that scaled times refer to
REF_REPEATS = 2            # kernel runs per sample
LAUNCH_REF_CODE = "import time, numpy; print(time.perf_counter())"
LAUNCH_REF_NOMINAL_S = 0.1


def cpu_time(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class SpeedProbe:
    """Times the measured work in segments, with a kernel sample between
    every two segments, and scales each segment by the samples on either
    side of it.  Over 23 verify passes on one CPU of a shared 2-vCPU host,
    raw pass times spread (IQR/median) 0.16, passes scaled by their mean
    kernel time 0.087, and passes scaled segment by segment 0.04."""

    def __init__(self, who, tracer=None):
        rng = np.random.default_rng(0)
        self._m = rng.standard_normal((192, 192))
        self._z = rng.standard_normal(65536) + 1j * rng.standard_normal(65536)
        self.who = who                     # resource.RUSAGE_SELF or _CHILDREN
        self.tracer = tracer
        self.walls, self.cpus = [], []     # one entry per kernel run
        self.segments = []                 # (wall, cpu, ref wall, ref cpu)
        self._kernel()                     # warm-up, not recorded
        self._sample()

    def _kernel(self) -> None:
        s = 0
        for i in range(60000):
            s += i * i
        for _ in range(4):
            self._m @ self._m
        for _ in range(6):
            y = np.fft.ifft(np.fft.fft(self._z))
            np.abs(y) ** 2 + np.exp(-self._z.real ** 2)

    def _sample(self) -> None:
        tracer, was = self.tracer, getattr(self.tracer, "active", False)
        if tracer is not None:
            tracer.active = False          # the kernel's FFTs are not pwlab's
        for _ in range(REF_REPEATS):
            c0, t0 = cpu_time(resource.RUSAGE_SELF), time.perf_counter()
            self._kernel()
            t1, c1 = time.perf_counter(), cpu_time(resource.RUSAGE_SELF)
            self.walls.append(t1 - t0)
            self.cpus.append(c1 - c0)
        if tracer is not None:
            tracer.active = was

    def begin(self) -> None:
        """Start a segment of measured work."""
        self._first = len(self.segments)
        self._c0, self._t0 = cpu_time(self.who), time.perf_counter()

    def split(self, *_ignored) -> None:
        """End the segment, take a sample, start the next segment.  Accepts
        and ignores the message verify.run_all passes to its progress callback."""
        self._close()
        self._c0, self._t0 = cpu_time(self.who), time.perf_counter()

    def end(self) -> tuple:
        """End the segment and take a sample; returns the raw wall and CPU
        time of the segments since begin()."""
        self._close()
        own = self.segments[self._first:]
        return sum(seg[0] for seg in own), sum(seg[1] for seg in own)

    def _close(self) -> None:
        t1, c1 = time.perf_counter(), cpu_time(self.who)
        n = len(self.walls)
        self._sample()
        around = slice(n - REF_REPEATS, n + REF_REPEATS)
        self.segments.append((t1 - self._t0, c1 - self._c0,
                              statistics.mean(self.walls[around]),
                              statistics.mean(self.cpus[around])))

    def scaled(self) -> tuple:
        """Wall and CPU time of all segments at the nominal speed."""
        return (sum(w * REF_NOMINAL_S / rw for w, _, rw, _ in self.segments),
                sum(c * REF_NOMINAL_S / rc for _, c, _, rc in self.segments))
