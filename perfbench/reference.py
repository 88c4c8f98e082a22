"""Host-speed reference: a fixed numpy kernel sampled while solidyn runs.

The benchmark runs on small shared hosts whose speed changes by a third
for minutes at a time (on a 2-vCPU VM, ten runs of the same code read
12.0-13.0 s for twenty minutes, then 7.6-8.6 s), and flips between a fast
and a slow mode, 35 and 60 ms a block, from one second to the next.  No
length of run averages the slow changes away.  So every timed
``solidyn run`` child runs under a ``Sampler`` (see ``child.py``):
``PERIOD_S`` seconds after the last block, a timer signal interrupts
solidyn and times one block of this kernel in the same process.  The
benchmark subtracts the sampler's own time from the child's wall time and
reports times rescaled to a host on which one block takes ``REF_BLOCK_S``:

    reported = (measured - sampler time) * REF_BLOCK_S / mean block time

The mean, not the median, because the child's time sums over both modes.
The set-up children are too short to sample that way; the benchmark times
one block before and after each round of them instead.  Timing the kernel
only between children sampled the host too rarely: the rescaled times
spread more than the measured ones.

The kernel copies the mix of work in solidyn's steps (complex FFT round
trips, an ``exp`` phase and many small ``np.interp`` calls from Python)
and none of its code, so a change to solidyn never changes it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Nominal seconds of one block: about its median on a 2-vCPU x86-64 VM
# with numpy's pocketfft.
REF_BLOCK_S = 0.05
PERIOD_S = 0.5


class Kernel:
    """The reference work, built once; ``block`` always does the same work."""

    def __init__(self, points=2048, steps=300):
        rng = np.random.default_rng(0)
        self.x = np.linspace(-20.0, 20.0, points, endpoint=False)
        self.psi = np.exp(-self.x**2 / 8.0) * np.exp(1j * 0.3 * self.x)
        k = 2.0 * np.pi * np.fft.fftfreq(points, self.x[1] - self.x[0])
        self.kinetic = np.exp(-0.5j * 1e-3 * k**2)
        self.probes = rng.uniform(-15.0, 15.0, 16)
        self.steps = steps

    def timed_block(self):
        """Run one block; return its seconds."""
        start = time.perf_counter()
        self.block()
        return time.perf_counter() - start

    def block(self):
        psi = self.psi
        total = 0.0
        for _ in range(self.steps):
            psi = np.fft.ifft(np.fft.fft(psi) * self.kinetic)
            psi = psi * np.exp(-1j * 1e-3 * (psi.real**2 + psi.imag**2))
            density = psi.real**2 + psi.imag**2
            for probe in self.probes:
                total += float(np.interp(probe, self.x, density))
        return total


class Sampler:
    """Times one kernel block every ``period_s`` seconds of wall time.

    A context manager: entering it runs one untimed warm-up block and arms
    a one-shot ``SIGALRM`` timer, which each block re-arms when it ends, so
    blocks never overlap however slow the host; leaving it stops the
    re-arming, disarms the timer and restores the previous handler.
    ``blocks`` holds each block's seconds and ``busy_s`` all time spent in
    the sampler, warm-up included.
    """

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.kernel = Kernel()
        self.blocks = []
        self.busy_s = 0.0
        self._armed = False
        self._previous = None

    def _sample(self, signum=None, frame=None):
        elapsed = self.kernel.timed_block()
        self.blocks.append(elapsed)
        self.busy_s += elapsed
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def __enter__(self):
        self.busy_s += self.kernel.timed_block()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
