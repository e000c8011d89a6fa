"""Host-speed probe used to scale measured times to a reference speed.

The shared host this benchmark was built on runs the same work at speeds up
to 2x apart, switching every few seconds to minutes. Raw medians of 25 s
runs therefore spread by 11-32% (interquartile range over median). A probe,
a fixed ordered-product kernel like the engine's but written here so that
engine changes cannot move it, samples the host's speed. It runs after every
operation and, while sampling is on, also every 25 ms from a timer signal
inside long operations; the time it takes there is subtracted from the
operation. Each operation's time is scaled by the kernel's REFERENCE_S over
the mean probe time around and during it. On the same host, scaled medians
spread by 1-6% depending on the workload (see perfbench/README.md).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Kernel time in seconds per (rows, inner, cols) product at the reference
#: speed: the fast state of a shared 2-core x86-64 host with Python 3.11 and
#: numpy 2.4. Scaled times read as the time the operation takes on that host
#: at that speed.
REFERENCE_S = {(1, 64, 256): 0.000125, (64, 32, 128): 0.00025}


class Probe:
    """Times a fixed kernel of left-to-right ordered products.

    `shapes` lists (rows, inner, cols) products; a workload picks the ones
    that look like its own hot operations, since a 1-row product slows with
    the host's dispatch speed and a 64-row one partly with its arithmetic.
    """

    def __init__(self, shapes, period_s):
        rng = np.random.default_rng(12345)
        self.reference_s = sum(REFERENCE_S[shape] for shape in shapes)
        self.period_s = period_s
        self.operands = [
            (rng.standard_normal((rows, inner), dtype=np.float32),
             rng.standard_normal((inner, cols), dtype=np.float32))
            for rows, inner, cols in shapes
        ]
        self.samples = []
        self.spent = 0.0
        self.on_sample = None  # called with each sample's seconds, e.g. by a tracer
        self._busy = False
        self._sample()
        self.last = self.samples[-1]

    def _kernel(self) -> None:
        for a, b in self.operands:
            out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
            term = np.empty_like(out)
            for k in range(a.shape[1]):
                np.multiply(a[:, k, np.newaxis], b[k, np.newaxis, :], out=term)
                np.add(out, term, out=out)

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.spent += elapsed
        if self.on_sample is not None:
            self.on_sample(elapsed)
        self._busy = False

    def start_sampling(self) -> None:
        if self.period_s:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn, *args):
        """Run fn(*args); return (result, raw seconds, scaled seconds).

        Raw seconds exclude the probe samples taken inside the operation.
        """
        self.samples = [self.last]
        self.spent = 0.0
        started = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - started - self.spent
        self._sample()
        self.last = self.samples[-1]
        return result, raw, raw * self.reference_s / statistics.fmean(self.samples)
