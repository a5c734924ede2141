"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared host the speed a process gets drifts by tens of percent from
one minute to the next, and every command of a run drifts together. The
client times this kernel just before every command it issues and, for
commands that run longer than a moment, every GAUGE_INTERVAL seconds
while the command runs, from a SIGALRM handler in the same thread. It
reports each command's time divided by the host's slowdown over that
command: the mean kernel time over NOMINAL_S. The kernel imports nothing
from protodetect, so no change to the program moves it. Its mix follows
the program's: float64 matrix products of the embedder's sizes, numpy
calls on arrays of a few elements, where call overhead dominates, like
the gradient audit's, and scalar Python arithmetic like `iou`.
"""

import signal
import statistics
import time

import numpy as np

# a typical kernel time on the host the baseline was taken on (Intel
# Xeon, 2 vCPUs, numpy 2.4 with scipy-openblas, one BLAS thread; it
# read 0.0129-0.0157 s there). It fixes the scale of the reported times
# only: any constant would do, as long as it never changes.
NOMINAL_S = 0.0133
GAUGE_INTERVAL = 0.4

_RNG = np.random.default_rng(0)
_X = _RNG.normal(size=(40, 64))
_W1 = _RNG.normal(size=(256, 64)) * 0.1
_W2 = _RNG.normal(size=(64, 256)) * 0.1
_S = _RNG.normal(size=(6, 8))
_T = _RNG.normal(size=(8, 3))
_BOXES = [tuple(float(v) for v in row) for row in _RNG.uniform(0, 10, size=(90, 4))]


def kernel():
    acc = 0.0
    for _ in range(30):
        h = np.maximum(_X @ _W1.T, 0.0)
        z = h @ _W2.T
        dh = (z @ _W2) * (h > 0.0)
        acc += float((dh.T @ _X).sum())
    for _ in range(150):
        z = _S @ _T
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        acc += float(np.log(p[:, 0]).mean())
    for ax1, ay1, ax2, ay2 in _BOXES:
        for bx1, by1, bx2, by2 in _BOXES:
            ix = min(ax2, bx2) - max(ax1, bx1)
            iy = min(ay2, by2) - max(ay1, by1)
            if ix > 0.0 and iy > 0.0:
                acc += ix * iy
    return acc


def sample():
    """Seconds one run of the kernel takes."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Gauge:
    """Kernel samples taken just before one timed call and, if
    `interval` is set, every `interval` seconds during it."""

    def __init__(self, interval=None):
        self.interval = interval
        self.samples = [sample()]
        self.inside_s = 0.0        # time the call spent paused in samples

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.inside_s += time.perf_counter() - t0

    def __enter__(self):
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self):
        return statistics.fmean(self.samples) / NOMINAL_S
