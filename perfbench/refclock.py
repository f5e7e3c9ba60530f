"""Reference clock: op times in units of a fixed kernel timed next to them.

On a shared host the speed of one core can change by a factor of two for
tens of seconds, as other tenants come and go. Wall time then spreads by
20-30% between runs of identical code. While the ops run, a SIGALRM
handler in the main thread times a fixed numpy kernel every `INTERVAL`
seconds. The kernel uses no package code, so a change to the package
cannot move it. An op's time is divided by the mean kernel time sampled
during the op, or by the last three samples when the op is shorter than
that, and multiplied by `NOMINAL_S`. The result is the op's time in
*reference seconds*: seconds on a core where one kernel call takes
exactly `NOMINAL_S`. The time spent in the handler is subtracted from the
op it interrupted.

Set-up is timed the same way, with the `small` kernel.

Two kernels match the two kinds of work the workloads do. `small` is
Python-level looping over 9 x 9 complex products, like the chart round
trips and flow ladders. `svd` is the singular values of a 121 x 100
complex matrix, like the orbit-dimension SVD that dominates `chart_large`.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

NOMINAL_S = 0.002  # one kernel call lasts this long at reference speed, by definition
INTERVAL = 0.1     # seconds between kernel samples
WINDOW = 3         # fewest samples averaged for one op


def _small_kernel():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    a /= np.linalg.norm(a)
    eig = np.linalg.eig

    def run():
        p = np.eye(9, dtype=np.complex128)
        acc = 0j
        for _ in range(150):
            p = p @ a
            acc += np.trace(p) + sum(k * 0.5 for k in range(20))
        eig(a)
        return acc

    return run


def _svd_kernel():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((121, 100)) + 1j * rng.standard_normal((121, 100))
    svd = np.linalg.svd

    def run():
        return svd(m, compute_uv=False)

    return run


KERNELS = {"small": _small_kernel, "svd": _svd_kernel}


class ReferenceClock:
    """Samples the reference kernel while active (use as a context manager)."""

    def __init__(self, kernel: str):
        self._kernel = KERNELS[kernel]()
        self._ends = []       # end time of each sample, increasing
        self._durations = []  # seconds each sample took
        self._previous = None

    def _sample(self, *_):
        t0 = perf_counter()
        self._kernel()
        t1 = perf_counter()
        self._ends.append(t1)
        self._durations.append(t1 - t0)

    def __enter__(self):
        for _ in range(WINDOW):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def samples(self) -> int:
        return len(self._durations)

    def measure(self, start: float, end: float) -> tuple:
        """(own seconds, reference seconds) of an op that ran from start to end."""
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._ends, end)
        inside = self._durations[lo:hi]
        own = (end - start) - sum(inside)
        window = inside if len(inside) >= WINDOW else self._durations[max(0, hi - WINDOW):hi]
        return own, own * NOMINAL_S * len(window) / sum(window)
