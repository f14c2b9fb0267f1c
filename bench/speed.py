"""Host-speed probe for the benchmark's time metrics.

On a shared 2-core host (Python 3.11, numpy 2.4, OpenBLAS on one thread)
the speed of one process drifted by 20-30% for seconds to minutes at a
time: ten 20-second runs of ``block_states``, whose cost does not depend on
the seed, gave 3.36 to 4.85 operations per second even with each
operation's best time.  The slow-downs outlast one operation, so a fixed
kernel that never touches minkit, timed right before and right after an
operation, slows down with it.  In five runs of ``block_states`` the best
times gave 3.01-4.29 operations per second raw and 4.00-4.23 after dividing
each operation's time by the mean of its two kernel times and multiplying
by ``REFERENCE_S``.  Those runs timed the kernel once on each side; taking
the median of three on each side brought the quartile spread of
``cli_figures`` throughput over five seeds from 13.6% to 8.7% (the same
seeds, some minutes apart).  Every time the benchmark reports is scaled this
way: it reads as on a host that runs the kernel in ``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time in the quietest runs on that host.
REFERENCE_S = 1.1e-3


class SpeedProbe:
    """A fixed mix of small dense linear algebra and Python overhead, the
    same kind of work minkit does."""

    def __init__(self):
        rng = np.random.default_rng(20140218)
        g = rng.standard_normal((6, 6, 6)) + 1j * rng.standard_normal((6, 6, 6))
        self._mats = g @ np.conj(np.swapaxes(g, -1, -2))
        b = rng.standard_normal((64, 8, 8))
        self._batch = b + np.swapaxes(b, -1, -2)
        self._eye = np.eye(2)

    def seconds(self) -> float:
        """Run the kernel once and return how long it took."""
        t0 = time.perf_counter()
        for m in self._mats:
            _, v = np.linalg.eigh(m)
            big = np.kron(v, self._eye)
            x = big.conj().T @ np.kron(m, self._eye) @ big
            np.abs(np.linalg.eigvalsh((x + x.conj().T) / 2)).sum()
        np.linalg.eigvalsh(self._batch).sum()
        sum(i * i for i in range(300))
        return time.perf_counter() - t0

    def speed(self) -> float:
        """Median of three kernel times: one run alone can catch a hiccup of
        the host and mis-scale a whole operation."""
        return sorted(self.seconds() for _ in range(3))[1]

    def timed(self, fn):
        """Call ``fn``; return its result, its raw time and its time at
        reference speed."""
        before = self.speed()
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        return result, elapsed, at_reference(elapsed, before, self.speed())


def at_reference(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` scaled by the kernel times measured just before and after."""
    return elapsed * REFERENCE_S / ((before + after) / 2)
