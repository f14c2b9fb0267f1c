"""Haar-random unitaries for the tests, one draw at a time.

``random_unitary`` is also the independent reference for the stacked
draws of ``nonlocality._haar_starts`` (``TestHaarStarts``), so it keeps
its own QR.
"""

import numpy as np


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Ginibre matrix)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
