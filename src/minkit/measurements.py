"""Locally invariant projective measurements on the measured party.

A measurement here is a complete set of mutually orthogonal projectors on
party A; the families produced by ``invariant_family`` enumerate exactly
the measurements that leave a given reduced state fixed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, _local_action, _tolerance, hermitian_eig, is_hermitian
from .states import DensityMatrix, validate

PROJECTOR_TOL = 1e-10
DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class LocalMeasurement:
    """Complete set of mutually orthogonal projectors on party A."""

    projectors: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


def local_measurement(projectors) -> LocalMeasurement:
    """Validate projector axioms (Hermitian, idempotent, orthogonal, complete),
    each to 1e-10 per entry (``HERMITIAN_TOL``, ``PROJECTOR_TOL``).  An empty
    list raises ``ValueError``."""
    ps = tuple(np.asarray(p, dtype=complex) for p in projectors)
    if not ps:
        raise ValueError("projectors must not be empty")
    d = ps[0].shape[0]
    total = np.zeros((d, d), dtype=complex)
    for k, p in enumerate(ps):
        if p.shape != (d, d):
            raise ValueError("projectors must share one square shape")
        if not is_hermitian(p):
            raise ValueError(f"projector {k} is not Hermitian")
        if np.abs(p @ p - p).max() > PROJECTOR_TOL:
            raise ValueError(f"projector {k} is not idempotent")
        total += p
    for j in range(len(ps)):
        for k in range(j + 1, len(ps)):
            if np.abs(ps[j] @ ps[k]).max() > PROJECTOR_TOL:
                raise ValueError(f"projectors {j} and {k} are not orthogonal")
    if np.abs(total - np.eye(d)).max() > PROJECTOR_TOL:
        raise ValueError("projectors do not sum to the identity")
    return LocalMeasurement(projectors=ps)


def apply_projectors(mat: np.ndarray, m: LocalMeasurement, db: int) -> np.ndarray:
    """Post-measurement matrix sum_k (P_k x I) mat (P_k x I), unvalidated."""
    return _local_action(mat, m.projectors, (m.dim, db), "A")


def apply_measurement(rho: DensityMatrix, m: LocalMeasurement) -> DensityMatrix:
    """Measure party A without reading the outcome; returns a valid state."""
    if m.dim != rho.da:
        raise ValueError(f"measurement dimension {m.dim} != dA {rho.da}")
    return validate(apply_projectors(rho.mat, m, rho.db), rho.dims)


def _unit_directions(e_hat) -> np.ndarray:
    """``e_hat`` (..., 3) as floats; a norm off 1 by more than 1e-10, or NaN, raises."""
    e = np.asarray(e_hat, dtype=float)
    norms = np.linalg.norm(e, axis=-1)
    bad = ~(np.abs(norms - 1.0) <= 1e-10)  # negated so that a NaN norm counts as bad
    if bad.any():
        raise ValueError(f"direction must be a unit vector, |e| = {norms[bad].flat[0]:.12g}")
    return e


def sphere_measurement(e_hat: np.ndarray) -> LocalMeasurement:
    """Qubit measurement along a unit Bloch direction, checked by ``_unit_directions``."""
    e = _unit_directions(e_hat)
    es = e[0] * PAULIS[0] + e[1] * PAULIS[1] + e[2] * PAULIS[2]
    i2 = np.eye(2, dtype=complex)
    return LocalMeasurement(projectors=((i2 + es) / 2, (i2 - es) / 2))


@dataclass(frozen=True)
class MeasurementFamily:
    """All rank-1 projective measurements leaving a reduced state invariant.

    Each member is the eigenbasis columns (``basis``, eigenvalues
    descending) turned by a unitary inside each degenerate block;
    ``blocks`` lists (offset, size).  When every block has size 1
    (``len(blocks) == dA``) the family is the one measurement on the
    ``basis`` columns, with zero free parameters.  Otherwise some block has
    size >= 2; for dA = 2 that is the one block ((0, 2),), every direction
    on the Bloch sphere.
    """

    basis: np.ndarray
    blocks: tuple[tuple[int, int], ...]


def _turned(basis: np.ndarray, blocks, block_unitaries) -> np.ndarray:
    """The columns of a basis (..., d, d), or of each in a stack, turned by
    one unitary (..., s, s) per block of size s >= 2, in block order."""
    cols = basis.copy()
    it = iter(block_unitaries)
    for off, size in blocks:
        if size >= 2:
            cols[..., off : off + size] = cols[..., off : off + size] @ next(it)
    return cols


def _rank_one_projectors(cols: np.ndarray) -> np.ndarray:
    """The projectors (..., d, d, d) on the columns of a basis (..., d, d) or of each in a stack."""
    rows = cols.swapaxes(-1, -2)
    return rows[..., :, :, None] * rows.conj()[..., :, None, :]


def invariant_family(
    rho_a: np.ndarray, degeneracy_tol: float = DEGENERACY_TOL
) -> MeasurementFamily | list[MeasurementFamily]:
    """Enumerate the invariant rank-1 measurements of a reduced state.

    Eigenvalues closer than ``degeneracy_tol`` are grouped into one block;
    near-degenerate spectra are deliberately treated as degenerate because
    the induced measurement (and the nonlocality value) is discontinuous
    across the gap closing.  A stack (N, dA, dA) of reduced states takes one
    ``hermitian_eig`` call and gives a list of N families.  A tolerance
    that is negative or not finite raises ``ValueError``.
    """
    _tolerance("degeneracy_tol", degeneracy_tol)
    eig = hermitian_eig(rho_a)
    # where each descending spectrum has a gap wider than the tolerance
    gaps = (eig.eigenvalues[..., :-1] - eig.eigenvalues[..., 1:] > degeneracy_tol).tolist()
    if eig.eigenvalues.ndim == 1:
        return MeasurementFamily(eig.eigenvectors, _blocks(tuple(gaps)))
    return [MeasurementFamily(v, blocks)  # positional: a stack builds many
            for blocks, v in zip(map(_blocks, map(tuple, gaps)), eig.eigenvectors)]


@functools.lru_cache(maxsize=256)
def _blocks(gaps: tuple[bool, ...]) -> tuple[tuple[int, int], ...]:
    """Blocks of a family whose spectrum has a gap after eigenvalue k
    exactly where ``gaps[k]``."""
    starts = [0] + [k + 1 for k, gap in enumerate(gaps) if gap] + [len(gaps) + 1]
    return tuple((a, b - a) for a, b in zip(starts, starts[1:]))
