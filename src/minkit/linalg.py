"""Dense complex linear-algebra kernels shared by all higher-level modules.

Everything here operates on plain ``numpy`` arrays (complex128, row-major)
and is a pure function of its inputs: no global state, safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Eigenvalues in (-PSD_CLAMP, 0) are round-off and get clamped to zero;
# anything more negative is treated as genuine non-positivity.
PSD_CLAMP = 1e-10
HERMITIAN_TOL = 1e-10

# Pauli matrices, indexed 0..2 (x, y, z).
PAULIS = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """Entrywise Hermiticity check with tolerance ``tol``."""
    return bool(np.max(np.abs(m - dagger(m))) <= tol)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two operators (A acts first, B second)."""
    return np.kron(a, b)


def _local_action(mat: np.ndarray, ops, dims: tuple[int, int], party: str) -> np.ndarray:
    """Sum_k (K_k x I) mat (K_k x I)^dag (party "A") or (I x K_k) ... (party "B").

    ``ops`` is a stack (k, d, d) of operators on that party, or a batch of
    stacks (N, k, d, d), which gives N outputs.  Works on the
    (dA, dB, dA, dB) reshape of ``mat``: the left factor is one matrix
    product for the whole batch, the right factor one ``einsum``; no
    operator is lifted to the full space.
    """
    da, db = dims
    n = da * db
    ops = np.asarray(ops)
    lead = ops.shape[:-2]
    if party == "A":
        # left[..., k, a, b, d, e] = sum_c K[a, c] mat[(c, b), (d, e)]
        left = (ops.reshape(-1, da) @ mat.reshape(da, db * n)).reshape(lead + (n, da, db))
        out = np.einsum("...kfd,...kxde->...xfe", ops.conj(), left)
    elif party == "B":
        # left[..., k, b, a, (d, e)] = sum_c K[b, c] mat[(a, c), (d, e)]
        rows = mat.reshape(da, db, n).transpose(1, 0, 2).reshape(db, da * n)
        left = (ops.reshape(-1, db) @ rows).reshape(lead + (db, da, da, db))
        out = np.einsum("...kbade,...kfe->...abdf", left, ops.conj())
    else:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    return out.reshape(lead[:-1] + (n, n))


def partial_trace(m: np.ndarray, dims: tuple[int, int], party: str) -> np.ndarray:
    """Trace out one party of a bipartite operator.

    Parameters
    ----------
    m : ndarray
        Square operator of dimension ``dims[0] * dims[1]``.
    dims : (dA, dB)
        Subsystem dimensions.
    party : "A" | "B"
        Which subsystem to trace out.  Tracing "A" returns a dB x dB
        operator, tracing "B" a dA x dA one.
    """
    da, db = dims
    if m.shape != (da * db, da * db):
        raise ValueError(f"operator shape {m.shape} incompatible with dims {dims}")
    t = m.reshape(da, db, da, db)
    if party == "A":
        return np.einsum("abad->bd", t)
    if party == "B":
        return np.einsum("abcb->ac", t)
    raise ValueError(f"party must be 'A' or 'B', got {party!r}")


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values.

    Hermitian inputs (the only case the nonlocality measures produce) go
    through the eigenvalue route, which is symmetric and cheap; anything
    else falls back to a full SVD.
    """
    if m.shape[0] == m.shape[1] and is_hermitian(m, 1e-10 * max(1.0, np.abs(m).max(initial=0.0))):
        return float(np.abs(np.linalg.eigvalsh(m)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())


def hs_norm(m: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(m))


@dataclass(frozen=True)
class HermEig:
    """Spectral resolution of a Hermitian matrix.

    ``eigenvalues`` are real and descending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns, each phase-fixed so its
    first non-negligible component is real positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m: np.ndarray, tol: float = HERMITIAN_TOL) -> HermEig:
    """Eigendecomposition of a Hermitian matrix with deterministic ordering.

    Raises ``ValueError`` if ``m`` is not Hermitian within ``tol`` per entry.
    """
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((m + dagger(m)) / 2)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-8)
        if nz.size:
            phase = col[nz[0]] / abs(col[nz[0]])
            v[:, k] = col / phase
    return HermEig(eigenvalues=w, eigenvectors=v)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues within ``PSD_CLAMP`` of zero are clamped; more negative
    ones raise ``ValueError``.
    """
    eig = hermitian_eig(m)
    w = eig.eigenvalues
    floor = -PSD_CLAMP * max(1.0, float(np.abs(w).max(initial=0.0)))
    if w.min(initial=0.0) < floor:
        raise ValueError(f"matrix has negative eigenvalue {w.min():.3e}, not PSD")
    root = np.sqrt(np.clip(w, 0.0, None))
    v = eig.eigenvectors
    out = (v * root) @ dagger(v)
    return (out + dagger(out)) / 2


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ``[Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2`` in [0, 1]."""
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    s = psd_sqrt(rho)
    inner = s @ sigma @ s
    w = np.linalg.eigvalsh((inner + dagger(inner)) / 2)
    val = float(np.sqrt(np.clip(w, 0.0, None)).sum()) ** 2
    return float(min(max(val, 0.0), 1.0))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Ginibre matrix)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
