"""Dense complex linear-algebra kernels shared by all higher-level modules.

Everything here operates on plain ``numpy`` arrays (complex128, row-major)
and is a pure function of its inputs: no global state, safe to call
concurrently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# Eigenvalues in (-PSD_CLAMP, 0) are round-off and get clamped to zero;
# anything more negative is treated as genuine non-positivity.
PSD_CLAMP = 1e-10
HERMITIAN_TOL = 1e-10
# Eigenvalues of a PSD matrix at most this fraction of its largest lie
# outside the support on which the fidelity is taken.
_SUPPORT_TOL = 1e-12

# Pauli matrices, indexed 0..2 (x, y, z).
PAULIS = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def _integer(name: str, value) -> int:
    """``value`` as an int: ints and numpy integers pass, anything else (a
    float, say, which would fail later inside numpy) raises ``ValueError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


def _tolerance(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and >= 0 (NaN is not)."""
    if not 0 <= value < np.inf:  # negated so that NaN fails it too
        raise ValueError(f"{name} must be finite and >= 0")


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose; a stack (..., n, m) is transposed matrix by matrix."""
    return m.conj().swapaxes(-1, -2)


def is_hermitian(m: np.ndarray) -> bool:
    """Entrywise Hermiticity check, within ``HERMITIAN_TOL`` (1e-10) per entry."""
    return bool(np.abs(m - dagger(m)).max() <= HERMITIAN_TOL)


def _local_action(mat, ops, dims: tuple[int, int], party: str) -> np.ndarray:
    """Sum_k (K_k x I) mat (K_k x I)^dag (party "A") or (I x K_k) ... (party "B").

    ``ops`` is a stack (k, d, d) of operators on that party, or a batch of
    stacks (N, k, d, d), which gives N outputs; on party "A" they may be
    rectangular, (k, s, dA), which gives outputs (s dB) x (s dB).  ``mat``
    is one matrix or a stack (N, n, n), which gives N outputs under the
    same operators; a stack with a batch pairs matrix i with operator stack
    i.  Each output is bitwise the one that matrix gives alone.  Works on
    the (dA, dB, dA, dB) reshape of ``mat``: the left factor is one matrix
    product for the whole batch, or one per pair, the right factor one
    ``einsum``; no operator is lifted to the full space.
    """
    da, db = dims
    n = da * db
    mat, ops = np.asarray(mat), np.asarray(ops)
    stack, lead = mat.shape[:-2], ops.shape[:-2]
    paired = bool(stack) and len(lead) > 1
    if paired and (len(stack), len(lead)) != (1, 2):
        raise ValueError("a stack of N matrices pairs with a batch (N, k, d, d) of operators")
    pre, outer = (lead[:1], lead) if paired else ((), stack + lead)  # leading shapes
    if party == "A":
        # left[..., k, a, b, d, e] = sum_c K[a, c] mat[(c, b), (d, e)]
        left = ops.reshape(pre + (-1, da)) @ mat.reshape(stack + (da, db * n))
        left = left.reshape(outer + (-1, da, db))
        out = np.einsum("...kfd,...kxde->...xfe", ops.conj(), left)
    elif party == "B":
        # left[..., k, b, a, (d, e)] = sum_c K[b, c] mat[(a, c), (d, e)]
        rows = np.swapaxes(mat.reshape(stack + (da, db, n)), -3, -2).reshape(stack + (db, da * n))
        left = (ops.reshape(pre + (-1, db)) @ rows).reshape(outer + (db, da, da, db))
        out = np.einsum("...kbade,...kfe->...abdf", left, ops.conj())
    else:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    return out.reshape(outer[:-1] + (out.shape[-2] * out.shape[-1],) * 2)


def partial_trace(m: np.ndarray, dims: tuple[int, int], party: str) -> np.ndarray:
    """Trace out one party of a bipartite operator.

    Parameters
    ----------
    m : ndarray
        Square operator of dimension ``dims[0] * dims[1]``, or a stack
        (N, n, n) of them, which gives a stack of N results.
    dims : (dA, dB)
        Subsystem dimensions.
    party : "A" | "B"
        Which subsystem to trace out.  Tracing "A" returns a dB x dB
        operator, tracing "B" a dA x dA one.
    """
    da, db = dims
    if m.shape[-2:] != (da * db, da * db) or m.ndim > 3:
        raise ValueError(f"operator shape {m.shape} incompatible with dims {dims}")
    t = m.reshape(m.shape[:-2] + (da, db, da, db))
    if party == "A":
        return np.einsum("...abad->...bd", t)
    if party == "B":
        return np.einsum("...abcb->...ac", t)
    raise ValueError(f"party must be 'A' or 'B', got {party!r}")


@dataclass(frozen=True)
class HermEig:
    """Spectral resolution of a Hermitian matrix.

    ``eigenvalues`` are real and descending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns, each phase-fixed so its
    first non-negligible component is real positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m: np.ndarray) -> HermEig:
    """Eigendecomposition of a Hermitian matrix with deterministic ordering.

    A stack (N, n, n) gives stacked eigenvalues (N, n) and eigenvectors
    (N, n, n) in one ``eigh`` call, each matrix's bitwise what it gives
    alone.  Raises ``ValueError`` if any matrix is not Hermitian within
    ``HERMITIAN_TOL`` (1e-10) per entry.
    """
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((m + dagger(m)) / 2)
    w, v = w[..., ::-1].copy(), v[..., ::-1]
    # first component above 1e-8 of each column; a unit vector always has one
    lead = (np.abs(v) > 1e-8).argmax(axis=-2)
    # the modulus by hypot: np.abs of a complex array can differ from the
    # scalar abs in the last bit, hypot does not
    cols = v.swapaxes(-1, -2).reshape(-1, v.shape[-1])
    heads = cols[np.arange(len(cols)), lead.ravel()]
    phase = (heads / np.hypot(heads.real, heads.imag)).reshape(lead.shape)
    return HermEig(eigenvalues=w, eigenvectors=v / phase[..., None, :])


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


def support_roots(mats: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Ascending eigenvalues (N, n) of a stack of PSD matrices (N, n, n), and
    per matrix W (n, rank) with mat = W W^dag on its support, the eigenvalues
    above ``_SUPPORT_TOL`` times the largest; ``eigh`` reads lower triangles."""
    w, v = np.linalg.eigh(mats)
    n, ranks = w.shape[-1], (w > _SUPPORT_TOL * w[:, -1:]).sum(-1).tolist()
    return w, [vk[:, n - r :] * np.sqrt(wk[n - r :]) for wk, vk, r in zip(w, v, ranks)]


def support_fidelity(roots: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Fidelity of rho = W W^dag and sigma on the support of rho, for stacks W
    (..., n, r) and sigma (..., n, n): [sum sqrt(max(c, 0))]^2, capped at 1,
    over the eigenvalues c of W^dag sigma W."""
    c = np.linalg.eigvalsh(dagger(roots) @ sigma @ roots)
    return np.minimum(np.sqrt(np.maximum(c, 0.0)).sum(-1) ** 2, 1.0)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ``[Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2`` of Hermitian PSD
    rho and sigma (both checked; traces are not), on the support of rho by
    ``support_fidelity`` as Bures MIN is, capped at 1."""
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    if not (is_hermitian(rho) and is_hermitian(sigma)):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, (root,) = support_roots(rho[None])
    for v in (w[0], np.linalg.eigvalsh(sigma)):
        if v.min() < -PSD_CLAMP * max(1.0, float(np.abs(v).max())):
            raise ValueError(f"matrix has negative eigenvalue {v.min():.3e}, not PSD")
    return float(support_fidelity(root, sigma))
