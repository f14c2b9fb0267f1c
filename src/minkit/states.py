"""Bipartite quantum states: validation, named families, and decompositions.

The JSON state-file format used by the CLI lives here too:
``{"dims": [dA, dB], "re": [[...]], "im": [[...]]}`` with row-major
real/imaginary parts of the density matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PAULIS,
    PSD_CLAMP,
    dagger,
    hermitian_eig,
    is_hermitian,
    partial_trace,
)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10


class StateFormatError(ValueError):
    """Raised when a state file or raw payload cannot be parsed."""


class StateInvariantError(ValueError):
    """Raised when a matrix fails a density-matrix invariant."""


@dataclass(frozen=True)
class DensityMatrix:
    """Validated bipartite state: Hermitian, unit trace, PSD."""

    mat: np.ndarray
    dims: tuple[int, int]

    @property
    def da(self) -> int:
        return self.dims[0]

    @property
    def db(self) -> int:
        return self.dims[1]


@dataclass(frozen=True)
class PureState:
    """Unit vector on a bipartite Hilbert space (row-major amplitudes)."""

    amplitudes: np.ndarray
    dims: tuple[int, int]


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt data of a pure state.

    ``coefficients`` are the squared Schmidt numbers (probabilities),
    descending, summing to one.  ``basis_a``/``basis_b`` hold the matching
    orthonormal local vectors as columns.
    """

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray


@dataclass(frozen=True)
class BlochForm:
    """Two-qubit Pauli decomposition: local vectors and correlation tensor.

    ``c`` is the diagonal of ``t`` and equals the correlation triple once
    the tensor is diagonal (e.g. after ``canonicalize``); entries may be
    negative.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    c: np.ndarray


def validate(mat: np.ndarray, dims: tuple[int, int]) -> DensityMatrix:
    """Check density-matrix invariants and wrap the matrix.

    Raises ``StateInvariantError`` naming the first failed invariant:
    positive dims, shape, Hermiticity (1e-10/entry), unit trace (1e-10),
    positivity (eigenvalues above the clamp tolerance).
    """
    da, db = int(dims[0]), int(dims[1])
    if da < 1 or db < 1:
        raise StateInvariantError(f"dims must be positive, got {dims}")
    mat = np.asarray(mat, dtype=complex)
    n = da * db
    if mat.shape != (n, n):
        raise StateInvariantError(f"expected shape {(n, n)} for dims {dims}, got {mat.shape}")
    if not is_hermitian(mat, HERM_TOL):
        raise StateInvariantError("matrix is not Hermitian within 1e-10")
    w = np.linalg.eigvalsh((mat + dagger(mat)) / 2)
    if w.min() < -PSD_CLAMP:
        raise StateInvariantError(f"negative eigenvalue {w.min():.3e} beyond clamp tolerance")
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateInvariantError(f"trace is {tr:.12g}, expected 1")
    return DensityMatrix(mat=mat, dims=(da, db))


def pure_state(amplitudes: np.ndarray, dims: tuple[int, int]) -> PureState:
    """Wrap amplitudes as a ``PureState``, checking unit norm (1e-12)."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    da, db = dims
    if v.size != da * db:
        raise StateInvariantError(f"vector length {v.size} incompatible with dims {dims}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-12:
        raise StateInvariantError(f"vector norm {norm:.12g}, expected 1")
    return PureState(amplitudes=v, dims=(int(da), int(db)))


def density_from_pure(psi: PureState) -> DensityMatrix:
    """Outer product |psi><psi| as a validated state."""
    v = psi.amplitudes
    return validate(np.outer(v, v.conj()), psi.dims)


def reduced_state(rho: DensityMatrix, party: str = "A") -> np.ndarray:
    """Reduced density matrix of ``party`` (traces out the other one)."""
    other = "B" if party == "A" else "A"
    return partial_trace(rho.mat, rho.dims, other)


def schmidt(psi: PureState) -> SchmidtForm:
    """Schmidt decomposition via SVD of the amplitude matrix."""
    da, db = psi.dims
    m = psi.amplitudes.reshape(da, db)
    u, s, vh = np.linalg.svd(m)
    k = min(da, db)
    return SchmidtForm(coefficients=(s[:k] ** 2), basis_a=u[:, :k], basis_b=vh[:k, :].T)


def schmidt_reconstruct(form: SchmidtForm) -> np.ndarray:
    """Amplitude vector rebuilt from Schmidt data."""
    roots = np.sqrt(np.clip(form.coefficients, 0.0, None))
    return ((form.basis_a * roots) @ form.basis_b.T).ravel()


def eof_pure(form: SchmidtForm) -> float:
    """Entropy of the Schmidt coefficients in bits (0 log 0 = 0)."""
    lam = np.clip(form.coefficients, 0.0, 1.0)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum())


# ---------------------------------------------------------------------------
# Two-qubit Pauli decomposition and canonical form
# ---------------------------------------------------------------------------


# (I, sigma_x, sigma_y, sigma_z): the two-qubit Pauli basis is their pairwise
# tensor products.
_PAULI_BASIS = np.concatenate([np.eye(2, dtype=complex)[None], PAULIS])


def bloch_matrix(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Two-qubit matrix from local Bloch vectors and correlation tensor."""
    coeffs = np.vstack([np.r_[1.0, y], np.column_stack([x, t])])
    # out[(a, b), (c, d)] = sum_ij coeffs[i, j] s_i[a, c] s_j[b, d] / 4
    out = np.einsum("ij,iac,jbd->abcd", coeffs, _PAULI_BASIS, _PAULI_BASIS)
    return out.reshape(4, 4) / 4


def bloch_decompose(rho: DensityMatrix) -> BlochForm:
    """Pauli expectation values of a two-qubit state."""
    if rho.dims != (2, 2):
        raise ValueError(f"two-qubit decomposition needs dims (2, 2), got {rho.dims}")
    # coeffs[i, j] = tr(rho s_i x s_j), summed over the (2, 2, 2, 2) reshape
    coeffs = np.einsum(
        "abcd,ica,jdb->ij", rho.mat.reshape(2, 2, 2, 2), _PAULI_BASIS, _PAULI_BASIS
    ).real
    t = coeffs[1:, 1:].copy()
    return BlochForm(x=coeffs[1:, 0].copy(), y=coeffs[0, 1:].copy(), t=t, c=np.diagonal(t).copy())


def canonicalize(rho: DensityMatrix) -> tuple[DensityMatrix, BlochForm]:
    """Rotate a two-qubit state by local unitaries to diagonalize its tensor.

    The correlation tensor is SVD-factored, T = O1 diag(c) O2^T, with
    determinant signs absorbed so both O1 and O2 are proper rotations; local
    unitaries act on Bloch vectors as these rotations, so the rotated state
    has local vectors O1^T x, O2^T y and tensor ``diag(c)``.  The entries of
    ``c`` are ordered by decreasing magnitude; the last carries the sign
    that the proper-rotation constraint forces.
    """
    form = bloch_decompose(rho)
    u, s, vh = np.linalg.svd(form.t)
    d1 = float(np.sign(np.linalg.det(u))) or 1.0
    d2 = float(np.sign(np.linalg.det(vh))) or 1.0
    c = np.array([s[0], s[1], d1 * d2 * s[2]])
    x = (u.T @ form.x) * [1.0, 1.0, d1]
    y = (vh @ form.y) * [1.0, 1.0, d2]
    t = np.diag(c)
    return validate(bloch_matrix(x, y, t), (2, 2)), BlochForm(x=x, y=y, t=t, c=c)


# ---------------------------------------------------------------------------
# Named state families
# ---------------------------------------------------------------------------


def bell_diagonal_weights(c: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Bell-diagonal state with correlation triple ``c``.

    ``c`` may be a stack of triples (..., 3); the weights are on the last
    axis (..., 4).  The transposes put the triple axis first and back, so
    one triple is computed on scalars.
    """
    c1, c2, c3 = np.asarray(c, dtype=float).T
    return np.array(
        [
            (1 + c1 - c2 + c3) / 4,
            (1 - c1 + c2 + c3) / 4,
            (1 + c1 + c2 - c3) / 4,
            (1 - c1 - c2 - c3) / 4,
        ]
    ).T


def in_tetrahedron(c: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether a correlation triple is physical."""
    return bool(bell_diagonal_weights(c).min() >= -tol)


def make_bell_diagonal(c: np.ndarray) -> DensityMatrix:
    """Two-qubit state with zero local vectors and tensor ``diag(c)``."""
    if not in_tetrahedron(c):
        raise StateInvariantError(
            f"correlation triple {tuple(c)} lies outside the physical tetrahedron"
        )
    return validate(bloch_matrix(np.zeros(3), np.zeros(3), np.diag(c)), (2, 2))


def swap_operator(d: int) -> np.ndarray:
    """Exchange operator sum_ij |ij><ji| on a d x d system."""
    # eye[i, j, k, l] = delta_ik delta_jl; swapping k and l gives |ij><ji|
    eye = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    return eye.transpose(0, 1, 3, 2).reshape(d * d, d * d)


def max_entangled(d: int) -> np.ndarray:
    """Amplitudes of the d x d maximally entangled state."""
    return np.eye(d, dtype=complex).ravel() / np.sqrt(d)


def make_werner(d: int, x: float) -> DensityMatrix:
    """Werner state on d x d, mixing parameter ``x`` in [-1, 1]."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [-1, 1], got {x}")
    denom = d**3 - d
    mat = (d - x) / denom * np.eye(d * d, dtype=complex) + (d * x - 1) / denom * swap_operator(d)
    return validate(mat, (d, d))


def make_isotropic(d: int, x: float) -> DensityMatrix:
    """Isotropic state on d x d, fidelity ``x`` in [0, 1] with the maximally entangled state."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    phi = max_entangled(d)
    proj = np.outer(phi, phi.conj())
    denom = d * d - 1
    mat = (1 - x) / denom * np.eye(d * d, dtype=complex) + (d * d * x - 1) / denom * proj
    return validate(mat, (d, d))


# ---------------------------------------------------------------------------
# Random ensembles (explicit seeding, no global RNG)
# ---------------------------------------------------------------------------


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_pure(dims: tuple[int, int], seed) -> PureState:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    rng = _as_rng(seed)
    n = dims[0] * dims[1]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return pure_state(v / np.linalg.norm(v), dims)


def random_density(dims: tuple[int, int], rank: int, seed) -> DensityMatrix:
    """Ginibre-induced random mixed state of the given rank."""
    rng = _as_rng(seed)
    n = dims[0] * dims[1]
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}], got {rank}")
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ dagger(g)
    return validate(m / np.trace(m).real, dims)


# Correlation triples of the four maximally entangled two-qubit basis states;
# their convex hull is the physical tetrahedron.
_BELL_TRIPLES = np.array(
    [[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]]
)


def random_bell_triple(seed) -> np.ndarray:
    """Uniform-weight random correlation triple inside the tetrahedron."""
    rng = _as_rng(seed)
    return rng.dirichlet(np.ones(4)) @ _BELL_TRIPLES


# ---------------------------------------------------------------------------
# Family detection (used by the CLI "auto" method and the relation checks)
# ---------------------------------------------------------------------------


def detect_family(rho: DensityMatrix, tol: float = 1e-9) -> tuple[str, dict]:
    """Classify a state as pure / bell_diagonal / werner / isotropic / generic.

    Returns the family name plus the parameters needed by the closed-form
    evaluators.  Detection order is fixed; each test compares the defining
    residual against ``tol``.
    """
    mat = rho.mat
    da, db = rho.dims
    eig = hermitian_eig(mat)
    if eig.eigenvalues[0] >= 1.0 - tol:
        v = eig.eigenvectors[:, 0]
        v = v / np.linalg.norm(v)
        if np.abs(mat - np.outer(v, v.conj())).max() <= 10 * tol:
            psi = pure_state(v, rho.dims)
            return "pure", {"psi": psi, "schmidt": schmidt(psi)}
    if rho.dims == (2, 2):
        form = bloch_decompose(rho)
        off = form.t - np.diag(np.diagonal(form.t))
        if (
            np.linalg.norm(form.x) <= tol
            and np.linalg.norm(form.y) <= tol
            and np.abs(off).max() <= tol
        ):
            return "bell_diagonal", {"c": form.c}
    if da == db:
        d = da
        swap = swap_operator(d)
        # Least-squares projection onto span{I, SWAP}; Gram entries Tr I = d^2,
        # Tr SWAP = d.
        gram = np.array([[d * d, d], [d, d * d]], dtype=float)
        rhs = np.array([np.trace(mat).real, np.trace(mat @ swap).real])
        a, b = np.linalg.solve(gram, rhs)
        if np.abs(mat - a * np.eye(d * d) - b * swap).max() <= tol:
            x = (b * (d**3 - d) + 1) / d
            if -1.0 - 1e-9 <= x <= 1.0 + 1e-9:
                return "werner", {"d": d, "x": float(np.clip(x, -1.0, 1.0))}
        phi = max_entangled(d)
        proj = np.outer(phi, phi.conj())
        x = float((phi.conj() @ mat @ phi).real)
        if 0.0 - 1e-9 <= x <= 1.0 + 1e-9:
            xc = float(np.clip(x, 0.0, 1.0))
            model = (1 - xc) / (d * d - 1) * np.eye(d * d) + (d * d * xc - 1) / (d * d - 1) * proj
            if np.abs(mat - model).max() <= tol:
                return "isotropic", {"d": d, "x": xc}
    return "generic", {}


# ---------------------------------------------------------------------------
# State file I/O
# ---------------------------------------------------------------------------


def state_to_json(rho: DensityMatrix) -> dict:
    """JSON-serializable payload in the shared state-file schema."""
    return {
        "dims": [rho.da, rho.db],
        "re": rho.mat.real.tolist(),
        "im": rho.mat.imag.tolist(),
    }


def state_from_json(payload: dict) -> DensityMatrix:
    """Parse and validate a state payload; format errors raise ``StateFormatError``."""
    try:
        dims = payload["dims"]
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise StateFormatError(f"malformed state payload: {exc}") from exc
    if len(dims) != 2:
        raise StateFormatError(f"dims must have two entries, got {dims!r}")
    if re.ndim != 2 or re.shape != im.shape:
        raise StateFormatError(f"re/im must be equal-shape 2-D arrays, got {re.shape} vs {im.shape}")
    return validate(re + 1j * im, (int(dims[0]), int(dims[1])))


def load_state(path) -> DensityMatrix:
    """Read a density matrix from a JSON state file."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StateFormatError(f"cannot read state file {path}: {exc}") from exc
    return state_from_json(payload)


def save_state(rho: DensityMatrix, path) -> None:
    """Write a density matrix to a JSON state file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(state_to_json(rho), fh, allow_nan=False)
        fh.write("\n")
