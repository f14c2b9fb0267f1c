"""Bipartite quantum states: validation, named families, and decompositions.

The JSON state-file format used by the CLI lives here too:
``{"dims": [dA, dB], "re": [[...]], "im": [[...]]}`` with row-major
real/imaginary parts of the density matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN_TOL,
    PAULIS,
    PSD_CLAMP,
    _integer,
    dagger,
    hermitian_eig,
    partial_trace,
)

TRACE_TOL = 1e-10
# A physical correlation triple's least Bell-diagonal weight is at least -TETRAHEDRON_TOL.
TETRAHEDRON_TOL = 1e-12
# The residual below which ``detect_family`` accepts a family's test.
FAMILY_TOL = 1e-9


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

    x_i = tr(rho s_i x I), y_j = tr(rho I x s_j) and t_ij = tr(rho s_i x s_j).
    Once ``t`` is diagonal (e.g. after ``canonicalize``) its diagonal is the
    correlation triple; entries may be negative.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray


def validate(mat: np.ndarray, dims: tuple[int, int]) -> DensityMatrix | list[DensityMatrix]:
    """Check density-matrix invariants and wrap the matrix.

    Dims that are not two integers raise ``ValueError``.  Otherwise raises
    ``StateInvariantError`` naming the first failed invariant: positive
    dims, shape, finite entries, Hermiticity (1e-10/entry),
    positivity (eigenvalues above the clamp tolerance), unit trace (1e-10).
    One matrix, or each of a stack (N, n, n), which gives a list of N
    states, is checked in one stacked pass, so a matrix raises the same
    message alone and in a stack; the first matrix that fails raises.
    """
    da, db = _dims(dims)
    if da < 1 or db < 1:
        raise StateInvariantError(f"dims must be positive, got {dims}")
    mat = np.asarray(mat, dtype=complex)
    n = da * db
    if mat.shape[-2:] != (n, n) or mat.ndim not in (2, 3):
        raise StateInvariantError(f"expected shape {(n, n)} for dims {dims}, got {mat.shape}")
    stack = mat.reshape(-1, n, n)
    # one pass over the stack, with zeros in place of the non-finite matrices
    finite = np.isfinite(stack).all(axis=(-2, -1))
    safe = stack if finite.all() else np.where(finite[:, None, None], stack, 0.0)
    hermitian = np.abs(safe - dagger(safe)).max(axis=(-2, -1)) <= HERMITIAN_TOL
    low = np.linalg.eigvalsh((safe + dagger(safe)) / 2).min(axis=-1)
    tr = np.trace(safe, axis1=-2, axis2=-1)
    ok = finite & hermitian & (low >= -PSD_CLAMP) & (np.abs(tr - 1.0) <= TRACE_TOL)
    if not ok.all():
        k = int(np.argmin(ok))
        if not finite[k]:
            raise StateInvariantError("matrix has non-finite entries")
        if not hermitian[k]:
            raise StateInvariantError(f"matrix is not Hermitian within {HERMITIAN_TOL:g}")
        if low[k] < -PSD_CLAMP:
            raise StateInvariantError(f"negative eigenvalue {low[k]:.3e} beyond clamp tolerance")
        raise StateInvariantError(f"trace is {tr[k]:.12g}, expected 1")
    states = [DensityMatrix(mat=m, dims=(da, db)) for m in stack]
    return states if mat.ndim == 3 else states[0]


def pure_state(amplitudes: np.ndarray, dims: tuple[int, int]) -> PureState:
    """Wrap amplitudes as a ``PureState``, checking integer dims and unit norm (1e-12)."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    da, db = _dims(dims)
    if v.size != da * db:
        raise StateInvariantError(f"vector length {v.size} incompatible with dims {dims}")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= 1e-12:  # negated so that a NaN norm counts as bad
        raise StateInvariantError(f"vector norm {norm:.12g}, expected 1")
    return PureState(amplitudes=v, dims=(da, db))


def density_from_pure(psi: PureState) -> DensityMatrix:
    """Outer product |psi><psi| as a validated state."""
    v = psi.amplitudes
    return validate(np.outer(v, v.conj()), psi.dims)


def schmidt(psi: PureState) -> SchmidtForm:
    """Schmidt decomposition via SVD of the amplitude matrix."""
    da, db = psi.dims
    m = psi.amplitudes.reshape(da, db)
    u, s, vh = np.linalg.svd(m)
    k = min(da, db)
    return SchmidtForm(coefficients=(s[:k] ** 2), basis_a=u[:, :k], basis_b=vh[:k, :].T)


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
    return BlochForm(x=coeffs[1:, 0].copy(), y=coeffs[0, 1:].copy(), t=coeffs[1:, 1:].copy())


def canonicalize(rho: DensityMatrix) -> tuple[DensityMatrix, BlochForm]:
    """Rotate a two-qubit state by local unitaries to diagonalize its tensor.

    The correlation tensor is SVD-factored, T = O1 diag(c) O2^T, with
    determinant signs absorbed so both O1 and O2 are proper rotations; local
    unitaries act on Bloch vectors as these rotations, so the rotated state
    has local vectors O1^T x, O2^T y and tensor ``diag(c)``; the triple
    ``c`` is ``np.diagonal(form.t)``.  Its entries are ordered by decreasing
    magnitude; the last carries the sign that the proper-rotation
    constraint forces.
    """
    form = bloch_decompose(rho)
    u, s, vh = np.linalg.svd(form.t)
    d1 = float(np.sign(np.linalg.det(u))) or 1.0
    d2 = float(np.sign(np.linalg.det(vh))) or 1.0
    c = np.array([s[0], s[1], d1 * d2 * s[2]])
    x = (u.T @ form.x) * [1.0, 1.0, d1]
    y = (vh @ form.y) * [1.0, 1.0, d2]
    t = np.diag(c)
    return validate(bloch_matrix(x, y, t), (2, 2)), BlochForm(x=x, y=y, t=t)


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


def in_tetrahedron(c: np.ndarray) -> bool | np.ndarray:
    """Whether a correlation triple (a bool), or each of a stack (..., 3) (a mask), is physical:
    its Bell-diagonal weights are at least -``TETRAHEDRON_TOL`` (-1e-12)."""
    inside = bell_diagonal_weights(c).min(axis=-1) >= -TETRAHEDRON_TOL
    return bool(inside) if inside.ndim == 0 else inside


def make_bell_diagonal(c: np.ndarray) -> DensityMatrix:
    """Two-qubit state with zero local vectors and tensor ``diag(c)``."""
    if not in_tetrahedron(c):
        raise StateInvariantError(
            f"correlation triple {tuple(map(float, c))} lies outside the physical tetrahedron"
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


def _check_family_args(d: int, x: float, low: float) -> None:
    """Check an integer d >= 2 and x in [low, 1]: -1 for Werner, 0 for isotropic; a NaN x fails."""
    if _integer("d", d) < 2 or not low <= x <= 1.0:
        raise ValueError("d must be >= 2" if d < 2 else f"x must lie in [{low:g}, 1], got {x}")


def make_werner(d: int, x: float) -> DensityMatrix:
    """Werner state on d x d, mixing parameter ``x`` in [-1, 1]."""
    _check_family_args(d, x, -1.0)
    denom = d**3 - d
    mat = (d - x) / denom * np.eye(d * d, dtype=complex) + (d * x - 1) / denom * swap_operator(d)
    return validate(mat, (d, d))


def make_isotropic(d: int, x: float) -> DensityMatrix:
    """Isotropic state on d x d, fidelity ``x`` in [0, 1] with the maximally entangled state."""
    _check_family_args(d, x, 0.0)
    phi = max_entangled(d)
    proj = np.outer(phi, phi.conj())
    denom = d * d - 1
    mat = (1 - x) / denom * np.eye(d * d, dtype=complex) + (d * d * x - 1) / denom * proj
    return validate(mat, (d, d))


# ---------------------------------------------------------------------------
# Random ensembles (explicit seeding, no global RNG)
# ---------------------------------------------------------------------------


def _as_rng(seed) -> np.random.Generator:
    """``seed`` itself when it is a ``Generator``, else a generator seeded by
    it; any seed but an integer raises ``ValueError``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_integer("seed", seed))


def _dims(dims) -> tuple[int, int]:
    """(dA, dB) as ints; dims that are not two integers raise ``ValueError``."""
    if len(dims) != 2:
        raise ValueError(f"dims must be two integers, got {dims!r}")
    return _integer("dims", dims[0]), _integer("dims", dims[1])


def _ginibre(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Ginibre array: real, then imaginary parts from one ``standard_normal`` call."""
    re, im = rng.standard_normal((2, *shape))
    return re + 1j * im


def _haar_q(g: np.ndarray) -> np.ndarray:
    """Q of the QR of a Ginibre matrix (n, k), its columns rephased by R's diagonal."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_pure(dims: tuple[int, int], seed) -> PureState:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    v = _ginibre(_as_rng(seed), (math.prod(_dims(dims)),))
    return pure_state(v / np.linalg.norm(v), dims)


def random_density(dims: tuple[int, int], rank: int, seed) -> DensityMatrix:
    """Ginibre-induced random mixed state of the given rank."""
    return validate(_ginibre_density(math.prod(_dims(dims)), rank, _as_rng(seed)), dims)


def _ginibre_density(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """The unvalidated n x n matrix of ``random_density``, with its draws."""
    if not 1 <= _integer("rank", rank) <= n:
        raise ValueError(f"rank must lie in [1, {n}], got {rank}")
    g = _ginibre(rng, (n, rank))
    m = g @ dagger(g)
    return m / np.trace(m).real


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


def detect_family(rho: DensityMatrix) -> tuple[str, dict]:
    """Classify a state as pure / bell_diagonal / werner / isotropic / generic.

    Returns the family name plus the parameters needed by the closed-form
    evaluators.  Detection order is fixed; each test compares the defining
    residual against ``FAMILY_TOL`` (1e-9), after a cheaper necessary
    condition: purity for "pure", rho_A near a multiple of I for "werner"
    and "isotropic".
    """
    tol = FAMILY_TOL
    mat = rho.mat
    da, db = rho.dims
    # lambda_max^2 <= tr rho^2 = sum |rho_ij|^2; the slack covers round-off
    may_be_pure = np.vdot(mat, mat).real >= max(1.0 - tol, 0.0) ** 2 - 1e-12
    if may_be_pure and (eig := hermitian_eig(mat)).eigenvalues[0] >= 1.0 - tol:
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
            return "bell_diagonal", {"c": np.diagonal(form.t).copy()}
    if da == db:
        d = da
        # both models have rho_A = c I; a residual of tol moves rho_A by <= d tol entrywise
        ra = partial_trace(mat, rho.dims, "B")
        diag = ra.diagonal().real
        if max(np.ptp(diag) / 2, np.abs(ra - np.diag(diag)).max()) > d * tol * (1 + 1e-9) + 1e-12:
            return "generic", {}
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
    # two integers: a bool is not one, an integral float such as 2.0 is
    if not (isinstance(dims, (list, tuple)) and len(dims) == 2 and all(
            isinstance(d, (int, np.integer)) and not isinstance(d, bool)
            or isinstance(d, float) and d.is_integer() for d in dims)):
        raise StateFormatError(f"dims must be two integers, got {dims!r}")
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
