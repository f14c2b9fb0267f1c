"""Measurement-induced nonlocality (MIN) measures.

Three measures of the maximal disturbance achievable with locally
invariant projective measurements on party A:

* trace MIN      -- trace-norm distance between pre- and post-measurement
                    states (the primary measure here),
* HS MIN         -- squared Hilbert-Schmidt distance (the conventional
                    measure, kept for comparisons),
* Bures MIN      -- 2 * (1 - sqrt(fidelity)), numeric only.

Closed-form evaluators cover 2xn pure states, arbitrary two-qubit states,
and the Werner / isotropic families; ``*_numeric`` optimizers act as
independent oracles by maximizing over the invariant-measurement family
directly.  ``relation_audit`` and ``oracle_audit`` check the two against
each other on seeded ensembles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PAULIS,
    _integer,
    _local_action,
    dagger,
    partial_trace,
    support_fidelity,
    support_roots,
)
from .measurements import (
    DEGENERACY_TOL,
    KIND_QUBIT_SPHERE,
    KIND_UNIQUE,
    LocalMeasurement,
    _rank_one_projectors,
    _turned,
    _unit_directions,
    invariant_family,
)
from .states import (
    DensityMatrix,
    SchmidtForm,
    _as_rng,
    _check_family_args,
    _ginibre,
    _haar_q,
    bloch_decompose,
    canonicalize,
    density_from_pure,
    detect_family,
    make_bell_diagonal,
    make_isotropic,
    make_werner,
    random_bell_triple,
    random_density,
    random_pure,
)

# Practical bound on dA * dB for the numeric optimizers.
DIM_LIMIT = 64

METHOD_CLOSED = "ClosedForm"
METHOD_UNIQUE = "NumericUnique"
METHOD_SPHERE = "NumericSphere"
METHOD_BLOCK = "NumericBlock"


class DimensionLimitError(ValueError):
    """Raised when a state exceeds the numeric-optimizer dimension bound."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the numeric maximizers.

    ``degeneracy_tol`` doubles as the eigenvalue-gap threshold for the
    invariant-measurement family and as the branch threshold of the
    two-qubit closed form; the measures are discontinuous across it, so it
    is exposed rather than hidden.

    With a degenerate marginal (the qubit sphere is the one-block case
    dA = 2) HS MIN takes Jacobi sweeps from the identity until a sweep
    gains at most ``tol``, or one exact pair step when the family has one
    index pair (the qubit sphere, or dA = 3 split 2 + 1); ``restarts`` and
    ``seed`` do not apply to it.
    Trace and Bures MIN ascend from the identity, the HS optimum and
    2 * ``restarts`` Haar block unitaries drawn from ``seed``; a start
    stops once its predicted gain is at most ``tol``, and its step grows
    while it sees no positive curvature (``_BlockSearch.ascend``); on a
    family with one index pair each trial step is also cut to tangent norm
    1/2, which keeps a long step from wrapping around the Bloch sphere
    (with more pairs a cut would move starts to other local maxima).  The
    result is the first start within ``tol`` of the best, so that ties go
    to the identity; its value can sit up to ``tol`` below the best start's.
    The states of one call whose families share their blocks take the same
    Haar starts and one lockstep, each with the result it gives alone.
    """

    restarts: int = 4
    tol: float = 1e-10
    seed: int = 0
    degeneracy_tol: float = DEGENERACY_TOL

    def __post_init__(self):
        for name in ("restarts", "seed"):
            _integer(name, getattr(self, name))
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        # a negated range test, so that NaN fails it too
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not 0 <= self.degeneracy_tol < math.inf:
            raise ValueError("degeneracy_tol must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class MinResult:
    """Value of a MIN measure plus how it was obtained."""

    value: float
    method: str
    measurement: LocalMeasurement | None = None
    axis: np.ndarray | None = None
    iterations: int = 0


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


# Schmidt coefficients at most this large count as zero in the 2xn pure forms.
_SCHMIDT_TOL = 1e-9


def _two_schmidt(form: SchmidtForm) -> tuple[float, float]:
    lam = np.sort(np.clip(form.coefficients, 0.0, None))[::-1]
    if (lam[2:] > _SCHMIDT_TOL).any():
        raise ValueError("state has more than two nonzero Schmidt coefficients")
    l2 = float(lam[1]) if lam.size > 1 else 0.0
    return float(lam[0]), l2


def trace_min_pure(form: SchmidtForm) -> float:
    """Trace MIN of a 2xn pure state: ``2 sqrt(l1 l2)``.

    Continuous through the balanced point l1 = l2 = 1/2, where it equals 1.
    """
    l1, l2 = _two_schmidt(form)
    return 2.0 * math.sqrt(l1 * l2)


def hs_min_pure(form: SchmidtForm) -> float:
    """HS MIN of a 2xn pure state: ``2 l1 l2``."""
    l1, l2 = _two_schmidt(form)
    return 2.0 * l1 * l2


def max_entangled_trace_min(m: int) -> float:
    """Trace MIN of a maximally entangled m x n pure state (n >= m)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return 2.0 * (m - 1) / m


def trace_min_two_qubit(rho: DensityMatrix, degenerate_tol: float = DEGENERACY_TOL) -> MinResult:
    """Trace MIN of an arbitrary two-qubit state, in closed form.

    With local vector x and correlation tensor T, the disturbance of the
    measurement along the unit vector e is 1/4 sum_ij [(I - e e^T) T]_ij
    sigma_i x sigma_j, whose trace norm is the largest singular value of
    (I - e e^T) T.  With a nondegenerate marginal (|x| above
    ``degenerate_tol``) the measurement is fixed, e = x/|x|; at x = 0 the
    maximum over the sphere is the largest singular value of T.  Local
    rotations keep singular values, so no canonical frame is needed.
    """
    return MinResult(value=_two_qubit_value(rho, True, degenerate_tol), method=METHOD_CLOSED)


def hs_min_two_qubit(rho: DensityMatrix, degenerate_tol: float = DEGENERACY_TOL) -> MinResult:
    """HS MIN of an arbitrary two-qubit state, in closed form.

    The squared Hilbert-Schmidt norm of the disturbance along e is
    1/4 ||(I - e e^T) T||_F^2, with e = x/|x| for a nondegenerate marginal;
    at x = 0 the maximum over the sphere is a quarter of the sum of the two
    largest squared singular values of T.
    """
    return MinResult(value=_two_qubit_value(rho, False, degenerate_tol), method=METHOD_CLOSED)


def _two_qubit_value(rho: DensityMatrix, trace: bool, degenerate_tol: float) -> float:
    """Trace (``trace``) or HS closed form of a two-qubit state."""
    if rho.dims != (2, 2):
        raise ValueError(f"two-qubit closed form needs dims (2, 2), got {rho.dims}")
    form = bloch_decompose(rho)
    xn = float(np.linalg.norm(form.x))
    if xn <= degenerate_tol:
        return _bell_diagonal_value(np.linalg.svd(form.t, compute_uv=False), trace)
    xh = form.x / xn
    pt = form.t - np.outer(xh, xh @ form.t)
    if trace:
        return float(np.linalg.svd(pt, compute_uv=False)[0])
    return float((pt**2).sum()) / 4.0


def trace_min_werner(d: int, x: float) -> float:
    """Trace MIN of the d x d Werner state: ``|dx - 1| / (d + 1)``."""
    _check_family_args(d, x, -1.0)
    return abs(d * x - 1.0) / (d + 1)


def hs_min_werner(d: int, x: float) -> float:
    """HS MIN of the d x d Werner state."""
    _check_family_args(d, x, -1.0)
    return (d * x - 1.0) ** 2 / (d * (d - 1) * (d + 1) ** 2)


def trace_min_isotropic(d: int, x: float) -> float:
    """Trace MIN of the d x d isotropic state: ``2|d^2 x - 1| / (d(d+1))``."""
    _check_family_args(d, x, 0.0)
    return 2.0 * abs(d * d * x - 1.0) / (d * (d + 1))


def hs_min_isotropic(d: int, x: float) -> float:
    """HS MIN of the d x d isotropic state."""
    _check_family_args(d, x, 0.0)
    return (d * d * x - 1.0) ** 2 / (d * (d + 1) ** 2 * (d - 1))


def closed_form(rho: DensityMatrix, measure: str,
                degeneracy_tol: float = DEGENERACY_TOL) -> float | None:
    """Closed-form value of ``measure`` when the state's family has one.

    ``measure`` is "n1" (trace MIN), "n2" (HS MIN) or "nb" (Bures MIN, which
    has no closed form).  Returns None when no closed form applies.
    ``degeneracy_tol`` is the branch threshold of the two-qubit closed forms;
    pass the numeric optimizer's ``OptimizerConfig.degeneracy_tol`` so both
    sides split the branches at the same |x|.
    """
    if measure not in ("n1", "n2", "nb"):
        raise ValueError(f"measure must be 'n1', 'n2' or 'nb', got {measure!r}")
    if measure == "nb":
        return None
    return _closed_value(rho, measure == "n1", *detect_family(rho), degeneracy_tol)


def _bell_diagonal_value(c, trace: bool) -> float | np.ndarray:
    """Trace MIN (largest |c_i|) or HS MIN (sum of the two largest c_i^2, over 4)
    of the Bell-diagonal state with correlation triple ``c``, or of each
    triple in a stack (N, 3)."""
    a = np.sort(np.abs(c), axis=-1)[..., ::-1]
    value = a[..., 0] if trace else (a[..., 0] ** 2 + a[..., 1] ** 2) / 4.0
    return float(value) if np.ndim(value) == 0 else value


def _closed_value(
    rho: DensityMatrix, trace: bool, family: str, params: dict, degeneracy_tol: float
) -> float | None:
    """Trace (``trace``) or HS closed form for a state of a detected family."""
    if family == "pure":
        form = params["schmidt"]
        if rho.da == 2:
            return trace_min_pure(form) if trace else hs_min_pure(form)
        m = rho.da
        if rho.db >= m and np.abs(form.coefficients - 1.0 / m).max() <= 1e-9:
            return max_entangled_trace_min(m) if trace else (m - 1) / m
        return None
    if family == "bell_diagonal":
        return _bell_diagonal_value(params["c"], trace)
    if family == "werner":
        return (trace_min_werner if trace else hs_min_werner)(params["d"], params["x"])
    if family == "isotropic":
        return (trace_min_isotropic if trace else hs_min_isotropic)(params["d"], params["x"])
    if rho.dims == (2, 2):
        return (trace_min_two_qubit if trace else hs_min_two_qubit)(rho, degeneracy_tol).value
    return None


def direction_objective(e_hat: np.ndarray, c: np.ndarray) -> float | np.ndarray:
    """Closed-form sphere objective for states with diagonal tensor and x = 0.

    For the Bell-diagonal state with correlation triple ``c`` measured
    along the unit direction ``e_hat``, the returned value equals twice the
    squared trace-norm disturbance, 2 s_max((I - e e^T) diag(c))^2; its
    sphere maximum is twice the squared largest |c_i|.  ``e_hat`` may be
    one direction (a float is returned) or a stack (N, 3) (an (N,) array),
    checked by ``_unit_directions``.
    """
    e = _unit_directions(e_hat)
    p = np.eye(3) - e[..., :, None] * e[..., None, :]
    s = np.linalg.svd(p * np.asarray(c, dtype=float), compute_uv=False)[..., 0]
    return float(2.0 * s**2) if e.ndim == 1 else 2.0 * s**2


# ---------------------------------------------------------------------------
# Numeric optimizers
# ---------------------------------------------------------------------------


def sphere_directions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Polar grid on the unit sphere, row-major in (theta, phi).

    Theta runs over ``n + 1`` values including both poles, phi over ``n``
    values including 0; for ``n`` divisible by 4 the grid contains all six
    coordinate-axis directions, where several closed-form optima sit.
    Returns (angles (N, 2), unit vectors (N, 3)).  ``n`` must be an integer
    >= 1; anything else raises ``ValueError``.
    """
    n = _integer("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    thetas = np.linspace(0.0, np.pi, n + 1)
    phis = np.arange(n) * (2.0 * np.pi / n)
    tt, pp = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    vecs = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1)
    return np.column_stack([tt, pp]), vecs


def _bloch_axis(p: np.ndarray) -> np.ndarray:
    """The Bloch axis e of a qubit projector p = (I + e.sigma)/2, by ``_canonical_axis``."""
    # + 0.0 turns the -0.0 of a negated zero into 0.0
    return _canonical_axis(np.array([2.0 * p[0, 1].real, -2.0 * p[0, 1].imag,
                                     (p[0, 0] - p[1, 1]).real]) + 0.0)


def _canonical_axis(axis: np.ndarray) -> np.ndarray:
    """The one of +-axis (the same measurement) whose first nonzero
    coordinate in the order (z, y, x) is positive."""
    leading = axis[::-1][axis[::-1] != 0.0]
    if leading.size and leading[0] < 0.0:
        return 0.0 - axis  # not -axis, which would turn zeros into -0.0
    return axis


# Smoothing widths of the block ascent, one stage each; the cap on the
# steps of the last stage, and of each stage before it, which only
# warm-starts the next one; the factor by which the ascent lengthens its
# step after an accepted step that shows no positive curvature; the bound
# on the tangent norm of a trial step on a family with one index pair; the
# cap on Jacobi sweeps.
_SMOOTHING = (1e-3, 1e-6, 1e-9)
_ASCENT_STEPS = 500
_WARM_STEPS = 40
_STRETCH = 4.0
_PAIR_STEP = 0.5
_JACOBI_SWEEPS = 100


def _pauli_blocks(pair: np.ndarray) -> np.ndarray:
    """Gamma_m = tr_A[(sigma_m x I) pair], stacked (..., 3, dB, dB), for a
    qubit-by-B operator (..., 2, dB, 2, dB)."""
    return np.einsum("ica,...abcd->...ibd", PAULIS, pair)


def _pauli_gram(gam: np.ndarray) -> np.ndarray:
    """G_mn = Re tr(Gamma_m Gamma_n) for a stack ``_pauli_blocks`` (..., 3, dB, dB)."""
    return np.einsum("...ibd,...jdb->...ij", gam, gam).real


def _pair_rotation(n: np.ndarray) -> np.ndarray:
    """Unitary whose columns are the +1 and -1 eigenvectors of n.sigma, for a
    unit vector n with n_z >= 0; n = +z gives the identity."""
    c = math.sqrt((1.0 + n[2]) / 2)
    s = complex(n[0], n[1]) / (2 * c)
    return np.array([[c, -s.conjugate()], [s, c]])


def _bfgs_update(inv: np.ndarray, s: np.ndarray, y: np.ndarray,
                 fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """BFGS update of inverse-Hessian estimates (k, p, p) by steps ``s`` and
    gradient changes ``y``, and the mask (k,) of the pairs it took.  A pair
    without positive curvature (s.y at most 1e-16 |s| |y|, compared squared)
    is skipped.  A ``fresh`` estimate, still the identity, is first scaled by
    s.y / y.y (Shanno and Phua), so that its size matches the curvature seen
    along the first step."""
    sy, yy = (s * y).sum(-1), (y * y).sum(-1)
    curved = (sy > 0.0) & (sy * sy > 1e-32 * (s * s).sum(-1) * yy)
    r = curved / np.where(curved, sy, 1.0)
    scale = fresh & curved
    if scale.any():
        inv = inv * np.where(scale, sy / np.where(scale, yy, 1.0), 1.0)[:, None, None]
    # inv + (1 + r y.hy) r s s^T - r (hy s^T + s hy^T)
    rs, hy = r[:, None] * s, (inv @ y[..., None])[..., 0]
    cross = hy[:, :, None] * rs[:, None, :]
    ss = ((1.0 + r * (y * hy).sum(-1))[:, None] * rs)[:, :, None] * s[:, None, :]
    return inv + ss - cross - np.swapaxes(cross, -1, -2), curved


@functools.lru_cache(maxsize=None)
def _value_mask(da: int, bures: bool) -> np.ndarray:
    """The A blocks of rho~ that the value reads, as a (dA, 1, dA, 1) mask: the
    off-diagonal ones (rho~ - D(rho~)) for trace and HS, the diagonal ones
    (D(rho~)) for Bures.  One read-only constant per (dA, measure)."""
    diag = np.eye(da)[:, None, :, None]
    mask = diag if bures else 1.0 - diag
    mask.flags.writeable = False
    return mask


class _BlockSearch:
    """One measure over the invariant families of a stack of states that
    share their blocks, each in the eigenbasis frame of its rho_A.

    ``which`` is "trace" (trace norm), "hs" (squared HS norm) or "bures"
    (2(1 - sqrt(fidelity))).  A point is a unitary U (dA x dA) acting inside
    the degenerate blocks; it stands for the measurement on the columns of
    ``fam.basis @ U``.  With rho~ = (U^dag x I) rho (U x I) in that frame,
    the post-measurement state is D(rho~), the diagonal A blocks of rho~.

    With nondegenerate marginals there is no free parameter: ``values()``
    evaluates each state at U = I, all in one spectral call.  Otherwise the
    states are searched together in rows, (state, U) pairs: a method that
    takes U's ``us`` (k, dA, dA) takes each row's state in ``state`` (k,),
    and a row's arithmetic is what it is alone.  ``evals`` counts each
    state's framed evaluations (an int for one state).  Bures is taken on the
    support of rho = W W^dag, from the W (N, n, rank) ``roots`` of
    ``support_roots``, by ``support_fidelity``: the kernel of
    ``minkit.fidelity``.

    ``bounded`` cuts the ascent's trial steps on a family with one index
    pair (the qubit sphere, or dA = 3 split 2 + 1), where the pair rotation
    of a long step wraps around the sphere; with more pairs a cut changes
    which local maximum a start reaches, so their steps stay uncut.
    """

    def __init__(self, mats: np.ndarray, dims: tuple[int, int], which: str,
                 bases: np.ndarray, blocks: tuple[tuple[int, int], ...],
                 roots: np.ndarray | None = None):
        self.which, self.dims, self.da = which, dims, dims[0]
        # V x I for the eigenbasis V of each rho_A
        lift = np.einsum("nac,bd->nabcd", bases, np.eye(dims[1])).reshape(mats.shape)
        self.rho = dagger(lift) @ mats @ lift
        self.mask = _value_mask(self.da, which == "bures")
        self.root = None if roots is None else dagger(lift) @ roots  # W in the frame
        self.scatter = None
        if len(blocks) == self.da:  # every block has size 1: no free parameter
            return
        self.evals = 0 if len(mats) == 1 else np.zeros(len(mats), dtype=int)
        # tangent coordinates: real and imaginary parts of H_ij, i < j in a block
        self.pairs = [[off + i, off + j] for off, size in blocks
                      for i in range(size) for j in range(i + 1, size)]
        self.rows, self.cols = np.array(self.pairs, dtype=int).T
        if max(size for _, size in blocks) == 2:
            # flat positions of each pair's two diagonal and two off-diagonal
            # entries in a dA x dA matrix, and I flattened, for ``rotations``
            r, c = self.rows * self.da, self.cols * self.da
            self.scatter = np.concatenate(
                [r + self.rows, c + self.cols, r + self.cols, c + self.rows])
            self.flat_eye = np.eye(self.da, dtype=complex).ravel()

    def frames(self, us: np.ndarray, state: np.ndarray) -> np.ndarray:
        """rho~ of each row, shaped (k, s, dB, s, dB) for ``us`` (k, dA, s):
        with s < dA the rows and columns of rho~ on those s columns of U."""
        self.evals += len(us) if len(self.rho) == 1 else np.bincount(state, minlength=len(self.rho))
        rho = self.rho[0] if len(self.rho) == 1 else self.rho[state]  # one state: no gather
        out = _local_action(rho, dagger(us)[:, None], self.dims, "A")
        return out.reshape((len(us),) + (us.shape[-1], self.dims[1]) * 2)

    def _spectral(self, us: np.ndarray, rt: np.ndarray, state: np.ndarray | None = None):
        """The masked blocks of each frame as a matrix, rho~ - D(rho~) for
        trace and D(rho~) for Bures, and for Bures W~ = (U^dag x I) W.
        ``state`` picks each row's W; with ``state`` None the rows are the
        states, and ``us`` broadcasts against them."""
        k, n = len(rt), self.rho.shape[-1]
        x = (rt * self.mask).reshape(k, n, n)
        if self.which == "trace":
            return x, None
        root = self.root if state is None or len(self.root) == 1 else self.root[state]
        return x, (dagger(us) @ root.reshape(len(root), self.da, -1)).reshape(k, n, -1)

    def values(self, us: np.ndarray | None = None, state: np.ndarray | None = None) -> np.ndarray:
        """The measure of each row, from the spectrum that ``smoothed`` uses;
        with ``us`` None, that of each state at U = I."""
        rt = self.rho.reshape(-1, *self.dims * 2) if us is None else self.frames(us, state)
        if self.which == "hs":
            return (np.abs(rt * self.mask) ** 2).reshape(len(rt), -1).sum(-1)
        if us is None:
            us = np.eye(self.da, dtype=complex)[None]
        x, wt = self._spectral(us, rt, state)
        if self.which == "trace":
            return np.abs(np.linalg.eigvalsh(x)).sum(-1)
        return 2.0 * (1.0 - np.sqrt(support_fidelity(wt, x)))

    def jacobi(self, tol: float) -> np.ndarray:
        """HS optimum of each state (N, dA, dA), by Jacobi sweeps from the
        identity, the states in lockstep.

        Within span{i, j} the new projectors are (I +- n.sigma)/2, and the
        summed squared diagonal blocks are a constant plus n.G.n / 2 with
        G = ``_pauli_gram`` of that pair (which reads U's two pair columns
        only, so only they are framed); the exact step is the least
        eigenvector of G.  A step whose gain is round-off is not taken, and
        a state's sweeps stop once one gains at most ``tol``.  A family with
        one index pair (the qubit sphere, or dA = 3 split 2 + 1) takes one
        sweep: its one step is already the exact maximum.
        """
        u = np.eye(self.da, dtype=complex)[None].repeat(len(self.rho), 0)
        live = list(range(len(u)))
        for _ in range(_JACOBI_SWEEPS if len(self.pairs) > 1 else 1):
            gain = [0.0] * len(live)
            for pair in self.pairs:
                g = _pauli_gram(_pauli_blocks(self.frames(u[live][:, :, pair], live)))
                w, v = np.linalg.eigh(g)
                for r, row in enumerate(live):  # each row's step, as it takes it alone
                    step = (g[r, 2, 2] - w[r, 0]) / 2
                    if step > 1e-14 * np.trace(g[r]):
                        n = v[r, :, 0] if v[r, 2, 0] >= 0.0 else -v[r, :, 0]
                        u[row][:, pair] = u[row][:, pair] @ _pair_rotation(n)
                        gain[r] += step
            live = [row for row, gained in zip(live, gain) if gained > tol]
            if not live:
                break
        return u

    def spectrum(self, us: np.ndarray, state: np.ndarray) -> tuple:
        """The mu-free part of ``smoothed`` for each row, a tuple of arrays
        whose rows are those of ``us``: the frame rho~ and, for trace, the
        eigenpairs (w, v) of rho~ - D(rho~); for Bures, W~ and the eigenpairs
        (c, q) of W~^dag D(rho~) W~.  These are the framed evaluations that
        ``evals`` counts."""
        rt = self.frames(us, state)
        x, wt = self._spectral(us, rt, state)
        if self.which == "trace":
            return (rt, *np.linalg.eigh(x))
        return (rt, wt, *np.linalg.eigh(dagger(wt) @ x @ wt))

    def smoothed(self, spec: tuple, mu: float):
        """Smoothed value, true value and ascent gradient (k, p) of each row
        of a ``spectrum``; only this part depends on mu.

        Trace: sum sqrt(l^2 + mu^2) over the eigenvalues l of rho~ - D(rho~);
        the derivative along U exp(tH) is tr(H tr_B[S_off, rho~]) with
        S = X (X^2 + mu^2)^(-1/2) and S_off its off-diagonal A blocks.
        Bures: 2(1 - sum sqrt(c + mu^2)) over the eigenvalues c of
        C = W~^dag D(rho~) W~, where rho = W W^dag on the support and
        W~ = (U^dag x I) W; with Z = W~ (C + mu^2)^(-1/2) W~^dag the
        derivative is -tr(H tr_B[D(rho~), Z] + H tr_B[D(Z), rho~]).
        """
        if self.which == "trace":
            rt, w, v = spec
            root = np.sqrt(w * w + mu * mu)
            s = ((v * (w / root)[:, None, :]) @ dagger(v)).reshape(rt.shape) * self.mask
            m = np.einsum("nabcd,ncdeb->nae", s, rt)
            value, true = root.sum(-1), np.abs(w).sum(-1)
        else:
            rt, wt, c, q = spec
            root = np.sqrt(c + mu * mu)
            p = (wt @ q) / np.sqrt(root)[:, None, :]
            z = (p @ dagger(p)).reshape(rt.shape)
            m = -np.einsum("nabad,nadeb->nae", rt, z) - np.einsum("nabad,nadeb->nae", z, rt)
            value = 2.0 - 2.0 * root.sum(-1)
            true = 2.0 - 2.0 * np.sqrt(np.clip(c, 0.0, None)).sum(-1)
        h = m[:, self.cols, self.rows].conj() - m[:, self.rows, self.cols]
        return value, true, math.sqrt(2.0) * np.concatenate([h.real, h.imag], axis=-1)

    def rotations(self, x: np.ndarray) -> np.ndarray:
        """exp(H) for the anti-Hermitian H with tangent coordinates x (k, p).

        When no block is larger than 2 x 2, H is a direct sum of pair blocks
        [[0, v], [-v*, 0]], each with square -|v|^2 I, so exp(H) is
        cos|v| on each pair's diagonal, (sin|v| / |v|) H off it and I
        elsewhere: one scatter into copies of I.  Larger blocks take
        exp(-i w) in the eigenbasis of the Hermitian iH.
        """
        half = x.shape[1] // 2
        v = (x[:, :half] + 1j * x[:, half:]) / math.sqrt(2.0)
        if self.scatter is not None:
            theta = np.abs(v)
            # sin(theta) / theta, where theta = 0 means v = 0 and any factor will do
            sv = np.sin(theta) / np.where(theta > 0.0, theta, 1.0) * v
            c = np.cos(theta)
            out = np.empty((len(x), self.da * self.da), dtype=complex)
            out[:] = self.flat_eye
            out[:, self.scatter] = np.concatenate([c, c, sv, -sv.conj()], axis=1)
            return out.reshape(len(x), self.da, self.da)
        h = np.zeros((len(x), self.da, self.da), dtype=complex)
        h[:, self.rows, self.cols], h[:, self.cols, self.rows] = v, -v.conj()
        w, q = np.linalg.eigh(1j * h)
        return (q * np.exp(-1j * w)[:, None, :]) @ dagger(q)

    def restage(self, spec: tuple, us: np.ndarray, state: np.ndarray,
                moved: np.ndarray) -> tuple:
        """``spec`` of every row at the start of the next stage, in place: the
        rows ``moved`` (the starts that took trial steps in the stage before)
        are framed again at ``us``.  Every other row's U is unchanged, so its
        stored spectrum is bitwise what a new evaluation would give."""
        if moved.size:
            for kept, new in zip(spec, self.spectrum(us[moved], state[moved])):
                kept[moved] = new
        return spec

    def bounded(self, t: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Step lengths ``t`` (k,) along the directions ``d`` (k, p), cut so
        that no trial step t d has tangent norm above ``_PAIR_STEP`` when the
        family has one index pair; ``t`` itself for more pairs.  A cut row's
        pair turns by at most ``_PAIR_STEP`` / sqrt(2) rad.  A row whose t
        was halved keeps its d, so the cut leaves it as it is."""
        if len(self.pairs) > 1:
            return t
        # the floor keeps a zero d from dividing by zero
        return np.minimum(t, _PAIR_STEP / np.maximum(np.sqrt((d * d).sum(-1)), 1e-300))

    def ascend(self, starts: np.ndarray, tol: float) -> np.ndarray:
        """Best U of each state (N, dA, dA) after a quasi-Newton ascent from
        each of its starts ``starts`` (N, K, dA, dA), every row in lockstep.

        One stage per smoothing width in ``_SMOOTHING``, of at most
        ``_WARM_STEPS`` steps before the last and ``_ASCENT_STEPS`` in it.
        Each step tries U exp(t H) with H = (BFGS inverse Hessian) x
        gradient: an Armijo success takes it, a failure halves t.  After a
        success t resets to 1, unless the step showed no positive curvature
        (s.y <= 0 with y = g - g_trial, a pair that ``_bfgs_update`` skips):
        then the estimate has learned nothing, and t grows by ``_STRETCH``,
        so that a start on a flat or saddle-like patch does not creep at one
        short step.  On a family with one index pair, ``bounded`` cuts t at
        each stage start and after each step, so that no trial step turns
        the pair by more than ``_PAIR_STEP`` / sqrt(2) rad: there a BFGS
        step after a flat patch can ask for tangent norms of 60 and more,
        which wrap around the sphere and cost a halving each.  The
        inverse Hessian starts as I and carries over from
        stage to stage; a start's first accepted step scales it by s.y / y.y
        before the update.  A start stops once its predicted gain g.H is at
        most ``tol``, whether or not its last trial succeeded, or once t
        falls to 1e-10; a start with zero gradient stops at once.  Within a
        stage the arrays hold the live rows only, the accepted rows written
        in place (or the arrays rebound when every row is accepted); a row's
        U, value and estimate are written back to the full stack when it
        stops or the stage ends.

        Only mu changes between stages, so each row's ``spectrum`` is kept
        from one stage start to the next, and ``restage`` frames again only
        the starts that took steps; a start that does not move (on a flat
        objective, none does) is framed once for all the stages.  Trial
        steps are always framed anew.

        Each state's U is that of its first start within ``tol`` of its
        best, so that ties go to U = I; its value can therefore sit up to
        ``tol`` below the best start's.
        """
        (n, per), p = starts.shape[:2], 2 * len(self.rows)
        us, state = starts.reshape((-1,) + starts.shape[2:]), np.repeat(np.arange(n), per)
        inv, fresh = np.tile(np.eye(p), (n * per, 1, 1)), np.ones(n * per, dtype=bool)
        spec = self.spectrum(us, state)
        for mu in _SMOOTHING:
            if mu != _SMOOTHING[0]:
                spec = self.restage(spec, us, state, moved)
            val, true, grad = self.smoothed(spec, mu)
            live = moved = np.flatnonzero((grad**2).sum(-1) > tol * tol)
            if not live.size:
                continue
            u, h, new, rows = us[live], inv[live], fresh[live], state[live]
            val, tr, g = val[live], true[live], grad[live]
            d = (h @ g[..., None])[..., 0]
            slope, t = (g * d).sum(-1), self.bounded(np.ones(len(live)), d)
            for _ in range(_ASCENT_STEPS if mu == _SMOOTHING[-1] else _WARM_STEPS):
                if not live.size:
                    break
                step = t[:, None] * d
                trial = u @ self.rotations(step)
                tv, tt, tg = self.smoothed(self.spectrum(trial, rows), mu)
                ok = tv >= val + 1e-4 * t * slope
                updated, curved = _bfgs_update(h, step, g - tg, new)
                if ok.all():
                    h, u, val, tr, g = updated, trial, tv, tt, tg
                else:
                    h[ok], u[ok], val[ok], tr[ok], g[ok] = (
                        updated[ok], trial[ok], tv[ok], tt[ok], tg[ok])
                new &= ~ok
                # a row not taken keeps the h and g its d came from, so d is bitwise unchanged
                d = (h @ g[..., None])[..., 0]
                slope = (g * d).sum(-1)
                t = self.bounded(np.where(ok, np.where(curved, 1.0, _STRETCH * t), t / 2), d)
                stop = (slope <= tol) | (t < 1e-10)
                if stop.any():
                    gone = live[stop]
                    us[gone], inv[gone] = u[stop], h[stop]
                    fresh[gone], true[gone] = new[stop], tr[stop]
                    keep = ~stop
                    live, rows, u, h, new, val, tr, g, d, slope, t = (
                        a[keep] for a in (live, rows, u, h, new, val, tr, g, d, slope, t))
            us[live], inv[live], fresh[live], true[live] = u, h, new, tr
        # per state, the first start within tol of the best, so that ties go to U = I
        true = true.reshape(n, per)
        first = np.argmax(true >= true.max(-1, keepdims=True) - tol, axis=-1)
        return us.reshape(starts.shape)[np.arange(n), first]


@functools.lru_cache(maxsize=64)
def _haar_starts(blocks, da: int, count: int, seed: int) -> np.ndarray:
    """``count`` block-diagonal Haar unitaries (count, dA, dA), I on blocks of size 1.

    Start by start, then block by block, each block of size s >= 2 is
    ``_haar_q(_ginibre(rng, (s, s)))`` with ``rng = default_rng(seed)``.
    Memoized: one read-only array per argument set.
    """
    rng = np.random.default_rng(seed)
    out = np.tile(np.eye(da, dtype=complex), (count, 1, 1))
    for start in out:
        for off, size in blocks:
            if size >= 2:
                start[off : off + size, off : off + size] = _haar_q(_ginibre(rng, (size, size)))
    out.flags.writeable = False
    return out


def _optimize(rhos: list[DensityMatrix], cfg: OptimizerConfig, which: str) -> list[MinResult]:
    """Maximize over the block unitaries of each rho_A's invariant family.

    ``rhos`` share their dims; one ``MinResult`` per state comes back, in
    order, each bitwise what the state gives alone.  One partial trace and
    one ``hermitian_eig`` over the stack give the marginals' families; the
    states of one family shape (the same ``blocks``; for Bures also the
    same support rank) take one ``_BlockSearch``.  With a nondegenerate
    marginal there is no free parameter and the value is taken at U = I.
    Otherwise HS is the Jacobi optimum from I; trace and Bures ascend from
    I, the HS optimum and 2 ``cfg.restarts`` Haar block unitaries drawn once
    per shape from ``cfg.seed``, every start of every state in lockstep,
    and the value is taken once more at each returned U.  On the qubit
    sphere (dA = 2) the result also carries the Bloch axis of the first
    projector, by ``_canonical_axis``.
    """
    dims = rhos[0].dims
    if any(rho.dims != dims for rho in rhos):
        raise ValueError("the states of one call must share their dims")
    if dims[0] * dims[1] > DIM_LIMIT:
        raise DimensionLimitError(f"state dimension {dims[0] * dims[1]} exceeds the numeric "
                                  f"bound {DIM_LIMIT}")
    mats = np.array([rho.mat for rho in rhos])
    fams = invariant_family(partial_trace(mats, dims, "B"), cfg.degeneracy_tol)
    ranks = [0] * len(rhos)
    if which == "bures":  # rho = W W^dag on its support; a search has one rank
        roots = support_roots(mats)[1]
        ranks = [root.shape[1] for root in roots]
    shapes: dict = {}
    for i, (fam, rank) in enumerate(zip(fams, ranks)):
        shapes.setdefault((fam.kind, fam.blocks, rank), []).append(i)
    results: list = [None] * len(rhos)
    for (kind, blocks, rank), idx in shapes.items():
        bases = np.array([fams[i].basis for i in idx])
        stack = mats if len(idx) == len(rhos) else mats[idx]
        search = _BlockSearch(stack, dims, which, bases, blocks,
                              np.array([roots[i] for i in idx]) if rank else None)
        if kind == KIND_UNIQUE:
            values, iterations, cols, method = search.values(), [1] * len(idx), bases, METHOD_UNIQUE
        else:
            method = METHOD_SPHERE if kind == KIND_QUBIT_SPHERE else METHOD_BLOCK
            u = search.jacobi(cfg.tol)
            if which != "hs":
                haar = _haar_starts(blocks, dims[0], 2 * cfg.restarts, cfg.seed)
                starts = np.empty((len(u), 2 + len(haar)) + u.shape[1:], dtype=complex)
                starts[:, 0], starts[:, 1], starts[:, 2:] = np.eye(dims[0]), u, haar
                u = search.ascend(starts, cfg.tol)
            values = search.values(u, np.arange(len(u)))
            iterations = np.atleast_1d(search.evals).tolist()
            cols = _turned(bases, blocks, [u[:, o : o + s, o : o + s] for o, s in blocks if s > 1])
        projectors = zip(*_rank_one_projectors(cols).swapaxes(0, 1))
        for i, value, ps, n in zip(idx, values.tolist(), projectors, iterations):
            axis = _bloch_axis(ps[0]) if kind == KIND_QUBIT_SPHERE else None
            results[i] = MinResult(value, method, LocalMeasurement(ps), axis, n)
    return results


def trace_min_numeric(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> MinResult:
    """Maximize the trace-norm disturbance over invariant measurements."""
    return _optimize([rho], cfg or OptimizerConfig(), "trace")[0]


def hs_min_numeric(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> MinResult:
    """Maximize the squared HS-norm disturbance over invariant measurements."""
    return _optimize([rho], cfg or OptimizerConfig(), "hs")[0]


def bures_min_numeric(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> MinResult:
    """Maximize the Bures disturbance ``2(1 - sqrt(F))`` over invariant measurements."""
    return _optimize([rho], cfg or OptimizerConfig(), "bures")[0]


# ---------------------------------------------------------------------------
# Cross-measure identities per state family, and the audits
# ---------------------------------------------------------------------------


def relation_report(rho: DensityMatrix) -> dict:
    """Check the trace-vs-HS identity that applies to the state's family.

    The left side is the closed-form trace MIN; the right side applies the
    family identity to an independently maximized numeric HS MIN, taken
    with the default ``OptimizerConfig()``.  Raises
    ``ValueError`` for states outside the supported families.  A maximally
    entangled m x n pure state (m > 2) obeys the identity of the isotropic
    family it belongs to at unit fidelity.
    """
    return _relation_reports([rho], OptimizerConfig())[0]


def _relation_reports(rhos: list[DensityMatrix], cfg: OptimizerConfig) -> list[dict]:
    """``relation_report`` of each state, with the numeric HS values of the
    states of one dims from one ``_optimize`` call."""
    sides = [(rho, *detect_family(rho)) for rho in rhos]
    lhs = [None if family == "generic" else
           _closed_value(rho, True, family, params, cfg.degeneracy_tol)
           for rho, family, params in sides]
    if any(value is None for value in lhs):
        raise ValueError("state does not belong to a family with a known trace/hs identity")
    hs: dict = {}
    for dims in dict.fromkeys(rho.dims for rho in rhos):
        idx = [i for i, rho in enumerate(rhos) if rho.dims == dims]
        hs.update(zip(idx, (r.value for r in _optimize([rhos[i] for i in idx], cfg, "hs"))))
    reports = []
    for i, (rho, family, params) in enumerate(sides):
        d = params.get("d", rho.da)
        if family == "pure" and d > 2:
            identity, rhs = "trace = 2 sqrt((m-1) hs / m)", 2.0 * math.sqrt((d - 1) * hs[i] / d)
        elif family == "pure":
            identity, rhs = "trace = sqrt(2 * hs)", math.sqrt(2.0 * hs[i])
        elif family == "bell_diagonal":
            mid = np.sort(np.abs(params["c"]))[1]
            identity = "trace = sqrt(4 * hs - mid^2)"
            rhs = math.sqrt(max(4.0 * hs[i] - mid**2, 0.0))
        elif family == "werner":
            identity, rhs = "trace = sqrt(d (d-1) hs)", math.sqrt(d * (d - 1) * hs[i])
        else:
            identity, rhs = "trace = 2 sqrt((d-1) hs / d)", 2.0 * math.sqrt((d - 1) * hs[i] / d)
        report = {"family": family, "identity": identity, "lhs": float(lhs[i]), "rhs": float(rhs),
                  "residual": float(abs(lhs[i] - rhs))}
        if family in ("werner", "isotropic"):
            report["d"] = int(params["d"])
            report["x"] = float(params["x"])
        reports.append(report)
    return reports


def relation_audit(counts: int, seed: int, cfg: OptimizerConfig | None = None) -> dict:
    """``relation_report`` over the Werner (d = 2, 3, 4) and isotropic (d = 2, 3)
    families at 11 parameters each, ``counts`` seeded Bell-diagonal states and
    max(1, counts // 2) seeded 2x2 and 2x3 pure states, with the numeric HS
    values of all of them in one ``_optimize`` call per dims.

    A family state passes with a residual of at most 1e-10, a pure state
    with at most 1e-8; the audit passes when every state does.
    """
    if _integer("counts", counts) < 1:
        raise ValueError("counts must be >= 1")
    cfg = cfg or OptimizerConfig()
    rng = _as_rng(seed)
    families = [make_werner(d, float(x)) for d in (2, 3, 4) for x in np.linspace(-1.0, 1.0, 11)]
    families += [make_isotropic(d, float(x)) for d in (2, 3) for x in np.linspace(0.0, 1.0, 11)]
    families += [make_bell_diagonal(random_bell_triple(rng)) for _ in range(counts)]
    pure = [density_from_pure(random_pure((2, 2 + k % 2), rng)) for k in range(max(1, counts // 2))]
    cases = [{**report, "tolerance": 1e-10 if k < len(families) else 1e-8}
             for k, report in enumerate(_relation_reports(families + pure, cfg))]
    failures = [c for c in cases if c["residual"] > c["tolerance"]]
    return {
        "cases": cases,
        "n_cases": len(cases),
        "n_failures": len(failures),
        "max_residual": max(c["residual"] for c in cases),
        "passed": not failures,
    }


def _sumabs_reading(rho: DensityMatrix) -> float:
    """Two-qubit closed form with the sum-of-absolute-values Bloch norm.

    Diagnostic only: this alternative reading breaks projector
    normalization, so the oracle audit reports its residual next to the
    Euclidean reading rather than adopting it.
    """
    _, form = canonicalize(rho)
    c, x = form.c, form.x
    xn = float(np.abs(x).sum())
    if xn < 1e-8:
        return float(np.abs(c).max())
    cn = float(np.abs(c).sum())
    c2, x2 = c**2, x**2
    alpha = cn**2 * xn**2 - float((c2 * x2).sum())
    beta = float(x2[0] * c2[1] * c2[2] + x2[1] * c2[2] * c2[0] + x2[2] * c2[0] * c2[1])
    chi_p = alpha + 2.0 * math.sqrt(beta) * xn
    chi_m = alpha - 2.0 * math.sqrt(beta) * xn
    return (math.sqrt(max(chi_p, 0.0)) + math.sqrt(max(chi_m, 0.0))) / (2.0 * xn)


def _oracle_case(closed: float, numeric: MinResult) -> dict:
    """A closed trace MIN against a numeric one."""
    return {
        "closed": closed,
        "numeric": numeric.value,
        "method": numeric.method,
        "residual": abs(closed - numeric.value),
    }


def oracle_audit(counts: int, seed: int, cfg: OptimizerConfig | None = None) -> dict:
    """The numeric trace MIN against its closed forms on seeded two-qubit states.

    ``counts`` random states (ranks cycling 1..4) with |x| above both 0.05
    and ``cfg.degeneracy_tol`` take the unique branch, all in one
    ``_optimize`` call, and are checked against ``trace_min_two_qubit``,
    with the residual of ``_sumabs_reading`` recorded next to it;
    max(1, counts // 2) random Bell-diagonal states take the qubit sphere,
    all in one more ``_optimize`` call, one lockstep ascent for them all,
    and are checked against the largest |c_i|.  The audit passes when every
    residual is at most 1e-8.  Raises ``ValueError`` for a
    ``degeneracy_tol`` of 1 or more, which no two-qubit state's |x| exceeds.
    """
    if _integer("counts", counts) < 1:
        raise ValueError("counts must be >= 1")
    cfg = cfg or OptimizerConfig()
    if cfg.degeneracy_tol >= 1.0:
        raise ValueError(
            "the oracle audit needs degeneracy_tol below 1: no two-qubit state has |x| > 1")
    rng = _as_rng(seed)
    generic, attempts, floor = [], 0, max(0.05, cfg.degeneracy_tol)
    while len(generic) < counts:
        rho = random_density((2, 2), rank=1 + attempts % 4, seed=rng)
        attempts += 1
        if np.linalg.norm(bloch_decompose(rho).x) > floor:
            generic.append(rho)
    triples = [random_bell_triple(rng) for _ in range(max(1, counts // 2))]
    generic_cases = [
        {**_oracle_case(trace_min_two_qubit(rho).value, r),
         "residual_sumabs_reading": abs(_sumabs_reading(rho) - r.value)}
        for rho, r in zip(generic, _optimize(generic, cfg, "trace"))]
    sphere = _optimize([make_bell_diagonal(c) for c in triples], cfg, "trace")
    sphere_cases = [_oracle_case(float(np.abs(c).max()), r) for c, r in zip(triples, sphere)]
    max_generic = max(c["residual"] for c in generic_cases)
    max_sphere = max(c["residual"] for c in sphere_cases)
    return {
        "generic": generic_cases,
        "sphere": sphere_cases,
        "max_residual_unique": max_generic,
        "max_residual_sphere": max_sphere,
        "max_residual_sumabs_reading": max(c["residual_sumabs_reading"] for c in generic_cases),
        "passed": bool(max(max_generic, max_sphere) <= 1e-8),
    }
