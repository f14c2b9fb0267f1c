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
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import PAULIS, _local_action, dagger, psd_sqrt
from .measurements import (
    KIND_QUBIT_SPHERE,
    KIND_UNIQUE,
    LocalMeasurement,
    MeasurementFamily,
    apply_projectors,
    invariant_family,
    sphere_measurement,
)
from .states import (
    DensityMatrix,
    SchmidtForm,
    canonicalize,
    detect_family,
    reduced_state,
)

# Practical bound on dA * dB for the numeric optimizers.
DIM_LIMIT = 64

_INVPHI = (math.sqrt(5.0) - 1) / 2

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
    """

    sphere_grid: int = 64
    refine_iters: int = 20
    restarts: int = 4
    tol: float = 1e-10
    seed: int = 0
    degeneracy_tol: float = 1e-8

    def __post_init__(self):
        if self.sphere_grid < 8:
            raise ValueError("sphere_grid must be >= 8")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.degeneracy_tol < 0:
            raise ValueError("degeneracy_tol must be >= 0")


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


def _two_schmidt(form: SchmidtForm, tol: float = 1e-9) -> tuple[float, float]:
    lam = np.sort(np.clip(form.coefficients, 0.0, None))[::-1]
    if (lam[2:] > tol).any():
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


def trace_min_two_qubit(rho: DensityMatrix, degenerate_tol: float = 1e-8) -> MinResult:
    """Trace MIN of an arbitrary two-qubit state, in closed form.

    The state is first rotated to diagonal correlation tensor.  With a
    nondegenerate marginal (|x| above ``degenerate_tol``) the unique
    invariant measurement gives an explicit value; at x = 0 the maximum
    over the measurement sphere is the largest tensor entry in magnitude.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"two-qubit closed form needs dims (2, 2), got {rho.dims}")
    _, form = canonicalize(rho)
    c, x = form.c, form.x
    xn = float(np.linalg.norm(x))
    if xn <= degenerate_tol:
        value = float(np.abs(c).max())
    else:
        value = _chi_branch_value(c, x)
    return MinResult(value=value, method=METHOD_CLOSED)


def _chi_branch_value(c: np.ndarray, x: np.ndarray) -> float:
    """Nondegenerate-branch value ``(sqrt(chi+) + sqrt(chi-)) / (2|x|)``.

    The smaller root ``chi-`` suffers catastrophic cancellation whenever the
    lesser singular-value pair of the disturbance nearly vanishes (every
    pure state hits this), so the discriminant ``chi+ chi-`` is evaluated
    in exact rational arithmetic and ``chi-`` recovered by division.
    """
    q = [Fraction(float(v)) ** 2 for v in c]
    u = [Fraction(float(v)) ** 2 for v in x]
    xsq = u[0] + u[1] + u[2]
    alpha = q[0] * (u[1] + u[2]) + q[1] * (u[2] + u[0]) + q[2] * (u[0] + u[1])
    beta = u[0] * q[1] * q[2] + u[1] * q[2] * q[0] + u[2] * q[0] * q[1]
    disc = alpha * alpha - 4 * xsq * beta
    chi_p = float(alpha) + 2.0 * math.sqrt(max(float(xsq * beta), 0.0))
    if chi_p <= 0.0:
        return 0.0
    chi_m = max(float(disc), 0.0) / chi_p
    return (math.sqrt(chi_p) + math.sqrt(chi_m)) / (2.0 * math.sqrt(float(xsq)))


def hs_min_two_qubit(rho: DensityMatrix, degenerate_tol: float = 1e-8) -> MinResult:
    """HS MIN of an arbitrary two-qubit state, in closed form."""
    if rho.dims != (2, 2):
        raise ValueError(f"two-qubit closed form needs dims (2, 2), got {rho.dims}")
    _, form = canonicalize(rho)
    c, x = form.c, form.x
    xn = float(np.linalg.norm(x))
    if xn <= degenerate_tol:
        a = np.sort(np.abs(c))[::-1]
        value = float(a[0] ** 2 + a[1] ** 2) / 4.0
    else:
        xh = x / xn
        value = float((c**2).sum() - ((c * xh) ** 2).sum()) / 4.0
    return MinResult(value=value, method=METHOD_CLOSED)


def trace_min_werner(d: int, x: float) -> float:
    """Trace MIN of the d x d Werner state: ``|dx - 1| / (d + 1)``."""
    _check_werner_args(d, x)
    return abs(d * x - 1.0) / (d + 1)


def hs_min_werner(d: int, x: float) -> float:
    """HS MIN of the d x d Werner state."""
    _check_werner_args(d, x)
    return (d * x - 1.0) ** 2 / (d * (d - 1) * (d + 1) ** 2)


def trace_min_isotropic(d: int, x: float) -> float:
    """Trace MIN of the d x d isotropic state: ``2|d^2 x - 1| / (d(d+1))``."""
    _check_isotropic_args(d, x)
    return 2.0 * abs(d * d * x - 1.0) / (d * (d + 1))


def hs_min_isotropic(d: int, x: float) -> float:
    """HS MIN of the d x d isotropic state."""
    _check_isotropic_args(d, x)
    return (d * d * x - 1.0) ** 2 / (d * (d + 1) ** 2 * (d - 1))


def _check_werner_args(d: int, x: float) -> None:
    if d < 2:
        raise ValueError("d must be >= 2")
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [-1, 1], got {x}")


def _check_isotropic_args(d: int, x: float) -> None:
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")


def closed_form(rho: DensityMatrix, measure: str, degeneracy_tol: float = 1e-8) -> float | None:
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
        a = np.sort(np.abs(params["c"]))[::-1]
        return float(a[0]) if trace else float(a[0] ** 2 + a[1] ** 2) / 4.0
    if family == "werner":
        return (trace_min_werner if trace else hs_min_werner)(params["d"], params["x"])
    if family == "isotropic":
        return (trace_min_isotropic if trace else hs_min_isotropic)(params["d"], params["x"])
    if rho.dims == (2, 2):
        return (trace_min_two_qubit if trace else hs_min_two_qubit)(rho, degeneracy_tol).value
    return None


def direction_objective(e_hat: np.ndarray, c: np.ndarray) -> float:
    """Closed-form sphere objective for states with diagonal tensor and x = 0.

    For the Bell-diagonal state with correlation triple ``c`` measured
    along the unit direction ``e_hat``, the returned value equals twice the
    squared trace-norm disturbance; its sphere maximum is twice the squared
    largest |c_i|.  The triple is sorted internally by magnitude and the
    direction is permuted into the sorted frame.
    """
    e = np.asarray(e_hat, dtype=float)
    if abs(np.linalg.norm(e) - 1.0) > 1e-10:
        raise ValueError(f"direction must be a unit vector, |e| = {np.linalg.norm(e):.12g}")
    c = np.asarray(c, dtype=float)
    order = np.argsort(-np.abs(c), kind="stable")
    cp2, c02, cm2 = (Fraction(float(v)) ** 2 for v in c[order])
    e1s, e2s = (Fraction(float(v)) ** 2 for v in e[order][:2])
    # sin^2(theta) and the phi factors enter only through e1^2, e2^2; the
    # quartic under the root cancels near double singular values, so it is
    # evaluated in exact rational arithmetic.
    st2 = e1s + e2s
    q = cp2 + c02 - st2 * (c02 - cm2) - e1s * (cp2 - c02)
    h = (
        e2s**2 * (cp2 - c02) ** 2
        + 2 * (cp2 - c02) * e2s * ((cp2 + c02 - 2 * cm2) - st2 * (cp2 - cm2))
        + (cp2 - c02 - st2 * (cp2 - cm2)) ** 2
    )
    return float(q) + math.sqrt(max(float(h), 0.0))


# ---------------------------------------------------------------------------
# Numeric optimizers
# ---------------------------------------------------------------------------


def sphere_directions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Polar grid on the unit sphere, row-major in (theta, phi).

    Theta runs over ``n + 1`` values including both poles, phi over ``n``
    values including 0; for ``n`` divisible by 4 the grid contains all six
    coordinate-axis directions, where several closed-form optima sit.
    Returns (angles (N, 2), unit vectors (N, 3)).
    """
    thetas = np.linspace(0.0, np.pi, n + 1)
    phis = np.arange(n) * (2.0 * np.pi / n)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    vecs = np.column_stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)])
    return np.column_stack([tt, pp]), vecs


def _angles_to_vec(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


class _Disturbance:
    """Evaluates one disturbance measure for a fixed state.

    ``which`` is "trace" (trace norm), "hs" (squared HS norm) or "bures"
    (2(1 - sqrt(fidelity))).  Every evaluation goes through ``of_posts``,
    which takes a stack of post-measurement matrices and counts them.
    """

    def __init__(self, rho: DensityMatrix, which: str):
        self.mat = rho.mat
        self.dims = rho.dims
        self.which = which
        self.evals = 0
        self._sqrt = psd_sqrt(rho.mat) if which == "bures" else None

    def of_posts(self, posts: np.ndarray) -> np.ndarray:
        """Disturbance of each post-measurement matrix in a stack (N, n, n)."""
        self.evals += len(posts)
        if self.which == "trace":
            return np.abs(np.linalg.eigvalsh(self.mat - posts)).sum(axis=-1)
        if self.which == "hs":
            return (np.abs(self.mat - posts) ** 2).sum(axis=(-2, -1))
        inner = self._sqrt @ posts @ self._sqrt
        w = np.linalg.eigvalsh((inner + np.conj(np.swapaxes(inner, -1, -2))) / 2)
        fid = np.clip(np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1) ** 2, 0.0, 1.0)
        return 2.0 * (1.0 - np.sqrt(fid))

    def at_measurement(self, m: LocalMeasurement) -> float:
        return float(self.of_posts(apply_projectors(self.mat, m, self.dims[1])[None])[0])

    def sphere_batch(self, vecs: np.ndarray, chunk: int = 1024) -> np.ndarray:
        """Values for a batch of qubit measurement directions (dA = 2).

        The two projectors (I +- E)/2 with E = e.sigma give the
        post-measurement matrix (rho + E rho E) / 2.
        """
        out = np.empty(len(vecs))
        for lo in range(0, len(vecs), chunk):
            es = (vecs[lo : lo + chunk] @ PAULIS.reshape(3, 4)).reshape(-1, 1, 2, 2)
            posts = (self.mat + _local_action(self.mat, es, self.dims, "A")) / 2
            out[lo : lo + len(es)] = self.of_posts(posts)
        return out

    def at_direction(self, theta: float, phi: float) -> float:
        return float(self.sphere_batch(_angles_to_vec(theta, phi)[None, :])[0])


def _golden_max(f, lo: float, hi: float, iters: int = 22) -> tuple[float, float]:
    """Golden-section maximization of a unimodal-ish function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _optimize_sphere(obj: _Disturbance, cfg: OptimizerConfig) -> MinResult:
    angles, vecs = sphere_directions(cfg.sphere_grid)
    grid_vals = obj.sphere_batch(vecs)
    starts = np.argsort(-grid_vals, kind="stable")[: cfg.restarts]
    best_val = -math.inf
    best_angles = (0.0, 0.0)
    for idx in starts:
        theta, phi = float(angles[idx, 0]), float(angles[idx, 1])
        val = float(grid_vals[idx])
        dth = np.pi / cfg.sphere_grid
        dph = 2.0 * np.pi / cfg.sphere_grid
        for _ in range(cfg.refine_iters):
            prev = val
            t, vt = _golden_max(
                lambda t: obj.at_direction(t, phi), max(0.0, theta - dth), min(np.pi, theta + dth)
            )
            if vt > val:
                theta, val = t, vt
            p, vp = _golden_max(lambda p: obj.at_direction(theta, p), phi - dph, phi + dph)
            if vp > val:
                phi, val = p % (2.0 * np.pi), vp
            dth *= 0.5
            dph *= 0.5
            if val - prev < cfg.tol:
                break
        if val > best_val:
            best_val = val
            best_angles = (theta, phi)
    axis = _angles_to_vec(*best_angles)
    return MinResult(
        value=best_val,
        method=METHOD_SPHERE,
        measurement=sphere_measurement(axis / np.linalg.norm(axis)),
        axis=axis,
        iterations=obj.evals,
    )


def _hermitian_from_params(x: np.ndarray, m: int) -> np.ndarray:
    h = np.zeros((m, m), dtype=complex)
    h[np.diag_indices(m)] = x[:m]
    k = m
    for i in range(m):
        for j in range(i + 1, m):
            h[i, j] = x[k] + 1j * x[k + 1]
            h[j, i] = x[k] - 1j * x[k + 1]
            k += 2
    return h


def _unitary_from_hermitian(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ dagger(v)


def _optimize_blocks(obj: _Disturbance, fam: MeasurementFamily, cfg: OptimizerConfig) -> MinResult:
    free_sizes = [size for _, size in fam.blocks if size >= 2]
    nparams = sum(s * s for s in free_sizes)
    rng = np.random.default_rng(cfg.seed)

    def measurement_at(x: np.ndarray) -> LocalMeasurement:
        us = []
        k = 0
        for s in free_sizes:
            us.append(_unitary_from_hermitian(_hermitian_from_params(x[k : k + s * s], s)))
            k += s * s
        return fam.refined(us)

    def f(x: np.ndarray) -> float:
        return obj.at_measurement(measurement_at(x))

    best_x = np.zeros(nparams)
    best_val = f(best_x)
    for restart in range(cfg.restarts):
        x = np.zeros(nparams) if restart == 0 else rng.normal(scale=np.pi / 2, size=nparams)
        val = f(x)
        step = 0.5
        for _ in range(cfg.refine_iters * 5):
            improved = False
            for _ in range(8):
                cand = x + rng.normal(scale=step, size=nparams)
                cv = f(cand)
                if cv > val + 1e-12:
                    x, val = cand, cv
                    improved = True
            if not improved:
                step *= 0.5
                if step < 1e-6:
                    break
        if val > best_val:
            best_x, best_val = x, val
    return MinResult(
        value=best_val,
        method=METHOD_BLOCK,
        measurement=measurement_at(best_x),
        iterations=obj.evals,
    )


def _optimize(rho: DensityMatrix, cfg: OptimizerConfig, which: str) -> MinResult:
    if rho.da * rho.db > DIM_LIMIT:
        raise DimensionLimitError(
            f"state dimension {rho.da * rho.db} exceeds the numeric bound {DIM_LIMIT}"
        )
    fam = invariant_family(reduced_state(rho, "A"), cfg.degeneracy_tol)
    obj = _Disturbance(rho, which)
    if fam.kind == KIND_UNIQUE:
        value = obj.at_measurement(fam.fixed)
        return MinResult(
            value=value, method=METHOD_UNIQUE, measurement=fam.fixed, iterations=obj.evals
        )
    if fam.kind == KIND_QUBIT_SPHERE:
        return _optimize_sphere(obj, cfg)
    return _optimize_blocks(obj, fam, cfg)


def trace_min_numeric(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> MinResult:
    """Maximize the trace-norm disturbance over invariant measurements."""
    return _optimize(rho, cfg or OptimizerConfig(), "trace")


def hs_min_numeric(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> MinResult:
    """Maximize the squared HS-norm disturbance over invariant measurements."""
    return _optimize(rho, cfg or OptimizerConfig(), "hs")


def bures_min_numeric(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> MinResult:
    """Maximize the Bures disturbance ``2(1 - sqrt(F))`` over invariant measurements."""
    return _optimize(rho, cfg or OptimizerConfig(), "bures")


# ---------------------------------------------------------------------------
# Cross-measure identities per state family
# ---------------------------------------------------------------------------


def relation_report(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> dict:
    """Check the trace-vs-HS identity that applies to the state's family.

    The left side is the closed-form trace MIN; the right side applies the
    family identity to an independently maximized numeric HS MIN.  Raises
    ``ValueError`` for states outside the supported families.  A maximally
    entangled m x n pure state (m > 2) obeys the identity of the isotropic
    family it belongs to at unit fidelity.
    """
    cfg = cfg or OptimizerConfig()
    family, params = detect_family(rho)
    lhs = None
    if family != "generic":
        lhs = _closed_value(rho, True, family, params, cfg.degeneracy_tol)
    if lhs is None:
        raise ValueError("state does not belong to a family with a known trace/hs identity")
    hs = hs_min_numeric(rho, cfg).value
    if family == "pure" and rho.da > 2:
        m = rho.da
        identity, rhs = "trace = 2 sqrt((m-1) hs / m)", 2.0 * math.sqrt((m - 1) * hs / m)
    elif family == "pure":
        identity, rhs = "trace = sqrt(2 * hs)", math.sqrt(2.0 * hs)
    elif family == "bell_diagonal":
        mid = np.sort(np.abs(params["c"]))[1]
        identity, rhs = "trace = sqrt(4 * hs - mid^2)", math.sqrt(max(4.0 * hs - mid**2, 0.0))
    elif family == "werner":
        d = params["d"]
        identity, rhs = "trace = sqrt(d (d-1) hs)", math.sqrt(d * (d - 1) * hs)
    else:
        d = params["d"]
        identity, rhs = "trace = 2 sqrt((d-1) hs / d)", 2.0 * math.sqrt((d - 1) * hs / d)
    report = {
        "family": family,
        "identity": identity,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "residual": float(abs(lhs - rhs)),
    }
    if family in ("werner", "isotropic"):
        report["d"] = int(params["d"])
        report["x"] = float(params["x"])
    return report
