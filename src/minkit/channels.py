"""CPTP channels on the unmeasured party, flip-channel dynamics, and audits.

The flip channels act on Bell-diagonal states as exact multipliers on the
correlation triple, so their dynamics are evaluated analytically and
cross-checked against explicit Kraus evolution at every grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, _integer, _local_action, dagger
from .nonlocality import OptimizerConfig, _bell_diagonal_value, _optimize
from .states import (
    DensityMatrix,
    StateInvariantError,
    _as_rng,
    _ginibre,
    _ginibre_density,
    _haar_q,
    in_tetrahedron,
    make_bell_diagonal,
    validate,
)

COMPLETENESS_TOL = 1e-10

# Largest trace-MIN increase under a channel on B that the audit tolerates.
MONOTONICITY_TOL = 1e-8

# An on-axis |c_i| this close to the largest other one is a tie: the boundary.
FREEZING_TOL = 1e-9

FLIP_LABELS = {1: "bit_flip", 2: "bit_phase_flip", 3: "phase_flip"}


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map given by Kraus operators with a human-readable label."""

    ops: tuple[np.ndarray, ...]
    label: str = ""

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]


def kraus_channel(ops, label: str = "") -> KrausChannel:
    """Wrap Kraus operators, checking the completeness relation; an empty list raises."""
    ops = tuple(np.asarray(k, dtype=complex) for k in ops)
    if not ops:
        raise ValueError("ops must not be empty")
    d = ops[0].shape[0]
    total = np.zeros((d, d), dtype=complex)
    for k in ops:
        if k.shape != (d, d):
            raise ValueError("Kraus operators must share one square shape")
        total += dagger(k) @ k
    if np.abs(total - np.eye(d)).max() > COMPLETENESS_TOL:
        raise ValueError("Kraus operators do not satisfy the completeness relation")
    return KrausChannel(ops=ops, label=label)


def apply_channel_b(rho: DensityMatrix, ch: KrausChannel) -> DensityMatrix:
    """Apply the channel to party B; the reduced state of A is untouched."""
    if ch.dim != rho.db:
        raise ValueError(f"channel dimension {ch.dim} != dB {rho.db}")
    return validate(_local_action(rho.mat, ch.ops, rho.dims, "B"), rho.dims)


def apply_channel_a(rho: DensityMatrix, ch: KrausChannel) -> DensityMatrix:
    """Apply the channel to party A (used by two-sided dynamics)."""
    if ch.dim != rho.da:
        raise ValueError(f"channel dimension {ch.dim} != dA {rho.da}")
    return validate(_local_action(rho.mat, ch.ops, rho.dims, "A"), rho.dims)


def flip_channel(axis: int, p: float) -> KrausChannel:
    """Qubit flip channel about a Pauli axis (1, 2, 3).

    The Kraus weights are chosen so a single application multiplies the two
    Bloch components orthogonal to ``axis`` by exactly ``p`` and leaves the
    on-axis component alone; ``p = exp(-gamma t)`` reproduces the usual
    decay parametrization.
    """
    _check_axis(axis)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return KrausChannel(ops=tuple(_flip_kraus(axis, p)), label=FLIP_LABELS[axis])


def _check_axis(axis) -> None:
    """Check that a flip axis is the integer 1, 2 or 3."""
    if _integer("axis", axis) not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")


def _flip_kraus(axis: int, p) -> np.ndarray:
    """Kraus operators (..., 2, 2, 2) of the flip channel for a weight ``p``
    or a stack of weights (N,)."""
    p = np.asarray(p, dtype=float)
    w = np.sqrt(np.stack([(1.0 + p) / 2.0, (1.0 - p) / 2.0], axis=-1))
    return w[..., None, None] * np.stack([np.eye(2), PAULIS[axis - 1]])


def attach_ancilla(rho: DensityMatrix, rho_c: np.ndarray) -> DensityMatrix:
    """Tensor an uncorrelated ancilla onto party B."""
    rho_c = np.asarray(rho_c, dtype=complex)
    dc = rho_c.shape[0]
    validate(rho_c, (1, dc))  # ancilla must itself be a valid state
    return validate(np.kron(rho.mat, rho_c), (rho.da, rho.db * dc))


def random_channel(d: int, kraus_count: int, seed) -> KrausChannel:
    """Random CPTP channel from the column partition of a Haar isometry."""
    if _integer("d", d) < 1:
        raise ValueError("d must be >= 1")
    if _integer("kraus_count", kraus_count) < 1:
        raise ValueError("kraus_count must be >= 1")
    q = _haar_q(_ginibre(_as_rng(seed), (d * kraus_count, d)))
    return kraus_channel(q.reshape(kraus_count, d, d), label=f"random_k{kraus_count}")


# ---------------------------------------------------------------------------
# Flip-channel dynamics of Bell-diagonal states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicsTrace:
    """Correlation triple and both MIN values along a noise trajectory."""

    times: np.ndarray
    c_t: np.ndarray
    n1_t: np.ndarray
    n2_t: np.ndarray
    channel: str
    sided: str


def dynamics_sweep(c0, axis: int, sided: str, gamma_ts) -> DynamicsTrace:
    """Evolve a Bell-diagonal state under a flip channel.

    ``sided`` is "one" (channel on B) or "two" (same channel on both
    parties).  The analytic multiplier rule is verified against explicit
    Kraus evolution at every grid point to 1e-10, all points in one batch;
    on two sides the Kraus operators are the products K_k x K_l.  A triple
    outside the tetrahedron, at the start or later, raises ``StateInvariantError``.
    """
    c0 = np.asarray(c0, dtype=float)
    if sided not in ("one", "two"):
        raise ValueError(f"sided must be 'one' or 'two', got {sided}")
    _check_axis(axis)
    if not in_tetrahedron(c0):
        raise StateInvariantError(f"initial triple {tuple(map(float, c0))} is not physical")
    rho0 = make_bell_diagonal(c0)
    times = np.asarray(gamma_ts, dtype=float)
    # Python floats point by point: np.exp and numpy's square differ in the last bit
    sides = [math.exp(-gt) for gt in times.tolist()]
    p = np.array(sides, dtype=float)
    if not (p <= 1.0).all():  # negated so that a NaN counts as bad
        raise ValueError(f"gamma_t must be >= 0, got {times[~(p <= 1.0)][0]}")
    mult = p if sided == "one" else np.array([s**2 for s in sides], dtype=float)
    c_t = c0 * mult[:, None]
    c_t[:, axis - 1] = c0[axis - 1]
    outside = np.flatnonzero(~in_tetrahedron(c_t))
    if outside.size:
        raise StateInvariantError(
            f"correlation triple {tuple(map(float, c_t[outside[0]]))} "
            "lies outside the physical tetrahedron"
        )
    kraus = _flip_kraus(axis, p)
    if sided == "one":
        evolved = _local_action(rho0.mat, kraus, (2, 2), "B")
    else:
        # K_k x K_l as the operators of one party of dimension 4
        both = np.einsum("nkab,nlcd->nklacbd", kraus, kraus).reshape(len(p), 4, 4, 4)
        evolved = _local_action(rho0.mat, both, (1, 4), "B")
    # the Bell-diagonal state (I + sum_i c_i sigma_i x sigma_i) / 4
    analytic = np.einsum("ni,iac,ibd->nabcd", c_t, PAULIS, PAULIS).reshape(-1, 4, 4)
    analytic = (np.eye(4) + analytic) / 4
    gaps = np.linalg.norm(evolved - analytic, axis=(-2, -1))
    bad = np.flatnonzero(~(gaps <= 1e-10))
    if bad.size:
        raise RuntimeError(
            f"analytic evolution disagrees with Kraus evolution by {gaps[bad[0]]:.3e} "
            f"at gamma_t={times[bad[0]]}"
        )
    return DynamicsTrace(
        times=times,
        c_t=c_t,
        n1_t=_bell_diagonal_value(c_t, True),
        n2_t=_bell_diagonal_value(c_t, False),
        channel=FLIP_LABELS[axis],
        sided=sided,
    )


# ---------------------------------------------------------------------------
# Freezing region of the flip channels
# ---------------------------------------------------------------------------

# Vertices of the two regions where the phase flip (axis 3) never degrades
# the trace MIN, each a five-vertex hexahedron inside the state tetrahedron.
_FREEZE_POS_AXIS3 = (
    (0.0, 0.0, 0.0),
    (1.0, -1.0, 1.0),
    (-1.0, 1.0, 1.0),
    (1 / 3, 1 / 3, 1 / 3),
    (-1 / 3, -1 / 3, 1 / 3),
)
_FREEZE_NEG_AXIS3 = (
    (0.0, 0.0, 0.0),
    (1.0, 1.0, -1.0),
    (-1.0, -1.0, -1.0),
    (1 / 3, -1 / 3, -1 / 3),
    (-1 / 3, 1 / 3, -1 / 3),
)


def freezing_vertices(axis: int) -> tuple[tuple, tuple]:
    """Vertex lists of the two freezing hexahedra for a flip axis.

    The bit and bit-phase flip regions are the phase-flip ones with the
    roles of the corresponding coordinates exchanged.
    """
    _check_axis(axis)
    swap = {1: (2, 1, 0), 2: (0, 2, 1), 3: (0, 1, 2)}[axis]
    pos = tuple(tuple(v[i] for i in swap) for v in _FREEZE_POS_AXIS3)
    neg = tuple(tuple(v[i] for i in swap) for v in _FREEZE_NEG_AXIS3)
    return pos, neg


_FREEZING_LABELS = np.array(["outside", "boundary", "inside"])


def classify_freezing(c, axis: int) -> str | np.ndarray:
    """Classify a physical triple against the freezing region of ``axis``.

    "inside" means the on-axis correlation strictly dominates (the trace
    MIN survives the noise forever), "boundary" a tie within
    ``FREEZING_TOL`` (1e-9), "outside" otherwise.
    A stack of triples (..., 3) gives an array of labels; one triple a str.
    """
    _check_axis(axis)
    a = np.abs(np.asarray(c, dtype=float)).T
    on_axis = a[axis - 1]
    others = np.maximum(*(a[i] for i in range(3) if i != axis - 1))
    flags = _FREEZING_LABELS[np.where(on_axis > others + FREEZING_TOL, 2,
                                      on_axis >= others - FREEZING_TOL)]
    return str(flags) if flags.ndim == 0 else flags.T


def freezing_region(axis: int, resolution: int = 0) -> dict:
    """Freezing-region report: hexahedra vertices plus an optional sample grid.

    With ``resolution > 0`` the cube [-1, 1]^3 is sampled on that many
    points per axis: "points" holds the physical triples (N, 3), "flags"
    their labels (N,) from ``classify_freezing``; both empty without.
    """
    pos, neg = freezing_vertices(axis)
    grid = np.linspace(-1.0, 1.0, max(_integer("resolution", resolution), 0))
    cube = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    points = cube[in_tetrahedron(cube)]
    flags = classify_freezing(points, axis)
    return {
        "axis": axis,
        "channel": FLIP_LABELS[axis],
        "vertices": {"positive": [list(v) for v in pos], "negative": [list(v) for v in neg]},
        "points": points, "flags": flags,
    }


# ---------------------------------------------------------------------------
# Channel-monotonicity audit
# ---------------------------------------------------------------------------


def monotonicity_audit(n_states: int, n_channels: int, seed: int,
                       cfg: OptimizerConfig | None = None) -> dict:
    """Verify that channels on B never increase the trace MIN.

    Runs every (state, channel) pair from seeded ensembles of two-qubit
    states (ranks cycling 1..4) and random CPTP channels on B (Kraus counts
    cycling 1..4), and records any increase beyond ``MONOTONICITY_TOL``.  A
    correct implementation reports zero violations, and the audit passes.
    The states are validated in one call, each channel acts on all of them
    in one ``_local_action`` call, the outputs are validated in one call,
    and the values before and after take one ``_optimize`` call each; every
    value is bitwise the one-state one.
    """
    if _integer("n_states", n_states) < 1 or _integer("n_channels", n_channels) < 1:
        raise ValueError("counts must be >= 1")
    cfg = cfg or OptimizerConfig()
    rng = _as_rng(seed)
    # the draws of random_density((2, 2), 1 + i % 4, rng), validated at once
    mats = np.array([_ginibre_density(4, 1 + i % 4, rng) for i in range(n_states)])
    states = validate(mats, (2, 2))
    channels = [random_channel(2, 1 + (j % 4), rng) for j in range(n_channels)]
    # (state, channel) pairs in state-major order, the order of the cases
    outputs = np.stack([_local_action(mats, ch.ops, (2, 2), "B") for ch in channels], axis=1)
    befores = [r.value for r in _optimize(states, cfg, "trace")]
    afters = [r.value for r in _optimize(validate(outputs.reshape(-1, 4, 4), (2, 2)), cfg, "trace")]
    cases = []
    for k, after in enumerate(afters):
        i, ch = divmod(k, n_channels)
        increase = after - befores[i]
        cases.append({"state": i, "channel": channels[ch].label, "before": befores[i],
                      "after": after, "increase": increase, "tolerance": MONOTONICITY_TOL,
                      "violation": bool(increase > MONOTONICITY_TOL)})
    violations = [c for c in cases if c["violation"]]
    return {
        "pairs": len(cases),
        "violations": violations,
        "n_violations": len(violations),
        "max_increase": max(c["increase"] for c in cases),
        "cases": cases,
        "passed": not violations,
    }
