"""CPTP channels on the unmeasured party, flip-channel dynamics, and audits.

The flip channels act on Bell-diagonal states as exact multipliers on the
correlation triple, so their dynamics are evaluated analytically and
cross-checked against explicit Kraus evolution at every grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, _local_action, dagger, hs_norm, tensor_product
from .nonlocality import (
    METHOD_SPHERE,
    METHOD_BLOCK,
    MinResult,
    OptimizerConfig,
    hs_min_two_qubit,
    trace_min_numeric,
    trace_min_two_qubit,
)
from .states import (
    DensityMatrix,
    bell_diagonal_weights,
    in_tetrahedron,
    make_bell_diagonal,
    random_density,
    validate,
)

COMPLETENESS_TOL = 1e-10

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
    """Wrap Kraus operators, checking the completeness relation."""
    ops = tuple(np.asarray(k, dtype=complex) for k in ops)
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
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    ops = (
        math.sqrt((1.0 + p) / 2.0) * np.eye(2, dtype=complex),
        math.sqrt((1.0 - p) / 2.0) * PAULIS[axis - 1],
    )
    return KrausChannel(ops=ops, label=FLIP_LABELS[axis])


def completely_depolarizing(d: int) -> KrausChannel:
    """Channel mapping every state to the maximally mixed one."""
    # K_(i, j) = |i><j| / sqrt(d), in row-major (i, j) order
    ops = np.eye(d * d, dtype=complex).reshape(d * d, d, d) / math.sqrt(d)
    return KrausChannel(ops=tuple(ops), label="depolarizing")


def attach_ancilla(rho: DensityMatrix, rho_c: np.ndarray) -> DensityMatrix:
    """Tensor an uncorrelated ancilla onto party B."""
    rho_c = np.asarray(rho_c, dtype=complex)
    dc = rho_c.shape[0]
    validate(rho_c, (1, dc))  # ancilla must itself be a valid state
    return validate(tensor_product(rho.mat, rho_c), (rho.da, rho.db * dc))


def random_channel(d: int, kraus_count: int, seed) -> KrausChannel:
    """Random CPTP channel from the column partition of a Haar isometry."""
    if kraus_count < 1:
        raise ValueError("kraus_count must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((d * kraus_count, d)) + 1j * rng.standard_normal((d * kraus_count, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    ops = tuple(q[i * d : (i + 1) * d, :] for i in range(kraus_count))
    return kraus_channel(ops, label=f"random_k{kraus_count}")


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
    Kraus evolution at every grid point to 1e-10.
    """
    c0 = np.asarray(c0, dtype=float)
    if sided not in ("one", "two"):
        raise ValueError(f"sided must be 'one' or 'two', got {sided}")
    if not in_tetrahedron(c0):
        raise ValueError(f"initial triple {tuple(c0)} is not physical")
    rho0 = make_bell_diagonal(c0)
    times = np.asarray(gamma_ts, dtype=float)

    def step(gt: float):
        p_side = math.exp(-gt)
        mult = p_side if sided == "one" else p_side**2
        c_t = c0 * mult
        c_t[axis - 1] = c0[axis - 1]
        analytic = make_bell_diagonal(c_t)
        ch = flip_channel(axis, p_side)
        evolved = apply_channel_b(rho0, ch)
        if sided == "two":
            evolved = apply_channel_a(evolved, ch)
        gap = hs_norm(evolved.mat - analytic.mat)
        if gap > 1e-10:
            raise RuntimeError(
                f"analytic evolution disagrees with Kraus evolution by {gap:.3e} at gamma_t={gt}"
            )
        n1 = trace_min_two_qubit(analytic).value
        n2 = hs_min_two_qubit(analytic).value
        return c_t, n1, n2

    rows = [step(gt) for gt in times]
    return DynamicsTrace(
        times=times,
        c_t=np.array([r[0] for r in rows]),
        n1_t=np.array([r[1] for r in rows]),
        n2_t=np.array([r[2] for r in rows]),
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
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    swap = {1: (2, 1, 0), 2: (0, 2, 1), 3: (0, 1, 2)}[axis]
    pos = tuple(tuple(v[i] for i in swap) for v in _FREEZE_POS_AXIS3)
    neg = tuple(tuple(v[i] for i in swap) for v in _FREEZE_NEG_AXIS3)
    return pos, neg


_FREEZING_LABELS = np.array(["outside", "boundary", "inside"])


def classify_freezing(c, axis: int, tol: float = 1e-9) -> str | np.ndarray:
    """Classify a physical triple against the freezing region of ``axis``.

    "inside" means the on-axis correlation strictly dominates (the trace
    MIN survives the noise forever), "boundary" a tie, "outside" otherwise.
    A stack of triples (..., 3) gives an array of labels; one triple a str.
    """
    a = np.abs(np.asarray(c, dtype=float)).T
    on_axis = a[axis - 1]
    others = np.maximum(*(a[i] for i in range(3) if i != axis - 1))
    flags = _FREEZING_LABELS[np.where(on_axis > others + tol, 2, on_axis >= others - tol)]
    return str(flags) if flags.ndim == 0 else flags.T


def freezing_region(axis: int, resolution: int = 0) -> dict:
    """Freezing-region report: hexahedra vertices plus an optional sample grid.

    With ``resolution > 0`` the cube [-1, 1]^3 is sampled on that many
    points per axis and every physical triple is classified.
    """
    pos, neg = freezing_vertices(axis)
    grid = np.linspace(-1.0, 1.0, max(resolution, 0))
    cube = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    points = cube[bell_diagonal_weights(cube).min(axis=-1) >= -1e-12]
    flags = classify_freezing(points, axis)
    return {
        "axis": axis,
        "channel": FLIP_LABELS[axis],
        "vertices": {"positive": [list(v) for v in pos], "negative": [list(v) for v in neg]},
        "samples": [(*p, f) for p, f in zip(points.tolist(), flags.tolist())],
    }


# ---------------------------------------------------------------------------
# Channel-monotonicity audit
# ---------------------------------------------------------------------------


def _numeric_slack(*results: MinResult) -> float:
    """Extra tolerance when a grid/hill-climb branch was involved."""
    if any(r.method in (METHOD_SPHERE, METHOD_BLOCK) for r in results):
        return 2e-4
    return 0.0


def monotonicity_audit(
    n_states: int,
    n_channels: int,
    seed: int,
    cfg: OptimizerConfig | None = None,
) -> dict:
    """Verify that channels on B never increase the trace MIN.

    Runs every (state, channel) pair from seeded ensembles of two-qubit
    states (ranks cycling 1..4) and random CPTP channels on B (Kraus counts
    cycling 1..4), and records any increase beyond 1e-8 plus optimizer
    slack.  A correct implementation reports zero violations.
    """
    if n_states < 1 or n_channels < 1:
        raise ValueError("counts must be >= 1")
    cfg = cfg or OptimizerConfig()
    rng = np.random.default_rng(seed)
    states = [random_density((2, 2), rank=1 + (i % 4), seed=rng) for i in range(n_states)]
    channels = [random_channel(2, 1 + (j % 4), rng) for j in range(n_channels)]
    befores = [trace_min_numeric(s, cfg) for s in states]

    pairs = [(i, j) for i in range(n_states) for j in range(n_channels)]

    def check(pair):
        i, j = pair
        before = befores[i]
        after = trace_min_numeric(apply_channel_b(states[i], channels[j]), cfg)
        increase = after.value - before.value
        tol = 1e-8 + _numeric_slack(before, after)
        return {
            "state": i,
            "channel": channels[j].label,
            "before": before.value,
            "after": after.value,
            "increase": increase,
            "tolerance": tol,
            "violation": bool(increase > tol),
        }

    cases = [check(pair) for pair in pairs]
    violations = [c for c in cases if c["violation"]]
    return {
        "pairs": len(cases),
        "violations": violations,
        "n_violations": len(violations),
        "max_increase": max(c["increase"] for c in cases),
        "cases": cases,
    }
