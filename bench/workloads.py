"""The four benchmark workloads: seeded inputs, timed calls and checks.

Each workload builds a fixed list of operations from the seed.  An
operation's ``run`` makes the timed calls into minkit; its ``check``
compares what came back with a computation from ``reference.py`` and
returns None (correct), or a message for an operation that fails because
of a known fault; a wrong output raises ``Mismatch``.  The timed calls go
through module attributes (``nonlocality.trace_min_numeric``, not a bound
name) so that the traced run can rebind them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import reference as ref

TWO_QUBIT_CLOSED_TOL = 1e-8
UNIQUE_TOL = 1e-10
# The sphere optimizer is held to the 1e-4 its own oracle audit uses: on
# Bell-diagonal states under local unitaries its HS and Bures maxima fall
# short of the exact ones by up to ~1e-5.
SPHERE_OPT_TOL = 1e-4
# Re-evaluating a result at its own returned axis must agree to round-off.
# The filtered 2x3 states have rank 3, and the fidelity takes square roots of
# eigenvalues that are zero up to round-off, so any Bures evaluation of them
# is good to about sqrt(machine epsilon) only.
SPHERE_AXIS_TOL = {"trace": 1e-10, "bures": 1e-7}
BLOCK_EXACT_TOL = 1e-10
BLOCK_REFERENCE_SLACK = 1e-6
PROJECTOR_TOL = 1e-10

WORKLOADS = ("qubit_states", "sphere_states", "block_states", "cli_figures")

# A run makes whole passes over the workload's operation list, at least
# MIN_PASSES of them, so that every operation has a best time over repeats
# (see README.md).  The qubit list holds QUBIT_ROUNDS rounds of 24 newly
# drawn states, the sphere list SPHERE_BUNDLES bundles of three.
MIN_PASSES = {"qubit_states": 3, "sphere_states": 2, "block_states": 3, "cli_figures": 3}
QUBIT_ROUNDS = 20
SPHERE_BUNDLES = 24


class Mismatch(AssertionError):
    """A program output disagrees with the independent computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


@dataclass
class Op:
    """One timed operation: ``run`` calls minkit, ``check`` judges its result."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    memo: dict = field(default_factory=dict)

    def cached(self, key: str, compute: Callable[[], Any]) -> Any:
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _pure_amplitudes(dims, rng) -> np.ndarray:
    v = rng.standard_normal(dims[0] * dims[1]) + 1j * rng.standard_normal(dims[0] * dims[1])
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# qubit_states: two-qubit closed forms plus the unique-branch oracle
# ---------------------------------------------------------------------------


def qubit_states(minkit, seed: int, workdir: str) -> list[Op]:
    """Rounds of 20 two-qubit states of rank 1-4 (rank 1 kept as amplitudes)
    and 4 pure 2x3 states, every round with new states.

    Every A marginal has |x| > 0.05, so every state takes the unique branch.
    """
    states, nonlocality = minkit.states, minkit.nonlocality
    rng = _rng(seed, "qubit_states")
    inputs = []
    while len(inputs) < QUBIT_ROUNDS * 24:
        k = len(inputs) % 24
        dims = (2, 2) if k < 20 else (2, 3)
        rank = 1 + k % 4 if dims == (2, 2) else 1
        if rank == 1:
            amp = _pure_amplitudes(dims, rng)
            mat = np.outer(amp, amp.conj())
        else:
            amp, mat = None, ref.ginibre(4, rank, rng)
        if np.linalg.norm(ref.bloch_vector_a(mat, dims)) > 0.05:
            inputs.append((dims, amp, states.validate(mat, dims)))
    return [_qubit_op(states, nonlocality, i, *inp) for i, inp in enumerate(inputs)]


def _qubit_op(states, nonlocality, i, dims, amp, rho) -> Op:
    def run():
        family, params = states.detect_family(rho)
        out = {"family": family}
        if dims == (2, 2):
            out["trace_2q"] = nonlocality.trace_min_two_qubit(rho).value
            out["hs_2q"] = nonlocality.hs_min_two_qubit(rho).value
        if family == "pure":
            out["trace_pure"] = nonlocality.trace_min_pure(params["schmidt"])
            out["hs_pure"] = nonlocality.hs_min_pure(params["schmidt"])
        out["trace_num"] = nonlocality.trace_min_numeric(rho)
        out["hs_num"] = nonlocality.hs_min_numeric(rho)
        return out

    def reference():
        exact = ref.eigenbasis_values(rho.mat, dims)
        if amp is not None:
            s = np.linalg.svd(amp.reshape(dims), compute_uv=False) ** 2
            exact["trace_pure"] = 2.0 * math.sqrt(s[0] * s[1])
            exact["hs_pure"] = 2.0 * s[0] * s[1]
        return exact

    def check(out):
        exact = op.cached("reference", reference)
        expect(out["family"] == ("pure" if amp is not None else "generic"),
               f"detect_family gave {out['family']!r}")
        for key, measure in (("trace_2q", "trace"), ("hs_2q", "hs"),
                             ("trace_pure", "trace"), ("hs_pure", "hs")):
            if key in out:
                gap = abs(out[key] - exact[measure])
                expect(gap <= TWO_QUBIT_CLOSED_TOL, f"{key} off the dephasing value by {gap:.3e}")
        if amp is not None:
            for key in ("trace_pure", "hs_pure"):
                gap = abs(out[key] - exact[key])
                expect(gap <= TWO_QUBIT_CLOSED_TOL, f"{key} off the SVD value by {gap:.3e}")
        for key, measure in (("trace_num", "trace"), ("hs_num", "hs")):
            res = out[key]
            expect(res.method == "NumericUnique", f"{key} took branch {res.method}")
            gap = abs(res.value - exact[measure])
            expect(gap <= UNIQUE_TOL, f"{key} off the dephasing value by {gap:.3e}")
        return None

    op = Op(f"qubit{i}-{dims[0]}x{dims[1]}", run, check)
    return op


# ---------------------------------------------------------------------------
# sphere_states: the degenerate qubit-marginal branch
# ---------------------------------------------------------------------------

_BELL_TRIPLES = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]])


def sphere_states(minkit, seed: int, workdir: str) -> list[Op]:
    """One operation per bundle of a Bell-diagonal state, a Bell-diagonal
    state rotated by local unitaries and a filtered 2x3 state, each state
    with newly drawn parameters."""
    states, nonlocality = minkit.states, minkit.nonlocality
    rng = _rng(seed, "sphere_states")
    ops = []
    for i in range(SPHERE_BUNDLES):
        bundle = []
        for kind in range(3):
            if kind < 2:
                mat = ref.bell_diagonal(rng.dirichlet(np.ones(4)) @ _BELL_TRIPLES)
                if kind == 1:
                    local = np.kron(ref.haar_unitary(2, rng), ref.haar_unitary(2, rng))
                    mat = local @ mat @ local.conj().T
                dims = (2, 2)
            else:
                dims = (2, 3)
                mat = ref.filter_to_mixed_a(ref.ginibre(6, 3, rng), dims)
            bundle.append((dims, states.validate(mat, dims)))
        ops.append(_sphere_op(nonlocality, i, bundle))
    return ops


def _sphere_reference(dims, rho) -> dict:
    exact = ref.sphere_values(rho.mat, dims, ref.fixed_directions())
    exact["hs"] = ref.hs_sphere_exact(rho.mat, dims)
    if dims == (2, 2):
        exact["t_max"] = float(np.linalg.svd(ref.correlation_tensor(rho.mat), compute_uv=False)[0])
    return exact


def _sphere_op(nonlocality, i, bundle) -> Op:
    def run():
        return [(nonlocality.trace_min_numeric(rho), nonlocality.hs_min_numeric(rho),
                 nonlocality.bures_min_numeric(rho)) for _, rho in bundle]

    def check(results):
        refs = op.cached("reference", lambda: [_sphere_reference(*b) for b in bundle])
        for (dims, rho), exact, (trace, hs, bures) in zip(bundle, refs, results):
            for res in (trace, hs, bures):
                expect(res.method == "NumericSphere", f"took branch {res.method}")
            if dims == (2, 2):
                gap = abs(trace.value - exact["t_max"])
                expect(gap <= SPHERE_OPT_TOL,
                       f"trace off the largest singular value of T by {gap:.3e}")
            gap = abs(hs.value - exact["hs"])
            expect(gap <= SPHERE_OPT_TOL, f"HS off (tr G - lambda_min G)/2 by {gap:.3e}")
            for name, res in (("trace", trace), ("bures", bures)):
                again = ref.measured_values(rho.mat, dims, ref.direction_basis(res.axis))[name]
                expect(abs(again - res.value) <= SPHERE_AXIS_TOL[name],
                       f"{name} at the returned axis is {again!r}, reported {res.value!r}")
                short = exact[name] - res.value
                expect(short <= SPHERE_OPT_TOL,
                       f"{name} below the fixed-direction best by {short:.3e}")
        return None

    op = Op(f"sphere-bundle{i}", run, check)
    return op


# ---------------------------------------------------------------------------
# block_states: the block hill-climb for dA >= 3
# ---------------------------------------------------------------------------


def block_states(minkit, seed: int, workdir: str) -> list[Op]:
    """Trace and HS MIN of three Werner d=3, three isotropic d=3 and one
    Werner d=4 state with seeded parameters, and of the three fixed generic
    states of ``reference.GENERIC_CASES``.

    The d=3 states make 12 of the 20 operations, so the median operation is
    always a d=3 one and never sits between two cost classes."""
    states, nonlocality = minkit.states, minkit.nonlocality
    rng = _rng(seed, "block_states")
    ops = []
    for family, d in (("werner", 3), ("werner", 3), ("werner", 3), ("isotropic", 3),
                      ("isotropic", 3), ("isotropic", 3), ("werner", 4)):
        if family == "werner":
            mat = ref.werner(d, float(rng.uniform(-1.0, 1.0)))
        else:
            mat = ref.isotropic(d, float(rng.uniform(0.0, 1.0)))
        rho = states.validate(mat, (d, d))
        for measure in ("trace", "hs"):
            ops.append(_block_op(nonlocality, f"{family}{d}-{len(ops)}", rho, measure, None))
    stored = ref.load_reference()["values"]
    for (dims, mat), values in zip(ref.generic_block_states(), stored):
        rho = states.validate(mat, dims)
        for measure in ("trace", "hs"):
            ops.append(_block_op(nonlocality, f"generic{dims[0]}x{dims[1]}-{measure}", rho,
                                 measure, values[measure]))
    return ops


def _block_op(nonlocality, name, rho, measure, stored) -> Op:
    fn_name = "trace_min_numeric" if measure == "trace" else "hs_min_numeric"

    def run():
        return getattr(nonlocality, fn_name)(rho)

    def check(res):
        expect(res.method == "NumericBlock", f"took branch {res.method}")
        projs = [np.asarray(p) for p in res.measurement.projectors]
        da = rho.da
        expect(len(projs) == da, f"{len(projs)} projectors for dA = {da}")
        total = sum(projs)
        expect(np.abs(total - np.eye(da)).max() <= PROJECTOR_TOL, "projectors are not complete")
        for j, p in enumerate(projs):
            expect(np.abs(p - p.conj().T).max() <= PROJECTOR_TOL, "projector not Hermitian")
            expect(np.abs(p @ p - p).max() <= PROJECTOR_TOL, "projector not idempotent")
            expect(abs(np.trace(p).real - 1.0) <= PROJECTOR_TOL, "projector not rank 1")
            for q in projs[j + 1:]:
                expect(np.abs(p @ q).max() <= PROJECTOR_TOL, "projectors not orthogonal")
        rho_a = ref.marginal_a(rho.mat, rho.dims)
        kept = sum(p @ rho_a @ p for p in projs)
        expect(np.abs(kept - rho_a).max() <= PROJECTOR_TOL, "measurement disturbs rho_A")
        basis = np.column_stack([np.linalg.eigh(p)[1][:, -1] for p in projs])
        again = ref.measured_values(rho.mat, rho.dims, basis)[measure]
        expect(abs(again - res.value) <= BLOCK_EXACT_TOL,
               f"value at the returned projectors is {again!r}, reported {res.value!r}")
        if stored is None:
            exact = op.cached("reference", lambda: ref.measured_values(
                rho.mat, rho.dims, np.eye(rho.da))[measure])
            expect(abs(res.value - exact) <= BLOCK_EXACT_TOL,
                   f"off the computational-basis value by {abs(res.value - exact):.3e}")
            return None
        if res.value < stored - BLOCK_REFERENCE_SLACK:
            return f"{name}: {res.value!r} is {stored - res.value:.3e} below the stored maximum"
        return None

    op = Op(name, run, check)
    return op


# ---------------------------------------------------------------------------
# cli_figures: in-process CLI commands writing CSV/JSON files
# ---------------------------------------------------------------------------

SWEEP_POINTS = 81
SWEEP_TMAX = 5.0
REGION_RESOLUTION = 33
SURFACE_RESOLUTION = 65
MONOTONICITY_COUNTS = 160
MONOTONICITY_CHANNELS = 4
ORACLE_COUNTS = 12
COMPUTE_RESTARTS = 6


def _bell_weights(c):
    # Same expression order as the tetrahedron test, so lattice points that
    # sit exactly on a face are classified identically.
    c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2]
    return np.stack([(1 + c1 - c2 + c3) / 4, (1 - c1 + c2 + c3) / 4,
                     (1 + c1 + c2 - c3) / 4, (1 - c1 - c2 - c3) / 4], axis=-1)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def cli_figures(minkit, seed: int, workdir: str) -> list[Op]:
    """sweep (one- and two-sided), region, surface, compute on two state files,
    and the monotonicity and oracle audits, each with seeded parameters."""
    import minkit.cli  # noqa: F401  (part of the set-up being timed)

    rng = _rng(seed, "cli_figures")
    c0 = rng.dirichlet(np.ones(4)) @ _BELL_TRIPLES
    sweep_axis = int(rng.integers(1, 4))
    region_axis = int(rng.integers(1, 4))
    level = float(rng.uniform(0.25, 0.95))
    audit_seed = int(rng.integers(0, 2**31))
    files = {}
    for name, d, family in (("werner", 4, "werner"), ("isotropic", 4, "isotropic")):
        x = float(rng.uniform(-1.0, 1.0)) if family == "werner" else float(rng.uniform(0.0, 1.0))
        mat = ref.werner(d, x) if family == "werner" else ref.isotropic(d, x)
        path = os.path.join(workdir, f"{name}.json")
        minkit.states.save_state(minkit.states.validate(mat, (d, d)), path)
        files[name] = (path, mat, d)

    def out(name):
        return os.path.join(workdir, name)

    c0_arg = ",".join(repr(float(v)) for v in c0)
    ops = [
        _cli_op(minkit, "sweep-one", ["sweep", f"--c0={c0_arg}", "--axis", str(sweep_axis),
                                      "--sided", "one", "--grid", str(SWEEP_POINTS),
                                      "--tmax", str(SWEEP_TMAX), "--out", out("sweep1.csv")],
                [out("sweep1.csv")], _sweep_check(c0, sweep_axis, "one")),
        _cli_op(minkit, "sweep-two", ["sweep", f"--c0={c0_arg}", "--axis", str(sweep_axis),
                                      "--sided", "two", "--grid", str(SWEEP_POINTS),
                                      "--tmax", str(SWEEP_TMAX), "--out", out("sweep2.csv")],
                [out("sweep2.csv")], _sweep_check(c0, sweep_axis, "two")),
        _cli_op(minkit, "region", ["region", "--axis", str(region_axis), "--resolution",
                                   str(REGION_RESOLUTION), "--out", out("region.csv")],
                [out("region.csv"), out("region.csv.vertices.json")],
                _region_check(region_axis)),
        _cli_op(minkit, "surface", ["surface", "--level", repr(level), "--resolution",
                                    str(SURFACE_RESOLUTION), "--out", out("surface.csv")],
                [out("surface.csv")], _surface_check(level)),
        _cli_op(minkit, "compute-werner", ["compute", files["werner"][0], "--measure", "n1",
                                           "--restarts", str(COMPUTE_RESTARTS),
                                           "--out", out("werner.out.json")],
                [out("werner.out.json")], _compute_check(files["werner"], "trace")),
        _cli_op(minkit, "compute-isotropic", ["compute", files["isotropic"][0], "--measure",
                                              "n2", "--restarts", str(COMPUTE_RESTARTS),
                                              "--out", out("isotropic.out.json")],
                [out("isotropic.out.json")], _compute_check(files["isotropic"], "hs")),
        _cli_op(minkit, "audit-monotonicity",
                ["audit", "--kind", "monotonicity", "--counts", str(MONOTONICITY_COUNTS),
                 "--channels", str(MONOTONICITY_CHANNELS), "--seed", str(audit_seed),
                 "--out", out("monotonicity.json")],
                [out("monotonicity.json")], _monotonicity_check),
        _cli_op(minkit, "audit-oracle",
                ["audit", "--kind", "oracle", "--counts", str(ORACLE_COUNTS), "--seed",
                 str(audit_seed), "--out", out("oracle.json")],
                [out("oracle.json")], _oracle_check),
    ]
    return ops


def _cli_op(minkit, name, argv, outputs, check_files) -> Op:
    paths = list(outputs) + [outputs[0] + ".manifest.json"]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return minkit.cli.main(argv)

    def check(code):
        expect(code == 0, f"{name}: exit code {code}")
        digest = _digest(paths)
        first = op.cached("digest", lambda: digest)
        expect(digest == first, f"{name}: output differs from the first run of the command")
        op.cached("checked", lambda: check_files(outputs))
        return None

    op = Op(name, run, check)
    return op


def _floats(rows):
    return np.array([[float(v) for v in row] for row in rows])


def _sweep_check(c0, axis, sided):
    def check(outputs):
        header, rows = _read_csv(outputs[0])
        expect(header == ["gamma_t", "c1", "c2", "c3", "n1", "n2"], f"sweep header {header}")
        data = _floats(rows)
        times = np.linspace(0.0, SWEEP_TMAX, SWEEP_POINTS)
        expect(data.shape == (SWEEP_POINTS, 6), f"sweep shape {data.shape}")
        rate = 1.0 if sided == "one" else 2.0
        c_t = c0[None, :] * np.exp(-rate * times)[:, None]
        c_t[:, axis - 1] = c0[axis - 1]
        a = -np.sort(-np.abs(c_t), axis=1)
        expected = np.column_stack([times, c_t, a[:, 0], (a[:, 0] ** 2 + a[:, 1] ** 2) / 4])
        gap = np.abs(data - expected).max()
        expect(gap <= 1e-10, f"sweep ({sided}) off the analytic decay by {gap:.3e}")
    return check


def _region_check(axis):
    def check(outputs):
        header, rows = _read_csv(outputs[0])
        expect(header == ["c1", "c2", "c3", "flag"], f"region header {header}")
        grid = np.linspace(-1.0, 1.0, REGION_RESOLUTION)
        pts = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
        pts = pts[_bell_weights(pts).min(axis=1) >= -1e-12]
        on = np.abs(pts[:, axis - 1])
        others = np.abs(np.delete(pts, axis - 1, axis=1)).max(axis=1)
        flags = np.where(on > others + 1e-9, "inside",
                         np.where(on >= others - 1e-9, "boundary", "outside"))
        expect(len(rows) == len(pts), f"region has {len(rows)} rows, expected {len(pts)}")
        got = _floats([r[:3] for r in rows])
        expect(np.abs(got - pts).max() <= 1e-11, "region coordinates differ from the lattice")
        bad = sum(r[3] != f for r, f in zip(rows, flags))
        expect(bad == 0, f"{bad} region flags differ from the classification")
    return check


def _surface_check(level):
    def check(outputs):
        header, rows = _read_csv(outputs[0])
        expect(header == ["c1", "c2", "c3", "face_id"], f"surface header {header}")
        data = _floats(rows)
        expect(len(data) > 0, "surface has no rows")
        face = data[:, 3].astype(int)
        axis, sign = face // 2, np.where(face % 2 == 0, 1.0, -1.0)
        c = data[:, :3]
        on = c[np.arange(len(c)), axis]
        expect(np.abs(on - sign * level).max() <= 1e-11, "surface rows off their face")
        expect((np.abs(c).max(axis=1) <= level + 1e-11).all(), "surface rows off the level")
        expect(_bell_weights(c).min() >= -1e-11, "surface rows outside the tetrahedron")
        grid = np.linspace(-level, level, SURFACE_RESOLUTION)
        uu, vv = np.meshgrid(grid, grid, indexing="ij")
        count = 0
        for ax in range(3):
            others = [i for i in range(3) if i != ax]
            for s in (1.0, -1.0):
                pts = np.zeros(uu.shape + (3,))
                pts[..., ax] = s * level
                pts[..., others[0]] = uu
                pts[..., others[1]] = vv
                count += int((_bell_weights(pts).min(axis=-1) >= -1e-12).sum())
        expect(len(data) == count, f"surface has {len(data)} rows, expected {count}")
    return check


def _compute_check(file_entry, measure):
    path, mat, d = file_entry

    def check(outputs):
        with open(outputs[0], encoding="utf-8") as fh:
            payload = json.load(fh)
        expected = ref.measured_values(mat, (d, d), np.eye(d))[measure]
        expect(payload["method"] == "ClosedForm", f"compute method {payload['method']}")
        gap = abs(payload["value"] - expected)
        expect(gap <= BLOCK_EXACT_TOL, f"compute value off the dephasing value by {gap:.3e}")
        expect(payload["residual_vs_oracle"] <= BLOCK_EXACT_TOL,
               f"compute residual_vs_oracle {payload['residual_vs_oracle']!r}")
    return check


def _monotonicity_check(outputs):
    with open(outputs[0], encoding="utf-8") as fh:
        report = json.load(fh)
    expect(report["passed"] and report["n_violations"] == 0, "monotonicity audit has violations")
    expect(report["pairs"] == MONOTONICITY_COUNTS * MONOTONICITY_CHANNELS,
           f"monotonicity audit ran {report['pairs']} pairs")
    worst = max(c["increase"] - c["tolerance"] for c in report["cases"])
    expect(worst <= 0.0, f"monotonicity increase beyond tolerance by {worst:.3e}")


def _oracle_check(outputs):
    with open(outputs[0], encoding="utf-8") as fh:
        report = json.load(fh)
    expect(report["passed"], "oracle audit failed")
    expect(len(report["generic"]) == ORACLE_COUNTS, "oracle audit case count")
    expect(report["max_residual_unique"] <= 1e-8, "oracle unique-branch residual above 1e-8")
    expect(report["max_residual_sphere"] <= 1e-4, "oracle sphere-branch residual above 1e-4")


OPERATION_LISTS = {
    "qubit_states": qubit_states,
    "sphere_states": sphere_states,
    "block_states": block_states,
    "cli_figures": cli_figures,
}
