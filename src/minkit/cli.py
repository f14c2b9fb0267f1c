"""Command-line front end.

Subcommands compute MIN values for JSON state files, emit level-surface and
freezing-region geometry as CSV, sweep flip-channel dynamics, and run the
self-audit suites.  Every output file gets a ``<file>.manifest.json``
sidecar recording the command, configuration, seed, and input digest, so
identical invocations are byte-reproducible.

Exit codes: 0 success, 1 failure (including audit failures), 2 malformed
input, 3 state-invariant violation, 4 dimension bound exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .channels import dynamics_sweep, freezing_region, monotonicity_audit
from .nonlocality import (
    DIM_LIMIT,
    DimensionLimitError,
    METHOD_CLOSED,
    MinResult,
    OptimizerConfig,
    bures_min_numeric,
    closed_form,
    hs_min_numeric,
    relation_report,
    trace_min_numeric,
    trace_min_two_qubit,
)
from .states import (
    DensityMatrix,
    StateFormatError,
    StateInvariantError,
    bell_diagonal_weights,
    bloch_decompose,
    canonicalize,
    density_from_pure,
    in_tetrahedron,
    load_state,
    make_bell_diagonal,
    make_isotropic,
    make_werner,
    random_bell_triple,
    random_density,
    random_pure,
)

_NUMERIC = {"n1": trace_min_numeric, "n2": hs_min_numeric, "nb": bures_min_numeric}


def _num(v: float) -> str:
    return f"{v:.12g}"


class _InputError(ValueError):
    """A flag value the library rejects: malformed input, exit code 2."""


# Library errors to exit codes, most specific first; any other ValueError is
# a failure.
_EXIT_CODES = (
    (StateFormatError, 2),
    (_InputError, 2),
    (StateInvariantError, 3),
    (DimensionLimitError, 4),
    (ValueError, 1),
)


def _params_digest(params: dict) -> str:
    text = json.dumps(params, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_manifest(out_path: str, command: str, config: dict, seed: int, digest: str) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "input_digest": digest,
        "tool_version": __version__,
    }
    _write_json(out_path + ".manifest.json", manifest)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(_num(v) if isinstance(v, float) else str(v) for v in row) + "\n"
            )


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _optimizer_config(args) -> OptimizerConfig:
    try:
        return OptimizerConfig(
            sphere_grid=args.grid,
            restarts=args.restarts,
            tol=args.tol,
            seed=args.seed,
            degeneracy_tol=args.degeneracy_tol,
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _config_dict(cfg: OptimizerConfig) -> dict:
    return {
        "sphere_grid": cfg.sphere_grid,
        "refine_iters": cfg.refine_iters,
        "restarts": cfg.restarts,
        "tol": cfg.tol,
        "seed": cfg.seed,
        "degeneracy_tol": cfg.degeneracy_tol,
    }


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _measurement_payload(result: MinResult) -> dict | None:
    if result.axis is not None:
        return {"axis": [float(v) for v in result.axis]}
    if result.measurement is not None:
        return {
            "projectors": [
                {"re": p.real.tolist(), "im": p.imag.tolist()}
                for p in result.measurement.projectors
            ]
        }
    return None


def _compute_payload(rho: DensityMatrix, measure: str, method: str, cfg: OptimizerConfig) -> dict:
    closed = closed_form(rho, measure, cfg.degeneracy_tol) if method != "numeric" else None
    if method == "closed" and closed is None:
        raise ValueError(f"no closed form available for measure {measure!r} on this state")
    if closed is not None:
        payload = {"value": closed, "method": METHOD_CLOSED}
        if rho.da * rho.db <= DIM_LIMIT:
            numeric = _NUMERIC[measure](rho, cfg)
            payload["residual_vs_oracle"] = abs(closed - numeric.value)
        return payload
    result = _NUMERIC[measure](rho, cfg)
    payload = {"value": result.value, "method": result.method}
    meas = _measurement_payload(result)
    if meas is not None:
        payload["optimal_measurement"] = meas
    return payload


def _cmd_compute(args) -> int:
    rho = load_state(args.state)
    cfg = _optimizer_config(args)
    payload = _compute_payload(rho, args.measure, args.method, cfg)
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        _write_manifest(
            args.out,
            f"compute --measure {args.measure} --method {args.method}",
            _config_dict(cfg),
            args.seed,
            _file_digest(args.state),
        )
    return 0


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------


def surface_rows(level: float, resolution: int) -> list[tuple[float, float, float, int]]:
    """Sample the six faces of the constant-trace-MIN cube clipped to the tetrahedron.

    Face ``2 * axis + k`` holds c[axis] = +level (k = 0) or -level (k = 1).
    """
    grid = np.linspace(-level, level, resolution)
    square = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    faces = np.stack(
        [np.insert(square, axis, sign * level, axis=1) for axis in range(3) for sign in (1, -1)]
    )
    keep = bell_diagonal_weights(faces).min(axis=-1) >= -1e-12
    face_ids = np.broadcast_to(np.arange(6)[:, None], keep.shape)
    return [(*c, face) for c, face in zip(faces[keep].tolist(), face_ids[keep].tolist())]


def _cmd_surface(args) -> int:
    if not 0.0 < args.level <= 1.0:
        raise _InputError(f"level must lie in (0, 1], got {args.level}")
    rows = surface_rows(args.level, args.resolution)
    _write_csv(args.out, ["c1", "c2", "c3", "face_id"], rows)
    params = {"level": args.level, "resolution": args.resolution}
    _write_manifest(args.out, "surface", params, args.seed, _params_digest(params))
    print(f"surface level {args.level}: {len(rows)} points -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def _cmd_region(args) -> int:
    report = freezing_region(args.axis, resolution=args.resolution)
    _write_csv(args.out, ["c1", "c2", "c3", "flag"], report["samples"])
    sidecar = {
        "axis": report["axis"],
        "channel": report["channel"],
        "vertices": report["vertices"],
    }
    _write_json(args.out + ".vertices.json", sidecar)
    params = {"axis": args.axis, "resolution": args.resolution}
    _write_manifest(args.out, "region", params, args.seed, _params_digest(params))
    print(f"freezing region axis {args.axis}: {len(report['samples'])} samples -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    try:
        c0 = np.array([float(v) for v in args.c0.split(",")])
    except ValueError as exc:
        raise _InputError(f"--c0 expects three comma-separated numbers: {exc}") from exc
    if c0.size != 3:
        raise _InputError("--c0 expects three comma-separated numbers")
    if not in_tetrahedron(c0):
        raise StateInvariantError(f"initial triple {tuple(c0)} is not physical")
    times = np.linspace(0.0, args.tmax, args.grid)
    trace = dynamics_sweep(c0, args.axis, args.sided, times)
    rows = [
        (float(t), float(c[0]), float(c[1]), float(c[2]), float(n1), float(n2))
        for t, c, n1, n2 in zip(trace.times, trace.c_t, trace.n1_t, trace.n2_t)
    ]
    _write_csv(args.out, ["gamma_t", "c1", "c2", "c3", "n1", "n2"], rows)
    params = {
        "c0": [float(v) for v in c0],
        "axis": args.axis,
        "sided": args.sided,
        "points": args.grid,
        "tmax": args.tmax,
    }
    _write_manifest(args.out, "sweep", params, args.seed, _params_digest(params))
    print(f"sweep {trace.channel} ({args.sided}-sided): {len(rows)} points -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


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


def _audit_monotonicity(args, cfg: OptimizerConfig) -> dict:
    report = monotonicity_audit(args.counts, args.channels, args.seed, cfg)
    report["passed"] = report["n_violations"] == 0
    return report


def _audit_relations(args, cfg: OptimizerConfig) -> dict:
    cases = []
    for d in (2, 3, 4):
        for x in np.linspace(-1.0, 1.0, 11):
            rep = relation_report(make_werner(d, float(x)), cfg)
            rep["tolerance"] = 1e-10
            cases.append(rep)
    for d in (2, 3):
        for x in np.linspace(0.0, 1.0, 11):
            rep = relation_report(make_isotropic(d, float(x)), cfg)
            rep["tolerance"] = 1e-10
            cases.append(rep)
    rng = np.random.default_rng(args.seed)
    for _ in range(args.counts):
        rep = relation_report(make_bell_diagonal(random_bell_triple(rng)), cfg)
        rep["tolerance"] = 1e-10
        cases.append(rep)
    for k in range(max(1, args.counts // 2)):
        psi = random_pure((2, 2 + k % 2), rng)
        rep = relation_report(density_from_pure(psi), cfg)
        rep["tolerance"] = 1e-8
        cases.append(rep)
    failures = [c for c in cases if c["residual"] > c["tolerance"]]
    return {
        "cases": cases,
        "n_cases": len(cases),
        "n_failures": len(failures),
        "max_residual": max(c["residual"] for c in cases),
        "passed": not failures,
    }


def _audit_oracle(args, cfg: OptimizerConfig) -> dict:
    rng = np.random.default_rng(args.seed)
    generic = []
    attempts = 0
    while len(generic) < args.counts:
        rho = random_density((2, 2), rank=1 + attempts % 4, seed=rng)
        attempts += 1
        if np.linalg.norm(bloch_decompose(rho).x) > 0.05:
            generic.append(rho)
    generic_cases = []
    for rho in generic:
        closed = trace_min_two_qubit(rho).value
        numeric = trace_min_numeric(rho, cfg)
        generic_cases.append(
            {
                "closed": closed,
                "numeric": numeric.value,
                "method": numeric.method,
                "residual": abs(closed - numeric.value),
                "residual_sumabs_reading": abs(_sumabs_reading(rho) - numeric.value),
            }
        )
    sphere_cases = []
    for _ in range(max(1, args.counts // 2)):
        c = random_bell_triple(rng)
        rho = make_bell_diagonal(c)
        numeric = trace_min_numeric(rho, cfg)
        sphere_cases.append(
            {
                "closed": float(np.abs(c).max()),
                "numeric": numeric.value,
                "method": numeric.method,
                "residual": abs(float(np.abs(c).max()) - numeric.value),
            }
        )
    max_generic = max(c["residual"] for c in generic_cases)
    max_sphere = max(c["residual"] for c in sphere_cases)
    return {
        "generic": generic_cases,
        "sphere": sphere_cases,
        "max_residual_unique": max_generic,
        "max_residual_sphere": max_sphere,
        "max_residual_sumabs_reading": max(
            c["residual_sumabs_reading"] for c in generic_cases
        ),
        "passed": bool(max_generic <= 1e-8 and max_sphere <= 1e-4),
    }


def _cmd_audit(args) -> int:
    cfg = _optimizer_config(args)
    runner = {
        "monotonicity": _audit_monotonicity,
        "relations": _audit_relations,
        "oracle": _audit_oracle,
    }[args.kind]
    report = runner(args, cfg)
    report["kind"] = args.kind
    if args.out:
        _write_json(args.out, report)
        params = {"kind": args.kind, "counts": args.counts, "channels": args.channels}
        _write_manifest(args.out, "audit", params, args.seed, _params_digest(params))
    status = "PASS" if report["passed"] else "FAIL"
    print(f"audit {args.kind}: {status}")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_optimizer_flags(sub) -> None:
    sub.add_argument("--grid", type=_positive_int, default=64, help="sphere grid resolution")
    sub.add_argument("--restarts", type=int, default=4, help="optimizer restarts")
    sub.add_argument("--tol", type=float, default=1e-10, help="refinement tolerance")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed")
    sub.add_argument(
        "--degeneracy-tol",
        dest="degeneracy_tol",
        type=float,
        default=1e-8,
        help="eigenvalue-gap threshold separating the unique and degenerate branches",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minkit",
        description="Measurement-induced nonlocality toolkit (trace, HS, and Bures measures).",
    )
    parser.add_argument("--version", action="version", version=f"minkit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    compute = subs.add_parser("compute", help="evaluate a MIN measure for a state file")
    compute.add_argument("state", help="JSON state file")
    compute.add_argument("--measure", choices=("n1", "n2", "nb"), default="n1")
    compute.add_argument("--method", choices=("auto", "closed", "numeric"), default="auto")
    compute.add_argument("--out", default=None, help="also write the report to this file")
    _add_optimizer_flags(compute)
    compute.set_defaults(func=_cmd_compute)

    surface = subs.add_parser("surface", help="sample a constant trace-MIN level surface")
    surface.add_argument("--level", type=float, required=True)
    surface.add_argument("--resolution", type=_positive_int, default=41)
    surface.add_argument("--out", required=True)
    surface.add_argument("--seed", type=int, default=0)
    surface.set_defaults(func=_cmd_surface)

    region = subs.add_parser("region", help="sample a flip-channel freezing region")
    region.add_argument("--axis", type=int, choices=(1, 2, 3), required=True)
    region.add_argument("--resolution", type=_positive_int, default=21)
    region.add_argument("--out", required=True)
    region.add_argument("--seed", type=int, default=0)
    region.set_defaults(func=_cmd_region)

    sweep = subs.add_parser("sweep", help="flip-channel dynamics of a Bell-diagonal state")
    sweep.add_argument("--c0", required=True, help="initial triple, e.g. 0.2,0.3,0.45")
    sweep.add_argument("--axis", type=int, choices=(1, 2, 3), required=True)
    sweep.add_argument("--sided", choices=("one", "two"), default="one")
    sweep.add_argument("--grid", type=_positive_int, default=41, help="number of time points")
    sweep.add_argument("--tmax", type=float, default=5.0, help="largest gamma*t")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(func=_cmd_sweep)

    audit = subs.add_parser("audit", help="run a self-audit suite")
    audit.add_argument("--kind", choices=("monotonicity", "relations", "oracle"), required=True)
    audit.add_argument("--counts", type=_positive_int, default=100)
    audit.add_argument(
        "--channels", type=_positive_int, default=1, help="channels per state (monotonicity)"
    )
    audit.add_argument("--out", default=None)
    _add_optimizer_flags(audit)
    audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
