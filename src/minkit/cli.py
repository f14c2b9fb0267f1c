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
import functools
import hashlib
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .channels import FLIP_LABELS, dynamics_sweep, freezing_region, monotonicity_audit
from .nonlocality import (
    DIM_LIMIT,
    DimensionLimitError,
    METHOD_CLOSED,
    MinResult,
    OptimizerConfig,
    bures_min_numeric,
    closed_form,
    hs_min_numeric,
    oracle_audit,
    relation_audit,
    trace_min_numeric,
)
from .states import (
    DensityMatrix,
    StateFormatError,
    StateInvariantError,
    in_tetrahedron,
    load_state,
)

_NUMERIC = {"n1": trace_min_numeric, "n2": hs_min_numeric, "nb": bures_min_numeric}


# CSV text of a float: 12 significant digits.
_FLOAT_CELL = "%.12g"


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


def _write_manifest(out_path: str, command: str, config: dict, seed: int = 0,
                    digest: str | None = None) -> None:
    """The sidecar of ``out_path``; the input digest defaults to that of ``config``."""
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "input_digest": digest or _params_digest(config),
        "tool_version": __version__,
    }
    _write_json(out_path + ".manifest.json", manifest)


def _column_text(col) -> list[str]:
    """CSV text of one column: floats (``np.float64`` included) as
    ``_FLOAT_CELL``, anything else through ``str``.  A float64, integer, bool
    or str array formats each distinct value (a float by bit pattern, so -0.0
    stays apart from 0.0) once."""
    if isinstance(col, np.ndarray) and (col.dtype == np.float64 or col.dtype.kind in "biuU"):
        keys, where = np.unique(col.view(np.int64) if col.dtype == np.float64 else col,
                                return_inverse=True)
        text = np.array(_column_text(keys.view(col.dtype).tolist()), dtype=object)
        return text[where.ravel()].tolist()
    return [_FLOAT_CELL % v if isinstance(v, float) else str(v) for v in col]


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is malformed input."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write ``columns`` (arrays or sequences, one per header name) under
    ``header``; columns of unequal length raise ``ValueError``.  The rows
    are one ``"".join`` over the cells interleaved with their separators."""
    cols = [_column_text(col) for col in columns]
    step, n = 2 * len(cols), len(cols[0])
    cells = [","] * (step * n)
    for j, col in enumerate(cols):  # a column of another length raises ValueError here
        cells[2 * j :: step] = col
    cells[step - 1 :: step] = ["\n"] * n
    _write_text(path, ",".join(header) + "\n" + "".join(cells))


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _optimizer_config(args) -> OptimizerConfig:
    try:
        return OptimizerConfig(
            restarts=args.restarts,
            tol=args.tol,
            seed=args.seed,
            degeneracy_tol=args.degeneracy_tol,
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


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
        _write_text(args.out, text + "\n")
        _write_manifest(
            args.out,
            f"compute --measure {args.measure} --method {args.method}",
            asdict(cfg),
            args.seed,
            _file_digest(args.state),
        )
    return 0


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------


def surface_rows(level: float, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the six faces of the constant-trace-MIN cube clipped to the tetrahedron.

    Returns the points (N, 3) and their face ids (N,).  Face ``2 * axis + k``
    holds c[axis] = +level (k = 0) or -level (k = 1).
    """
    grid = np.linspace(-level, level, resolution)
    square = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    faces = np.stack(
        [np.insert(square, axis, sign * level, axis=1) for axis in range(3) for sign in (1, -1)]
    )
    keep = in_tetrahedron(faces)
    face_ids = np.broadcast_to(np.arange(6)[:, None], keep.shape)
    return faces[keep], face_ids[keep]


def _cmd_surface(args) -> int:
    if not 0.0 < args.level <= 1.0:
        raise _InputError(f"level must lie in (0, 1], got {args.level}")
    points, face_ids = surface_rows(args.level, args.resolution)
    _write_csv(args.out, ["c1", "c2", "c3", "face_id"], [*points.T, face_ids])
    _write_manifest(args.out, "surface", {"level": args.level, "resolution": args.resolution})
    print(f"surface level {args.level}: {len(face_ids)} points -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def _cmd_region(args) -> int:
    report = freezing_region(args.axis, resolution=args.resolution)
    _write_csv(args.out, ["c1", "c2", "c3", "flag"], [*report["points"].T, report["flags"]])
    sidecar = {key: report[key] for key in ("axis", "channel", "vertices")}
    _write_json(args.out + ".vertices.json", sidecar)
    _write_manifest(args.out, "region", {"axis": args.axis, "resolution": args.resolution})
    print(f"freezing region axis {args.axis}: {len(report['flags'])} samples -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    try:
        c0 = np.array([float(v) for v in args.c0.split(",")])
    except ValueError as exc:
        raise _InputError(f"--c0 expects three comma-separated numbers: {exc}") from exc
    if c0.size != 3 or not np.isfinite(c0).all():
        raise _InputError(f"--c0 expects three finite comma-separated numbers, got {args.c0}")
    if not (np.isfinite(args.tmax) and args.tmax >= 0.0):
        raise _InputError(f"--tmax must be finite and >= 0, got {args.tmax}")
    times = np.linspace(0.0, args.tmax, args.grid)
    trace = dynamics_sweep(c0, args.axis, args.sided, times)
    columns = [times, *trace.c_t.T, trace.n1_t, trace.n2_t]
    _write_csv(args.out, ["gamma_t", "c1", "c2", "c3", "n1", "n2"], columns)
    params = {
        "c0": [float(v) for v in c0],
        "axis": args.axis,
        "sided": args.sided,
        "points": args.grid,
        "tmax": args.tmax,
    }
    _write_manifest(args.out, "sweep", params)
    print(f"sweep {FLIP_LABELS[args.axis]} ({args.sided}-sided): {len(times)} points -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def _cmd_audit(args) -> int:
    cfg = _optimizer_config(args)
    if args.kind == "monotonicity":
        report = monotonicity_audit(args.counts, args.channels, args.seed, cfg)
    elif args.kind == "relations":
        report = relation_audit(args.counts, args.seed, cfg)
    else:
        report = oracle_audit(args.counts, args.seed, cfg)
    report["kind"] = args.kind
    if args.out:
        _write_json(args.out, report)
        params = {"kind": args.kind, "counts": args.counts, "channels": args.channels,
                  **asdict(cfg)}
        _write_manifest(args.out, "audit", params, args.seed)
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
    cfg = OptimizerConfig()  # the defaults
    sub.add_argument("--restarts", type=int, default=cfg.restarts, help="optimizer restarts")
    sub.add_argument("--tol", type=float, default=cfg.tol, help="optimizer stopping tolerance")
    sub.add_argument("--seed", type=int, default=cfg.seed, help="RNG seed")
    sub.add_argument("--degeneracy-tol", type=float, default=cfg.degeneracy_tol,
                     help="eigenvalue-gap threshold separating the unique and degenerate branches")


@functools.cache
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
    surface.set_defaults(func=_cmd_surface)

    region = subs.add_parser("region", help="sample a flip-channel freezing region")
    region.add_argument("--axis", type=int, choices=(1, 2, 3), required=True)
    region.add_argument("--resolution", type=_positive_int, default=21)
    region.add_argument("--out", required=True)
    region.set_defaults(func=_cmd_region)

    sweep = subs.add_parser("sweep", help="flip-channel dynamics of a Bell-diagonal state")
    sweep.add_argument("--c0", required=True, help="initial triple, e.g. 0.2,0.3,0.45")
    sweep.add_argument("--axis", type=int, choices=(1, 2, 3), required=True)
    sweep.add_argument("--sided", choices=("one", "two"), default="one")
    sweep.add_argument("--grid", type=_positive_int, default=41, help="number of time points")
    sweep.add_argument("--tmax", type=float, default=5.0, help="largest gamma*t")
    sweep.add_argument("--out", required=True)
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
