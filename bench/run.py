"""Benchmark of minkit: four workloads, each checked against independent numerics.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root; minkit is imported from ``src/``.  One
process, one thread (BLAS pinned to one thread).  Each run makes whole
passes over the workload's seeded operation list until ``--seconds`` have
passed and the workload's minimum number of passes was made, times every
operation, and checks every output.  Times are reported at the reference
host speed of ``speed.py``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MINKIT_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
               "import minkit.cli; print(time.perf_counter() - t)")


def import_minkit():
    """Import minkit from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "minkit", "__init__.py")):
        sys.exit(f"error: no minkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import minkit

    if os.path.dirname(os.path.dirname(os.path.abspath(minkit.__file__))) != SRC:
        sys.exit(f"error: imported minkit from {minkit.__file__}, not from {SRC}")
    return minkit


def measure(ops, seconds: float, min_passes: int, probe, tracer=None):
    """Make whole passes over ``ops`` until ``seconds`` have passed and at least
    ``min_passes`` were made.

    Returns the number attempted, the raw and the reference-speed time of
    every operation that returned, each operation's best reference-speed
    time, and the failures and mismatches seen."""
    from workloads import Mismatch

    attempted, raw, scaled, failures, mismatches = 0, [], [], [], []
    best = [float("inf")] * len(ops)
    gc.collect()
    start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            try:
                result, elapsed, at_ref = probe.timed(op.run)
            except Exception as exc:  # a raising operation is a failed one
                failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            raw.append(elapsed)
            scaled.append(at_ref)
            best[i] = min(best[i], at_ref)
            try:
                failure = op.check(result)
            except Mismatch as exc:
                mismatches.append(f"{op.name}: {exc}")
            else:
                if failure is not None:
                    failures.append(failure)
        passes += 1
    return attempted, raw, scaled, best, failures, mismatches


def child_seconds(argv: list[str], probe, samples: int) -> tuple[float, float]:
    """Median raw and reference-speed time of ``samples`` fresh interpreters
    running ``argv``: the time until the child prints its first line, or the
    number it prints."""
    from speed import at_reference

    raw, scaled = [], []
    for _ in range(samples):
        before = probe.speed()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable] + argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"child {argv} failed with exit code {proc.returncode}")
        if line != "ready":
            elapsed = float(line)
        raw.append(elapsed)
        scaled.append(at_reference(elapsed, before, probe.speed()))
    return statistics.median(raw), statistics.median(scaled)


def environment_line(np_version: str) -> str:
    import scipy

    return (f"env: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np_version} scipy={scipy.__version__} "
            + " ".join(f"{v}={os.environ[v]}" for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MINKIT_THREADS")))


def run_workload(args) -> dict:
    minkit = import_minkit()
    import numpy as np
    import workloads
    from speed import SpeedProbe

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        ops = workloads.OPERATION_LISTS[args.workload](minkit, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return {}
        print(environment_line(np.__version__))
        probe = SpeedProbe()
        if not args.trace:
            setup_raw, setup_ref = child_seconds(
                [os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
                 "--seed", str(args.seed)], probe, SETUP_SAMPLES)
            attempted, raw, scaled, best, failures, mismatches = measure(
                ops, args.seconds, workloads.MIN_PASSES[args.workload], probe)
            metrics = {
                "setup_s": (setup_ref, "s"),
                "ops_per_s": (len(best) / sum(best), "1/s"),
                "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
            }
            print(f"{args.workload}: {attempted} ops in {attempted // len(ops)} passes over "
                  f"{len(ops)}; raw: setup_s {setup_raw:.6g}, all-samples ops_per_s "
                  f"{len(raw) / sum(raw):.6g}; speed factor {sum(scaled) / sum(raw):.4f}")
        else:
            from tracer import Tracer

            n0, _, scaled0, _, failures, mismatches = measure(ops, args.seconds / 2, 1, probe)
            tracer = Tracer()
            tracer.install()
            try:
                n1, raw1, scaled1, _, fail1, mis1 = measure(ops, args.seconds / 2, 1, probe,
                                                            tracer)
            finally:
                tracer.uninstall()
            attempted = n0 + n1
            failures += fail1
            mismatches += mis1
            metrics = tracer.metrics(n1, sum(scaled1) / sum(raw1))
            rate0, rate1 = len(scaled0) / sum(scaled0), len(scaled1) / sum(scaled1)
            metrics["tracing.overhead_pct"] = (100.0 * (1.0 - rate1 / rate0), "%")
            import_s = child_seconds(["-c", IMPORT_CODE, SRC], probe, IMPORT_SAMPLES)[1]
            metrics["cli.import_ms"] = (import_s * 1e3, "ms")
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
            tracer.write(spans)
            print(f"{args.workload}: {n0} untraced + {n1} traced ops, "
                  f"{len(tracer.spans)} spans -> {os.path.relpath(spans, ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    for line in mismatches[:20]:
        print(f"MISMATCH: {line}", file=sys.stderr)
    return {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"  {line}")
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"  {key:50s} {m['value']:14.6g} {m['unit']}")
            total["metrics"][f"{name}/{key}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    return total


def main() -> None:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    if not args.setup_only:
        print(json.dumps(result))


if __name__ == "__main__":
    main()
