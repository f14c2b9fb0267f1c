"""Span tracing of minkit's public functions, installed from outside.

``Tracer.install`` wraps each target function and rebinds every name that
refers to it in minkit's module namespaces, so calls made inside minkit are
caught as well as the benchmark's own.  Spans (name, start, end, parent
span, operation id) stay in memory until ``write``; a span's self time is
its duration minus the durations of its direct children (one thread, so
children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function, kind): spans are named "<module>.<function>", except
# that "numeric" spans are named by the branch the result reports and
# "main" spans by the CLI subcommand.
TARGETS = (
    ("linalg", "hermitian_eig", None),
    ("linalg", "psd_sqrt", None),
    ("states", "validate", None),
    ("states", "bloch_decompose", None),
    ("states", "canonicalize", None),
    ("states", "detect_family", None),
    ("measurements", "apply_projectors", None),
    ("measurements", "invariant_family", None),
    ("nonlocality", "trace_min_two_qubit", None),
    ("nonlocality", "hs_min_two_qubit", None),
    ("nonlocality", "trace_min_numeric", "numeric"),
    ("nonlocality", "hs_min_numeric", "numeric"),
    ("nonlocality", "bures_min_numeric", "numeric"),
    ("channels", "dynamics_sweep", None),
    ("channels", "apply_channel_a", None),
    ("channels", "apply_channel_b", None),
    ("channels", "freezing_region", None),
    ("channels", "monotonicity_audit", None),
    ("cli", "surface_rows", None),
    ("cli", "main", "main"),
)

# Layers reported as calls_per_op and self_ms_per_op, in output order.
LAYERS = (
    "states.canonicalize",
    "states.bloch_decompose",
    "states.validate",
    "states.detect_family",
    "nonlocality.trace_min_two_qubit",
    "nonlocality.hs_min_two_qubit",
    "nonlocality.numeric_unique",
    "nonlocality.numeric_sphere",
    "nonlocality.numeric_block",
    "measurements.apply_projectors",
    "measurements.invariant_family",
    "linalg.psd_sqrt",
    "linalg.hermitian_eig",
    "channels.dynamics_sweep",
    "channels.apply_channel_a",
    "channels.apply_channel_b",
    "channels.freezing_region",
    "channels.monotonicity_audit",
    "cli.surface_rows",
)
EVAL_LAYERS = ("nonlocality.numeric_sphere", "nonlocality.numeric_block")
SUBCOMMANDS = ("compute", "sweep", "region", "surface", "audit")

_BRANCH = {"NumericUnique": "unique", "NumericSphere": "sphere", "NumericBlock": "block"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op, evals]
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.op = -1

    def _wrap(self, module: str, fn, kind):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        name = f"{module}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if kind == "numeric":
                span[0] = f"nonlocality.numeric_{_BRANCH.get(result.method, 'other')}"
                span[5] = result.iterations
            elif kind == "main":
                argv = args[0] if args else kwargs.get("argv")
                span[0] = f"cli.main.{argv[0] if argv else 'none'}"
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if n == "minkit" or n.startswith("minkit.")]
        for module, attr, kind in TARGETS:
            home = sys.modules.get(f"minkit.{module}")
            if home is None:
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(module, original, kind)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((vars(mod), key, original))
                    elif isinstance(value, dict):
                        # dispatch tables such as cli._NUMERIC
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._restore.append((value, k, original))

    def uninstall(self) -> None:
        for table, key, original in reversed(self._restore):
            table[key] = original
        self._restore.clear()

    def metrics(self, ops: int, speed: float) -> dict:
        """Per-layer metrics over ``ops`` traced operations, times multiplied
        by ``speed`` to read at reference speed (see speed.py)."""
        child = defaultdict(int)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        calls, self_ns, evals, total_ns = (defaultdict(int) for _ in range(4))
        for idx, (name, start, end, _, _, n_evals) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child[idx]
            total_ns[name] += end - start
            evals[name] += n_evals
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls_per_op"] = (calls[layer] / ops, "count")
            out[f"{layer}.self_ms_per_op"] = (self_ns[layer] / 1e6 * speed / ops, "ms")
        for layer in EVAL_LAYERS:
            out[f"{layer}.evals_per_op"] = (evals[layer] / ops, "count")
        for sub in SUBCOMMANDS:
            name = f"cli.main.{sub}"
            mean = total_ns[name] / 1e6 * speed / calls[name] if calls[name] else 0.0
            out[f"{name}.ms_per_op"] = (mean, "ms")
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op,evals\n")
            for idx, (name, start, end, parent, op, n_evals) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start},{end},{parent},{op},{n_evals}\n")
