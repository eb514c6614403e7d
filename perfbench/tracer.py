"""Span tracer for the benchmark's traced runs.

Nothing here is imported by pwlab itself.  `Tracer.install` rebinds each
listed public function, in every `pwlab.*` module namespace that holds it and
in `verify.ALL_CHECKS`, to a wrapper that records one span per call; the
`numpy.fft.fft`/`ifft` attributes are wrapped for counts only.  Spans stay in
memory until `write_jsonl` is called at the end of the run, and `summarize`
turns them into the per-layer metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time

import numpy as np

# (metric prefix, module, attribute): the public functions of each layer.
TARGETS = [
    ("grid.fft_spectrum", "pwlab.grid", "fft_spectrum"),
    ("grid.inverse_spectrum", "pwlab.grid", "inverse_spectrum"),
    ("grid.evaluate_offgrid", "pwlab.grid", "evaluate_offgrid"),
    ("pwspace.project_band", "pwlab.pwspace", "project_band"),
    ("pwspace.boyd_lower_bound", "pwlab.pwspace", "boyd_lower_bound"),
    ("symbols.samples", "pwlab.symbols", "samples"),
    ("symbols.point_values", "pwlab.symbols", "point_values"),
    ("toeplitz.toeplitz_matrix", "pwlab.toeplitz", "toeplitz_matrix"),
    ("toeplitz.assemble_matrix", "pwlab.toeplitz", "assemble_matrix"),
    ("toeplitz.toeplitz_apply", "pwlab.toeplitz", "toeplitz_apply"),
    ("toeplitz.matrix_pnorm", "pwlab.toeplitz", "matrix_pnorm"),
    ("split.split_symbol", "pwlab.split", "split_symbol"),
    ("split.jensen_certificate", "pwlab.split", "jensen_certificate"),
    ("split.central_recover_sweep", "pwlab.split", "central_recover_sweep"),
    ("nehari.line_to_disk", "pwlab.nehari", "line_to_disk"),
    ("nehari.aak_solve", "pwlab.nehari", "aak_solve"),
    ("nehari.nehari_solve", "pwlab.nehari", "nehari_solve"),
    ("nehari.hankel_norm_estimate", "pwlab.nehari", "hankel_norm_estimate"),
    ("nehari.bounded_symbol", "pwlab.nehari", "bounded_symbol"),
    ("commutator.lambda_ops", "pwlab.commutator", "lambda_ops"),
    ("commutator.lattice_omega_apply", "pwlab.commutator", "lattice_omega_apply"),
    ("commutator.commutator_test", "pwlab.commutator", "commutator_test"),
    ("commutator.series_reconstruct", "pwlab.commutator", "series_reconstruct"),
    ("commutator.recover_symbol", "pwlab.commutator", "recover_symbol"),
    ("commutator.recovery_roundtrip", "pwlab.commutator", "recovery_roundtrip"),
    ("factorize.weak_factorize", "pwlab.factorize", "weak_factorize"),
    ("factorize.pair", "pwlab.factorize", "pair"),
    ("factorize.regroup_pairs", "pwlab.factorize", "regroup_pairs"),
    ("factorize.sinc_atom", "pwlab.factorize", "sinc_atom"),
    ("jsonio.dump_canonical", "pwlab.jsonio", "dump_canonical"),
    ("jsonio.function_from_dict", "pwlab.jsonio", "function_from_dict"),
    ("jsonio.matrix_from_dict", "pwlab.toeplitz", "matrix_from_dict"),
    ("jsonio.json_load", "json", "load"),
]

CLI_COMMANDS = ["toeplitz", "split", "project", "factorize", "nehari",
                "commutator-test", "recover-symbol"]

N_CHECKS = 14


def per_layer_metric_specs() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for name, _, _ in TARGETS:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                  (f"{name}.total_s", "s", "lower")]
    specs += [
        ("grid.evaluate_offgrid.points", "count", "lower"),
        ("numpy.fft.calls", "count", "lower"),
        ("numpy.fft.points", "count", "lower"),
        ("toeplitz.assemble_matrix.columns", "count", "lower"),
        ("toeplitz.toeplitz_matrix.unique_ratio", "ratio", "higher"),
        ("commutator.lambda_ops.reuse_ratio", "ratio", "higher"),
        ("jsonio.dump_canonical.bytes", "bytes", "lower"),
    ]
    specs += [(f"cli.{c}.wall_s", "s", "lower") for c in CLI_COMMANDS]
    specs.append(("cli.import_s", "s", "lower"))
    specs += [(f"verify.check_{k:02d}.total_s", "s", "lower")
              for k in range(1, N_CHECKS + 1)]
    return specs


def _freeze(obj):
    """Hashable content key for symbol parameters and grids."""
    if isinstance(obj, (bool, int, float, str, type(None))):
        return obj
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(v) for v in obj)
    if hasattr(obj, "tobytes"):
        return hashlib.sha1(obj.tobytes()).hexdigest()
    if hasattr(obj, "grid") and hasattr(obj, "values"):
        return (_freeze(obj.grid), _freeze(obj.values))
    if hasattr(obj, "start") and hasattr(obj, "step") and hasattr(obj, "count"):
        return (obj.start, obj.step, obj.count)
    if hasattr(obj, "kind") and hasattr(obj, "params"):
        return (obj.kind, _freeze(obj.params), _freeze(obj.spectral_support))
    return repr(obj)


def _fft_size(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", None) or (len(a),)
    n = args[1] if len(args) > 1 else kwargs.get("n")
    axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
    length = shape[axis]
    batches = max(1, math.prod(shape) // max(length, 1))
    n = length if n is None else n
    return n, batches


class Tracer:
    """Records spans (name, start, end, parent, op) for wrapped functions."""

    def __init__(self):
        self.spans = []            # [id, parent, name, t0, t1, op, extra]
        self.op = None             # identifier shared by the spans of one op
        self.active = False        # record only while an operation runs
        self.fft_calls = 0
        self.fft_points = 0
        self.fft_flops = 0.0
        self.toeplitz_keys = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, modname, attr in TARGETS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._rebind(orig, self._wrap(name, orig))
        verify = importlib.import_module("pwlab.verify")
        for i, fn in enumerate(list(verify.ALL_CHECKS)):
            number = fn.__name__.split("_")[1]
            wrapped = self._wrap(f"verify.check_{number}", fn)
            self._restore.append((verify.ALL_CHECKS, i, fn))
            verify.ALL_CHECKS[i] = wrapped
            self._rebind(fn, wrapped)
        import numpy.fft
        for attr in ("fft", "ifft"):
            orig = getattr(numpy.fft, attr)
            self._restore.append((numpy.fft, attr, orig))
            setattr(numpy.fft, attr, self._count_fft(orig))

    def _rebind(self, orig, wrapped) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "pwlab" or modname.startswith("pwlab.")
                                   or modname == "json"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            if isinstance(target, list):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        sig = inspect.signature(fn) if name == "toeplitz.toeplitz_matrix" else None

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            span = [sid, parent, name, 0.0, 0.0, tracer.op, None]
            tracer.spans.append(span)
            stack.append(sid)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            span[6] = tracer._extra(name, sig, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _extra(self, name, sig, args, kwargs, result):
        if name == "grid.evaluate_offgrid":
            x = args[1] if len(args) > 1 else kwargs["x"]
            return {"points": int(np.size(x))}
        if name == "toeplitz.assemble_matrix":
            return {"columns": int(result.size)}
        if name == "jsonio.dump_canonical":
            path = args[1] if len(args) > 1 else kwargs["path"]
            return {"bytes": os.path.getsize(path)}
        if name == "toeplitz.toeplitz_matrix":
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            a = b.arguments
            self.toeplitz_keys.add((_freeze(a["sym"]), a["a"], a["window"],
                                    _freeze(a["grid"])))
        return None

    def _count_fft(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            n, batches = _fft_size(args, kwargs)
            tracer.fft_calls += 1
            tracer.fft_points += n * batches
            tracer.fft_flops += 5.0 * n * math.log2(n) * batches if n > 1 else 0.0
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    # -- output ----------------------------------------------------------------

    def counters(self) -> dict:
        return {"fft_calls": self.fft_calls, "fft_points": self.fft_points,
                "fft_flops": self.fft_flops,
                "toeplitz_unique": len(self.toeplitz_keys)}

    def span_records(self) -> list:
        return [{"id": s[0], "parent": s[1], "name": s[2], "t0": s[3],
                 "t1": s[4], "op": s[5], **(s[6] or {})} for s in self.spans]


def write_jsonl(records, path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def summarize(records, counters) -> dict:
    """Per-layer values from span records and the fft/toeplitz counters.

    `records` may mix several processes' spans: ids are unique per `proc`
    field (absent for the worker itself).
    """
    child_time = {}
    for r in records:
        if r["parent"] is not None:
            key = (r.get("proc"), r["parent"])
            child_time[key] = child_time.get(key, 0.0) + r["t1"] - r["t0"]
    agg = {}
    for r in records:
        d = agg.setdefault(r["name"], {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                       "points": 0, "columns": 0, "bytes": 0})
        dur = r["t1"] - r["t0"]
        d["calls"] += 1
        d["total_s"] += dur
        d["self_s"] += dur - child_time.get((r.get("proc"), r["id"]), 0.0)
        for k in ("points", "columns", "bytes"):
            d[k] += r.get(k, 0)

    out = {}
    for name, _, _ in TARGETS:
        d = agg.get(name, {})
        out[f"{name}.calls"] = d.get("calls", 0)
        out[f"{name}.self_s"] = d.get("self_s", 0.0)
        out[f"{name}.total_s"] = d.get("total_s", 0.0)
    out["grid.evaluate_offgrid.points"] = agg.get("grid.evaluate_offgrid", {}).get("points", 0)
    out["numpy.fft.calls"] = counters.get("fft_calls", 0)
    out["numpy.fft.points"] = counters.get("fft_points", 0)
    out["numpy.fft.flops_est"] = counters.get("fft_flops", 0.0)
    out["toeplitz.assemble_matrix.columns"] = agg.get("toeplitz.assemble_matrix", {}).get("columns", 0)
    calls = out["toeplitz.toeplitz_matrix.calls"]
    out["toeplitz.toeplitz_matrix.unique_ratio"] = (
        counters.get("toeplitz_unique", 0) / calls if calls else 0.0)
    users = sum(out[f"commutator.{f}.calls"]
                for f in ("commutator_test", "series_reconstruct", "recover_symbol"))
    out["commutator.lambda_ops.reuse_ratio"] = (
        1.0 - out["commutator.lambda_ops.calls"] / users if users else 0.0)
    out["jsonio.dump_canonical.bytes"] = agg.get("jsonio.dump_canonical", {}).get("bytes", 0)
    for c in CLI_COMMANDS:                       # filled in by the cli worker
        out[f"cli.{c}.wall_s"] = 0.0
    out["cli.import_s"] = 0.0
    for k in range(1, N_CHECKS + 1):
        out[f"verify.check_{k:02d}.total_s"] = agg.get(f"verify.check_{k:02d}", {}).get("total_s", 0.0)
    return out
