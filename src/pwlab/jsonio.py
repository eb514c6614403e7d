"""Canonical JSON serialization.

All floats are rendered with %.17g so that repeated runs produce
byte-identical files (17 significant digits round-trips IEEE doubles).
Complex arrays are stored as [[re, im], ...] pairs.  The emitter is
hand-rolled because the stdlib encoder does not let us control float
formatting reliably.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .grid import Grid, SampledFunction

# the largest magnitude a number read from a file may have: squares and
# products of two such numbers, summed over any grid, stay finite
MAX_MAGNITUDE = 1e100


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    s = "%.17g" % x
    # normalize negative zero for determinism
    return "0" if s == "-0" else s


def _emit(obj, out, indent):
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, k in enumerate(sorted(obj)):
            out.append(pad + " " + json.dumps(str(k)) + ": ")
            _emit(obj[k], out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + " ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        out.append("[%s, %s]" % (_fmt_float(obj.real), _fmt_float(obj.imag)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj) -> str:
    out = []
    _emit(obj, out, 0)
    return "".join(out)


def dump_canonical(obj, path):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


def grid_to_dict(g: Grid) -> dict:
    return {"start": g.start, "step": g.step, "count": g.count}


def number_field(d: dict, name: str, default=None, cast=float, *, owner: str):
    """d[name] (or the default when absent) converted by cast; a null,
    non-numeric, non-finite or too large value is a ValueError naming the
    field."""
    value = d[name] if default is None else d.get(name, default)
    try:
        out = cast(value)
        ok = math.isfinite(out) and abs(out) <= MAX_MAGNITUDE
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{owner} field {name!r} must be a finite number of "
                         f"magnitude at most {MAX_MAGNITUDE:g}, got {value!r}")
    return out


def bounded(arr: np.ndarray) -> np.ndarray:
    """Elementwise: finite and of magnitude at most MAX_MAGNITUDE."""
    return np.abs(arr) <= MAX_MAGNITUDE


def grid_from_dict(d: dict) -> Grid:
    """Grid from its JSON object; a malformed field is a ValueError naming it."""
    if not isinstance(d, dict):
        raise ValueError(f"field 'grid' must be an object, got {d!r}")
    for name in ("start", "step", "count"):
        if name not in d:
            raise ValueError(f"grid object missing field {name!r}")
    return Grid(number_field(d, "start", owner="grid"),
                number_field(d, "step", owner="grid"),
                number_field(d, "count", cast=int, owner="grid"))


def function_to_dict(f: SampledFunction) -> dict:
    return {
        "grid": grid_to_dict(f.grid),
        "values": [[float(v.real), float(v.imag)] for v in f.values],
    }


def function_from_dict(d: dict) -> SampledFunction:
    for field in ("grid", "values"):
        if field not in d:
            raise ValueError(f"sampled function object missing field {field!r}")
    g = grid_from_dict(d["grid"])
    try:
        pairs = np.asarray(d["values"], dtype=float)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("field 'values' must be a list of [re, im] pairs")
    bad = np.flatnonzero(~np.all(bounded(pairs), axis=1))
    if len(bad):
        # a null reads as NaN; name the entry rather than the array
        raise ValueError(f"field 'values' entry {bad[0]} must be two finite "
                         f"numbers of magnitude at most {MAX_MAGNITUDE:g}, "
                         f"got {d['values'][bad[0]]!r}")
    return SampledFunction(g, pairs[:, 0] + 1j * pairs[:, 1])
