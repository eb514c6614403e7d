"""Canonical JSON serialization, and the CSV tables written beside it.

All floats are rendered with %.17g so that repeated runs produce
byte-identical files (17 significant digits round-trips IEEE doubles),
negative zero is written as 0, and dict keys are sorted.  Every array and
object opens a new line per element, indented one space per level.

The writer walks dicts, lists, tuples and scalars one value at a time.  A
nonempty float64 ndarray, the form the *_to_dict writers give bulk numbers
(complex values as [re, im] pairs along the last axis), is written in one
step instead: a %.17g template with the walk's layout is built for its shape
and depth and filled with all its values at once.  Other ndarrays are
written as their tolist().
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


def _array_template(shape: tuple, indent: int) -> str:
    """The %.17g format the walk writes for nested lists of this shape that
    sit `indent` levels deep, built innermost axis first."""
    template = "%.17g"
    for depth in range(indent + len(shape) - 1, indent - 1, -1):
        item = " " * (depth + 1) + template
        template = ("[\n" + ",\n".join([item] * shape[depth - indent]) + "\n"
                    + " " * depth + "]")
    return template


def _emit(obj, out, indent):
    pad = " " * indent
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim == 0 or obj.size == 0:
            _emit(obj.tolist(), out, indent)
        elif not np.all(np.isfinite(obj)):
            raise ValueError("cannot serialize non-finite float")
        else:
            # adding 0.0 turns -0.0 into 0.0
            values = tuple((obj + 0.0).ravel().tolist())
            out.append(_array_template(obj.shape, indent) % values)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, k in enumerate(sorted(obj)):
            out.append(pad + " " + json.dumps(str(k)) + ": ")
            _emit(obj[k], out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + " ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
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
    # rendered before the file is opened, so a value that cannot be written
    # leaves no truncated file behind
    text = dumps_canonical(obj)
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """A CSV table: floats as in the JSON (%.17g), anything else as str()."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_float(v) if isinstance(v, float) else str(v)
                              for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
        "values": np.stack([f.values.real, f.values.imag], axis=-1),
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
