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
import reprlib
from itertools import chain

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


def _is_number(t: type) -> bool:
    return issubclass(t, (int, float, np.number)) and t is not bool


def _fits(value, cast) -> bool:
    """The rule for one number of a file: a JSON number (not a boolean, a
    string or null) of magnitude at most MAX_MAGNITUDE, so finite, and
    integral for cast=int."""
    return (_is_number(type(value)) and abs(value) <= MAX_MAGNITUDE
            and not (cast is int and value % 1))


def _first_bad(tree, cast, ndim: int, shape: list, at: tuple = ()):
    """(index, value, what it must be) of the first entry, depth first, of
    `tree`, nested lists with ndim axes, that breaks the rule: a leaf `_fits`
    refuses, or a list that is empty or not as long as the first list at its
    depth; None if there is none."""
    depth = len(at)
    if depth == ndim:
        return None if _fits(tree, cast) else (
            at, tree, f"{'an integer' if cast is int else 'a number'} of "
                      f"magnitude at most {MAX_MAGNITUDE:g}")
    known = depth < len(shape)
    if not isinstance(tree, list) or not tree or known and len(tree) != shape[depth]:
        return at, tree, f"a list of {shape[depth]} entries" if known else "a nonempty list"
    if not known:
        shape.append(len(tree))
    for i, t in enumerate(tree):
        if found := _first_bad(t, cast, ndim, shape, (*at, i)):
            return found
    return None


def number(obj: dict, name: str, default=None, cast=float, *, owner: str,
           ndim: int = 0):
    """obj[name], or the default when it is absent, read by `_fits`' rule and
    converted by cast; with ndim > 0, nested lists with ndim axes read as a
    float array.  The first problem, a missing field, a wrong shape or a bad
    value, is a ValueError "{owner} field 'name'[ entry [i, ...]] must be ...,
    got v".  A valid array is not walked entry by entry: np.asarray reads it,
    and its values' types, which np.asarray would read from a boolean or a
    string, are gathered at C speed."""
    if name not in obj:
        if default is None:
            raise ValueError(f"{owner} field {name!r} is missing")
        return default
    value = obj[name]
    if ndim == 0 and _fits(value, cast):
        return cast(value)
    if ndim:
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError):
            arr = None
        if arr is not None and arr.ndim == ndim and np.all(np.abs(arr) <= MAX_MAGNITUDE):
            values = value
            for _ in range(ndim - 1):
                values = chain.from_iterable(values)
            if all(map(_is_number, set(map(type, values)))):
                return arr
    at, bad, wanted = _first_bad(value, cast, ndim, [])
    entry = f" entry {list(at)}" if at else ""
    raise ValueError(f"{owner} field {name!r}{entry} must be {wanted}, "
                     f"got {reprlib.repr(bad)}")


def member(obj: dict, name: str, *, owner: str) -> dict:
    """obj[name], which must be a JSON object; else a ValueError "{owner} field
    'name' must be an object, got v", v shortened as in `number`."""
    value = obj.get(name)
    if not isinstance(value, dict):
        raise ValueError(f"{owner} field {name!r} must be an object, "
                         f"got {reprlib.repr(value)}")
    return value


def grid_from_dict(d: dict) -> Grid:
    """Grid from its JSON object; a malformed field is a ValueError naming it."""
    return Grid(number(d, "start", owner="grid"), number(d, "step", owner="grid"),
                number(d, "count", cast=int, owner="grid"))


def function_to_dict(f: SampledFunction) -> dict:
    return {
        "grid": grid_to_dict(f.grid),
        "values": np.stack([f.values.real, f.values.imag], axis=-1),
    }


def function_from_dict(d: dict) -> SampledFunction:
    g = grid_from_dict(member(d, "grid", owner="sampled function"))
    pairs = number(d, "values", owner="sampled function", ndim=2)
    if pairs.shape[1] != 2:
        raise ValueError(f"sampled function field 'values' must be a list of "
                         f"[re, im] pairs, got shape {pairs.shape}")
    return SampledFunction(g, pairs[:, 0] + 1j * pairs[:, 1])
