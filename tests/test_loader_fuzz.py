"""Fuzzed input files: corrupt one field of a valid symbol, sampled-function
or matrix file and run the command that reads it in-process.  Whatever the
corruption, the command exits 0, 1 or 2 without an escaping exception, and an
exit 1 prints one `input error:` line naming the corrupted field; a number
turned into a boolean or a string always exits 1.  A deterministic sweep puts
every kind of bad number on every number path."""
import copy
import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from pwlab import jsonio
from pwlab.cli import main
from pwlab.pwspace import default_grid, sinc_kernel
from pwlab.symbols import (bump_spectrum_symbol, gaussian_symbol, mod_poly_symbol,
                           sampled_symbol, to_dict)
from pwlab.toeplitz import matrix_to_dict, toeplitz_matrix

_GRID = default_grid(1.0)
_SMALL = default_grid(1.0, 8.0)          # 256 points: a window-8 matrix frame


def _as_read(d: dict) -> dict:
    """The plain JSON tree a file written from d holds (the *_to_dict writers
    give bulk numbers as arrays)."""
    return json.loads(jsonio.dumps_canonical(d))


# (command, flag, valid file contents, paths of the fields to corrupt)
_FILES = {
    "symbol": ("split", "--symbol",
               _as_read(to_dict(gaussian_symbol(1.1, 0.9, 0.2))),
               [("kind",), ("amp",), ("width",), ("shift",), ("mod",)]),
    "sampled-symbol": ("split", "--symbol",
                       _as_read(to_dict(sampled_symbol(
                           sinc_kernel(0.5, 0.0, _GRID), support=(-0.5, 0.5)))),
                       [("fun",), ("support",), ("fun", "grid"),
                        ("fun", "values", 7)]),
    "bump-symbol": ("split", "--symbol",
                    _as_read(to_dict(bump_spectrum_symbol(0.05, 1.9, seed=3,
                                                          hermitian=True))),
                    [("lo",), ("hi",), ("seed",), ("hermitian",)]),
    "function": ("project", "--input",
                 _as_read(jsonio.function_to_dict(sinc_kernel(0.5, 0.0, _SMALL))),
                 [("grid",), ("values",), ("grid", "start"), ("grid", "step"),
                  ("grid", "count"), ("values", 3), ("values", 3, 0)]),
    "matrix": ("commutator-test", "--matrix",
               _as_read(matrix_to_dict(toeplitz_matrix(
                   gaussian_symbol(), 1.0, 2.0, 8.0, _SMALL))),
               [("band",), ("p",), ("basis",), ("entries",),
                ("basis", "window"), ("basis", "nodes"), ("basis", "nodes", 3),
                ("entries", 2),
                ("entries", 2, 5), ("entries", 2, 5, 0), ("grid",),
                ("grid", "start"), ("grid", "step"), ("grid", "count")]),
}
# toeplitz's output file, read through its `matrix` member
_FILES["toeplitz-output"] = ("commutator-test", "--matrix",
                             {"norm_lower": 1.0, "matrix": _FILES["matrix"][2]},
                             [("matrix",), ("matrix", "band"),
                              ("matrix", "entries", 2)])

_CORRUPT = st.one_of(
    st.none(),
    st.text(max_size=6),
    st.integers(min_value=-10**6, max_value=10**6),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
    # one level deeper than a list of [re, im] pairs: a stack of functions
    st.lists(st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                               min_size=2, max_size=2), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.booleans(),
    # numeric strings and a non-integral number: read as numbers by none
    st.sampled_from(["2", "1e3", 2.5]),
    st.just(float("nan")),
    st.sampled_from([1e308, -1e308, 10**400]),
)


# the files of the sweep, with a mod_poly symbol for its integer degree
_SWEEP_FILES = {**_FILES, "mod-poly-symbol": (
    "split", "--symbol", _as_read(to_dict(mod_poly_symbol(2, 0.5, amp=0.5))), [])}
# (file, path) of every number a loader reads: each scalar field, and one
# entry of each array field
_NUMBER_PATHS = [
    *(("symbol", (name,)) for name in ("amp", "width", "shift", "mod")),
    *(("mod-poly-symbol", (name,)) for name in ("degree", "mod", "amp")),
    *(("bump-symbol", (name,)) for name in ("lo", "hi", "amp", "seed")),
    ("sampled-symbol", ("support", 1)), ("sampled-symbol", ("fun", "values", 7, 0)),
    *(("sampled-symbol", ("fun", "grid", name)) for name in ("start", "step", "count")),
    ("function", ("values", 3, 1)),
    *(("function", ("grid", name)) for name in ("start", "step", "count")),
    ("matrix", ("band",)), ("matrix", ("p",)), ("matrix", ("basis", "window")),
    ("matrix", ("basis", "nodes", 3)), ("matrix", ("entries", 2, 5, 0)),
    *(("matrix", ("grid", name)) for name in ("start", "step", "count")),
]
_INTEGER_FIELDS = {"degree", "seed", "count"}
# a boolean, a numeric string, null, NaN, past MAX_MAGNITUDE as a float and as
# an integer float() cannot take, and a nested list
_BAD_NUMBERS = [True, "2", None, float("nan"), 1e308, 10**400, [1, 2]]


def _case(kind):
    return st.tuples(st.just(kind), st.sampled_from(_FILES[kind][3]), _CORRUPT)


@pytest.mark.filterwarnings("default::UserWarning")   # split warns; main prints it
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of([_case(kind) for kind in _FILES]))
# a boolean or a string in an array field, which np.asarray would read as a number
@example(case=("function", ("values", 3, 0), True))
@example(case=("matrix", ("basis", "nodes", 3), False))
@example(case=("matrix", ("entries", 2, 5, 0), "1"))
def test_corrupted_field_exits_cleanly(case, tmp_path, capsys):
    kind, path, value = case
    command, flag, valid, _ = _FILES[kind]
    doc = copy.deepcopy(valid)
    node = doc
    for key in path[:-1]:
        node = node[key]
    number = type(node[path[-1]]) in (int, float)
    node[path[-1]] = value
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))

    code = main([command, flag, str(src), "--out", str(out)])

    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    # a number, alone or in an array, is never read from a boolean or a string
    assert code == 1 or not (number and isinstance(value, (bool, str))), (path, value)
    if code == 1:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:"), err
        field = next(k for k in reversed(path) if isinstance(k, str))
        message = lines[0].replace(str(src), "")
        assert re.search(rf"\b{field}\b", message), (path, value, message)


@pytest.mark.filterwarnings("default::UserWarning")   # split warns; main prints it
@pytest.mark.parametrize("kind, path", _NUMBER_PATHS,
                         ids=["-".join(map(str, (k, *p))) for k, p in _NUMBER_PATHS])
def test_every_bad_number_on_every_path_exits_one(kind, path, tmp_path, capsys):
    command, flag, valid, _ = _SWEEP_FILES[kind]
    field = max(i for i, key in enumerate(path) if isinstance(key, str))
    entry = f" entry {list(path[field + 1:])}" if path[field + 1:] else ""
    named = f"'{path[field]}'{entry} must be "
    values = _BAD_NUMBERS + [2.5] * (path[field] in _INTEGER_FIELDS)
    if path == ("seed",):
        values.remove(None)       # a null seed is no seed
    for value in values:
        doc = copy.deepcopy(valid)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        src = tmp_path / "in.json"
        src.write_text(json.dumps(doc))
        code = main([command, flag, str(src), "--out", str(tmp_path / "out.json")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(lines) == 1, (value, lines)
        assert lines[0].startswith("input error:") and named in lines[0], (value, lines)


@pytest.mark.filterwarnings("default::UserWarning")   # split warns; main prints it
def test_uncorrupted_files_exit_zero(tmp_path):
    # so that every exit 1 in the fuzz test and the sweep comes from the corruption
    for kind, (command, flag, valid, _) in _SWEEP_FILES.items():
        src = tmp_path / f"{kind}.json"
        src.write_text(json.dumps(valid))
        assert main([command, flag, str(src),
                     "--out", str(tmp_path / f"{kind}-out.json")]) == 0, kind


def test_values_nested_one_level_deeper_exit_one(tmp_path, capsys):
    # SampledFunction holds a (k, count) stack; a file holds one function
    _, _, valid, _ = _FILES["function"]
    for values in ([valid["values"]], [[pair] for pair in valid["values"]]):
        src = tmp_path / "in.json"
        src.write_text(json.dumps(dict(valid, values=values)))
        code = main(["project", "--input", str(src),
                     "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("input error:") and "'values'" in err, err
