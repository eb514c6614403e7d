"""End-to-end runs of the command-line entry point (exit codes, files, bytes)."""
import inspect
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pwlab import factorize, jsonio, nehari, split
from pwlab.cli import COMMANDS, _tols, build_parser, main, tolerances
from pwlab.factorize import sinc_atom
from pwlab.grid import Grid, SampledFunction
from pwlab.pwspace import default_grid, project_band, sinc_kernel
from pwlab.symbols import gaussian_symbol, sampled_symbol, to_dict
from pwlab.toeplitz import OperatorMatrix, matrix_to_dict, toeplitz_matrix

# the suite turns warnings into errors; a case that expects main to print one
# as a "warning: ..." line restores the default action for it
PRINTS_WARNINGS = pytest.mark.filterwarnings("default::UserWarning")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files shared by the command tests, written once."""
    d = tmp_path_factory.mktemp("cli")
    grid = default_grid(1.0)

    sym = to_dict(gaussian_symbol(amp=0.8, width=2.0, shift=0.0))
    jsonio.dump_canonical(sym, d / "gauss_flat.json")
    jsonio.dump_canonical({"gaussian": {k: v for k, v in sym.items()
                                        if k != "kind"}},
                          d / "gauss_wrapped.json")

    smooth = sinc_kernel(0.5, 0.0, grid)
    jsonio.dump_canonical(jsonio.function_to_dict(smooth), d / "smooth.json")

    k = sinc_kernel(0.9, 0.0, grid)
    target = jsonio.function_to_dict(SampledFunction(grid, k.values ** 2))
    jsonio.dump_canonical(target, d / "target.json")

    T = toeplitz_matrix(gaussian_symbol(), 1.0, 2.0, 64.0, grid)
    jsonio.dump_canonical(matrix_to_dict(T), d / "matrix.json")

    n = T.size
    e = np.zeros(n)
    e[n // 2] = e[n // 2 + 16] = 1.0 / np.sqrt(2.0)
    S = OperatorMatrix(T.entries + np.outer(e, e), 1.0, 2.0, 64.0, T.nodes)
    jsonio.dump_canonical(matrix_to_dict(S), d / "matrix_spoiled.json")

    T3 = toeplitz_matrix(gaussian_symbol(), 1.0, 3.0, 64.0, grid)
    jsonio.dump_canonical(matrix_to_dict(T3), d / "matrix_p3.json")
    return d


def run(*argv):
    return main([str(a) for a in argv])


def test_project_writes_json_and_csv(files, tmp_path):
    out = tmp_path / "proj.json"
    assert run("project", "--input", files / "smooth.json", "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["residual_removed"] < 1e-5  # in-band up to window truncation
    assert len(payload["fun"]["values"]) > 0
    assert (tmp_path / "proj.csv").exists()


def test_outputs_are_byte_identical_across_runs(files, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("split", "--symbol", files / "gauss_flat.json",
                   "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_wrapped_and_flat_symbol_files_agree(files, tmp_path):
    a, b = tmp_path / "flat.json", tmp_path / "wrapped.json"
    assert run("toeplitz", "--symbol", files / "gauss_flat.json",
               "--basis-window", 8, "--out", a) == 0
    assert run("toeplitz", "--symbol", files / "gauss_wrapped.json",
               "--basis-window", 8, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["toeplitz", "split", "nehari"])
def test_wrapped_body_naming_another_kind_is_exit_one(files, tmp_path, capsys,
                                                      command):
    bad, same = tmp_path / "bad.json", tmp_path / "same.json"
    bad.write_text(json.dumps({"gaussian": {"kind": "mod_poly", "degree": 1,
                                            "mod": 2.0}}))
    assert run(command, "--symbol", bad, "--out", tmp_path / "x.json") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {bad}: symbol field 'gaussian'")
    assert "mod_poly" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.json").exists()
    # a body that repeats its own key is the flat file
    same.write_text(json.dumps({"gaussian": json.loads(
        (files / "gauss_flat.json").read_text())}))
    assert run(command, "--symbol", same, "--out", tmp_path / "y.json") == 0


def test_split_emits_bump_table(files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("split", "--symbol", files / "gauss_flat.json",
               "--emit-bumps", "--out", "split.json") == 0
    lines = (tmp_path / "bumps.csv").read_text().splitlines()
    assert lines[0] == "xi,bump_L,bump_C,bump_R"
    assert len(lines) == 1 + 257  # [-4, 4] at step 1/32


def test_split_writes_bump_table_beside_out(files, tmp_path, monkeypatch, capsys):
    cwd, out_dir = tmp_path / "cwd", tmp_path / "out"
    cwd.mkdir()
    out_dir.mkdir()
    monkeypatch.chdir(cwd)
    assert run("split", "--symbol", files / "gauss_flat.json", "--emit-bumps",
               "--out", out_dir / "split.json") == 0
    assert (out_dir / "bumps.csv").exists() and not (cwd / "bumps.csv").exists()
    assert f"wrote {out_dir / 'bumps.csv'}" in capsys.readouterr().out.splitlines()


def test_missing_input_file_is_exit_one(files, tmp_path, capsys):
    assert run("project", "--input", tmp_path / "nope.json") == 1
    assert capsys.readouterr().err.startswith("input error:")


def test_negative_band_names_the_field(files, capsys):
    assert run("project", "--input", files / "smooth.json", "--band", -1) == 1
    assert "band" in capsys.readouterr().err


def test_malformed_json_is_exit_one(files, tmp_path, capsys):
    # (file text, a word the one-line message must contain)
    fun = {"grid": {"start": -1.0, "step": 0.5, "count": 4},
           "values": [[0.0, 0.0]] * 4}
    symbol_cases = [("{not json", "invalid JSON"),
             ("5", "must be a JSON object"),
             ('{"kind": "gaussian", "amp": null}', "'amp'"),
             ('{"kind": "gaussian", "amp": "inf"}', "'amp'"),
             ('{"kind": "sampled", "fun": 5}', "'fun'"),
             (json.dumps({"kind": "sampled", "fun": fun, "support": 5}),
              "'support'"),
             (json.dumps({"kind": "sampled", "fun": {**fun, "grid": 5}}),
              "'grid'"),
             (json.dumps({"kind": "sampled",
                          "fun": {**fun, "grid": {**fun["grid"], "count": None}}}),
              "'count'"),
             (json.dumps({"kind": "sampled",
                          "fun": {**fun, "values": [[0.0, 0.0], [1, None]] * 2}}),
              "'values' entry [1, 1]"),
             (json.dumps({"kind": "sampled",
                          "fun": {**fun, "values": [[0.0, 0.0], [1, True]] * 2}}),
              "'values' entry [1, 1]")]
    matrix = json.loads((files / "matrix.json").read_text())
    matrix_cases = [(json.dumps({**matrix, "band": None}), "'band'"),
                    (json.dumps({**matrix, "basis": 5}), "'basis'"),
                    (json.dumps({**matrix, "entries": "x"}), "'entries'"),
                    (json.dumps({**matrix, "basis": {"nodes": [0.0, 0.5]}}),
                     "'window'"),
                    (json.dumps({**matrix, "basis": {**matrix["basis"],
                                                     "window": 1e9}}),
                     "'window'"),
                    (json.dumps({**matrix, "basis": {**matrix["basis"],
                                                     "nodes": "x"}}),
                     "'nodes'"),
                    (json.dumps({**matrix, "basis": {**matrix["basis"], "nodes": [
                        False, *matrix["basis"]["nodes"][1:]]}}),
                     "'nodes' entry [0] must be a number of magnitude at most 1e+100, got False"),
                    (json.dumps({**matrix, "entries": [
                        matrix["entries"][0], [[0.0, True]] + matrix["entries"][1][1:],
                        *matrix["entries"][2:]]}),
                     "'entries' entry [1, 0, 1] must be a number of magnitude at most "
                     "1e+100, got True"),
                    (json.dumps({**matrix, "p": "two"}), "'p'")]
    cases = ([("split", "--symbol", *c) for c in symbol_cases]
             + [("commutator-test", "--matrix", *c) for c in matrix_cases])
    for i, (command, flag, text, names) in enumerate(cases):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(text)
        assert run(command, flag, bad, "--out", tmp_path / "out.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and names in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


# files json.load cannot read: bytes that are not UTF-8, an integer past
# Python's 4,300-digit limit, and arrays nested past the recursion limit
UNREADABLE = {"not-utf8": b"\xff{}", "long-integer": b'{"amp": 1' + b"0" * 4999 + b"}",
              "nested-5000": b"[" * 5000 + b"]" * 5000,
              "nested-100000": b"[" * 100000 + b"]" * 100000}


@pytest.mark.parametrize("case", UNREADABLE)
@pytest.mark.parametrize("command, flag", [("split", "--symbol"), ("project", "--input"),
                                           ("commutator-test", "--matrix")])
def test_unreadable_json_is_exit_one_naming_the_file(command, flag, case, tmp_path,
                                                     capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNREADABLE[case])
    assert run(command, flag, bad, "--out", tmp_path / "out.json") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {bad}: invalid JSON: ")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


_FUN = {"grid": {"start": -1.0, "step": 0.5, "count": 4}, "values": [[0.0, 0.0]] * 4}


# every field that must hold an object, and the values printed back
@pytest.mark.parametrize("command, flag, source, path", [
    ("project", "--input", "smooth.json", ("grid",)),
    ("split", "--symbol", {"kind": "sampled"}, ("fun",)),
    ("split", "--symbol", {"kind": "sampled", "fun": dict(_FUN)}, ("fun", "grid")),
    ("split", "--symbol", {"gaussian": {}}, ("gaussian",)),
    ("split", "--symbol", {}, ("kind",)),
    ("split", "--symbol", {"kind": "sampled", "fun": _FUN}, ("support",)),
    ("split", "--symbol", {"kind": "bump_spectrum", "lo": 0.05, "hi": 1.9},
     ("hermitian",)),
    ("commutator-test", "--matrix", "matrix.json", ("basis",)),
    ("commutator-test", "--matrix", "matrix.json", ("grid",)),
    ("commutator-test", "--matrix", {"matrix": {}}, ("matrix",))],
    ids=["function-grid", "symbol-fun", "symbol-fun-grid", "wrapped-symbol",
         "symbol-kind", "symbol-support", "symbol-hermitian", "matrix-basis",
         "matrix-grid", "toeplitz-output-matrix"])
def test_a_long_value_is_printed_shortened(files, tmp_path, capsys, command, flag,
                                          source, path):
    # a list of 20,000 numbers where an object or a short value belongs
    doc = (json.loads(json.dumps(source)) if isinstance(source, dict)
           else json.loads((files / source).read_text()))
    src = tmp_path / "in.json"
    src.write_text(json.dumps(_edited(doc, path, list(range(20000)))))
    assert run(command, flag, src, "--out", tmp_path / "x.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and path[-1] in err
    assert len(err.strip().splitlines()) == 1 and len(err.encode()) < 300


def test_bounded_symbol_stage_failure_is_exit_one(tmp_path, capsys):
    # a sampled symbol stored on a 256-point grid, run on the default grid
    coarse = default_grid(1.0, 8.0)
    sym = sampled_symbol(SampledFunction(coarse, np.ones(coarse.count)))
    bad = tmp_path / "coarse.json"
    jsonio.dump_canonical(to_dict(sym), bad)
    assert run("bounded-symbol", "--symbol", bad, "--out", tmp_path / "b.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "stage 'assemble'" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@PRINTS_WARNINGS
def test_warnings_print_as_one_line(tmp_path, capsys):
    # a truncation this short leaves a coefficient tail: nehari_solve warns
    sym = tmp_path / "gauss.json"
    jsonio.dump_canonical(to_dict(gaussian_symbol(amp=1.1, width=0.9, shift=0.2)),
                          sym)
    assert run("bounded-symbol", "--symbol", sym, "--basis-window", 8,
               "--out", tmp_path / "b.json") == 0
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines and all(line.startswith("warning: ") for line in lines)
    assert any("tail ratio" in line for line in lines)
    assert not any(".py:" in line for line in lines)


@pytest.mark.filterwarnings("error")
def test_toeplitz_near_p_one_writes_no_overflow_warning(files, tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run("toeplitz", "--symbol", files / "gauss_flat.json",
               "--basis-window", 8, "--p", 1.001, "--out", out) == 0
    assert "overflow" not in capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert 0.0 < payload["norm_lower"] <= payload["norm_upper"] * (1 + 1e-12)


def test_odd_count_grid_is_exit_one(tmp_path, capsys):
    bad = tmp_path / "odd.json"
    bad.write_text(json.dumps({"grid": {"start": -2.03125, "step": 0.0625,
                                        "count": 65},
                               "values": [[1.0, 0.0]] * 65}))
    assert run("project", "--input", bad, "--out", tmp_path / "p.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "count" in err
    assert len(err.strip().splitlines()) == 1


def test_unknown_symbol_kind_is_exit_one(tmp_path, capsys):
    bad = tmp_path / "kind.json"
    bad.write_text('{"kind": "sawtooth", "teeth": 3}')
    assert run("split", "--symbol", bad) == 1
    assert "sawtooth" in capsys.readouterr().err


def test_unwritable_payload_leaves_no_file(files, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("pwlab.cli.band_residual", lambda f, a: float("inf"))
    out = tmp_path / "proj.json"
    assert run("project", "--input", files / "smooth.json", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.strip() == "input error: cannot serialize non-finite float"
    assert not out.exists() and not (tmp_path / "proj.csv").exists()


def test_bad_tol_syntax_is_exit_one(files, capsys):
    assert run("split", "--symbol", files / "gauss_flat.json",
               "--tol", "decay") == 1
    assert "tol" in capsys.readouterr().err


# the common flags each command no longer accepts, because it never read them
REMOVED_FLAGS = {
    "project": ["--p", "--oversample", "--window", "--seed", "--tol"],
    "toeplitz": ["--seed", "--tol"],
    "split": ["--p", "--seed"],
    "bounded-symbol": ["--seed"],
    "nehari": ["--p", "--seed"],
    "factorize": ["--oversample", "--window", "--seed"],
    "commutator-test": ["--band", "--p", "--oversample", "--window"],
    "recover-symbol": ["--band", "--p", "--oversample", "--window", "--seed"],
    "verify": ["--band", "--p", "--oversample", "--window", "--tol"],
}
REQUIRED = {"project": ["--input", "in.json"], "factorize": ["--input", "in.json"],
            "commutator-test": ["--matrix", "m.json"],
            "recover-symbol": ["--matrix", "m.json"], "verify": []}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in
                                           REMOVED_FLAGS.items() for f in flags])
def test_flags_a_command_does_not_read_are_exit_one(command, flag, capsys):
    value = "x=1" if flag == "--tol" else "3"
    argv = [command, *REQUIRED.get(command, ["--symbol", "s.json"]), flag, value]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and flag in err
    assert len(err.strip().splitlines()) == 1


def test_unknown_tolerance_name_lists_the_valid_ones(files, capsys):
    assert run("nehari", "--symbol", files / "gauss_flat.json",
               "--tol", "bogus=1") == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "moment, sup_slack" in err


@pytest.mark.parametrize("command, name", [(c, n) for c in REMOVED_FLAGS
                                           for n in tolerances(c)])
def test_every_declared_tolerance_parses(command, name):
    argv = [command, *REQUIRED.get(command, ["--symbol", "s.json"]),
            "--tol", f"{name}=0.25"]
    assert _tols(build_parser(REMOVED_FLAGS).parse_args(argv)) == {
        **tolerances(command), name: 0.25}


def test_tolerance_defaults_are_the_library_constants():
    # the library's warning and the CLI's verdict read one object, not two
    # equal literals
    assert tolerances("split")["decay"] is split.DECAY_TOL
    assert tolerances("nehari")["sup_slack"] is nehari.AAK_TOL
    assert tolerances("factorize")["atom"] is factorize.ATOM_TOL
    assert tolerances("factorize")["residual_sup"] is factorize.RESIDUAL_SUP_TOL
    defaults = {name: p.default for fn in (split.split_symbol, factorize.weak_factorize)
                for name, p in inspect.signature(fn).parameters.items()}
    assert defaults["decay_tol"] is split.DECAY_TOL
    assert defaults["atom_tol"] is factorize.ATOM_TOL


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-6"])
def test_tolerance_must_be_positive_and_finite(files, value, capsys):
    assert run("commutator-test", "--matrix", files / "matrix.json",
               "--tol", f"deviation={value}") == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: tol deviation:")


@pytest.mark.parametrize("argv", [
    ["nehari", "--truncation", "0"], ["nehari", "--truncation", "-3"],
    ["bounded-symbol", "--truncation", "0"],
    ["toeplitz", "--basis-window", "nan"], ["toeplitz", "--basis-window", "0"],
    ["bounded-symbol", "--basis-window", "inf"],
    ["bounded-symbol", "--basis-window", "-8"],
    # too few basis nodes, or a basis wider than its grid
    ["toeplitz", "--basis-window", "0.1"],
    ["toeplitz", "--basis-window", "64", "--window", "32"],
    ["bounded-symbol", "--basis-window", "0.1"],
    ["bounded-symbol", "--basis-window", "128", "--window", "64"],
    # a grid half-width that is not a whole number of grid steps
    ["toeplitz", "--basis-window", "8", "--window", "8.3"],
    ["toeplitz", "--basis-window", "8.3"],
    ["split", "--window", "10.1"],
    ["toeplitz", "--basis-window", "8", "--band", "0.3"],
    # a whole-step grid whose left end misses the first basis node, -8: its
    # band holds 31.75 bins, and every grid with whole band bins holds the node
    ["toeplitz", "--basis-window", "7.9", "--window", "7.9375"],
    # whole-step grids whose band holds 256.25, 128.25 and 49.5 bins; 66 would
    # be whole at band 1
    ["toeplitz", "--basis-window", "32", "--window", "64.0625"],
    ["bounded-symbol", "--basis-window", "32", "--window", "64.0625"],
    ["toeplitz", "--basis-window", "32.0625"],
    ["toeplitz", "--basis-window", "16", "--window", "16.5", "--band", "0.75"],
    ["bounded-symbol", "--basis-window", "16", "--window", "16.5", "--band", "0.75"],
    # a basis past MAX_BASIS_NODES: 40,000 nodes would take ~77 GB to assemble
    ["toeplitz", "--basis-window", "1e4"],
    ["bounded-symbol", "--window", "1e4", "--basis-window", "1e4"],
    ["bounded-symbol", "--basis-window", "1e4"],
    # 4 a window overflows to inf nodes
    ["toeplitz", "--window", "64", "--basis-window", "1e308"]])
def test_out_of_range_flag_is_named(files, argv, monkeypatch, capsys):
    def assembled(*args, **kwargs):
        raise AssertionError("assembled a refused basis")
    monkeypatch.setattr("pwlab.toeplitz.toeplitz_matrix", assembled)
    monkeypatch.setattr("pwlab.nehari.bounded_symbol", assembled)
    assert run(*argv, "--symbol", files / "gauss_flat.json") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {argv[-2][2:]}:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, window", [
    (["split", "--band", "1e200", "--window", "1e200"], "window"),
    (["split", "--band", "1e308"], "window"),       # the grid step underflows
    (["nehari", "--band", "1e300"], "window"),
    (["toeplitz", "--band", "1e200", "--basis-window", "1e200"], "basis-window"),
    (["bounded-symbol", "--oversample", "100000"], "window")])
def test_grid_past_the_cap_is_refused_naming_its_flags(files, argv, window,
                                                       monkeypatch, capsys):
    def worked(*args, **kwargs):
        raise AssertionError("worked on a refused grid")
    for name in ("split.split_symbol", "nehari.nehari_solve",
                 "toeplitz.toeplitz_matrix", "nehari.bounded_symbol"):
        monkeypatch.setattr(f"pwlab.{name}", worked)
    assert run(*argv, "--symbol", files / "gauss_flat.json") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: band, {window}, oversample: grid count ")
    assert "points a grid may hold" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["commutator-test", "recover-symbol"])
def test_matrix_grid_past_the_cap_is_refused_on_load(files, tmp_path, capsys, command):
    doc = json.loads((files / "matrix.json").read_text())
    doc["grid"] = {"start": -64.0, "step": 128.0 / 2 ** 21, "count": 2 ** 21}
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(doc))
    assert run(command, "--matrix", matrix, "--out", tmp_path / "x.json") == 1
    err = capsys.readouterr().err
    assert err == (f"input error: {matrix}: grid count 2097152 is more than the "
                   "1,048,576 points a grid may hold\n")


def test_function_grid_past_the_cap_is_refused_on_load(tmp_path, capsys):
    fun = tmp_path / "f.json"
    fun.write_text(json.dumps({"grid": {"start": -1.0, "step": 1e-6, "count": 2 ** 21},
                               "values": [[0.0, 0.0]] * 4}))
    for command in ("project", "factorize"):
        assert run(command, "--input", fun, "--out", tmp_path / "x.json") == 1
        err = capsys.readouterr().err
        assert "grid count 2097152 is more than" in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["nehari", "bounded-symbol"])
def test_truncation_past_the_cap_is_refused_before_reading(command, tmp_path, capsys):
    # the symbol file does not exist: the range check comes first
    assert run(command, "--symbol", tmp_path / "missing.json",
               "--truncation", "32769") == 1
    assert capsys.readouterr().err == ("input error: truncation: must lie in "
                                       "[1, 32768], got 32769\n")


@pytest.mark.parametrize("argv", [["verify"],
                                  ["commutator-test", "--matrix", "missing.json"]])
def test_negative_seed_is_refused_before_any_work(argv, monkeypatch, capsys):
    def ran(*args, **kwargs):
        raise AssertionError("ran with a negative seed")
    monkeypatch.setattr("pwlab.verify.run_all", ran)
    monkeypatch.setattr("pwlab.commutator.commutator_test", ran)
    assert run(*argv, "--seed", "-1") == 1
    assert capsys.readouterr().err == "input error: seed: must be non-negative, got -1\n"


BAD_OUTS = {"directory": "dir", "missing-parent": "missing/x.json",
            "file-parent": "g.json/x.json", "csv-is-json": "t.csv",
            "csv-links-to-json": "l.json", "csv-hard-links-to-json": "h.json",
            "csv-is-directory": "d.json", "empty": ""}


@pytest.mark.parametrize("case", BAD_OUTS)
@pytest.mark.parametrize("command", REMOVED_FLAGS)      # every command
def test_bad_out_is_refused_before_any_work(command, case, tmp_path, monkeypatch,
                                            capsys):
    # the input files do not exist: reading one would print another error
    def ran(*args, **kwargs):
        raise AssertionError("verify ran with a bad --out")
    monkeypatch.setattr("pwlab.verify.run_all", ran)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "d.csv").mkdir()
    (tmp_path / "g.json").write_text("{}")
    (tmp_path / "l.csv").symlink_to("l.json")      # the CSV would replace the JSON
    (tmp_path / "h.json").write_text("{}")
    os.link(tmp_path / "h.json", tmp_path / "h.csv")    # one file, two names
    argv = [command, *REQUIRED.get(command, ["--symbol", "s.json"])]
    assert run(*argv, "--out", BAD_OUTS[case]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: out: ") and len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "d.csv", "dir", "g.json", "h.csv", "h.json", "l.csv"]
    assert (tmp_path / "h.json").read_text() == "{}"


# the out path and the input it lands on, as (--out, input file name)
OUT_ON_INPUT = {"out-is-input": ("in.json", "in.json"),
                "csv-is-input": ("in.json", "in.csv"),
                "another-spelling": ("{tmp}/./in.json", "in.json"),
                "symlink": ("link.json", "in.json"),
                "hard-link": ("link.json", "in.json")}
INPUT_FILES = {"project": "smooth.json", "factorize": "target.json",
               "commutator-test": "matrix.json", "recover-symbol": "matrix.json"}


@pytest.mark.parametrize("case", OUT_ON_INPUT)
@pytest.mark.parametrize("command", [c for c in REMOVED_FLAGS if c != "verify"])
def test_out_on_the_input_is_refused(command, case, files, tmp_path, monkeypatch,
                                     capsys):
    # every command with an input file; its bytes and the directory stay as
    # they were, so nothing was written, and a valid input was not read
    monkeypatch.chdir(tmp_path)
    out, name = OUT_ON_INPUT[case]
    shutil.copy(files / INPUT_FILES.get(command, "gauss_flat.json"), name)
    before = (tmp_path / name).read_bytes()
    if case == "symlink":
        (tmp_path / out).symlink_to(name)
    if case == "hard-link":
        os.link(tmp_path / name, tmp_path / out)
    listing = sorted(p.name for p in tmp_path.iterdir())
    flag = REQUIRED.get(command, ["--symbol"])[0]
    assert run(command, flag, name, "--out", out.format(tmp=tmp_path)) == 1
    landed = out.format(tmp=tmp_path) if name.endswith(".json") else name
    assert capsys.readouterr().err == (f"input error: out: {landed} would "
                                       f"overwrite the input {flag} {name}\n")
    assert (tmp_path / name).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


def test_split_bumps_on_the_input_is_refused(files, tmp_path, capsys):
    shutil.copy(files / "gauss_flat.json", tmp_path / "bumps.csv")
    assert run("split", "--symbol", tmp_path / "bumps.csv", "--emit-bumps",
               "--out", tmp_path / "split.json") == 1
    assert capsys.readouterr().err == (f"input error: out: {tmp_path / 'bumps.csv'} "
                                       f"would overwrite the input --symbol "
                                       f"{tmp_path / 'bumps.csv'}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bumps.csv"]


def test_write_failure_is_exit_one_naming_out(files, tmp_path, capsys):
    # a name past the file system's limit passes the checks and fails on open
    out = tmp_path / ("x" * 300 + ".json")
    assert run("project", "--input", files / "smooth.json", "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"input error: out: {out}: File name too long\n"


def test_split_bumps_on_its_own_csv_is_refused(tmp_path, capsys):
    # bumps.json's CSV would be bumps.csv, the bump table's path
    assert run("split", "--symbol", tmp_path / "s.json", "--emit-bumps",
               "--out", tmp_path / "bumps.json") == 1
    assert capsys.readouterr().err == (f"input error: out: {tmp_path / 'bumps.json'} "
                                       f"would write two outputs to "
                                       f"{tmp_path / 'bumps.csv'}\n")


def test_csv_lands_beside_out_in_a_dotted_directory(files, tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.b").mkdir()
    assert run("toeplitz", "--symbol", files / "gauss_flat.json",
               "--basis-window", 8, "--out", "a.b/toe") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "wrote a.b/toe and a.b/toe.csv"
    assert sorted(p.name for p in (tmp_path / "a.b").iterdir()) == ["toe", "toe.csv"]
    assert not (tmp_path / "a.csv").exists()


def test_unknown_flag_is_exit_one_not_abort(files, capsys):
    # argparse normally calls sys.exit(2); we reserve 2 for certificates
    assert run("project", "--input", files / "smooth.json", "--frobble") == 1
    assert "input error" in capsys.readouterr().err


def test_factorize_margin_must_leave_room(files, capsys):
    assert run("factorize", "--input", files / "target.json",
               "--margin", 1.5) == 1
    assert "margin" in capsys.readouterr().err


def test_factorize_rejects_target_wider_than_margin(files, tmp_path, capsys):
    assert run("factorize", "--input", files / "target.json",
               "--margin", 0.3, "--out", tmp_path / "f.json") == 1
    assert "widen --margin" in capsys.readouterr().err


def test_factorize_summary_certifies(files, tmp_path):
    out = tmp_path / "fact.json"
    assert run("factorize", "--input", files / "target.json",
               "--summary", "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["certified"] is True
    assert payload["n_pairs"] == 512
    assert "pairs" not in payload


def test_factorize_full_output_lists_atom_pairs(files, tmp_path):
    out = tmp_path / "fact_full.json"
    assert run("factorize", "--input", files / "target.json",
               "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["pairs_format"] == "atoms"
    assert len(payload["pairs"]) <= payload["n_pairs"]
    assert {"center", "weight"} <= set(payload["pairs"][0])


def test_factorize_unreachable_tolerance_is_exit_two(files, tmp_path, capsys):
    assert run("factorize", "--input", files / "target.json", "--summary",
               "--tol", "residual_sup=1e-30", "--tol", "residual_l1=1e-30",
               "--out", tmp_path / "f.json") == 2
    assert "certificate failure" in capsys.readouterr().err


def test_nehari_writes_completion_and_table(files, tmp_path):
    out = tmp_path / "neh.json"
    assert run("nehari", "--symbol", files / "gauss_flat.json", "--out", out) == 0
    payload = json.loads(out.read_text())
    assert {"sigma0", "hankel_norm", "moment_residual", "sup_norm",
            "correction_sup", "tail_ratio", "psi", "psi_matched"} <= set(payload)
    assert payload["truncation"] == 256
    assert payload["certificate"] == {"moment_ok": True, "sup_ok": True,
                                      "passed": True}
    header = (tmp_path / "neh.csv").read_text().splitlines()[0]
    assert header == "sigma0,hankel_norm,moment_residual,sup_norm"


@pytest.mark.parametrize("command, source, tol", [
    ("nehari", "symbol", "moment"),
    # the split parts leave a coefficient tail at the default truncation
    pytest.param("bounded-symbol", "symbol", "operator_residual",
                 marks=PRINTS_WARNINGS),
    ("recover-symbol", "matrix", "roundtrip"),
    ("commutator-test", "matrix", "deviation")])
def test_unmet_tolerance_is_exit_two_and_still_writes(files, tmp_path, capsys,
                                                      command, source, tol):
    given = {"symbol": files / "gauss_flat.json", "matrix": files / "matrix.json"}
    out = tmp_path / "r.json"
    assert run(command, "--" + source, given[source], "--tol", f"{tol}=1e-300",
               "--out", out) == 2
    assert "certificate failure" in capsys.readouterr().err
    assert json.loads(out.read_text())
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("target, margin", [
    ("sinc-sq", None),
    # the product's spectrum ends one bin inside 2a, so margin 0.999 keeps it
    ("single-atom", 0.999),
    ("zero", None)])
def test_factorize_atom_pairs_rebuild_the_target(tmp_path, target, margin):
    # f_k conj(g_k) = spacing * weight_k * |atom(. - center_k)|^2, where the
    # written atom is centred at 0 and translates are cyclic rolls on the grid
    grid = default_grid(1.0)
    atom = sinc_atom(1.0, 0.5, grid).values
    values = {"sinc-sq": sinc_kernel(0.9, 0.0, grid).values ** 2,
              "single-atom": 0.3 * atom * np.conj(atom),
              "zero": np.zeros(grid.count, complex)}[target]
    source = tmp_path / "target.json"
    jsonio.dump_canonical(jsonio.function_to_dict(SampledFunction(grid, values)),
                          source)
    out = tmp_path / "fact.json"
    margin_flag = () if margin is None else ("--margin", margin)
    assert run("factorize", "--input", source, *margin_flag, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["pairs_format"] == "atoms"
    assert payload["n_pairs"] == len(payload["pairs"])
    written = jsonio.function_from_dict(payload["atom"])
    # the target factorized is the input projected to band 2 * margin
    h = project_band(jsonio.function_from_dict(json.loads(source.read_text())),
                     2.0 * payload["margin"])
    assert written.grid == h.grid
    zero = written.grid.index_of(0.0)
    rebuilt = np.zeros(written.grid.count, complex)
    for entry in payload["pairs"]:
        shifted = np.roll(written.values, written.grid.index_of(entry["center"]) - zero)
        rebuilt += (payload["plan"]["spacing"] * complex(*entry["weight"])
                    * np.abs(shifted) ** 2)
    assert np.max(np.abs(rebuilt - h.values)) <= 1e-12 * np.max(np.abs(h.values))


def test_commutator_test_accepts_true_toeplitz(files, tmp_path):
    out = tmp_path / "ct.json"
    assert run("commutator-test", "--matrix", files / "matrix.json",
               "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["is_toeplitz"] is True
    assert payload["deviation"] <= 1e-6


def test_commutator_test_flags_spoiled_matrix(files, tmp_path):
    out = tmp_path / "ct_bad.json"
    assert run("commutator-test", "--matrix", files / "matrix_spoiled.json",
               "--out", out) == 2
    payload = json.loads(out.read_text())
    assert payload["is_toeplitz"] is False
    assert payload["deviation"] > 1e-3


def test_matrix_commands_take_band_from_the_file(files, tmp_path, capsys):
    # band and p come from the matrix file: the matrix commands have no such flags
    for command in ("commutator-test", "recover-symbol"):
        for flag, value in (("--band", 2.0), ("--p", 3)):
            assert run(command, "--matrix", files / "matrix.json", flag, value,
                       "--out", tmp_path / "x.json") == 1
            assert capsys.readouterr().err == (
                f"input error: unrecognized arguments: {flag} {value}\n")
    assert not (tmp_path / "x.json").exists()


def test_recover_symbol_roundtrip(files, tmp_path):
    out = tmp_path / "rec.json"
    assert run("recover-symbol", "--matrix", files / "matrix.json",
               "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["roundtrip_residual"] < 1e-3
    assert set(payload) >= {"anti_analytic_part", "analytic_part", "total"}


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(language: str) -> list:
    return [b.split("```", 1)[0] for b in README.read_text().split(f"```{language}\n")[1:]]


def _readme_commands():
    """The README's `pwlab` command lines, each as the argv after `pwlab`."""
    blocks = _readme_blocks("sh")
    return [shlex.split(line)[1:] for b in blocks for line in b.splitlines()
            if line.startswith("pwlab ")]


def test_readme_pipeline_runs_as_written(files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copy(files / "gauss_flat.json", tmp_path / "gauss.json")
    argvs = [argv for argv in _readme_commands()
             if argv[0] in ("toeplitz", "commutator-test", "recover-symbol")]
    assert [argv[0] for argv in argvs] == ["toeplitz", "commutator-test",
                                           "recover-symbol"]
    for argv in argvs:
        assert main(argv) == 0, argv
    matrix = json.loads((tmp_path / "T.json").read_text())["matrix"]
    assert matrix["grid"]["start"] == -32.0


def test_readme_python_runs_as_written(capsys):
    # the quick start imports from the modules that own each name
    blocks = _readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "'lower'" in capsys.readouterr().out


def test_readme_command_table_matches_the_cli():
    # each row names the command's flags in --help order, and its tolerances
    # with their defaults
    lines = README.read_text().splitlines()
    start = lines.index("| command | flags | `--tol` names (default) |") + 2
    documented = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, flags, tols = (cell.strip() for cell in line.strip("|").split("|"))
        documented[command.strip("`")] = (
            re.findall(r"`(--[\w-]+)`", flags),
            {name: float(v) for name, v in re.findall(r"`(\w+)` \(([^)]+)\)", tols)})
    assert documented == {command: (["--" + f for f in flags], tolerances(command))
                          for command, (_, _, _, flags) in COMMANDS.items()}


def test_matrix_on_a_wider_grid_names_window(files, tmp_path, capsys):
    matrix = tmp_path / "T.json"
    assert run("toeplitz", "--symbol", files / "gauss_flat.json",
               "--basis-window", 32, "--window", 64, "--out", matrix) == 0
    capsys.readouterr()
    for command in ("commutator-test", "recover-symbol"):
        assert run(command, "--matrix", matrix, "--out", tmp_path / "x.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {matrix}: matrix field 'grid': ")
        assert "does not span" in err
        assert len(err.strip().splitlines()) == 1


def test_matrix_on_a_grid_of_fractional_band_bins_is_refused(tmp_path, capsys):
    nodes = np.arange(-32, 32) / 2.0
    for window, grid, says, cause in [
            # window 16.0625 puts 64.25 bins in the band, so the frame has no basis
            (16.0625, Grid(-16.0625, 0.0625, 514), "'grid': grid count 514", "fractional"),
            # 2.5 grid steps per node, and one: neither carries a Nyquist basis
            (16.0, Grid(-16.0, 0.2, 160), "'grid': grid step",
             "does not subdivide the Nyquist"),
            (16.0, Grid(-16.0, 0.5, 64), "'grid': grid nyquist 1.0 does not exceed "
             "band 1.0", "2 grid steps per node"),
            # a file with no grid is read on the default grid of its window: 514
            # steps of 1/16 (64.25 bins), 512.96 rounded to 513, and 512.32
            # rounded to 512, which stops short of the window
            (16.0625, None, "'window': grid count 514", "fractional"),
            (16.03, None, "'window': grid count", "must be even"),
            (16.01, None, "'window': the grid", "does not span")]:
        matrix = tmp_path / "m.json"
        jsonio.dump_canonical(matrix_to_dict(OperatorMatrix(
            np.eye(64), 1.0, 2.0, window, nodes, grid)), matrix)
        for command in ("commutator-test", "recover-symbol"):
            assert run(command, "--matrix", matrix, "--out", tmp_path / "x.json") == 1
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {matrix}: matrix field {says}")
            assert cause in err
            assert len(err.strip().splitlines()) == 1


def _shifted_nodes(matrix: dict) -> dict:
    matrix["basis"]["nodes"] = [t + 0.15 for t in matrix["basis"]["nodes"]]
    return matrix


@pytest.mark.parametrize("edit, says", [
    (_shifted_nodes, "got nodes off them by up to 0.15"),
    # band 1 on window 1 holds 4 nodes, fewer than a basis needs
    (lambda m: {"band": 1.0, "p": 2.0,
                "basis": {"window": 1.0, "nodes": [-1.0, -0.5, 0.0, 0.5]},
                "entries": np.zeros((4, 4, 2)).tolist()},
     "window 1.0 at band 1.0 holds 4 nodes: fewer than 8")],
    ids=["shifted-nodes", "window-1"])
def test_matrix_off_the_nyquist_nodes_is_refused_on_load(files, tmp_path, capsys,
                                                         edit, says):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(edit(json.loads((files / "matrix.json").read_text()))))
    for command in ("commutator-test", "recover-symbol"):
        assert run(command, "--matrix", matrix, "--out", tmp_path / "x.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {matrix}: matrix fields 'band', "
                              f"'window' and 'nodes' disagree: ")
        assert says in err and len(err.strip().splitlines()) == 1


def _edited(d: dict, path: tuple, value) -> dict:
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return d


@pytest.mark.parametrize("command, flag, source, path, value", [
    ("toeplitz", "--symbol", {"kind": "mod_poly", "mod": 2.0}, ("degree",), 2.5),
    ("split", "--symbol", {"kind": "bump_spectrum", "lo": 0.05, "hi": 1.9},
     ("seed",), 3.7),
    ("split", "--symbol", {"kind": "bump_spectrum", "lo": 0.05, "hi": 1.9},
     ("hermitian",), "no"),
    ("split", "--symbol", {"kind": "gaussian"}, ("amp",), True),
    ("split", "--symbol", {"kind": "gaussian"}, ("amp",), "3"),
    ("project", "--input", "smooth.json", ("grid", "count"), 2048.9),
    ("commutator-test", "--matrix", "matrix.json", ("p",), "2")],
    ids=["degree-2.5", "seed-3.7", "hermitian-no", "amp-true", "amp-string",
         "count-2048.9", "p-string"])
def test_file_numbers_must_be_json_numbers(files, tmp_path, capsys, command, flag,
                                           source, path, value):
    # a boolean or a string is not a number, nor 2.5 an integer: none is coerced
    doc = (dict(source) if isinstance(source, dict)
           else json.loads((files / source).read_text()))
    src = tmp_path / "in.json"
    src.write_text(json.dumps(_edited(doc, path, value)))
    assert run(command, flag, src, "--out", tmp_path / "x.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"'{path[-1]}'" in err
    assert len(err.strip().splitlines()) == 1


def test_mod_poly_degree_is_bounded_on_load(tmp_path, capsys):
    sym = tmp_path / "poly.json"
    sym.write_text('{"kind": "mod_poly", "degree": 100000, "mod": 0}')
    assert run("toeplitz", "--symbol", sym, "--out", tmp_path / "t.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "degree" in err
    assert len(err.strip().splitlines()) == 1     # no numpy warnings


@pytest.mark.parametrize("degree, mod, code", [
    (12, 0.25, 1), (8, 0.25, 1), pytest.param(4, 0.25, 0, marks=PRINTS_WARNINGS),
    (1, 2.0, 0)])
def test_unresolved_mod_poly_matrix_is_refused(tmp_path, capsys, degree, mod,
                                               code):
    # a basis narrower than its grid: the band block cancels kernel taps far
    # larger than itself; at degree 8 the error is 5e-8 of the largest entry
    sym = tmp_path / "poly.json"
    sym.write_text(json.dumps({"kind": "mod_poly", "degree": degree, "mod": mod}))
    assert run("toeplitz", "--symbol", sym, "--basis-window", 16,
               "--window", 64, "--out", tmp_path / "t.json") == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith(f"input error: mod_poly degree {degree}:")
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("degree, mod, amp, warned", [
    pytest.param(1, 0.25, 1.0, True, marks=PRINTS_WARNINGS), (1, 2.0, 1.0, False),
    (0, 0.25, 1.0, False), (1, 0.25, 0.0, False)])
def test_unbounded_mod_poly_matrix_warns(tmp_path, capsys, degree, mod, amp, warned):
    # degree >= 1, amp != 0 and |mod| < 2a: the matrix is written, and its growth named
    sym = tmp_path / "poly.json"
    sym.write_text(json.dumps({"kind": "mod_poly", "degree": degree, "mod": mod,
                               "amp": amp}))
    assert run("toeplitz", "--symbol", sym, "--out", tmp_path / "t.json") == 0
    err = capsys.readouterr().err.strip().splitlines()
    if warned:
        assert len(err) == 1 and err[0].startswith(
            f"warning: mod_poly degree {degree} with mod {mod}:")
        assert "unbounded" in err[0]
    else:
        assert err == []


@pytest.mark.parametrize("degree, mod, code", [(1, 0.25, 1), (3, -1.5, 1),
                                               (1, 2.0, 0), (0, 0.25, 0)])
def test_unbounded_mod_poly_is_refused_by_bounded_symbol(tmp_path, capsys,
                                                         degree, mod, code):
    # degree >= 1 with |mod| < 2a is unbounded; mod = 2a is the zero operator
    sym = tmp_path / "poly.json"
    sym.write_text(json.dumps({"kind": "mod_poly", "degree": degree, "mod": mod}))
    out = tmp_path / "b.json"
    assert run("bounded-symbol", "--symbol", sym, "--out", out) == code
    err = capsys.readouterr().err
    assert out.exists() == (code == 0)
    if code:
        assert err.startswith(f"input error: mod_poly degree {degree} with mod {mod}:")
        assert len(err.strip().splitlines()) == 1


def test_matrix_commands_take_a_files_p_in_the_range_of_p(files, tmp_path, capsys):
    # recover-symbol reads the p = 3 file as it reads the p = 2 one: every
    # byte but its p and the round trip certified in that p
    outputs = {}
    for name in ("matrix.json", "matrix_p3.json"):
        out = tmp_path / f"rec_{name}"
        assert run("recover-symbol", "--matrix", files / name, "--out", out) == 0
        outputs[name] = [line for line in out.read_text().splitlines()
                         if not line.startswith((' "p":', ' "roundtrip_residual":'))]
    assert outputs["matrix.json"] == outputs["matrix_p3.json"]
    capsys.readouterr()
    # both matrix commands hold a file's p to the range of --p
    matrix = tmp_path / "p1.json"
    matrix.write_text(json.dumps({**json.loads((files / "matrix.json").read_text()),
                                  "p": 1.0}))
    for command in ("commutator-test", "recover-symbol"):
        assert run(command, "--matrix", matrix, "--out", tmp_path / "x.json") == 1
        assert capsys.readouterr().err == (
            f"input error: {matrix}: matrix field 'p': must lie in (1, inf), got 1.0\n")


def test_verify_runs_clean_and_reports(files, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("verify", "--out", "report.json") == 0
    out = capsys.readouterr().out
    assert "all pass" in out
    assert "FAIL" not in out
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "check_id,paper_ref,measured,bound,pass"
    assert all(line.endswith(",true") for line in lines[1:])


@pytest.mark.parametrize("argv", [["--help"], *([c, "--help"] for c in REMOVED_FLAGS)],
                         ids=lambda argv: argv[0])
def test_help_matches_the_parser_of_every_command(argv, capsys):
    # main adds the arguments of the command argv names only; REMOVED_FLAGS
    # names every command
    with pytest.raises(SystemExit):
        main(argv)
    printed = capsys.readouterr().out
    with pytest.raises(SystemExit):
        build_parser(REMOVED_FLAGS).parse_args(argv)
    assert capsys.readouterr().out == printed != ""


SRC = str(Path(jsonio.__file__).resolve().parents[1])


def _pwlab_modules(code: str) -> set:
    """The pwlab modules a fresh interpreter holds after running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    listing = "\nimport sys\nprint(*(m for m in sys.modules if m.startswith('pwlab')))"
    proc = subprocess.run([sys.executable, "-c", code + listing], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_importing_the_cli_loads_only_what_every_command_uses():
    assert _pwlab_modules("import pwlab.cli") == {
        "pwlab", "pwlab.cli", "pwlab.grid", "pwlab.jsonio", "pwlab.pwspace"}


@pytest.mark.parametrize("argv, loaded", [
    (["project", "--input", "smooth.json"], []),
    (["toeplitz", "--symbol", "gauss_flat.json", "--basis-window", "8"],
     ["symbols", "toeplitz"]),
    (["split", "--symbol", "gauss_flat.json"], ["split", "symbols"])],
    ids=["project", "toeplitz", "split"])
def test_a_command_loads_only_the_modules_it_runs(files, tmp_path, argv, loaded):
    # `loaded`: the modules beyond those every command imports
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    argv += ["--out", str(tmp_path / "o.json")]
    code = f"from pwlab.cli import main\nassert main({argv!r}) == 0"
    assert _pwlab_modules(code) == {
        "pwlab", "pwlab.cli", "pwlab.grid", "pwlab.jsonio", "pwlab.pwspace",
        *(f"pwlab.{m}" for m in loaded)}
