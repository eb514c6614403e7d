"""Command-line surface.

Every command reads/writes the shared JSON schemas (sampled functions,
symbols, operator matrices) with canonical 17-significant-digit float
serialization, so identical inputs and seed produce byte-identical outputs at
one OpenBLAS thread count (a 2-norm's last digit follows its summation order).
Alongside each JSON result a small CSV table of the headline numbers is
written (same basename).

Exit codes: 0 success, 1 input error (message names the offending field),
2 certificate failure (a requested bound did not hold; the JSON report is
still written).
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import reprlib
import sys
import warnings

import numpy as np

# every command loads these three; a command imports the rest of the library
# in its own body, so a launch compiles only the modules it runs
from . import jsonio
from .grid import lp_norm
from .pwspace import (DEFAULT_BAND, DEFAULT_OVERSAMPLE, DEFAULT_WINDOW,
                      band_residual, default_grid, project_band)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERT = 2


class InputError(Exception):
    pass


def tolerances(command: str) -> dict:
    """The tolerances `command` reads, with their defaults (the library's
    constant where it applies one too, read from the module that owns it),
    empty for a command without any; --tol NAME=VALUE overrides one."""
    if command == "split":
        from .split import DECAY_TOL
        return {"decay": DECAY_TOL}
    if command == "nehari":
        from .nehari import AAK_TOL
        return {"moment": 1e-6, "sup_slack": AAK_TOL}
    if command == "factorize":
        from .factorize import ATOM_TOL, RESIDUAL_SUP_TOL
        return {"band_residual": 1e-8, "atom": ATOM_TOL,
                "residual_sup": RESIDUAL_SUP_TOL, "residual_l1": 1e-5}
    return {"bounded-symbol": {"operator_residual": 1e-3},
            "commutator-test": {"deviation": 1e-6},
            "recover-symbol": {"roundtrip": 1e-3}}.get(command, {})


def _lib(module: str):
    """pwlab.<module>, imported when a command whose flags read it is parsed."""
    return importlib.import_module(f"{__package__}.{module}")


# (must hold, requirement)
_POSITIVE = (lambda v: 0.0 < v < math.inf, "must be positive and finite")

# every flag but --tol and --out: its argparse settings, a default the library
# owns as a function that reads it, and a range rule (must hold, requirement),
# checked in this order (p's also checks a matrix file's p); a requirement
# naming a library bound is a function
_FLAGS = {
    "input": dict(required=True, help="sampled-function JSON"),
    "symbol": dict(required=True, help="symbol JSON"),
    "matrix": dict(required=True, help="operator-matrix JSON"),
    "band": dict(type=float, default=DEFAULT_BAND, help="band radius a",
                 rule=_POSITIVE),
    "window": dict(type=float, default=DEFAULT_WINDOW, help="grid half-width",
                   rule=_POSITIVE),
    "basis-window": dict(type=float, rule=_POSITIVE,
                         default=lambda: _lib("toeplitz").DEFAULT_BASIS_WINDOW),
    "p": dict(type=float, default=2.0, help="Lebesgue exponent",
              rule=(lambda v: 1.0 < v < math.inf, "must lie in (1, inf)")),
    "oversample": dict(type=int, default=DEFAULT_OVERSAMPLE,
                       help="samples per Nyquist interval",
                       rule=(lambda v: v >= 4, "must be at least 4")),
    "truncation": dict(type=int, default=lambda: _lib("nehari").DEFAULT_TRUNCATION,
                       rule=(lambda v: 1 <= v <= _lib("nehari").MAX_TRUNCATION,
                             lambda: f"must lie in [1, {_lib('nehari').MAX_TRUNCATION}]")),
    "seed": dict(type=int, default=42,
                 rule=(lambda v: v >= 0, "must be non-negative")),
    "margin": dict(type=float, help="half-band of the target (default 0.9*band)"),
    "summary": dict(action="store_true", help="omit the pair list from the output"),
    "emit-bumps": dict(action="store_true",
                       help="also write the cutoff profiles to bumps.csv beside --out"),
}


def _check(name: str, value) -> None:
    holds, requirement = _FLAGS[name]["rule"]
    if not holds(value):
        if callable(requirement):
            requirement = requirement()
        raise InputError(f"{name}: {requirement}, got {value}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _tols(args) -> dict:
    """The command's tolerance table with the --tol overrides applied."""
    tols = tolerances(args.command)
    for item in args.tol:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise InputError(f"tol: expected NAME=VALUE, got {item!r}")
        if name not in tols:
            raise InputError(f"tol {name}: not a tolerance of {args.command}; "
                             f"valid names: {', '.join(tols)}")
        try:
            tols[name] = float(value)
        except ValueError:
            raise InputError(f"tol {name}: not a number: {value!r}") from None
        holds, requirement = _POSITIVE
        if not holds(tols[name]):
            raise InputError(f"tol {name}: {requirement}, got {value}")
    return tols


def _grid(args, window_flag: str = "window", basis: bool = False):
    """The flags' grid.  A half-width that is not a whole number of steps is
    refused, and for a Nyquist basis also one that puts a fractional number of
    bins in the band, naming the band if the number would be whole at band 1,
    else window_flag.  A grid `grid_count` refuses names all three flags, whose
    product sets the count.  The Nyquist basis of --basis-window then needs the
    node count `nyquist_indices` allows and a grid (--window) that spans it,
    and with it every node; all checked before sizing."""
    units = [(2.0 * args.oversample * args.window, "is {:g} grid steps")]
    if basis:
        units.append((4.0 * args.window, "puts {:g} bins in the band"))
    for unit, what in units:
        count = args.band * unit
        if math.isfinite(count) and abs(count - round(count)) > 1e-9:
            name = "band" if abs(unit - round(unit)) <= 1e-9 else window_flag
            raise InputError(f"{name}: the grid half-width {args.window} "
                             f"{what.format(count)}, not a whole number")
    try:
        grid = default_grid(args.band, args.window, args.oversample)
    except ValueError as e:
        raise InputError(f"band, {window_flag}, oversample: {e}") from None
    if basis:
        from .toeplitz import nyquist_indices
        try:
            nyquist_indices(args.band, args.basis_window)
        except ValueError as e:
            raise InputError(f"basis-window: {e}") from None
        if args.basis_window > args.window + 1e-9:
            raise InputError(f"window: the grid half-width {args.window} does not "
                             f"hold the basis window {args.basis_window}")
    return grid


# -- I/O helpers ---------------------------------------------------------------


def _load(path: str, read, unwrap=None):
    """read() of the JSON object in the file at path, passed through unwrap
    first when one is given; every refusal names the file."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from None
    # bad JSON, bytes that are not UTF-8, an integer past Python's digit limit
    # or arrays nested past the recursion limit
    except (ValueError, RecursionError) as e:
        raise InputError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(d, dict):
        raise InputError(f"{path}: top-level value must be a JSON object")
    try:
        return read(unwrap(d) if unwrap else d)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from None


def _flat_symbol(d: dict) -> dict:
    """A wrapped symbol {kind: {...}} as the flat {"kind": kind, ...}; a body
    that names another kind is refused."""
    from .symbols import KINDS
    if "kind" in d or len(d) != 1 or next(iter(d)) not in KINDS:
        return d
    kind = next(iter(d))
    body = jsonio.member(d, kind, owner="symbol")
    if body.get("kind", kind) != kind:
        raise ValueError(f"symbol field {kind!r} holds kind "
                         f"{reprlib.repr(body['kind'])}, not {kind!r}")
    return {"kind": kind, **body}


def _matrix_member(d: dict) -> dict:
    """The matrix of `toeplitz`'s output file, or a matrix file as it is."""
    return jsonio.member(d, "matrix", owner="toeplitz output") if "matrix" in d else d


def _out_paths(args) -> list:
    """The files a command writes: --out, the CSV beside it (its extension
    replaced) and, for split --emit-bumps, bumps.csv in its directory."""
    paths = [args.out, os.path.splitext(args.out)[0] + ".csv"]
    if getattr(args, "emit_bumps", False):
        paths.append(os.path.join(os.path.dirname(args.out), "bumps.csv"))
    return paths


def _file_key(path: str):
    """What names one file: device and inode for a path that exists, so a hard
    link matches, else the path with links, `.` and `..` resolved."""
    try:
        st = os.stat(path)
    except (OSError, ValueError):
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_out(args) -> None:
    """Refuse, before any work, outputs that cannot be written (no name, a
    missing directory, a directory in a file's place) or that would overwrite
    each other or the command's input file."""
    if not args.out:
        raise InputError("out: the path is empty")
    parent = os.path.dirname(args.out) or "."
    if not os.path.isdir(parent):
        raise InputError(f"out: {parent} is not an existing directory")
    flag = next((n for n in ("symbol", "input", "matrix") if hasattr(args, n)), None)
    source = _file_key(getattr(args, flag)) if flag else None
    seen = set()
    for path in _out_paths(args):
        key = _file_key(path)
        if os.path.isdir(path):
            raise InputError(f"out: {path} is a directory")
        if key == source:
            raise InputError(f"out: {path} would overwrite the input "
                             f"--{flag} {getattr(args, flag)}")
        if key in seen:
            raise InputError(f"out: {args.out} would write two outputs to {path}")
        seen.add(key)


def _write(args, payload: dict, csv_rows, csv_header) -> None:
    out_path, csv_path = _out_paths(args)[:2]
    jsonio.dump_canonical(payload, out_path)
    jsonio.write_csv(csv_path, csv_header, csv_rows)
    print(f"wrote {out_path} and {csv_path}")


def _verdict(ok: bool, why: str) -> int:
    """EXIT_OK, or EXIT_CERT after a `certificate failure: why` line."""
    if ok:
        return EXIT_OK
    print(f"certificate failure: {why}", file=sys.stderr)
    return EXIT_CERT


# -- commands ------------------------------------------------------------------


def cmd_project(args) -> int:
    f = _load(args.input, jsonio.function_from_dict)
    removed = band_residual(f, args.band)
    bl = project_band(f, args.band)
    payload = {
        "band": args.band,
        "residual_removed": removed,
        "fun": jsonio.function_to_dict(bl.fun),
    }
    _write(args, payload,
           [[ "residual_removed", removed ]], ["quantity", "value"])
    return EXIT_OK


def cmd_toeplitz(args) -> int:
    from .symbols import from_dict
    from .toeplitz import matrix_to_dict, operator_norm_certified, toeplitz_matrix
    flag = "window"
    if args.window is None:
        args.window, flag = args.basis_window, "basis-window"
    grid = _grid(args, flag, basis=True)
    sym = _load(args.symbol, from_dict, _flat_symbol)
    T = toeplitz_matrix(sym, args.band, args.p, args.basis_window, grid)
    norms = operator_norm_certified(T, args.p)
    payload = {
        "norm_lower": norms["lower"], "norm_upper": norms["upper"],
        "matrix": matrix_to_dict(T),
    }
    print(f"operator p-norm in [{jsonio._fmt_float(norms['lower'])}, "
          f"{jsonio._fmt_float(norms['upper'])}]")
    _write(args, payload,
           [[args.p, norms["lower"], norms["upper"]]],
           ["p", "norm_lower", "norm_upper"])
    return EXIT_OK


def cmd_split(args) -> int:
    from .split import BUMP_NAMES, bump, bump_l1_norms, split_symbol
    from .symbols import from_dict
    tols = _tols(args)
    sym = _load(args.symbol, from_dict, _flat_symbol)
    parts = split_symbol(sym, args.band, _grid(args), decay_tol=tols["decay"])
    l1_norms = bump_l1_norms(args.band)
    payload = {
        "band": args.band,
        "l1_norms": l1_norms,
        "band_certificates": parts.band_certificates,
        "parts": {name: jsonio.function_to_dict(parts.part(name))
                  for name in BUMP_NAMES},
    }
    rows = [[name, l1_norms[name]] for name in BUMP_NAMES]
    _write(args, payload, rows, ["part", "l1_norm"])
    if args.emit_bumps:
        us = np.arange(-4.0, 4.0 + 1e-12, 1.0 / 32.0)
        table = np.column_stack([args.band * us]
                                + [bump(us, w) for w in BUMP_NAMES])
        bumps = _out_paths(args)[2]
        jsonio.write_csv(bumps, ["xi", "bump_L", "bump_C", "bump_R"], table)
        print(f"wrote {bumps}")
    return EXIT_OK


def cmd_bounded_symbol(args) -> int:
    from .nehari import bounded_symbol
    from .symbols import from_dict
    tol = _tols(args)["operator_residual"]
    grid = _grid(args, basis=True)
    sym = _load(args.symbol, from_dict, _flat_symbol)
    res = bounded_symbol(sym, args.band, M=args.truncation, grid=grid,
                         window=args.basis_window)
    cert = res.certificate(args.p)
    ok = cert["operator_residual"] <= tol
    payload = {
        "band": args.band, "p": args.p,
        "sup_norm": res.sup_norm,
        **cert,
        "sigma_left": res.sigma_left,
        "sigma_right": res.sigma_right,
        "certified": ok,
        "psi": jsonio.function_to_dict(res.psi),
    }
    _write(args, payload,
           [[res.sup_norm, cert["operator_residual"], cert["ratio"], cert["c_meas"]]],
           ["sup_norm", "operator_residual", "ratio", "c_meas"])
    return _verdict(ok, f"operator residual {cert['operator_residual']:.3e} "
                        f"> {tol:.1e}")


def cmd_nehari(args) -> int:
    from .nehari import nehari_solve
    from .symbols import from_dict
    tols = _tols(args)
    sym = _load(args.symbol, from_dict, _flat_symbol)
    res = nehari_solve(sym, args.band, M=args.truncation, grid=_grid(args))
    moment_ok = res.moment_residual <= tols["moment"] * res.sigma0
    sup_ok = res.sup_norm <= (1.0 + tols["sup_slack"]) * res.sigma0
    payload = {
        "band": args.band,
        "sigma0": res.sigma0,
        "hankel_norm": res.hankel_norm,
        "moment_residual": res.moment_residual,
        "sup_norm": res.sup_norm,
        "correction_sup": res.correction_sup,
        "tail_ratio": res.tail_ratio,
        "truncation": res.truncation,
        "certificate": {"moment_ok": moment_ok, "sup_ok": sup_ok,
                        "passed": moment_ok and sup_ok},
        "psi": jsonio.function_to_dict(res.psi),
        "psi_matched": jsonio.function_to_dict(res.psi_matched),
    }
    _write(args, payload,
           [[res.sigma0, res.hankel_norm, res.moment_residual, res.sup_norm]],
           ["sigma0", "hankel_norm", "moment_residual", "sup_norm"])
    return _verdict(moment_ok and sup_ok,
                    "minimal completion did not meet moment/sup bounds")


def cmd_factorize(args) -> int:
    from .factorize import sinc_atom, weak_factorize
    tols = _tols(args)
    f = _load(args.input, jsonio.function_from_dict)
    margin = args.margin if args.margin is not None else 0.9 * args.band
    if not 0.0 < margin < args.band:
        raise InputError(f"margin: must lie in (0, band), got {margin}")
    removed = band_residual(f, 2.0 * margin)
    if removed > tols["band_residual"]:
        raise InputError(f"input {args.input}: band residual {removed:.3e} at "
                         f"band {2.0 * margin} exceeds tolerance; widen "
                         "--margin")
    h = project_band(f, 2.0 * margin)
    F = weak_factorize(h, args.band, args.p, atom_tol=tols["atom"])
    sup_h = float(np.max(np.abs(h.values))) or 1.0
    l1_h = lp_norm(h.fun, 1.0) or 1.0
    ok = (F.residual_sup <= tols["residual_sup"] * sup_h
          and F.residual_l1 <= tols["residual_l1"] * l1_h)
    payload = {
        "band": args.band, "p": args.p, "q": F.q, "margin": margin,
        "band_residual_removed": removed,
        "n_pairs": len(F),
        "nuclear_sum": F.nuclear_sum,
        "residual_sup": F.residual_sup,
        "residual_l1": F.residual_l1,
        "certified": ok,
        "plan": {"spacing": F.plan.spacing,
                 "decay_constant": F.plan.decay_constant()},
    }
    if not args.summary:
        # pairs in closed form: f_k = spacing * weight_k * atom(. - center_k),
        # g_k = atom(. - center_k)
        payload["pairs_format"] = "atoms"
        payload["atom"] = jsonio.function_to_dict(
            sinc_atom(args.band, 0.0, h.grid).fun)
        payload["pairs"] = [
            {"center": float(t), "weight": [float(w.real), float(w.imag)]}
            for t, w in zip(F.plan.centers, F.plan.weights)]
    _write(args, payload,
           [[len(F), F.nuclear_sum, F.residual_sup, F.residual_l1]],
           ["n_pairs", "nuclear_sum", "residual_sup", "residual_l1"])
    return _verdict(ok, "reconstruction residual exceeded the requested bound")


def _frame_for(args, T):
    # band, p, window and grid come from the matrix file, p meeting the rule of
    # --p; a file that records no grid is read on the default grid of its window
    from .commutator import build_frame
    holds, requirement = _FLAGS["p"]["rule"]
    field = "p" if not holds(T.p) else "grid" if T.grid else "window"
    try:
        if field == "p":
            raise ValueError(f"{requirement}, got {T.p}")
        grid = T.grid or default_grid(T.a, T.window)
        if not math.isclose(-grid.start, T.window) or \
                not math.isclose(grid.start + grid.span, T.window):
            raise ValueError(f"the grid (start {grid.start}, step {grid.step}, "
                             f"count {grid.count}) does not span the basis "
                             f"window {T.window}")
        return build_frame(T.a, T.p, grid)
    except ValueError as e:
        raise InputError(f"{args.matrix}: matrix field '{field}': {e}") from None


def cmd_commutator_test(args) -> int:
    from .commutator import commutator_test
    from .toeplitz import matrix_from_dict
    tol = _tols(args)["deviation"]
    T = _load(args.matrix, matrix_from_dict, _matrix_member)
    deviation = commutator_test(T, _frame_for(args, T), seed=args.seed)
    verdict = deviation <= tol
    payload = {"is_toeplitz": verdict, "deviation": deviation,
               "threshold": tol, "band": T.a, "p": T.p}
    _write(args, payload,
           [[deviation, tol, str(verdict).lower()]],
           ["deviation", "threshold", "is_toeplitz"])
    return _verdict(verdict, f"commutator deviation {deviation:.3e} > {tol:.1e}")


def cmd_recover_symbol(args) -> int:
    from .commutator import recover_symbol, recovery_roundtrip
    from .toeplitz import matrix_from_dict
    tol = _tols(args)["roundtrip"]
    T = _load(args.matrix, matrix_from_dict, _matrix_member)
    rec = recover_symbol(T, _frame_for(args, T))
    rt = recovery_roundtrip(T, rec)
    payload = {
        "band": T.a, "p": T.p,
        "roundtrip_residual": rt,
        "anti_analytic_part": jsonio.function_to_dict(rec.phi_bar_part),
        "analytic_part": jsonio.function_to_dict(rec.psi_part),
        "total": jsonio.function_to_dict(rec.total),
    }
    _write(args, payload,
           [[rt, tol]], ["roundtrip_residual", "threshold"])
    return _verdict(rt <= tol, f"symbol round-trip residual {rt:.3e} > {tol:.1e}")


def cmd_verify(args) -> int:
    from . import verify as verify_suite
    report = verify_suite.run_all(seed=args.seed,
                                  progress=lambda s: print(s, file=sys.stderr))
    for row in report["checks"]:
        mark = "pass" if row["passed"] else "FAIL"
        print(f"{mark}  {row['check_id']}: measured {row['measured']:.6e} "
              f"vs bound {row['bound']:.6e}")
    meta = report["meta"]
    n_warn = sum(w["count"] for w in meta["warnings"])
    print(f"{meta['n_rows']} checks, "
          f"{'all pass' if meta['all_pass'] else 'FAILURES PRESENT'}, "
          f"{meta['elapsed_s']}s, {n_warn} warnings (meta.warnings)")
    # the report, and a CSV with the fixed column schema check_id, paper_ref,
    # measured, bound, pass
    _write(args, report,
           [[row["check_id"], row["ref"], row["measured"], row["bound"],
             "true" if row["passed"] else "false"] for row in report["checks"]],
           ["check_id", "paper_ref", "measured", "bound", "pass"])
    return EXIT_OK if meta["all_pass"] else EXIT_CERT


# name: (function, help line, parser defaults with the default --out, flags in
# --help order, each a key of _FLAGS); --tol follows them when the command has
# tolerances, then --out
COMMANDS = {
    "project": (cmd_project, "band-project a sampled function",
                {"out": "projected.json"}, ("input", "band")),
    # the grid spans the basis window unless --window says otherwise
    "toeplitz": (cmd_toeplitz, "assemble a Toeplitz matrix",
                 {"out": "toeplitz.json", "window": None},
                 ("symbol", "basis-window", "band", "p", "oversample", "window")),
    "split": (cmd_split, "three-part symbol splitting", {"out": "split.json"},
              ("symbol", "emit-bumps", "band", "oversample", "window")),
    "bounded-symbol": (cmd_bounded_symbol, "bounded symbol with the same operator",
                       {"out": "bounded_symbol.json"},
                       ("symbol", "truncation", "basis-window", "band", "p",
                        "oversample", "window")),
    "nehari": (cmd_nehari, "minimal-sup Hankel completion", {"out": "nehari.json"},
               ("symbol", "truncation", "band", "oversample", "window")),
    "factorize": (cmd_factorize, "weak factorization of a target",
                  {"out": "factorization.json"},
                  ("input", "margin", "summary", "band", "p")),
    "commutator-test": (cmd_commutator_test, "test a matrix for the Toeplitz property",
                        {"out": "commutator_test.json"}, ("matrix", "seed")),
    "recover-symbol": (cmd_recover_symbol, "recover a symbol from a Toeplitz matrix",
                       {"out": "recovered_symbol.json"}, ("matrix",)),
    "verify": (cmd_verify, "run the full identity suite", {"out": "report.json"},
               ("seed",)),
}


def build_parser(commands) -> _Parser:
    """Every command with its help line, and the arguments of those named in
    `commands`, each default the library owns read from its module; `main`
    names only the command argv gives."""
    parser = _Parser(prog="pwlab",
                     description="Toeplitz operators on band-limited spaces: "
                                 "projections, symbols, factorization, and a "
                                 "self-verification suite.")
    subs = parser.add_subparsers(dest="command")
    for command, (func, summary, defaults, flags) in COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        if command not in commands:
            continue
        for name in flags:
            sub.add_argument("--" + name, **{
                k: v() if k == "default" and callable(v) else v
                for k, v in _FLAGS[name].items() if k != "rule"})
        if tols := tolerances(command):
            listed = ", ".join(f"{k} (default {v:g})" for k, v in tols.items())
            sub.add_argument("--tol", action="append", default=[],
                             metavar="NAME=VALUE",
                             help=f"override a named tolerance: {listed}")
        sub.add_argument("--out", default=None, help="output JSON path")
        sub.set_defaults(func=func, **defaults)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    text = " ".join(str(message).splitlines())
    print(f"warning: {text}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command is argv's first word: the top-level parser has no option
    # but --help, and argparse reads no abbreviation of a command
    parser = build_parser(argv[:1])
    # warnings print as one "warning: ..." line, like the input errors
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            if not hasattr(args, "func"):
                parser.print_help()
                return EXIT_INPUT
            for name, flag in _FLAGS.items():
                value = getattr(args, name.replace("-", "_"), None)
                if "rule" in flag and value is not None:
                    _check(name, value)
            _check_out(args)
            return args.func(args)
        except (InputError, ValueError) as e:
            print(f"input error: {e}", file=sys.stderr)
            return EXIT_INPUT
        except OSError as e:    # reads raise InputError; this is a write
            print(f"input error: out: {e.filename}: {e.strerror or e}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
