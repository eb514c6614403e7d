"""Command-line surface.

Every command reads/writes the shared JSON schemas (sampled functions,
symbols, operator matrices) with canonical 17-significant-digit float
serialization, so identical inputs and seed produce byte-identical outputs.
Alongside each JSON result a small CSV table of the headline numbers is
written (same basename).

Exit codes: 0 success, 1 input error (message names the offending field),
2 certificate failure (a requested bound did not hold; the JSON report is
still written).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import jsonio
from .commutator import (build_frame, commutator_test, recover_symbol,
                         recovery_roundtrip)
from .factorize import ATOM_TOL, RESIDUAL_SUP_TOL, sinc_atom, weak_factorize
from .grid import SampledFunction, lp_norm
from .nehari import AAK_TOL, DEFAULT_TRUNCATION, MAX_TRUNCATION, bounded_symbol, nehari_solve
from .pwspace import (DEFAULT_BAND, DEFAULT_OVERSAMPLE, DEFAULT_WINDOW,
                      band_residual, default_grid, project_band)
from .split import DECAY_TOL, bump, bump_l1_norms, split_symbol
from .symbols import KINDS as SYMBOL_KINDS, from_dict as symbol_from_dict
from .toeplitz import (DEFAULT_BASIS_WINDOW, matrix_from_dict, matrix_to_dict,
                       nyquist_indices, operator_norm_certified, toeplitz_matrix)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERT = 2


class InputError(Exception):
    pass


# The tolerances each command reads, with their defaults (the library's constant
# where it applies one too); --tol NAME=VALUE overrides one, on these commands only.
TOLERANCES = {
    "split": {"decay": DECAY_TOL},
    "bounded-symbol": {"operator_residual": 1e-3},
    "nehari": {"moment": 1e-6, "sup_slack": AAK_TOL},
    "factorize": {"band_residual": 1e-8, "atom": ATOM_TOL,
                  "residual_sup": RESIDUAL_SUP_TOL, "residual_l1": 1e-5},
    "commutator-test": {"deviation": 1e-6},
    "recover-symbol": {"roundtrip": 1e-3},
}

# the settings shared by several commands; each command adds the ones it reads
_FLAGS = {
    "band": dict(type=float, default=DEFAULT_BAND, help="band radius a"),
    "p": dict(type=float, default=2.0, help="Lebesgue exponent"),
    "oversample": dict(type=int, default=DEFAULT_OVERSAMPLE,
                       help="samples per Nyquist interval"),
    "window": dict(type=float, default=DEFAULT_WINDOW, help="grid half-width"),
    "seed": dict(type=int, default=42),
}

# (must hold, requirement) for the numeric flags and a matrix file's p
_POSITIVE = (lambda v: 0.0 < v < math.inf, "must be positive and finite")
_RANGES = {
    "band": _POSITIVE, "window": _POSITIVE, "basis_window": _POSITIVE,
    "p": (lambda v: 1.0 < v < math.inf, "must lie in (1, inf)"),
    "oversample": (lambda v: v >= 4, "must be at least 4"),
    "truncation": (lambda v: 1 <= v <= MAX_TRUNCATION,
                   f"must lie in [1, {MAX_TRUNCATION}]"),
    "seed": (lambda v: v >= 0, "must be non-negative"),
}


def _check(name: str, value) -> None:
    holds, requirement = _RANGES[name]
    if not holds(value):
        raise InputError(f"{name.replace('_', '-')}: {requirement}, got {value}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _add_flags(sub, command: str, *names: str) -> None:
    for name in names:
        sub.add_argument("--" + name, **_FLAGS[name])
    if command in TOLERANCES:
        listed = ", ".join(f"{k} (default {v:g})"
                           for k, v in TOLERANCES[command].items())
        sub.add_argument("--tol", action="append", default=[],
                         metavar="NAME=VALUE",
                         help=f"override a named tolerance: {listed}")
    sub.add_argument("--out", default=None, help="output JSON path")


def _tols(args) -> dict:
    """The command's tolerance table with the --tol overrides applied."""
    tols = dict(TOLERANCES[args.command])
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
    product sets the count."""
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
        return default_grid(args.band, args.window, args.oversample)
    except ValueError as e:
        raise InputError(f"band, {window_flag}, oversample: {e}") from None


def _check_basis_window(args) -> None:
    """The Nyquist basis of --basis-window needs the node count
    `nyquist_indices` allows and a grid (--window) that spans it, and with it
    every node (see `_grid`); checked before sizing."""
    try:
        nyquist_indices(args.band, args.basis_window)
    except ValueError as e:
        raise InputError(f"basis-window: {e}") from None
    if args.basis_window > args.window + 1e-9:
        raise InputError(f"window: the grid half-width {args.window} does not "
                         f"hold the basis window {args.basis_window}")


# -- I/O helpers ---------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(d, dict):
        raise InputError(f"{path}: top-level value must be a JSON object")
    return d


def _load_symbol(path: str):
    d = _load_json(path)
    if "kind" not in d and len(d) == 1:
        kind = next(iter(d))
        if kind in SYMBOL_KINDS:
            if not isinstance(d[kind], dict):
                raise InputError(f"{path}: field {kind!r} must hold an object")
            d = {"kind": kind, **d[kind]}
    try:
        return symbol_from_dict(d)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from None


def _load_function(path: str) -> SampledFunction:
    d = _load_json(path)
    try:
        return jsonio.function_from_dict(d)
    except (KeyError, ValueError, TypeError) as e:
        raise InputError(f"{path}: malformed sampled-function object: {e}") from None


def _load_matrix(path: str):
    """A matrix file, or `toeplitz`'s output file through its `matrix` member."""
    d = _load_json(path)
    if "matrix" in d:
        if not isinstance(d["matrix"], dict):
            raise InputError(f"{path}: field 'matrix' must hold an object")
        d = d["matrix"]
    try:
        return matrix_from_dict(d)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from None


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


# -- commands ------------------------------------------------------------------


def cmd_project(args) -> int:
    f = _load_function(args.input)
    removed = band_residual(f, args.band)
    bl = project_band(f, args.band, args.p)
    payload = {
        "band": args.band, "p": args.p,
        "residual_removed": removed,
        "fun": jsonio.function_to_dict(bl.fun),
    }
    _write(args, payload,
           [[ "residual_removed", removed ]], ["quantity", "value"])
    return EXIT_OK


def cmd_toeplitz(args) -> int:
    flag = "window"
    if args.window is None:
        args.window, flag = args.basis_window, "basis-window"
    grid = _grid(args, flag, basis=True)
    _check_basis_window(args)
    sym = _load_symbol(args.symbol)
    T = toeplitz_matrix(sym, args.band, args.p, args.basis_window, grid)
    norms = operator_norm_certified(T)
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
    tols = _tols(args)
    sym = _load_symbol(args.symbol)
    parts = split_symbol(sym, args.band, _grid(args), decay_tol=tols["decay"])
    l1_norms = bump_l1_norms(args.band)
    payload = {
        "band": args.band,
        "l1_norms": l1_norms,
        "band_certificates": parts.band_certificates,
        "parts": {name: jsonio.function_to_dict(parts.part(name))
                  for name in ("L", "C", "R")},
    }
    rows = [[name, l1_norms[name]] for name in ("L", "C", "R")]
    _write(args, payload, rows, ["part", "l1_norm"])
    if args.emit_bumps:
        us = np.arange(-4.0, 4.0 + 1e-12, 1.0 / 32.0)
        table = np.column_stack([args.band * us]
                                + [bump(us, w) for w in ("L", "C", "R")])
        bumps = _out_paths(args)[2]
        jsonio.write_csv(bumps, ["xi", "bump_L", "bump_C", "bump_R"], table)
        print(f"wrote {bumps}")
    return EXIT_OK


def cmd_bounded_symbol(args) -> int:
    tol = _tols(args)["operator_residual"]
    grid = _grid(args, basis=True)
    _check_basis_window(args)
    sym = _load_symbol(args.symbol)
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
    if not ok:
        print(f"certificate failure: operator residual "
              f"{cert['operator_residual']:.3e} > {tol:.1e}", file=sys.stderr)
        return EXIT_CERT
    return EXIT_OK


def cmd_nehari(args) -> int:
    tols = _tols(args)
    sym = _load_symbol(args.symbol)
    res = nehari_solve(sym, args.band, args.p, M=args.truncation,
                       grid=_grid(args))
    moment_ok = res.moment_residual <= tols["moment"] * res.sigma0
    sup_ok = res.sup_norm <= (1.0 + tols["sup_slack"]) * res.sigma0
    payload = {
        "band": args.band, "p": args.p,
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
    if not (moment_ok and sup_ok):
        print("certificate failure: minimal completion did not meet "
              "moment/sup bounds", file=sys.stderr)
        return EXIT_CERT
    return EXIT_OK


def cmd_factorize(args) -> int:
    tols = _tols(args)
    f = _load_function(args.input)
    margin = args.margin if args.margin is not None else 0.9 * args.band
    if not 0.0 < margin < args.band:
        raise InputError(f"margin: must lie in (0, band), got {margin}")
    removed = band_residual(f, 2.0 * margin)
    if removed > tols["band_residual"]:
        raise InputError(f"input {args.input}: band residual {removed:.3e} at "
                         f"band {2.0 * margin} exceeds tolerance; widen "
                         "--margin")
    h = project_band(f, 2.0 * margin, args.p)
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
    }
    if F.plan is not None:
        payload["plan"] = {"spacing": F.plan.spacing,
                           "decay_constant": F.plan.decay_constant()}
    if not args.summary:
        # pairs in closed form: f_k = spacing * weight_k * atom(. - center_k),
        # g_k = atom(. - center_k); explicit sampled pairs when no plan exists
        if F.plan is not None:
            payload["pairs_format"] = "atoms"
            payload["atom"] = jsonio.function_to_dict(
                sinc_atom(args.band, 0.0, h.grid).fun)
            payload["pairs"] = [
                {"center": float(t), "weight": [float(w.real), float(w.imag)]}
                for t, w in zip(F.plan.centers, F.plan.weights)
                if w != 0.0]
        else:
            payload["pairs_format"] = "explicit"
            payload["pairs"] = [
                {"f": jsonio.function_to_dict(SampledFunction(h.grid, fk)),
                 "g": jsonio.function_to_dict(SampledFunction(h.grid, gk))}
                for fk, gk in zip(F.f.values, F.g.values)]
    _write(args, payload,
           [[len(F), F.nuclear_sum, F.residual_sup, F.residual_l1]],
           ["n_pairs", "nuclear_sum", "residual_sup", "residual_l1"])
    if not ok:
        print("certificate failure: reconstruction residual exceeded the "
              "requested bound", file=sys.stderr)
        return EXIT_CERT
    return EXIT_OK


def _frame_for(args, T):
    # band, p, window and grid come from the matrix file; the frame is built
    # on T's grid, or at --oversample when the file records none
    _check("p", T.p)
    try:
        grid = T.grid or default_grid(T.a, T.window, args.oversample)
    except ValueError as e:
        raise InputError(f"oversample: {e}") from None
    if not math.isclose(-grid.start, T.window) or \
            not math.isclose(grid.start + grid.span, T.window):
        raise InputError(f"window: the matrix grid (start {grid.start}, step "
                         f"{grid.step}, count {grid.count}) does not span its "
                         f"basis window {T.window}; assemble it with --window "
                         f"{T.window}")
    return build_frame(T.a, T.p, grid)


def cmd_commutator_test(args) -> int:
    tol = _tols(args)["deviation"]
    T = _load_matrix(args.matrix)
    deviation = commutator_test(T, _frame_for(args, T), seed=args.seed)
    verdict = deviation <= tol
    payload = {"is_toeplitz": verdict, "deviation": deviation,
               "threshold": tol, "band": T.a, "p": T.p}
    _write(args, payload,
           [[deviation, tol, str(verdict).lower()]],
           ["deviation", "threshold", "is_toeplitz"])
    return EXIT_OK if verdict else EXIT_CERT


def cmd_recover_symbol(args) -> int:
    tol = _tols(args)["roundtrip"]
    T = _load_matrix(args.matrix)
    if T.p != 2.0:
        raise InputError(f"matrix p: symbol recovery needs p = 2, got {T.p}")
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
    if rt > tol:
        print(f"certificate failure: symbol round-trip residual {rt:.3e} "
              f"> {tol:.1e}", file=sys.stderr)
        return EXIT_CERT
    return EXIT_OK


def cmd_verify(args) -> int:
    # imported here: no other command needs the suite
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


def build_parser() -> _Parser:
    parser = _Parser(prog="pwlab",
                     description="Toeplitz operators on band-limited spaces: "
                                 "projections, symbols, factorization, and a "
                                 "self-verification suite.")
    subs = parser.add_subparsers(dest="command")

    sp = subs.add_parser("project", help="band-project a sampled function")
    sp.add_argument("--input", required=True, help="sampled-function JSON")
    _add_flags(sp, "project", "band", "p")
    sp.set_defaults(func=cmd_project, out="projected.json")

    sp = subs.add_parser("toeplitz", help="assemble a Toeplitz matrix")
    sp.add_argument("--symbol", required=True, help="symbol JSON")
    sp.add_argument("--basis-window", type=float, default=DEFAULT_BASIS_WINDOW)
    _add_flags(sp, "toeplitz", "band", "p", "oversample", "window")
    # the grid spans the basis window unless --window says otherwise
    sp.set_defaults(func=cmd_toeplitz, out="toeplitz.json", window=None)

    sp = subs.add_parser("split", help="three-part symbol splitting")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--emit-bumps", action="store_true",
                    help="also write the cutoff profiles to bumps.csv beside --out")
    _add_flags(sp, "split", "band", "oversample", "window")
    sp.set_defaults(func=cmd_split, out="split.json")

    sp = subs.add_parser("bounded-symbol",
                         help="bounded symbol with the same operator")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    sp.add_argument("--basis-window", type=float, default=DEFAULT_BASIS_WINDOW)
    _add_flags(sp, "bounded-symbol", "band", "p", "oversample", "window")
    sp.set_defaults(func=cmd_bounded_symbol, out="bounded_symbol.json")

    sp = subs.add_parser("nehari", help="minimal-sup Hankel completion")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    _add_flags(sp, "nehari", "band", "p", "oversample", "window")
    sp.set_defaults(func=cmd_nehari, out="nehari.json")

    sp = subs.add_parser("factorize", help="weak factorization of a target")
    sp.add_argument("--input", required=True, help="sampled-function JSON")
    sp.add_argument("--margin", type=float, default=None,
                    help="half-band of the target (default 0.9*band)")
    sp.add_argument("--summary", action="store_true",
                    help="omit the pair list from the output")
    _add_flags(sp, "factorize", "band", "p")
    sp.set_defaults(func=cmd_factorize, out="factorization.json")

    sp = subs.add_parser("commutator-test",
                         help="test a matrix for the Toeplitz property")
    sp.add_argument("--matrix", required=True, help="operator-matrix JSON")
    _add_flags(sp, "commutator-test", "oversample", "seed")
    sp.set_defaults(func=cmd_commutator_test, out="commutator_test.json")

    sp = subs.add_parser("recover-symbol",
                         help="recover a symbol from a Toeplitz matrix")
    sp.add_argument("--matrix", required=True)
    _add_flags(sp, "recover-symbol", "oversample")
    sp.set_defaults(func=cmd_recover_symbol, out="recovered_symbol.json")

    sp = subs.add_parser("verify", help="run the full identity suite")
    _add_flags(sp, "verify", "seed")
    sp.set_defaults(func=cmd_verify, out="report.json")

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    text = " ".join(str(message).splitlines())
    print(f"warning: {text}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    # warnings print as one "warning: ..." line, like the input errors
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            if not hasattr(args, "func"):
                parser.print_help()
                return EXIT_INPUT
            for name in _RANGES:
                if getattr(args, name, None) is not None:
                    _check(name, getattr(args, name))
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
