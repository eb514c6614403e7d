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
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import jsonio, verify as verify_suite
from .commutator import build_frame, commutator_test, recover_symbol, recovery_roundtrip
from .factorize import sinc_atom, weak_factorize
from .grid import lp_norm
from .nehari import bounded_symbol, nehari_solve
from .pwspace import band_residual, default_grid, project_band
from .split import bump, split_symbol
from .symbols import KINDS as SYMBOL_KINDS, from_dict as symbol_from_dict
from .toeplitz import (matrix_from_dict, matrix_to_dict,
                       operator_norm_certified, toeplitz_matrix)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERT = 2


class InputError(Exception):
    pass


@dataclass
class RunConfig:
    band: float = 1.0
    p: float = 2.0
    oversample: int = 8
    window: float = 64.0
    tolerances: dict = field(default_factory=dict)
    seed: int = 42

    def validate(self) -> "RunConfig":
        if not self.band > 0.0:
            raise InputError(f"band: must be positive, got {self.band}")
        if not (1.0 < self.p < math.inf):
            raise InputError(f"p: must lie in (1, inf), got {self.p}")
        if self.oversample < 4:
            raise InputError(f"oversample: must be at least 4, got {self.oversample}")
        if not self.window > 0.0:
            raise InputError(f"window: must be positive, got {self.window}")
        return self

    def grid(self):
        return default_grid(self.band, self.window, self.oversample)

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _add_common(sub, window=64.0):
    sub.add_argument("--band", type=float, default=1.0, help="band radius a")
    sub.add_argument("--p", type=float, default=2.0, help="Lebesgue exponent")
    sub.add_argument("--oversample", type=int, default=8,
                     help="samples per Nyquist interval")
    sub.add_argument("--window", type=float, default=window,
                     help="grid half-width")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                     help="override a named tolerance")
    sub.add_argument("--out", default=None, help="output JSON path")


def _tols(args) -> dict:
    tols = {}
    for item in args.tol:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise InputError(f"tol: expected NAME=VALUE, got {item!r}")
        try:
            tols[name] = float(value)
        except ValueError:
            raise InputError(f"tol {name}: not a number: {value!r}") from None
    return tols


def _config(args) -> RunConfig:
    return RunConfig(args.band, args.p, args.oversample, args.window,
                     _tols(args), args.seed).validate()


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
    try:
        return matrix_from_dict(_load_json(path))
    except ValueError as e:
        raise InputError(f"{path}: {e}") from None


def _write(out_path: str, payload: dict, csv_rows=None, csv_header=None) -> None:
    jsonio.dump_canonical(payload, out_path)
    wrote = out_path
    if csv_rows is not None:
        csv_path = out_path.rsplit(".", 1)[0] + ".csv"
        _write_csv(csv_path, csv_header, csv_rows)
        wrote += f" and {csv_path}"
    print(f"wrote {wrote}")


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            jsonio._fmt_float(v) if isinstance(v, float) else str(v)
            for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- commands ------------------------------------------------------------------


def cmd_project(args) -> int:
    cfg = _config(args)
    f = _load_function(args.input)
    removed = band_residual(f, cfg.band)
    bl = project_band(f, cfg.band, cfg.p)
    payload = {
        "band": cfg.band, "p": cfg.p,
        "residual_removed": removed,
        "fun": jsonio.function_to_dict(bl.fun),
    }
    _write(args.out or "projected.json", payload,
           [[ "residual_removed", removed ]], ["quantity", "value"])
    return EXIT_OK


def cmd_toeplitz(args) -> int:
    cfg = _config(args)
    sym = _load_symbol(args.symbol)
    T = toeplitz_matrix(sym, cfg.band, cfg.p, args.basis_window, cfg.grid())
    norms = operator_norm_certified(T)
    payload = {
        "norm_lower": norms["lower"], "norm_upper": norms["upper"],
        "matrix": matrix_to_dict(T),
    }
    print(f"operator p-norm in [{jsonio._fmt_float(norms['lower'])}, "
          f"{jsonio._fmt_float(norms['upper'])}]")
    _write(args.out or "toeplitz.json", payload,
           [[cfg.p, norms["lower"], norms["upper"]]],
           ["p", "norm_lower", "norm_upper"])
    return EXIT_OK


def cmd_split(args) -> int:
    cfg = _config(args)
    sym = _load_symbol(args.symbol)
    parts = split_symbol(sym, cfg.band, cfg.grid(),
                         decay_tol=cfg.tol("decay", 1e-8))
    payload = {
        "band": cfg.band,
        "l1_norms": parts.l1_norms,
        "band_certificates": parts.band_certificates,
        "parts": {name: jsonio.function_to_dict(parts.part(name))
                  for name in ("L", "C", "R")},
    }
    rows = [[name, parts.l1_norms[name]] for name in ("L", "C", "R")]
    _write(args.out or "split.json", payload, rows, ["part", "l1_norm"])
    if args.emit_bumps:
        us = np.arange(-4.0, 4.0 + 1e-12, 1.0 / 32.0)
        table = [[cfg.band * u] + [bump(u, w) for w in ("L", "C", "R")]
                 for u in us]
        _write_csv("bumps.csv", ["xi", "bump_L", "bump_C", "bump_R"], table)
        print("wrote bumps.csv")
    return EXIT_OK


def cmd_bounded_symbol(args) -> int:
    cfg = _config(args)
    sym = _load_symbol(args.symbol)
    res = bounded_symbol(sym, cfg.band, cfg.p, M=args.truncation,
                         grid=cfg.grid(), window=args.basis_window)
    tol = cfg.tol("operator_residual", 1e-3)
    ok = res.operator_residual <= tol
    payload = {
        "band": cfg.band, "p": cfg.p,
        "sup_norm": res.sup_norm,
        "operator_residual": res.operator_residual,
        "t_norm": res.t_norm,
        "ratio": res.ratio,
        "c_meas": res.c_meas,
        "sigma_left": res.sigma_left,
        "sigma_right": res.sigma_right,
        "certified": ok,
        "psi": jsonio.function_to_dict(res.psi),
    }
    _write(args.out or "bounded_symbol.json", payload,
           [[res.sup_norm, res.operator_residual, res.ratio, res.c_meas]],
           ["sup_norm", "operator_residual", "ratio", "c_meas"])
    if not ok:
        print(f"certificate failure: operator residual "
              f"{res.operator_residual:.3e} > {tol:.1e}", file=sys.stderr)
        return EXIT_CERT
    return EXIT_OK


def cmd_nehari(args) -> int:
    cfg = _config(args)
    sym = _load_symbol(args.symbol)
    res = nehari_solve(sym, cfg.band, cfg.p, M=args.truncation, grid=cfg.grid())
    moment_ok = res.moment_residual <= cfg.tol("moment", 1e-6) * res.sigma0
    sup_ok = res.sup_norm <= (1.0 + cfg.tol("sup_slack", 0.05)) * res.sigma0
    payload = {
        "band": cfg.band, "p": cfg.p,
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
    _write(args.out or "nehari.json", payload,
           [[res.sigma0, res.hankel_norm, res.moment_residual, res.sup_norm]],
           ["sigma0", "hankel_norm", "moment_residual", "sup_norm"])
    if not (moment_ok and sup_ok):
        print("certificate failure: minimal completion did not meet "
              "moment/sup bounds", file=sys.stderr)
        return EXIT_CERT
    return EXIT_OK


def cmd_factorize(args) -> int:
    cfg = _config(args)
    f = _load_function(args.input)
    margin = args.margin if args.margin is not None else 0.9 * cfg.band
    if not 0.0 < margin < cfg.band:
        raise InputError(f"margin: must lie in (0, band), got {margin}")
    removed = band_residual(f, 2.0 * margin)
    if removed > cfg.tol("band_residual", 1e-8):
        raise InputError(f"input {args.input}: band residual {removed:.3e} at "
                         f"band {2.0 * margin} exceeds tolerance; widen "
                         "--margin")
    h = project_band(f, 2.0 * margin, cfg.p)
    F = weak_factorize(h, cfg.band, cfg.p, atom_tol=cfg.tol("atom", 1e-8))
    sup_h = float(np.max(np.abs(h.values))) or 1.0
    l1_h = lp_norm(h.fun, 1.0) or 1.0
    ok = (F.residual_sup <= cfg.tol("residual_sup", 1e-6) * sup_h
          and F.residual_l1 <= cfg.tol("residual_l1", 1e-5) * l1_h)
    payload = {
        "band": cfg.band, "p": cfg.p, "q": F.q, "margin": margin,
        "band_residual_removed": removed,
        "n_pairs": len(F.pairs),
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
                sinc_atom(cfg.band, 0.0, h.grid).fun)
            payload["pairs"] = [
                {"center": float(t), "weight": [float(w.real), float(w.imag)]}
                for t, w in zip(F.plan.centers, F.plan.weights)
                if w != 0.0]
        else:
            payload["pairs_format"] = "explicit"
            payload["pairs"] = [
                {"f": jsonio.function_to_dict(fk.fun),
                 "g": jsonio.function_to_dict(gk.fun)}
                for fk, gk in F.pairs]
    _write(args.out or "factorization.json", payload,
           [[len(F.pairs), F.nuclear_sum, F.residual_sup, F.residual_l1]],
           ["n_pairs", "nuclear_sum", "residual_sup", "residual_l1"])
    if not ok:
        print("certificate failure: reconstruction residual exceeded the "
              "requested bound", file=sys.stderr)
        return EXIT_CERT
    return EXIT_OK


def _frame_for(args, T):
    # band, p, and window come from the matrix file; flags may only agree
    if args.band is not None and args.band != T.a:
        raise InputError(f"band: {args.band} does not match matrix band {T.a}")
    if args.p is not None and args.p != T.p:
        raise InputError(f"p: {args.p} does not match matrix p {T.p}")
    cfg = RunConfig(T.a, T.p, args.oversample, T.window, _tols(args),
                    args.seed).validate()
    return cfg, build_frame(T.a, T.p, cfg.grid())


def cmd_commutator_test(args) -> int:
    T = _load_matrix(args.matrix)
    cfg, frame = _frame_for(args, T)
    rep = commutator_test(T, frame, seed=cfg.seed)
    tol = cfg.tol("deviation", 1e-6)
    verdict = rep["deviation"] <= tol
    payload = {"is_toeplitz": verdict, "deviation": rep["deviation"],
               "threshold": tol, "band": T.a, "p": T.p}
    _write(args.out or "commutator_test.json", payload,
           [[rep["deviation"], tol, str(verdict).lower()]],
           ["deviation", "threshold", "is_toeplitz"])
    return EXIT_OK if verdict else EXIT_CERT


def cmd_recover_symbol(args) -> int:
    T = _load_matrix(args.matrix)
    if T.p != 2.0:
        raise InputError(f"matrix p: symbol recovery needs p = 2, got {T.p}")
    cfg, frame = _frame_for(args, T)
    rec = recover_symbol(T, frame)
    rt = recovery_roundtrip(T, frame)
    tol = cfg.tol("roundtrip", 1e-3)
    payload = {
        "band": T.a, "p": T.p,
        "roundtrip_residual": rt,
        "anti_analytic_part": jsonio.function_to_dict(rec.phi_bar_part),
        "analytic_part": jsonio.function_to_dict(rec.psi_part),
        "total": jsonio.function_to_dict(rec.total),
    }
    _write(args.out or "recovered_symbol.json", payload,
           [[rt, tol]], ["roundtrip_residual", "threshold"])
    if rt > tol:
        print(f"certificate failure: symbol round-trip residual {rt:.3e} "
              f"> {tol:.1e}", file=sys.stderr)
        return EXIT_CERT
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _config(args)
    report = verify_suite.run_all(cfg.band, cfg.p, cfg.seed,
                                  progress=lambda s: print(s, file=sys.stderr))
    out = args.out or "report.json"
    csv_path = out.rsplit(".", 1)[0] + ".csv"
    verify_suite.write_report(report, out, csv_path)
    for row in report["checks"]:
        mark = "pass" if row["passed"] else "FAIL"
        print(f"{mark}  {row['check_id']}: measured {row['measured']:.6e} "
              f"vs bound {row['bound']:.6e}")
    meta = report["meta"]
    n_warn = sum(w["count"] for w in meta["warnings"])
    print(f"{meta['n_rows']} checks, "
          f"{'all pass' if meta['all_pass'] else 'FAILURES PRESENT'}, "
          f"{meta['elapsed_s']}s, {n_warn} warnings (meta.warnings)")
    print(f"wrote {out} and {csv_path}")
    return EXIT_OK if meta["all_pass"] else EXIT_CERT


def build_parser() -> _Parser:
    parser = _Parser(prog="pwlab",
                     description="Toeplitz operators on band-limited spaces: "
                                 "projections, symbols, factorization, and a "
                                 "self-verification suite.")
    subs = parser.add_subparsers(dest="command")

    sp = subs.add_parser("project", help="band-project a sampled function")
    sp.add_argument("--input", required=True, help="sampled-function JSON")
    _add_common(sp)
    sp.set_defaults(func=cmd_project)

    sp = subs.add_parser("toeplitz", help="assemble a Toeplitz matrix")
    sp.add_argument("--symbol", required=True, help="symbol JSON")
    sp.add_argument("--basis-window", type=float, default=32.0)
    _add_common(sp)
    sp.set_defaults(func=cmd_toeplitz)

    sp = subs.add_parser("split", help="three-part symbol splitting")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--emit-bumps", action="store_true",
                    help="also write the cutoff profiles as bumps.csv")
    _add_common(sp)
    sp.set_defaults(func=cmd_split)

    sp = subs.add_parser("bounded-symbol",
                         help="bounded symbol with the same operator")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--truncation", type=int, default=256)
    sp.add_argument("--basis-window", type=float, default=32.0)
    _add_common(sp)
    sp.set_defaults(func=cmd_bounded_symbol)

    sp = subs.add_parser("nehari", help="minimal-sup Hankel completion")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--truncation", type=int, default=256)
    _add_common(sp)
    sp.set_defaults(func=cmd_nehari)

    sp = subs.add_parser("factorize", help="weak factorization of a target")
    sp.add_argument("--input", required=True, help="sampled-function JSON")
    sp.add_argument("--margin", type=float, default=None,
                    help="half-band of the target (default 0.9*band)")
    sp.add_argument("--summary", action="store_true",
                    help="omit the pair list from the output")
    _add_common(sp)
    sp.set_defaults(func=cmd_factorize)

    sp = subs.add_parser("commutator-test",
                         help="test a matrix for the Toeplitz property")
    sp.add_argument("--matrix", required=True, help="operator-matrix JSON")
    _add_common(sp)
    sp.set_defaults(func=cmd_commutator_test, band=None, p=None)

    sp = subs.add_parser("recover-symbol",
                         help="recover a symbol from a Toeplitz matrix")
    sp.add_argument("--matrix", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_recover_symbol, band=None, p=None)

    sp = subs.add_parser("verify", help="run the full identity suite")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

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
            return args.func(args)
        except (InputError, ValueError) as e:
            print(f"input error: {e}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
