"""Headline verification suite.

Each check_* function measures one advertised identity or bound of the
package at desk scale (band 1, window [-64, 64], oversample 8) and returns
its rows as dicts of check_id, ref, measured, bound, passed and note (`_row`),
which the report lists as they are.  The convention throughout is
`pass <=> measured <= bound`, so rows certifying a lower bound put the
required floor in `measured` and the achieved quantity in `bound` (the ids
carry a `-floor` suffix where that reading applies).

`run_all` executes every check in order and assembles a report dict.
"""
from __future__ import annotations

import math
import time
import warnings
from collections import Counter

import numpy as np

from .grid import SampledFunction, evaluate_offgrid, lp_norm, symmetric_grid
from .pwspace import (boyd_lower_bound, default_grid, project_band,
                      riesz_constant_estimate, sinc_kernel, sinc_profile)
from .symbols import bump_spectrum_symbol, gaussian_symbol, mod_poly_symbol, samples
from .toeplitz import (OperatorMatrix, hankel_symbol, identity_matrix,
                       identity_residuals, norm2, operator_norm_certified,
                       toeplitz_apply, toeplitz_matrix)
from .split import (BUMP_NAMES, bump_l1_norms, central_recover_sweep,
                    jensen_certificate, sinc_norm_constant, split_symbol)
from .nehari import AAK_TOL, bounded_symbol, nehari_solve
from .commutator import (build_frame, commutator_test,
                         defect_identity_residual, series_reconstruct)
from .factorize import (RESIDUAL_SUP_TOL, pair, regroup_pairs, sinc_atom,
                        toeplitz_test_set, weak_factorize, xpq_sandwich)


def _row(check_id: str, ref: str, measured: float, bound: float,
         note: str = "") -> dict:
    return {"check_id": check_id, "ref": ref, "measured": float(measured),
            "bound": float(bound), "passed": bool(measured <= bound), "note": note}


def check_01_reproducing_identity(a: float, seed: int) -> list:
    grid = default_grid(a)
    f = project_band(sinc_kernel(a / 2.0, 0.0, grid), a / 2.0).fun
    sup = float(np.max(np.abs(f.values)))
    pf = project_band(f, a).fun
    spectral = float(np.max(np.abs(pf.values - f.values)))

    # quadrature route: P_a f(x) = int f(t) sinc_a(x - t) dt on a coarse sweep
    xs = grid.points[::8]
    xs = xs[np.abs(xs) <= 16.0]
    kernel = sinc_profile(a, xs[:, None] - grid.points[None, :])
    quad = grid.step * kernel @ f.values
    direct = f.values[np.isin(grid.points, xs)]
    quadrature = float(np.max(np.abs(quad - direct)))
    return [
        _row("01-repro-spectral", "reproducing-identity", spectral, 1e-10 * sup),
        _row("01-repro-quadrature", "reproducing-identity", quadrature, 1e-4 * sup),
    ]


def check_02_zero_symbol(a: float, seed: int) -> list:
    T = toeplitz_matrix(mod_poly_symbol(1, 2.0 * a), a, 2.0, 32.0)
    return [_row("02-zero-symbol", "zero-symbol-operator",
                 norm2(T.entries), 1e-8)]


def check_03_vanishing_spectrum(a: float, seed: int) -> list:
    syms = [bump_spectrum_symbol(2.2 * a, 3.4 * a, seed=seed + 1),
            bump_spectrum_symbol(2.5 * a, 4.0 * a, seed=seed + 2),
            bump_spectrum_symbol(-3.4 * a, -2.2 * a, seed=seed + 3)]
    worst = 0.0
    for sym in syms:
        T = toeplitz_matrix(sym, a, 2.0, 32.0)
        worst = max(worst, norm2(T.entries))
    return [_row("03-vanishing-spectrum", "vanishing-spectrum-symbols",
                 worst, 1e-8, note=f"{len(syms)} seeded symbols")]


def check_04_projector(a: float, seed: int) -> list:
    grid = default_grid(a)
    res = identity_residuals(a, 2.0, grid, seed=seed, trials=10)
    rows = [
        _row("04-two-term-identity", "projector-decomposition",
             res["projector_two_term"], 1e-10),
        _row("04-sandwich-identity", "projector-decomposition",
             res["projector_halfline_sandwich"], 1e-10),
        _row("04-hankel-intertwine", "hankel-toeplitz-intertwine",
             res["hankel_toeplitz_intertwine"], 1e-10),
    ]

    def apply(v):
        return project_band(SampledFunction(grid, v), a).values

    for p in (2.0, 3.0):
        est = boyd_lower_bound(apply, apply, grid.count, p, weight=grid.step,
                               seed=seed)
        ap = riesz_constant_estimate(p)
        rows.append(_row(f"04-projector-norm-p{p:g}", "projector-norm-vs-riesz",
                         est, 2.0 * ap + 1e-3, note=f"A_p est {ap:.6f}"))
    # P_a, P_+ are real 0/1 masks, so self-adjoint: the p = 3 runs serve p = 1.5
    return rows[:3] + [{**rows[-1], "check_id": "04-projector-norm-p1.5"}] + rows[3:]


def check_05_splitting(a: float, seed: int) -> list:
    grid = default_grid(a)
    worst_sum = 0.0
    worst_jensen = 0.0
    l1_norms = bump_l1_norms(a)
    for k in range(5):
        sym = bump_spectrum_symbol(0.05 * a, 1.9 * a, seed=seed + 10 + k,
                                   hermitian=True)
        parts = split_symbol(sym, a, grid)
        T = toeplitz_matrix(sym, a, 2.0, 32.0, grid)
        m_parts = {name: toeplitz_matrix(parts.part_symbol(name), a, 2.0, 32.0,
                                         grid)
                   for name in BUMP_NAMES}
        acc = np.zeros_like(T.entries)
        for name in BUMP_NAMES:
            acc += m_parts[name].entries
        denom = norm2(T.entries)
        worst_sum = max(worst_sum, norm2(acc - T.entries) / denom)
        for norm, bound in jensen_certificate(T, m_parts, l1_norms, 2.0).values():
            if bound > 0.0:
                worst_jensen = max(worst_jensen, norm / bound)
    norms = [bump_l1_norms(aa) for aa in (0.5, 1.0, 2.0, 4.0)]
    spread = max(max(abs(n[k] - norms[0][k]) for n in norms)
                 for k in ("L", "C", "R"))
    return [
        _row("05-operator-sum", "three-part-splitting", worst_sum, 1e-6),
        _row("05-jensen-ratio", "jensen-part-bounds", worst_jensen, 1.0),
        _row("05-cutoff-a-invariance", "cutoff-scale-invariance", spread, 1e-6),
    ]


def check_06_central_recovery(a: float, seed: int) -> list:
    grid = symmetric_grid(256.0, 1.0 / 16.0)
    parts = split_symbol(gaussian_symbol(), a, grid)
    phi_c = parts.part_c
    phi_sym = parts.part_symbol("C")
    sup = float(np.max(np.abs(phi_c.values)))

    xs = np.linspace(-8.0, 8.0, 33)
    rec = central_recover_sweep(
        lambda f: toeplitz_apply(phi_sym, project_band(f, a)), a, xs, grid)
    true = evaluate_offgrid(phi_c, xs)
    sweep = float(np.max(np.abs(rec - true)))

    T_c = toeplitz_matrix(phi_sym, a, 2.0, 32.0, grid)
    tnorm = operator_norm_certified(T_c, 2.0)["lower"]
    prod = sinc_norm_constant(2.0)["product"]
    return [
        _row("06-recovery-sweep", "central-symbol-recovery", sweep, 1e-5 * sup),
        _row("06-central-sup-bound", "central-sup-bound", sup,
             4.0 * prod * tnorm * 1.05, note=f"|T_C| {tnorm:.6f}"),
    ]


def check_07_sinc_constant(a: float, seed: int) -> list:
    rows = []
    for p in (1.1, 1.5, 2.0, 3.0, 8.0):
        d = sinc_norm_constant(p)
        rows.append(_row(f"07-sinc-constant-p{p:g}", "sinc-norm-constant",
                         d["product"], d["bound"]))
        if p == 2.0:
            at2 = d["product"]
    rows.append(_row("07-sinc-constant-p2-value", "sinc-norm-constant",
                     abs(at2 - math.sqrt(2.0) / 2.0), 1e-3))
    return rows


def check_08_norm_sandwich(a: float, seed: int) -> list:
    grid = default_grid(a)
    rows = []
    for k in range(3):
        sym = bump_spectrum_symbol(0.05 * a, 1.9 * a, seed=seed + 20 + k,
                                   hermitian=True)
        T = toeplitz_matrix(sym, a, 2.0, 32.0, grid)
        n = operator_norm_certified(T, 2.0)["lower"]
        sup = lp_norm(samples(sym, grid), np.inf)
        rows.append(_row(f"08-upper-{k}", "norm-equivalence-sandwich",
                         n, sup * 1.001))
        rows.append(_row(f"08-lower-floor-{k}", "norm-equivalence-sandwich",
                         sup * 0.95 / 3.0, n))
    return rows


def check_09_minimal_completion(a: float, seed: int) -> list:
    grid = default_grid(a)
    parts = split_symbol(gaussian_symbol(), a, grid)
    res = nehari_solve(hankel_symbol(parts.part_r, a), a, 2.0)
    return [
        _row("09-moment-match", "minimal-hankel-completion",
             res.moment_residual, 1e-6 * res.sigma0),
        _row("09-sup-vs-sigma0", "minimal-hankel-completion",
             res.sup_norm, (1.0 + AAK_TOL) * res.sigma0),
        _row("09-sigma0-vs-hankel", "minimal-hankel-completion",
             abs(res.sigma0 - res.hankel_norm), 0.05 * res.hankel_norm,
             note=f"sigma0 {res.sigma0:.8f} hankel {res.hankel_norm:.8f}"),
    ]


def check_10_bounded_symbol(a: float, seed: int) -> list:
    syms = [gaussian_symbol(),
            gaussian_symbol(amp=0.8, width=2.0),
            gaussian_symbol(amp=1.2, width=0.7, shift=0.4)]
    worst_res = 0.0
    worst_c = 0.0
    for sym in syms:
        out = bounded_symbol(sym, a)
        # a real symbol's T_phi is self-adjoint: the p = 3 certificate serves p = 1.5
        for p in (2.0, 3.0):
            cert = out.certificate(p)
            worst_res = max(worst_res, cert["operator_residual"])
            worst_c = max(worst_c, cert["c_meas"])
    return [
        _row("10-operator-residual", "bounded-symbol-pipeline", worst_res, 1e-3,
             note="3 symbols x p in {1.5, 2, 3}"),
        _row("10-constant-ceiling", "bounded-symbol-pipeline", worst_c, 20.0),
    ]


def check_11_commutator(a: float, seed: int) -> list:
    grid = default_grid(a)
    frame = build_frame(a)
    defect = defect_identity_residual(frame)

    W = -grid.start
    bump = bump_spectrum_symbol(0.05 * a, 1.5 * a, seed=seed + 31, hermitian=True)
    worst_toe = commutator_test(toeplitz_matrix(bump, a, 2.0, W, grid), frame)
    # the gaussian matrix serves the Toeplitz row and then the spoiler
    T = toeplitz_matrix(gaussian_symbol(), a, 2.0, W, grid)
    worst_toe = max(worst_toe, commutator_test(T, frame))

    e = np.zeros(T.size)
    e[T.size // 2] = e[T.size // 2 + 16] = 1.0 / math.sqrt(2.0)
    spoiled = OperatorMatrix(T.entries + np.outer(e, e), a, 2.0, W, T.nodes)
    dev = commutator_test(spoiled, frame)
    return [
        _row("11-toeplitz-deviation", "toeplitz-commutator-test", worst_toe, 1e-6),
        _row("11-spoiler-floor", "toeplitz-commutator-test", 1e-3, dev),
        _row("11-rank-one-defect", "rank-one-defect", defect, 1e-6),
    ]


def check_12_series(a: float, seed: int) -> list:
    grid = default_grid(a)
    frame = build_frame(a)
    W = -grid.start
    tests = {"identity": identity_matrix(a, 2.0, W),
             "gaussian": toeplitz_matrix(gaussian_symbol(), a, 2.0, W, grid)}
    s8, s64 = (series_reconstruct(tests.values(), N, frame) for N in (8, 64))
    rows = []
    for label, r8, r64 in zip(tests, s8, s64):
        rows.append(_row(f"12-{label}-n64", "compression-series", r64, 0.05))
        rows.append(_row(f"12-{label}-monotone", "compression-series", r64, r8,
                         note=f"n8 {r8:.6f}"))
    return rows


def check_13_weak_factorization(a: float, seed: int) -> list:
    grid = default_grid(a)
    b = 0.9 * a
    h = project_band(SampledFunction(
        grid, sinc_profile(b, grid.points).astype(complex) ** 2), 2.0 * b)
    F = weak_factorize(h, a, 2.0)
    sup_h = float(np.max(np.abs(h.values)))
    l1_h = lp_norm(h.fun, 1.0)

    # nuclear sum is finite and below the decay-certified integral ceiling:
    # |w(t)| <= C/(1+t^2) gives delta*sum|w| <= pi*C
    atom = sinc_atom(a, 0.0, grid)
    ceiling = (math.pi * F.plan.decay_constant()
               * lp_norm(atom.fun, 2.0) * lp_norm(atom.fun, 2.0))
    rows = [
        _row("13-reconstruction-sup", "weak-factorization",
             F.residual_sup, RESIDUAL_SUP_TOL * sup_h),
        _row("13-reconstruction-l1", "weak-factorization",
             F.residual_l1, 1e-5 * l1_h),
        _row("13-nuclear-ceiling", "weak-factorization", F.nuclear_sum, ceiling,
             note=f"{len(F)} pairs"),
    ]

    W = -grid.start
    ops = (identity_matrix(a, 2.0, W),
           toeplitz_matrix(gaussian_symbol(), a, 2.0, W, grid))
    v1 = pair(ops, F)
    worst = max(abs(u - v) / max(abs(u), 1e-300)
                for u, v in zip(v1, pair(ops, regroup_pairs(F))))
    return rows + [
        _row("13-pairing-well-defined", "pairing-representation-independence",
             worst, 1e-6),
    ]


def check_14_pairing_sandwich(a: float, seed: int) -> list:
    grid = default_grid(a)
    tests = toeplitz_test_set(a, 2.0, seed=seed, grid=grid)
    rows = []
    targets = {
        "sinc-sq": project_band(SampledFunction(
            grid, sinc_profile(0.9 * a, grid.points).astype(complex) ** 2),
            1.8 * a),
        "sinc-quartic": project_band(SampledFunction(
            grid, sinc_profile(0.45 * a, grid.points).astype(complex) ** 4),
            1.8 * a),
    }
    for name, h in targets.items():
        rep = xpq_sandwich(h, a, 2.0, tests)
        rows.append(_row(f"14-l1-vs-nuclear-{name}", "pairing-norm-sandwich",
                         rep["h_l1"], rep["nuclear_sum"] * (1.0 + 1e-6)))
        rows.append(_row(f"14-estimate-vs-nuclear-{name}", "pairing-norm-sandwich",
                         rep["estimate"], rep["nuclear_sum"] * (1.0 + 1e-6)))
    return rows


ALL_CHECKS = [
    check_01_reproducing_identity,
    check_02_zero_symbol,
    check_03_vanishing_spectrum,
    check_04_projector,
    check_05_splitting,
    check_06_central_recovery,
    check_07_sinc_constant,
    check_08_norm_sandwich,
    check_09_minimal_completion,
    check_10_bounded_symbol,
    check_11_commutator,
    check_12_series,
    check_13_weak_factorization,
    check_14_pairing_sandwich,
]


def run_all(a: float = 1.0, p: float = 2.0, *, seed: int, progress) -> dict:
    """Run every headline check; returns the report dict.  A warning raised
    inside a check is recorded in meta["warnings"] instead of printed;
    `progress`, unless None, gets one status line after each check."""
    t0 = time.time()
    rows = []
    timings = {}
    warned = []
    for fn in ALL_CHECKS:
        t1 = time.time()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn(a, seed)
        timings[fn.__name__] = round(time.time() - t1, 3)
        rows.extend(out)
        counts = Counter((w.category.__name__, str(w.message)) for w in caught)
        warned.extend({"check": fn.__name__, "category": category,
                       "message": message, "count": count}
                      for (category, message), count in counts.items())
        if progress is not None:
            status = "pass" if all(r["passed"] for r in out) else "FAIL"
            progress(f"{fn.__name__}: {status} ({timings[fn.__name__]}s)")
    return {
        "meta": {
            "band": a, "p": p, "seed": seed,
            "elapsed_s": round(time.time() - t0, 3),
            "n_rows": len(rows),
            "all_pass": all(r["passed"] for r in rows),
            "timings_s": timings,
            "warnings": warned,
        },
        "checks": rows,
    }
