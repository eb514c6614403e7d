"""The four benchmark workloads: seeded inputs, operations and their checks.

Each workload is a list of `Op`s run back to back in one pass.  `run` is the
timed call into pwlab; `check` runs afterwards, outside the timed region, and
turns the result into one or more `Outcome`s.  Every pwlab function is reached
through its module attribute at call time, so a traced pass sees each call.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import pwlab
import pwlab.commutator
import pwlab.factorize
import pwlab.grid
import pwlab.jsonio
import pwlab.nehari
import pwlab.pwspace
import pwlab.split
import pwlab.symbols
import pwlab.toeplitz
import pwlab.verify

grid_mod = pwlab.grid
pw = pwlab.pwspace
sy = pwlab.symbols
tp = pwlab.toeplitz
sp = pwlab.split
nh = pwlab.nehari
cm = pwlab.commutator
fz = pwlab.factorize
jio = pwlab.jsonio

A = 1.0                      # band of every workload
COLUMN_TOL = 1e-12           # fast routes must match the column route to this
HERMITIAN_TOL = 1e-12
ZERO_NORM_TOL = 1e-8         # verify row 02-zero-symbol
B_SWEEP = [0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.975]   # scripts/factorization_margin.py

# Grid point counts each workload builds (reported in the env block).
GRID_SIZES = {
    "verify": [2048, 8192, 65536],
    "assembly": [2048, 4096, 8192],
    "spectral": [2048, 8192],
    "cli": [256, 2048],
}

# cli operations whose outcome differs from the documented one at the parent
# commit; they are counted in `failed`, never skipped.
KNOWN_DEFECTS = {
    "bad-symbol-int": "symbol file `5` exits 1 only through a TypeError traceback",
    "bad-symbol-null-amp": "`amp: null` exits 1 only through a TypeError traceback",
    "readme-commutator-test": "README pipeline: frame rebuilds the grid at window 32, "
                              "deviation ~1e-3, exit 2",
    "readme-recover-symbol": "README pipeline: symbol round-trip residual ~0.4, exit 2",
}


@dataclass
class Outcome:
    name: str
    ok: bool
    checks: list = field(default_factory=list)    # (label, error, tolerance)
    latency_s: float | None = None                 # None: use the measured time
    note: str = ""


@dataclass
class Op:
    name: str
    run: object
    check: object


def _ratio_ok(checks) -> bool:
    return all(err <= tol for _, err, tol in checks)


def _uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


# -- verify ----------------------------------------------------------------------


def verify_ops(seed: int, progress=None) -> list:
    """`progress` is passed to run_all, which calls it after each check."""
    def check(report):
        rows = report["checks"]
        timings = report["meta"]["timings_s"]
        out = []
        for fn in pwlab.verify.ALL_CHECKS:
            number = fn.__name__.split("_")[1]
            mine = [r for r in rows if r["check_id"].startswith(number + "-")]
            checks = [(r["check_id"], r["measured"], r["bound"]) for r in mine]
            out.append(Outcome(f"check_{number}", bool(mine) and all(r["passed"] for r in mine),
                               checks, latency_s=timings[fn.__name__]))
        if len(rows) != 47:
            out.append(Outcome("row-count", False, note=f"{len(rows)} rows, expected 47"))
        return out

    return [Op("run_all", lambda: pwlab.verify.run_all(a=A, p=2.0, seed=seed,
                                                      progress=progress), check)]


# -- assembly --------------------------------------------------------------------


def _assembly_symbols(seed: int, window: float, grid) -> dict:
    rng = np.random.default_rng([seed, 1])
    gauss = sy.gaussian_symbol(amp=_uniform(rng, 0.8, 1.2), width=_uniform(rng, 0.8, 1.5),
                               shift=_uniform(rng, -0.5, 0.5))
    zero = sy.mod_poly_symbol(1, 2.0 * A, amp=_uniform(rng, 0.5, 2.0))
    bump = sy.bump_spectrum_symbol(_uniform(rng, 0.05, 0.5), _uniform(rng, 1.2, 1.9),
                                   seed=int(rng.integers(1 << 20)), hermitian=True)
    x = grid.points
    vals = np.zeros(grid.count)
    for _ in range(3):
        c, w, h = _uniform(rng, -8, 8), _uniform(rng, 1, 3), _uniform(rng, 0.3, 1.0)
        vals += h * np.exp(-((x - c) / w) ** 2)
    sampled = sy.sampled_symbol(grid_mod.SampledFunction(grid, vals.astype(complex)))
    return {"gaussian": (gauss, True), "mod_poly": (zero, False),
            "sampled": (sampled, True), "bump_spectrum": (bump, True)}


def _hermitian_error(E: np.ndarray) -> float:
    worst = 0.0
    for i in range(0, E.shape[0], 128):
        blk = E[i:i + 128, :] - E[:, i:i + 128].conj().T
        worst = max(worst, float(np.max(np.abs(blk))))
    return worst / float(np.max(np.abs(E)))


def _column_error(M, ref_column, seed: int, salt: int, relative: bool = True) -> float:
    """Largest error over three seeded columns against the definitional route;
    relative to the column norm, or absolute for the zero operator, whose
    columns are rounding noise."""
    rng = np.random.default_rng([seed, 2, salt])
    worst = 0.0
    for k in rng.choice(M.size, size=3, replace=False):
        ref = ref_column(int(k))
        err = float(np.linalg.norm(ref - M.entries[:, k]))
        worst = max(worst, err / float(np.linalg.norm(ref)) if relative else err)
    return worst


def _matrix_op(name, sym, real, window, grid, seed, salt) -> Op:
    def run():
        M = tp.toeplitz_matrix(sym, A, 2.0, window, grid)
        return M, tp.operator_norm_certified(M, 2.0), tp.operator_norm_certified(M, 3.0)

    def check(res):
        M, n2, n3 = res
        basis = tp.NyquistBasis(A, window, grid)

        def ref_column(k):
            return basis.coefficients(tp.toeplitz_apply(sym, basis.vector(k)).fun)

        zero = sym.kind == "mod_poly"        # mod_poly(1, 2a) compresses to 0
        checks = [("column-route", _column_error(M, ref_column, seed, salt, not zero),
                   COLUMN_TOL)]
        if real:
            checks.append(("hermitian", _hermitian_error(M.entries), HERMITIAN_TOL))
        if zero:
            checks.append(("zero-norm", float(np.linalg.norm(M.entries, 2)), ZERO_NORM_TOL))
        ok = _ratio_ok(checks) and all(n["lower"] <= n["upper"] * (1 + 1e-12) for n in (n2, n3))
        return [Outcome(name, ok, checks)]

    return Op(name, run, check)


def _lambda_op(window: float, seed: int) -> Op:
    grid = pw.default_grid(A, window)

    def run():
        frame = cm.build_frame(A, 2.0, grid)
        ops = cm.lambda_ops(frame)
        return (frame, ops, tp.operator_norm_certified(ops.lam, 2.0),
                tp.operator_norm_certified(ops.lam, 3.0))

    def check(res):
        frame, ops, n2, n3 = res
        basis = frame.basis

        def ref_column(k):
            out = pw.project_band(cm.lattice_omega_apply(basis.vector(k).fun), A, 2.0)
            return basis.coefficients(out.fun)

        checks = [("column-route", _column_error(ops.lam, ref_column, seed, 99), COLUMN_TOL)]
        ok = _ratio_ok(checks) and n2["lower"] <= n2["upper"] * (1 + 1e-12)
        return [Outcome(f"lambda_ops-b{basis.size}", ok, checks)]

    return Op(f"lambda_ops-b{int(4 * A * window)}", run, check)


def assembly_ops(seed: int) -> list:
    ops = []
    plan = [(64.0, ("gaussian", "mod_poly", "sampled", "bump_spectrum")),
            (128.0, ("gaussian", "mod_poly", "sampled", "bump_spectrum")),
            (256.0, ("gaussian", "bump_spectrum"))]
    salt = 0
    for window, kinds in plan:
        grid = pw.default_grid(A, window)
        syms = _assembly_symbols(seed, window, grid)
        for kind in kinds:
            sym, real = syms[kind]
            ops.append(_matrix_op(f"{kind}-b{int(4 * A * window)}", sym, real,
                                  window, grid, seed, salt))
            salt += 1
    ops.append(_lambda_op(64.0, seed))
    return ops


# -- spectral --------------------------------------------------------------------


def _spectral_family(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    fam = []
    for i in range(3):
        fam.append((f"gauss{i}", sy.gaussian_symbol(
            amp=_uniform(rng, 0.8, 1.2), width=_uniform(rng, 0.55, 0.7),
            shift=_uniform(rng, -0.5, 0.5))))
    for i in range(3):
        fam.append((f"bump{i}", sy.bump_spectrum_symbol(
            _uniform(rng, 0.05, 0.3), _uniform(rng, 1.4, 1.9),
            seed=int(rng.integers(1 << 20)), hermitian=True)))
    return fam


def _right_part_symbol(parts, grid):
    theta2 = np.exp(4j * np.pi * A * grid.points)
    lo, hi = sp.SUPPORTS["R"]
    return sy.sampled_symbol(grid_mod.SampledFunction(grid, parts.part_r.values * np.conj(theta2)),
                             support=(lo * A - 2.0 * A, hi * A - 2.0 * A))


def spectral_ops(seed: int) -> list:
    grid = pw.default_grid(A)
    wide = grid_mod.symmetric_grid(256.0, 1.0 / 16.0)      # n = 8192
    xs = np.linspace(-8.0, 8.0, 33)
    ops = []
    for label, sym in _spectral_family(seed):
        def split_run(sym=sym):
            return sp.split_symbol(sym, A, grid)

        def split_check(parts, label=label):
            checks = [(f"band-{k}", v, 1e-6) for k, v in parts.band_certificates.items()]
            return [Outcome(f"split-{label}", _ratio_ok(checks), checks)]

        ops.append(Op(f"split-{label}", split_run, split_check))

        b = _right_part_symbol(sp.split_symbol(sym, A, grid), grid)

        def nehari_run(b=b):
            return nh.nehari_solve(b, A, 2.0)

        def nehari_check(res, label=label):
            checks = [("moment", res.moment_residual, 1e-6 * res.sigma0),
                      ("sup-vs-sigma0", res.sup_norm, 1.05 * res.sigma0),
                      ("sigma0-vs-hankel", abs(res.sigma0 - res.hankel_norm),
                       0.05 * res.hankel_norm)]
            return [Outcome(f"nehari-{label}", _ratio_ok(checks), checks)]

        ops.append(Op(f"nehari-{label}", nehari_run, nehari_check))

        parts_c = sp.split_symbol(sym, A, wide)
        phi_sym = parts_c.part_symbol("C")

        def sweep_run(phi_sym=phi_sym):
            return sp.central_recover_sweep(
                lambda f: tp.toeplitz_apply(phi_sym, pw.project_band(f, A)), A, xs, wide)

        def sweep_check(rec, parts_c=parts_c, label=label):
            true = grid_mod.evaluate_offgrid(parts_c.part_c, xs)
            sup = float(np.max(np.abs(parts_c.part_c.values)))
            checks = [("recovery-sweep", float(np.max(np.abs(rec - true))), 1e-5 * sup)]
            return [Outcome(f"sweep-{label}", _ratio_ok(checks), checks)]

        ops.append(Op(f"sweep-{label}", sweep_run, sweep_check))

    def idres_check(res):
        checks = [(k, v, 1e-10) for k, v in res.items()]
        return [Outcome("identity_residuals", _ratio_ok(checks), checks)]

    ops.append(Op("identity_residuals",
                  lambda: tp.identity_residuals(A, 2.0, grid, seed=seed, trials=10),
                  idres_check))

    def apply(v):
        return pw.project_band(grid_mod.SampledFunction(grid, v), A).values

    for p in (1.5, 3.0):
        def boyd_check(est, p=p):
            bound = 2.0 * pw.riesz_constant_estimate(p) + 1e-3
            checks = [("projector-norm", est, bound)]
            return [Outcome(f"boyd-p{p:g}", _ratio_ok(checks), checks)]

        ops.append(Op(f"boyd-p{p:g}",
                      lambda p=p: pw.boyd_lower_bound(apply, apply, grid.count, p,
                                                      weight=grid.step, seed=seed),
                      boyd_check))

    ident = tp.identity_matrix(A, 2.0, -grid.start)
    for bb in B_SWEEP:
        k = pw.sinc_kernel(bb, 0.0, grid)
        h = pw.project_band(grid_mod.SampledFunction(grid, k.values ** 2), 2.0 * bb, 2.0)

        def fz_run(h=h):
            F = fz.weak_factorize(h, A, 2.0)
            F2 = fz.regroup_pairs(F)
            return F, fz.pair(ident, F), fz.pair(ident, F2)

        def fz_check(res, h=h, bb=bb):
            F, v1, v2 = res
            sup_h = float(np.max(np.abs(h.values)))
            l1_h = grid_mod.lp_norm(h.fun, 1.0)
            checks = [("reconstruction-sup", F.residual_sup, 1e-6 * sup_h),
                      ("reconstruction-l1", F.residual_l1, 1e-5 * l1_h),
                      ("pairing", abs(v1 - v2) / max(abs(v1), 1e-300), 1e-6)]
            return [Outcome(f"factorize-b{bb:g}", _ratio_ok(checks), checks)]

        ops.append(Op(f"factorize-b{bb:g}", fz_run, fz_check))
    return ops


# -- cli -------------------------------------------------------------------------


class CliRunner:
    """Runs `python -m pwlab.cli` (or the traced wrapper) in a work directory.
    The children inherit the worker's environment, whose PYTHONPATH names the
    checkout's src directory (run.child_env)."""

    def __init__(self, workdir: str, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        self.invocations = []          # (command, wall_s, spans path or None)

    def __call__(self, *argv):
        argv = [str(a) for a in argv]
        spans = None
        if self.traced:
            spans = os.path.join(self.workdir, f"spans-{len(self.invocations)}.jsonl")
            cmd = [sys.executable, self.child, spans, *argv]
        else:
            cmd = [sys.executable, "-m", "pwlab.cli", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, capture_output=True,
                              text=True, timeout=150)
        self.invocations.append((argv[0], time.perf_counter() - t0, spans))
        return proc

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def load(self, name: str) -> dict:
        with open(self.path(name)) as fh:
            return json.load(fh)


def cli_prepare(seed: int, workdir: str) -> None:
    """Write the seeded input files of the cli workload into workdir."""
    rng = np.random.default_rng([seed, 4])
    grid = pw.default_grid(A)
    sym = sy.gaussian_symbol(amp=_uniform(rng, 0.8, 1.2), width=_uniform(rng, 0.6, 1.6),
                             shift=_uniform(rng, -0.5, 0.5))
    jio.dump_canonical(sy.to_dict(sym), os.path.join(workdir, "gauss.json"))
    smooth = pw.sinc_kernel(_uniform(rng, 0.3, 0.8), 0.0, grid)
    jio.dump_canonical(jio.function_to_dict(smooth), os.path.join(workdir, "smooth.json"))
    k = pw.sinc_kernel(_uniform(rng, 0.5, 0.85), 0.0, grid)
    jio.dump_canonical(jio.function_to_dict(grid_mod.SampledFunction(grid, k.values ** 2)),
                       os.path.join(workdir, "target.json"))
    T = tp.toeplitz_matrix(sym, A, 2.0, 64.0, grid)
    n = T.size
    e = np.zeros(n)
    e[n // 2] = e[n // 2 + int(rng.integers(8, 25))] = 1.0 / np.sqrt(2.0)
    spoiled = tp.OperatorMatrix(T.entries + np.outer(e, e), A, 2.0, 64.0, T.nodes)
    jio.dump_canonical(tp.matrix_to_dict(spoiled), os.path.join(workdir, "spoiled.json"))
    with open(os.path.join(workdir, "bad-int.json"), "w") as fh:
        fh.write("5")
    with open(os.path.join(workdir, "bad-null.json"), "w") as fh:
        fh.write('{"kind": "gaussian", "amp": null}')
    with open(os.path.join(workdir, "bad-width.json"), "w") as fh:
        json.dump({"kind": "gaussian", "width": -_uniform(rng, 0.1, 2.0)}, fh)


def _extract_matrix(run: CliRunner, src: str, dst: str) -> float:
    """The user's step between `toeplitz` and the matrix commands."""
    t0 = time.perf_counter()
    payload = run.load(src)
    with open(run.path(dst), "w") as fh:
        json.dump(payload["matrix"], fh)
    return time.perf_counter() - t0


def _exit_check(name, proc, expected_rc, checks=(), extra_ok=True, note=""):
    ok = proc.returncode == expected_rc and extra_ok and _ratio_ok(checks)
    if proc.returncode != expected_rc:
        note = (note + f" exit {proc.returncode}, expected {expected_rc}").strip()
    return [Outcome(name, ok, list(checks), note=note)]


def _input_error_check(name):
    def check(proc):
        lines = proc.stderr.strip().splitlines()
        clean = (len(lines) == 1 and lines[0].startswith("input error:")
                 and "Traceback" not in proc.stderr)
        note = "" if clean else "stderr: " + (lines[-1] if lines else "(empty)")
        return _exit_check(name, proc, 1, extra_ok=clean, note=note)
    return check


def cli_ops(run: CliRunner, steps: dict) -> list:
    """The 17 command invocations of one pass, with the user-side matrix
    extraction steps between them; step timings go into `steps`."""
    def toeplitz_check(name, out, window):
        def check(proc):
            if proc.returncode != 0:
                return _exit_check(name, proc, 0)
            pl = run.load(out)
            size_ok = len(pl["matrix"]["basis"]["nodes"]) == int(4 * A * window)
            return _exit_check(name, proc, 0, extra_ok=size_ok and
                               pl["norm_lower"] <= pl["norm_upper"] * (1 + 1e-12))
        return check

    def split_check(proc):
        if proc.returncode != 0:
            return _exit_check("split", proc, 0)
        pl = run.load("split.json")
        checks = [(f"band-{k}", v, 1e-6) for k, v in pl["band_certificates"].items()]
        return _exit_check("split", proc, 0, checks, os.path.exists(run.path("bumps.csv")))

    def project_check(proc):
        if proc.returncode != 0:
            return _exit_check("project", proc, 0)
        pl = run.load("projected.json")
        return _exit_check("project", proc, 0, [("residual", pl["residual_removed"], 1e-5)])

    def factorize_check(name, out, summary):
        def check(proc):
            if proc.returncode != 0:
                return _exit_check(name, proc, 0)
            pl = run.load(out)
            ok = pl["certified"] and pl["n_pairs"] > 0 and (("pairs" in pl) != summary)
            return _exit_check(name, proc, 0, extra_ok=ok)
        return check

    def nehari_check(proc):
        if proc.returncode != 0:
            return _exit_check("nehari", proc, 0)
        pl = run.load("nehari.json")
        checks = [("moment", pl["moment_residual"], 1e-6 * pl["sigma0"]),
                  ("sup-vs-sigma0", pl["sup_norm"], 1.05 * pl["sigma0"])]
        return _exit_check("nehari", proc, 0, checks, pl["certificate"]["passed"])

    def commutator_check(name, out, expected_rc):
        def check(proc):
            if not os.path.exists(run.path(out)):
                return _exit_check(name, proc, expected_rc, extra_ok=False)
            pl = run.load(out)
            if expected_rc == 0:
                checks = [("deviation", pl["deviation"], pl["threshold"])]
            else:
                checks = [("spoiler-floor", 1e-3, pl["deviation"])]
            return _exit_check(name, proc, expected_rc, checks)
        return check

    def recover_check(name, out):
        def check(proc):
            if not os.path.exists(run.path(out)):
                return _exit_check(name, proc, 0, extra_ok=False)
            pl = run.load(out)
            return _exit_check(name, proc, 0, [("roundtrip", pl["roundtrip_residual"], 1e-3)])
        return check

    def repeat_check(proc):
        with open(run.path("t8.json"), "rb") as f1, open(run.path("t8-again.json"), "rb") as f2:
            same = f1.read() == f2.read()
        return _exit_check("repeat-toeplitz-w8", proc, 0, extra_ok=same,
                           note="" if same else "output bytes differ from the first run")

    def extract(src, dst):
        def step():
            key = f"extract {src} -> {dst}"
            try:
                steps[key] = _extract_matrix(run, src, dst)
            except (OSError, KeyError, ValueError) as e:   # the next command then fails
                steps[key] = f"failed: {e!r}"
        return step

    return [
        Op("toeplitz-w8", lambda: run("toeplitz", "--symbol", "gauss.json",
                                      "--basis-window", 8, "--out", "t8.json"),
           toeplitz_check("toeplitz-w8", "t8.json", 8)),
        Op("toeplitz-w64", lambda: run("toeplitz", "--symbol", "gauss.json",
                                       "--basis-window", 64, "--out", "t64.json"),
           toeplitz_check("toeplitz-w64", "t64.json", 64)),
        extract("t64.json", "m64.json"),
        Op("split", lambda: run("split", "--symbol", "gauss.json", "--emit-bumps",
                                "--out", "split.json"), split_check),
        Op("project", lambda: run("project", "--input", "smooth.json"), project_check),
        Op("factorize", lambda: run("factorize", "--input", "target.json",
                                    "--out", "fac.json"),
           factorize_check("factorize", "fac.json", False)),
        Op("factorize-summary", lambda: run("factorize", "--input", "target.json",
                                            "--summary", "--out", "fac-summary.json"),
           factorize_check("factorize-summary", "fac-summary.json", True)),
        Op("nehari", lambda: run("nehari", "--symbol", "gauss.json"), nehari_check),
        Op("commutator-test-w64", lambda: run("commutator-test", "--matrix", "m64.json",
                                              "--out", "ct64.json"),
           commutator_check("commutator-test-w64", "ct64.json", 0)),
        Op("recover-symbol-w64", lambda: run("recover-symbol", "--matrix", "m64.json",
                                             "--out", "rs64.json"),
           recover_check("recover-symbol-w64", "rs64.json")),
        Op("commutator-test-spoiled", lambda: run("commutator-test", "--matrix",
                                                  "spoiled.json", "--out", "ct-spoiled.json"),
           commutator_check("commutator-test-spoiled", "ct-spoiled.json", 2)),
        Op("bad-symbol-int", lambda: run("split", "--symbol", "bad-int.json"),
           _input_error_check("bad-symbol-int")),
        Op("bad-symbol-null-amp", lambda: run("split", "--symbol", "bad-null.json"),
           _input_error_check("bad-symbol-null-amp")),
        Op("bad-symbol-negative-width", lambda: run("split", "--symbol", "bad-width.json"),
           _input_error_check("bad-symbol-negative-width")),
        # README quick start, as written: toeplitz writes T.json, and the matrix
        # commands read T_matrix.json, which the user extracts from it.
        Op("readme-toeplitz", lambda: run("toeplitz", "--symbol", "gauss.json",
                                          "--basis-window", 32, "--out", "T.json"),
           toeplitz_check("readme-toeplitz", "T.json", 32)),
        extract("T.json", "T_matrix.json"),
        Op("readme-commutator-test", lambda: run("commutator-test", "--matrix",
                                                 "T_matrix.json"),
           commutator_check("readme-commutator-test", "commutator_test.json", 0)),
        Op("readme-recover-symbol", lambda: run("recover-symbol", "--matrix",
                                                "T_matrix.json"),
           recover_check("readme-recover-symbol", "recovered_symbol.json")),
        Op("repeat-toeplitz-w8", lambda: run("toeplitz", "--symbol", "gauss.json",
                                             "--basis-window", 8, "--out", "t8-again.json"),
           repeat_check),
    ]


IN_PROCESS_OPS = {"assembly": assembly_ops, "spectral": spectral_ops}
