"""pwlab benchmark: four workloads, end-to-end metrics, traced per-layer timings.

Run from the root of a pwlab checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json gates verify and cli; see perfbench/README.md):
  verify    pwlab.verify.run_all(a=1, p=2, seed): the 47-row identity suite
  assembly  toeplitz_matrix for four symbol kinds at basis 256/512 and two at
            1024, plus lambda_ops at 256, each followed by p=2 and p=3 norms
  spectral  split / Nehari / central recovery / projector norms / weak
            factorization over a seeded gaussian and bump family, no assembly
  cli       `python -m pwlab.cli ...` subprocesses on generated files

--trace 0 measures end-to-end metrics: passes run back to back, each in a
fresh worker process (perfbench/worker.py), until the next pass would end
after --seconds (at least two passes); set-up time is measured separately,
as the median of 16 launches of the interpreter that import pwlab.  The run
pins itself and its children to one CPU.  Each pass times the reference
kernel of speed.py between its operations, and the set-up launches alternate
with reference launches that import numpy alone; wall_s, cpu_s and setup_s
are scaled to their reference's nominal speed (the raw times are printed too).
--trace 1 runs one untraced pass, one traced pass and one pass with OpenBLAS
at its default thread count, and reports the per-layer metrics, the tracing
overhead and that pass's wall time.  Every other child runs with
OPENBLAS_NUM_THREADS=1 (see MEASURED_BLAS_THREADS).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report and a `detail:`
JSON line, also written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170.0            # every run must end within 180 s
SETUP_SAMPLES = 16            # launch pairs of ~0.3-0.4 s each, per run
SETUP_BATCH = 6               # pairs before the passes and after each one
MIN_PASSES = 2
SETUP_IMPORTS = {"verify": "pwlab.verify", "assembly": "pwlab",
                 "spectral": "pwlab", "cli": "pwlab.cli"}
# Gated in BENCHMARK.json.  wall_s and cpu_s are scaled to the speed of the
# reference kernel timed between the pass's operations (speed.py); the raw
# times are printed beside them.  Over 10 runs on a shared 2-core host the raw
# times spread up to 0.27 of their median, past the largest bound allowed.
# setup_s is scaled by a reference launch that imports numpy alone.
# op_p50_s and op_tail_s are measured and printed, but not scaled or gated.
END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
# Measured runs pin OpenBLAS to one thread.  On a 2-core machine its second
# thread spin-waits: verify then burns ~1.6x the CPU for no gain in wall time,
# and its wall time spread (IQR/median) was 0.27 over 8 runs against 0.07 over
# the next 8 with one thread.  The traced run measures the default as well.
MEASURED_BLAS_THREADS = "1"
T_START = time.perf_counter()



class BenchError(Exception):
    pass


def child_env(blas_threads: str | None = MEASURED_BLAS_THREADS) -> dict:
    """Environment of every child; blas_threads None leaves OpenBLAS at its
    default of one thread per core."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def pin_to_one_cpu():
    """Pin this process, and so every child it starts, to the highest CPU it
    may use, so the reference kernel and the measured work share one CPU.
    Called before numpy is imported, so that OpenBLAS starts no second
    thread here.  Returns that CPU, or None where affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_child(cmd, env) -> str:
    """Run cmd in its own process group; kill the whole group at the deadline."""
    remaining = DEADLINE_S - (time.perf_counter() - T_START)
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[:3]))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("deadline reached; killed " + " ".join(cmd[:4])) from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:4])} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def measure_setup(workload: str, count: int) -> tuple:
    """Launch-to-ready times of `python -c 'import <module>'`, and of as many
    reference launches (speed.LAUNCH_REF_CODE), each run just before one."""
    from speed import LAUNCH_REF_CODE

    code = f"import time, {SETUP_IMPORTS[workload]}; print(time.perf_counter())"
    env = child_env()
    samples, refs = [], []
    for _ in range(count):
        for out, source in ((refs, LAUNCH_REF_CODE), (samples, code)):
            t0 = time.perf_counter()
            ready = run_child([sys.executable, "-c", source], env).strip().splitlines()[-1]
            out.append(float(ready) - t0)
    return samples, refs


def run_pass(workload, seed, trace_out=None, blas_threads=MEASURED_BLAS_THREADS) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", OUT]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    out = run_child(cmd, child_env(blas_threads))
    return json.loads(out.strip().splitlines()[-1])


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def env_block(workload: str) -> dict:
    import numpy as np

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, idx, "level"))
        kind = _read(os.path.join(base, idx, "type"))
        if level.isdigit() and kind != "Instruction":
            caches[f"L{level}"] = _read(os.path.join(base, idx, "size"))
    from workloads import GRID_SIZES      # imports pwlab: only after main's checks
    return {
        "commit": commit, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu, "caches": caches,
        "threads_env_found": {k: os.environ.get(k) for k in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PWLAB_THREADS")},
        "openblas_threads_measured": MEASURED_BLAS_THREADS,
        "grid_points": GRID_SIZES[workload],
    }


def quartiles(values) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def tail(latencies) -> dict:
    """Highest percentile with at least ten samples above it; the maximum when
    fewer than 20 samples leave no such percentile above the median."""
    s = sorted(latencies)
    n = len(s)
    if n >= 20:
        i = n - 11
        return {"value": s[i], "percentile": 100.0 * i / (n - 1), "n": n}
    return {"value": s[-1], "percentile": 100.0, "n": n,
            "note": "fewer than 20 samples: maximum reported"}


def untraced(workload, seed, seconds) -> tuple:
    # Set-up launches are spread before, between and after the passes.
    # --seconds bounds the passes; the launches come on top.
    from speed import LAUNCH_REF_NOMINAL_S, REF_NOMINAL_S

    measure_setup(workload, 1)                        # warm-up: bytecode, page cache
    setup, launch_refs = measure_setup(workload, SETUP_BATCH)
    passes = []
    spent = 0.0
    while True:
        p0 = time.perf_counter()
        passes.append(run_pass(workload, seed))
        took = time.perf_counter() - p0
        spent += took
        more = measure_setup(workload, min(SETUP_BATCH, SETUP_SAMPLES - len(setup)))
        setup, launch_refs = setup + more[0], launch_refs + more[1]
        if len(passes) >= MIN_PASSES and spent + took > seconds:
            break
    more = measure_setup(workload, SETUP_SAMPLES - len(setup))
    setup, launch_refs = setup + more[0], launch_refs + more[1]
    lat = [lat for p in passes for _, lat in p["ops"]]
    t = tail(lat)
    values = {
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        "cpu_s": statistics.median([p["cpu_s"] for p in passes]),
        "setup_s": LAUNCH_REF_NOMINAL_S * statistics.median(
            s / r for s, r in zip(setup, launch_refs)),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    detail = {k: quartiles([p[k] for p in passes])
              for k in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s", "ref_wall_s")}
    detail.update({"passes": len(passes), "ref_samples_per_pass": passes[0]["ref_samples"],
                   "raw_setup_s": quartiles(setup), "setup_samples_s": setup,
                   "launch_ref_s": quartiles(launch_refs), "ref_nominal_s": REF_NOMINAL_S,
                   "op_p50_s": statistics.median(lat), "op_tail_s": t})
    return metrics, passes, detail


def traced(workload, seed) -> tuple:
    import tracer as tr

    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    plain = run_pass(workload, seed)
    with_trace = run_pass(workload, seed, trace_out=spans)
    threaded = run_pass(workload, seed, blas_threads=None)
    layers = with_trace["layers"]
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit, _ in tr.per_layer_metric_specs()}
    # Benchmark-level figures, reported beside the per-layer metrics.
    detail = {"trace_overhead_s": with_trace["raw_wall_s"] - plain["raw_wall_s"],
              "untraced_wall_s": plain["raw_wall_s"], "traced_wall_s": with_trace["raw_wall_s"],
              "numpy_fft_flops_est": layers["numpy.fft.flops_est"],
              "blas_default_threads_wall_s": threaded["raw_wall_s"],
              "blas_default_threads_cpu_s": threaded["raw_cpu_s"], "spans": with_trace["spans"],
              "spans_file": os.path.relpath(spans, ROOT)}
    return metrics, [plain, with_trace, threaded], detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["verify", "assembly", "spectral", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "pwlab", "__init__.py")):
        print(f"no pwlab sources under {ROOT}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    # The traced run stays unpinned: one of its passes leaves OpenBLAS free
    # to use every core.
    pinned = None if args.trace else pin_to_one_cpu()
    try:
        env = env_block(args.workload)
        env["pinned_cpu"] = pinned
        if args.trace:
            metrics, passes, detail = traced(args.workload, args.seed)
        else:
            metrics, passes, detail = untraced(args.workload, args.seed, args.seconds)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    unexpected = sorted({n for p in passes for n in p["unexpected_failures"]})
    budget = max(p["err_budget_used"] for p in passes)
    source = max(passes, key=lambda p: p["err_budget_used"])["err_budget_source"]
    correct = not unexpected and budget <= 1.0
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "failed_ratio": failed / attempted, "err_budget_used": budget,
        "err_budget_source": source, "failures": passes[0]["failures"],
        "unexpected_failures": unexpected,
        "warnings_per_pass": [p["warnings"] for p in passes],
        "warning_kinds": passes[0]["warning_kinds"], "steps_s": passes[0]["steps_s"],
    })

    print(f"pwlab benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: {json.dumps(env)}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        print(f"  {'trace_overhead_s':<44} {detail['trace_overhead_s']:>16.6g} s   "
              f"(traced minus untraced wall_s)")
        print(f"  {'blas_default_threads_wall_s':<44} "
              f"{detail['blas_default_threads_wall_s']:>16.6g} s   (OpenBLAS threads unset)")
        print(f"  {'numpy.fft.flops_est':<44} {detail['numpy_fft_flops_est']:>16.6g} flop "
              f"(computed: 5 n log2 n per transform)")
    else:
        t = detail["op_tail_s"]
        for k in ("raw_wall_s", "raw_cpu_s", "raw_setup_s"):
            print(f"  {k:<44} {detail[k]['median']:>16.6g} s   (not gated; median of "
                  f"{detail[k]['n']})")
        print(f"  {'ref_wall_s':<44} {detail['ref_wall_s']['median']:>16.6g} s   "
              f"(reference kernel in the passes; nominal {detail['ref_nominal_s']:g} s)")
        print(f"  {'op_p50_s':<44} {detail['op_p50_s']:>16.6g} s   (not gated)")
        print(f"  {'op_tail_s':<44} {t['value']:>16.6g} s   (not gated; "
              f"p{t['percentile']:.1f} of {t['n']} operations)")
    print(f"  {'failed_ratio':<44} {failed / attempted:>16.6g} ratio "
          f"({failed}/{attempted}; failed: {sorted(detail['failures'])})")
    print(f"  {'err_budget_used':<44} {budget:>16.6g} ratio ({source})")
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"metrics": metrics, "detail": detail}, fh, indent=1)
    print("detail: " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
