"""One pass of one workload in a fresh process; prints a JSON result line.

    python3 perfbench/worker.py --workload assembly --seed 1 [--trace-out F.jsonl]

Run by perfbench/run.py, which starts one worker per pass so that no pass
inherits another's warm module-level caches.  Each operation is timed on its
own; its output checks run after it, outside the timed region.  With
--trace-out the tracer is installed for the operations only and the spans
are written to that file at the end.

Between operations (and, for verify, between its checks) the worker runs
the reference kernel of perfbench/speed.py; the pass's wall and CPU time are
reported raw and scaled to the kernel's nominal speed, stretch by stretch.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import warnings

from speed import SpeedProbe

ROOT = os.getcwd()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--workdir", required=True, help="parent of the cli work directory")
    args = ap.parse_args()

    import pwlab
    src = os.path.join(ROOT, "src", "pwlab")
    if os.path.dirname(os.path.abspath(pwlab.__file__)) != src:
        print(f"pwlab imported from {pwlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads as wl
    import tracer as tr

    tracer = tr.Tracer() if args.trace_out else None
    if tracer is not None:
        tracer.install()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    probe = SpeedProbe(who, tracer)
    workdir = None
    steps = {}
    try:
        if args.workload == "cli":
            workdir = tempfile.mkdtemp(prefix="cli-", dir=args.workdir)
            runner = wl.CliRunner(workdir, traced=tracer is not None)
            wl.cli_prepare(args.seed, workdir)
            items = wl.cli_ops(runner, steps)
        else:
            runner = None
            if args.workload == "verify":
                # A kernel sample between checks, through run_all's callback.
                items = wl.verify_ops(args.seed, progress=probe.split)
            else:
                items = wl.IN_PROCESS_OPS[args.workload](args.seed)

        ops, outcomes, caught = [], [], []
        wall = cpu = 0.0
        for item in items:
            if not isinstance(item, wl.Op):
                item()                     # a user-side step between commands
                continue
            if tracer is not None:
                tracer.op = item.name
                tracer.active = True
            result = error = None
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                probe.begin()
                try:
                    result = item.run()
                except Exception as e:      # a failing operation is a result
                    error = e
                op_wall, op_cpu = probe.end()
            if tracer is not None:
                tracer.active = False
            caught += [f"{w.category.__name__}: {w.message}" for w in got]
            wall += op_wall
            cpu += op_cpu
            rss_kb = resource.getrusage(who).ru_maxrss
            if error is None:
                try:
                    checked = item.check(result)
                except Exception as e:      # output missing or malformed
                    error = e
            if error is not None:
                checked = [wl.Outcome(item.name, False, note=f"{type(error).__name__}: {error}")]
            for out in checked:
                latency = out.latency_s if out.latency_s is not None else op_wall
                ops.append([out.name, latency])
                outcomes.append(out)
            del result
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed = [o for o in outcomes if not o.ok]
    unexpected = [o.name for o in failed if o.name not in wl.KNOWN_DEFECTS]
    budget, source = 0.0, None
    for o in outcomes:
        if o.name in wl.KNOWN_DEFECTS:
            continue
        for label, err, tol in o.checks:
            ratio = err / tol if tol else 1.0
            if source is None or ratio > budget:
                budget, source = ratio, f"{o.name}:{label}"
    wall_scaled, cpu_scaled = probe.scaled()
    result = {
        "raw_wall_s": wall, "raw_cpu_s": cpu, "peak_rss_mb": rss_kb / 1024.0,
        "wall_s": wall_scaled, "cpu_s": cpu_scaled,
        "ref_wall_s": statistics.mean(probe.walls), "ref_samples": len(probe.walls),
        "ops": ops, "attempted": len(outcomes), "failed": len(failed),
        "failures": {o.name: _why(o) for o in failed},
        "unexpected_failures": unexpected,
        "err_budget_used": budget, "err_budget_source": source,
        "warnings": len(caught), "warning_kinds": sorted(set(caught))[:20],
        "steps_s": steps,
    }
    if tracer is not None:
        records = tracer.span_records()
        counters = tracer.counters()
        cli_layers = {}
        if runner is not None:
            cli_layers = _merge_cli_spans(runner, records, counters)
        tr.write_jsonl(records, args.trace_out)
        result["layers"] = {**tr.summarize(records, counters), **cli_layers}
        result["spans"] = len(records)
    if workdir is not None:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _why(outcome) -> str:
    parts = [outcome.note] if outcome.note else []
    parts += [f"{label} {err:.3g} > {tol:.3g}"
              for label, err, tol in outcome.checks if err > tol]
    return "; ".join(parts)


def _merge_cli_spans(runner, records, counters) -> dict:
    """Fold the spans and counters each traced cli child wrote into the
    worker's own (in place); returns the cli layer's metrics."""
    import tracer as tr

    by_cmd, imports = {}, []
    for i, (command, wall, path) in enumerate(runner.invocations):
        by_cmd.setdefault(command, []).append(wall)
        if path is None or not os.path.exists(path):
            continue
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        meta = lines.pop()
        imports.append(meta["import_s"])
        for k, v in meta["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for rec in lines:
            rec["proc"] = i
            records.append(rec)
    layers = {f"cli.{c}.wall_s": statistics.median(by_cmd[c]) if c in by_cmd else 0.0
              for c in tr.CLI_COMMANDS}
    layers["cli.import_s"] = statistics.median(imports) if imports else 0.0
    return layers


if __name__ == "__main__":
    sys.exit(main())
