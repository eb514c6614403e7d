"""Traced stand-in for `python -m pwlab.cli`, used by the cli workload's
traced pass only:

    python3 perfbench/cli_child.py SPANS.jsonl <pwlab cli arguments...>

Times `import pwlab.cli`, installs the tracer, runs the command and writes
its spans, then a final line with the import time and the counters, to
SPANS.jsonl.  Exit code and output are the command's own.
"""
import json
import sys
import time

t0 = time.perf_counter()
import pwlab.cli  # noqa: E402
import_s = time.perf_counter() - t0

import tracer as tr  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tr.Tracer()
    tracer.install()
    tracer.op = argv[0] if argv else None
    tracer.active = True
    try:
        return pwlab.cli.main(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
        tr.write_jsonl(tracer.span_records()
                       + [{"import_s": import_s, "counters": tracer.counters()}],
                       spans_path)


if __name__ == "__main__":
    sys.exit(main())
