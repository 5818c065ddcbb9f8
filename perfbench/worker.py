"""One fresh process of a benchmark run: set up, and optionally time one pass.

    python3 perfbench/worker.py WORKLOAD SEED MODE OUTDIR [--tiny] [--corrupt]

MODE is `setup` (imports and inputs only), `pass` (one untraced pass) or
`trace` (one pass with the span wrappers installed; the trace is written
to OUTDIR/trace).  Prints one JSON object.  example_cli has only a setup
here: its pass is the CLI process itself, started by run.py.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _direct(fn, *args):
    return fn(*args)


def main(argv):
    workload, seed, mode, outdir = argv[:4]
    tiny = "--tiny" in argv
    corrupt = "--corrupt" in argv
    seed = int(seed)
    outdir = Path(outdir)

    from thetacalc.rationals import QQ

    backend = f"{type(QQ(0)).__module__}.{type(QQ(0)).__qualname__}"
    if workload == "conjugates":
        order, items = workloads.make_conjugates(seed, tiny)
    elif workload == "lemmas":
        calls = workloads.make_lemma_calls(seed, tiny)
    elif workload == "example_cli":
        workloads.write_example(seed, outdir / "example.pb", tiny)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    out = {"ready_at": time.time(), "backend": backend}
    if mode == "setup" or workload == "example_cli":
        print(json.dumps(out))
        return

    tracer = None
    call = _direct
    if mode == "trace":
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()

        def call(fn, *args):
            return tracer.span(ROOT, fn, *args)

    cpu0 = _cpu_s()
    if workload == "conjugates":
        wall, results = workloads.time_conjugates(order, items, call)
    else:
        wall, results = workloads.time_lemmas(calls, call)
    cpu = _cpu_s() - cpu0
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.write(str(outdir / "trace"))
    if workload == "conjugates":
        failures = workloads.check_conjugates(items, results, corrupt)
    else:
        failures = workloads.check_lemmas(calls, results, corrupt)
    out.update(wall_s=wall, cpu_s=cpu, attempted=len(results), failures=failures)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
