"""thetacalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {conjugates,example_cli,lemmas} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from `src`, nothing
is installed or built.  A closed loop with one client: one process, one
thread, one item at a time.

Every pass runs in a fresh process, so nothing a pass computes can serve
the next one, and the process's own resource usage (CPU, peak RSS) is
read exactly with wait4.  Untraced (`--trace 0`), passes repeat until the
next one would overrun `--seconds`, and the last line of stdout reports
the end-to-end metrics as medians over the passes:

  wall_s       timed phase of one pass (example_cli: the whole CLI process)
  cpu_s        user+sys CPU of the pass process in that phase
  peak_rss_mb  ru_maxrss of the pass process
  setup_s      fresh interpreter, imports and input generation or parse;
               one separate process before each pass (at least
               SETUP_SAMPLES), so the samples spread over the run

Traced (`--trace 1`) makes one untraced and one traced pass on the same
inputs and reports the per-layer metrics (see tracer.py) plus the tracing
overhead.  Each item's exact check runs outside the timed phase; the
share of failed items is attempted/failed in the result line.  The full
record, with the environment (Python, rational backend, CPUs, commit,
source digest, seed), is written to .perfbench-out/<run>/result.json;
compare two such files with perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import metric_names

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
DEADLINE_S = 170  # the whole run, so it always exits within 180 s
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
TRACE_EXTRA = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def per_layer_units():
    units = {}
    for name in list(metric_names()) + list(TRACE_EXTRA):
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


class Runner:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.out = root / ".perfbench-out" / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-tiny" if args.tiny else "")
            + ("-corrupt" if args.corrupt else "")
        )
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        self.flags = (["--tiny"] if args.tiny else []) + (["--corrupt"] if args.corrupt else [])
        self.backend = None
        self.failures = []
        self.attempted = 0
        self._n = 0

    def spawn(self, cmd):
        """Run cmd to completion; return (wall seconds, rusage, exit code, stdout)."""
        self._n += 1
        stdout_path = self.out / f"proc{self._n}.out"
        with open(stdout_path, "wb") as out, open(self.out / f"proc{self._n}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, ru, proc.returncode, stdout_path.read_text(encoding="utf-8")

    def worker(self, mode):
        cmd = [sys.executable, str(HERE / "worker.py"), self.args.workload,
               str(self.args.seed), mode, str(self.out)] + self.flags
        spawned_at = time.time()
        wall, ru, code, text = self.spawn(cmd)
        if code != 0:
            err = (self.out / f"proc{self._n}.err").read_text(encoding="utf-8")
            raise RuntimeError(f"worker {mode} exited {code}:\n{err}")
        res = json.loads(text.strip().splitlines()[-1])
        self.backend = res["backend"]
        res["setup_s"] = res["ready_at"] - spawned_at
        res["process_s"] = wall
        res["peak_rss_mb"] = ru.ru_maxrss / 1024
        return res

    def setup(self):
        return self.worker("setup")["setup_s"]

    def one_pass(self, traced):
        """One pass in a fresh process; returns wall_s, cpu_s, peak_rss_mb, process_s."""
        if self.args.workload != "example_cli":
            res = self.worker("trace" if traced else "pass")
            self.attempted += res["attempted"]
            self.failures += res["failures"]
            return res
        order = workloads.CLI_ORDER[self.args.tiny]
        cli_args = ["normalize", str(self.out / "example.pb"), "--order", str(order), "--format", "json"]
        if traced:
            cmd = [sys.executable, str(HERE / "cli_launcher.py"), str(self.out / "trace")] + cli_args
        else:
            cmd = [sys.executable, "-m", "thetacalc.cli"] + cli_args
        wall, ru, code, text = self.spawn(cmd)
        self.attempted += 1
        failures = workloads.check_cli_output(text, code, order, self.args.corrupt)
        if failures:
            self.failures.append("; ".join(failures))
        res = {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
               "peak_rss_mb": ru.ru_maxrss / 1024, "process_s": wall}
        if traced:
            res["trace"] = json.loads((self.out / "trace.json").read_text(encoding="utf-8"))["summary"]
        return res

    def run(self):
        setups = [self.setup()]
        samples = {"setup_s": setups}
        if self.args.trace:
            setups += [self.setup() for _ in range(SETUP_SAMPLES - 1)]
            plain = self.one_pass(traced=False)
            traced = self.one_pass(traced=True)
            metrics = dict(traced["trace"])
            metrics["trace.wall_s"] = traced["wall_s"]
            metrics["trace.untraced_wall_s"] = plain["wall_s"]
            metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            samples.update(wall_s=[plain["wall_s"]], traced_wall_s=[traced["wall_s"]])
            units = per_layer_units()
        else:
            passes = []
            begin = time.monotonic()
            while True:
                passes.append(self.one_pass(traced=False))
                if time.monotonic() - begin + passes[-1]["process_s"] > self.args.seconds:
                    break
                # spread the set-up samples over the run, like the passes
                setups.append(self.setup())
            setups += [self.setup() for _ in range(SETUP_SAMPLES - len(setups))]
            for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                samples[key] = [p[key] for p in passes]
            metrics = {key: statistics.median(samples[key]) for key in END_TO_END}
            units = END_TO_END
        return {name: {"value": metrics[name], "unit": units[name]} for name in units}, samples


def _quartiles(values):
    if len(values) < 2:
        return {"n": len(values), "q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


def _source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit(root):
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smoke-test hooks: tiny sizes, and expectations that every item must miss
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "thetacalc" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/thetacalc not found)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    runner = Runner(args, root)
    try:
        metrics, samples = runner.run()
    except _Timeout:
        print(f"perfbench: run exceeded {DEADLINE_S} s", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 4
    finally:
        signal.alarm(0)

    failed = len(runner.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "backend": runner.backend,
            "nproc": len(os.sched_getaffinity(0)),
            "commit": _commit(root),
            "source_digest": _source_digest(root),
        },
        "attempted": runner.attempted,
        "failed": failed,
        "fail_frac": failed / runner.attempted,
        "failures": runner.failures[:20],
        "metrics": metrics,
        "samples": samples,
        "quartiles": {k: _quartiles(v) for k, v in samples.items()},
    }
    (runner.out / "result.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    for line in runner.failures[:5]:
        print(f"FAIL {line}", file=sys.stderr)
    env = record["environment"]
    print(f"# {args.workload} seed {args.seed}: python {env['python']}, backend {env['backend']}, "
          f"nproc {env['nproc']}, commit {env['commit']}, source {env['source_digest']}, "
          f"fail_frac {record['fail_frac']:.3f} of {runner.attempted}, "
          f"passes {len(samples['wall_s'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
