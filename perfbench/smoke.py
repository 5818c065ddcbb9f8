"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload: an untraced and a traced run report exactly the
metric names of BENCHMARK.json and check correct; two traced runs give
identical counts; a run whose
expectations are corrupted fails every item (fail fraction 1); and
compare.py refuses two results whose rational backends differ.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import compare
import workloads

HERE = Path(__file__).resolve().parent


def _run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if res.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in workloads.WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            out = _run(workload, trace)
            got = out["metrics"]
            assert set(got) == names[trace], (workload, trace, set(got) ^ names[trace])
            assert all(got[n]["unit"] == units[n] for n in got), (workload, trace)
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, (workload, out)
            if trace:
                counts.append({n: m["value"] for n, m in got.items() if m["unit"] != "s"})
        assert counts[0] == counts[1], (workload, "counts differ between two traced runs")
        bad = _run(workload, 0, "--corrupt")
        assert not bad["correct"] and bad["failed"] == bad["attempted"] >= 1, (workload, bad)
        print(f"ok {workload}")

    base = {"workload": "lemmas", "environment": {"backend": "fractions.Fraction"}, "metrics": {}}
    other = dict(base, environment={"backend": "gmpy2.mpq"})
    try:
        compare.compare(base, other)
    except ValueError:
        print("ok compare refuses mixed backends")
    else:
        raise AssertionError("compare accepted results from different backends")


if __name__ == "__main__":
    main()
