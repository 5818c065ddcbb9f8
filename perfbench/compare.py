"""Compare two benchmark result files (.perfbench-out/<run>/result.json).

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of BASE next to NEW with the relative change, and
marks an end-to-end metric that got worse by more than its bound in
BENCHMARK.json (read from the current directory when present).  Refuses,
with exit code 2, to compare runs of different workloads or of different
rational backends (gmpy2 and Fraction timings are not comparable).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _bounds():
    path = Path("BENCHMARK.json")
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def compare(base, new):
    """Report lines, or raise ValueError when the two runs are not comparable."""
    if base["workload"] != new["workload"]:
        raise ValueError(f"different workloads: {base['workload']} vs {new['workload']}")
    b_env, n_env = base["environment"], new["environment"]
    if b_env["backend"] != n_env["backend"]:
        raise ValueError(f"different rational backends: {b_env['backend']} vs {n_env['backend']}")
    bounds = _bounds()
    lines = []
    for name, m in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        change = (b - a) / a if a else float("nan")
        mark = ""
        if name in bounds:
            bound, better = bounds[name]
            worse = change if better == "lower" else -change
            mark = "  WORSE THAN BOUND" if worse > bound else ""
        lines.append(f"{name:45s} {a:14.6g} {b:14.6g} {change:+8.1%} {m['unit']}{mark}")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    try:
        lines = compare(base, new)
    except ValueError as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
