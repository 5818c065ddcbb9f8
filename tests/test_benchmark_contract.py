"""The benchmark tracer (perfbench/tracer.py) wraps thetacalc functions by
name; a rename or a changed signature would silently empty its layers.
This reads perfbench/ and changes nothing there."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracer")
    sys.modules.pop("tracer", None)


def test_traced_functions_resolve(tracer_module):
    for name, where in tracer_module.FUNCTIONS.items():
        owner = importlib.import_module(f"thetacalc.{where[0]}")
        for attr in where[1:]:
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)
        assert callable(owner), name


def test_traced_normalize_fills_the_linsolve_counters(tracer_module):
    from thetacalc.cohomology import block_operator
    from thetacalc.normalizer import build_normal_form, normalize
    from thetacalc.rationals import QQ

    P = build_normal_form([QQ(2), QQ(-1, 3)], 4)
    block_operator.cache_clear()  # a warm cache would skip every elimination
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        result = normalize(P)
    finally:
        tracer.uninstall()
        block_operator.cache_clear()
    assert result.invariant_values() == [2, QQ(-1, 3)]
    summary = tracer.summary()
    assert summary["linsolve.eliminate.calls"] > 0
    assert summary["cohomology.ad_p1_column.calls"] > 0
    for counter in ("unknowns", "rows", "nnz_in", "nnz_out", "rank", "max_block_unknowns"):
        assert summary[f"linsolve.{counter}"] > 0, counter
    assert summary["linsolve.infeasible"] == 0


def test_traced_lemmas_fill_the_linsolve_counters(tracer_module):
    from thetacalc.cohomology import (
        block_operator,
        verify_bockstein_injective,
        verify_square_lemma,
        verify_varder_lemma,
    )

    block_operator.cache_clear()  # the Bockstein check must build its block
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        # k = 5 reaches the chain systems of pass 2, k = 4 stops at pass 1
        verdicts = [verify_square_lemma(4), verify_square_lemma(5),
                    verify_varder_lemma(5), verify_bockstein_injective(5)]
    finally:
        tracer.uninstall()
        block_operator.cache_clear()
    assert verdicts == [True] * 4
    summary = tracer.summary()
    assert summary["linsolve.eliminate.calls"] > 0
    assert summary["linsolve.rank"] > 0


def test_cli_launcher_traces_one_parse_and_one_normalize(tmp_path):
    # the traced example_cli path: run_cli under the span wrappers
    example = PERFBENCH.parent / "tests" / "data" / "example_eg.pb"
    src = str(PERFBENCH.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "cli_launcher.py"), str(tmp_path / "trace"),
         "normalize", str(example), "--order", "9", "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert [e["c"] for e in payload["invariants"]] == ["1", "-1", "1", "-1"]
    summary = json.loads((tmp_path / "trace.json").read_text())["summary"]
    assert summary["parser.parse.calls"] == 1
    assert summary["normalizer.normalize.calls"] == 1
