import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from thetacalc.algebra import DiffPoly
from thetacalc.cli import run_cli

DATA = Path(__file__).parent / "data"
SCHEMA_DIR = Path(__file__).parent.parent / "src/thetacalc/schema"
SCHEMA = json.loads((SCHEMA_DIR / "normalize-output.schema.json").read_text())
ERROR_SCHEMA = json.loads((SCHEMA_DIR / "error-output.schema.json").read_text())


def run_json(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_json_error(capsys, argv):
    """Run a failing command; its JSON payload must match the error schema."""
    code, payload = run_json(capsys, argv)
    assert code != 0
    jsonschema.validate(payload, ERROR_SCHEMA)
    return code, payload


def test_normalize_example(capsys):
    code, payload = run_json(
        capsys, ["normalize", str(DATA / "example_eg.pb"), "--format", "json"]
    )
    assert code == 0
    jsonschema.validate(payload, SCHEMA)
    assert payload["invariants"] == [
        {"k": 1, "c": "1"},
        {"k": 2, "c": "-1"},
        {"k": 3, "c": "1"},
    ]
    assert payload["jacobi"] == "ok"
    assert payload["obstruction"] is None


def test_normalize_theta_spelling_agrees(capsys):
    code, payload = run_json(
        capsys, ["normalize", str(DATA / "example_eg_theta.pb"), "--format", "json"]
    )
    assert code == 0
    assert [e["c"] for e in payload["invariants"]] == ["1", "-1", "1"]


def test_normalize_fast(capsys):
    code, payload = run_json(
        capsys,
        ["normalize", str(DATA / "example_eg.pb"), "--fast", "--format", "json"],
    )
    assert code == 0
    jsonschema.validate(payload, SCHEMA)
    assert payload["invariants"] == [{"k": 1, "c": "1"}, {"k": 2, "c": "-1"}]
    assert payload["jacobi"] == "skipped"


@pytest.mark.parametrize("command", ["normalize", "check"])
@pytest.mark.parametrize("order", ["0", "-3"])
def test_order_below_one_is_a_usage_error(capsys, command, order):
    code, payload = run_json_error(
        capsys, [command, str(DATA / "example_eg.pb"), "--order", order, "--format", "json"]
    )
    assert code == 1
    assert payload["error"]["type"] == "BracketSpecError"
    assert "order must be at least 1" in payload["error"]["message"]


@pytest.mark.parametrize("fmt", [["--format", "json"], ["--format=json"], ["--form", "json"]])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--bogus"], "unrecognized arguments: --bogus"),
        (["--order", "abc"], "argument --order: invalid int value: 'abc'"),
    ],
)
def test_argparse_errors_are_json(capsys, argv, message, fmt):
    code, payload = run_json_error(
        capsys, ["normalize", str(DATA / "example_eg.pb"), *argv, *fmt]
    )
    assert code == 1
    assert payload["error"] == {"type": "UsageError", "message": message}
    assert capsys.readouterr().err == ""


def test_argparse_errors_text_mode(capsys):
    assert run_cli(["normalize", str(DATA / "example_eg.pb"), "--order", "abc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: thetacalc normalize")
    assert "thetacalc normalize: error: argument --order: invalid int value" in captured.err


@pytest.mark.parametrize("flags", [["--fast", "--emit-miura"], ["--emit-miura", "--fast"]])
def test_fast_with_emit_miura_is_a_usage_error(capsys, flags):
    # the fast path computes no generators, so --emit-miura cannot be honoured
    code, payload = run_json_error(
        capsys, ["normalize", str(DATA / "example_eg.pb"), *flags, "--format", "json"]
    )
    assert code == 1
    assert payload["error"]["type"] == "UsageError"
    assert "not allowed with argument" in payload["error"]["message"]
    assert capsys.readouterr().err == ""


def test_fast_with_emit_miura_text_mode(capsys):
    argv = ["normalize", str(DATA / "example_eg.pb"), "--fast", "--emit-miura"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: thetacalc normalize")
    assert (
        "thetacalc normalize: error: argument --emit-miura: not allowed with argument --fast"
        in captured.err
    )


def test_order_below_one_text_mode(capsys):
    assert run_cli(["normalize", str(DATA / "example_eg.pb"), "--order", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "order must be at least 1" in captured.err


def test_normalize_respects_order_flag(capsys):
    code, payload = run_json(
        capsys,
        ["normalize", str(DATA / "example_eg.pb"), "--order", "5", "--format", "json"],
    )
    assert code == 0
    assert payload["order"] == 5
    assert [e["c"] for e in payload["invariants"]] == ["1", "-1"]


def test_normalize_already_normal(capsys):
    code, payload = run_json(
        capsys, ["normalize", str(DATA / "normal_5_m7.pb"), "--format", "json"]
    )
    assert code == 0
    jsonschema.validate(payload, SCHEMA)
    assert payload["invariants"] == [{"k": 1, "c": "5"}, {"k": 2, "c": "-7"}]
    assert all(g == "0" for g in payload["generators"])


def test_check_ok(capsys):
    assert run_cli(["check", str(DATA / "example_eg.pb")]) == 0
    assert "jacobi: ok" in capsys.readouterr().out


def test_check_violation_exit_code(capsys):
    code, payload = run_json_error(
        capsys, ["check", str(DATA / "nonpoisson.pb"), "--format", "json"]
    )
    assert code == 2
    assert payload["error"]["type"] == "JacobiViolation"
    assert payload["jacobi"]["violation_degree"] == 4


@pytest.mark.parametrize("command", ["check", "normalize"])
def test_jacobi_violation_text_mode(capsys, command):
    assert run_cli([command, str(DATA / "nonpoisson.pb")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error (JacobiViolation): bracket fails the Jacobi identity at degree 4\n"
    )


def test_normalize_jacobi_violation_exit_code(capsys):
    code, payload = run_json_error(
        capsys, ["normalize", str(DATA / "nonpoisson.pb"), "--format", "json"]
    )
    assert code == 2
    assert payload["jacobi"]["violation_degree"] == 4


def test_normalize_obstruction_exit_code(capsys):
    code, payload = run_json_error(
        capsys, ["normalize", str(DATA / "obstruction.pb"), "--format", "json"]
    )
    assert code == 3
    assert payload["obstruction"]["degree"] == 3
    assert payload["obstruction"]["chi"] == "th[2,0]*th[1,0]*th[0,0]"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pb"
    bad.write_text("order=2; theta { density[2] = ; }")
    code, payload = run_json_error(capsys, ["normalize", str(bad), "--format", "json"])
    assert code == 1
    assert payload["error"]["type"] == "ParseError"


def test_non_ascii_digit_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "digit.pb"
    bad.write_text("order=2;\ntheta { density[2] = \u00b2*th[0,0]*th[2,0]; }", encoding="utf-8")
    code, payload = run_json_error(capsys, ["normalize", str(bad), "--format", "json"])
    assert code == 1
    assert payload["error"] == {
        "type": "ParseError",
        "message": "line 2, col 22: unexpected character '\u00b2'",
    }


@pytest.mark.parametrize("command", ["normalize", "check"])
@pytest.mark.parametrize(
    "content, position",
    [
        (b"order = 2;\r\ntheta { density[2] = \xc3\xa9\xff; }\n", "line 2, col 23"),
        (b"# a comment \xff\norder = 2; theta { }\n", "line 1, col 13"),
    ],
    ids=["expression", "comment"],
)
def test_invalid_utf8_is_a_parse_error(tmp_path, capsys, command, content, position):
    # the position counts characters, so the valid two-byte e-acute is one column
    bad = tmp_path / "bytes.pb"
    bad.write_bytes(content)
    message = f"{position}: invalid UTF-8 byte 0xff"
    code, payload = run_json_error(capsys, [command, str(bad), "--format", "json"])
    assert code == 1
    assert payload["error"] == {"type": "ParseError", "message": message}
    assert run_cli([command, str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error (ParseError): {message}\n"


def test_leading_byte_order_mark_is_ignored(tmp_path, capsys):
    # a file that starts with a UTF-8 BOM reads as the file without it
    text = (DATA / "example_eg.pb").read_bytes()
    bom = tmp_path / "bom.pb"
    bom.write_bytes(b"\xef\xbb\xbf" + text)
    outputs = []
    for path in (DATA / "example_eg.pb", bom):
        assert run_cli(["check", str(path)]) == 0
        check = capsys.readouterr().out
        code, payload = run_json(capsys, ["normalize", str(path), "--format", "json"])
        assert code == 0
        outputs.append((check, payload))
    assert outputs[0] == outputs[1]


def test_byte_order_mark_in_mid_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bom.pb"
    bad.write_bytes(b"order = 2;\n  \xef\xbb\xbftheta { }\n")
    code, payload = run_json_error(capsys, ["check", str(bad), "--format", "json"])
    assert code == 1
    assert payload["error"] == {
        "type": "ParseError",
        "message": "line 2, col 3: unexpected character '\\ufeff'",
    }


def test_uncaught_library_error_is_json(capsys, monkeypatch):
    from thetacalc import cli
    from thetacalc.errors import InternalInconsistency

    def fail(p, d):
        raise InternalInconsistency("boom")

    monkeypatch.setattr(cli, "theta_quotient_basis", fail)
    code, payload = run_json_error(
        capsys, ["cohomology", "--p", "3", "--d", "5", "--format", "json"]
    )
    assert code == 1
    assert payload["error"]["type"] == "InternalInconsistency"
    assert "boom" in payload["error"]["message"]


def test_missing_file_exit_code(capsys):
    assert run_cli(["normalize", str(DATA / "no_such_file.pb")]) == 1
    capsys.readouterr()
    code, payload = run_json_error(
        capsys, ["normalize", str(DATA / "no_such_file.pb"), "--format", "json"]
    )
    assert code == 1
    assert payload["error"]["type"] == "FileNotFoundError"


def test_cohomology_table(capsys):
    code, payload = run_json(
        capsys, ["cohomology", "--p", "3", "--d", "5", "--format", "json"]
    )
    assert code == 0
    assert payload["dimension"] == 1
    assert payload["basis"] == ["th[3,0]*th[2,0]*th[0,0]"]


def test_verify_lemmas(capsys):
    code, payload = run_json(
        capsys, ["verify-lemmas", "--max-degree", "5", "--format", "json"]
    )
    assert code == 0
    assert all(payload["square"].values())
    assert all(payload["varder"].values())
    assert all(payload["nontriv"].values())
    assert payload["nontriv_unchecked"] == []


def test_verify_lemmas_reports_unchecked_degrees(capsys):
    # d = 15 is the first degree whose quotient dimension (3) is too large
    # for the nontriviality check
    code, payload = run_json(
        capsys, ["verify-lemmas", "--max-degree", "16", "--format", "json"]
    )
    assert code == 0
    assert payload["nontriv_unchecked"] == [15]
    assert "15" not in payload["nontriv"] and "16" in payload["nontriv"]

    assert run_cli(["verify-lemmas", "--max-degree", "16"]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("nontriv:")]
    assert len(line) == 1
    assert line[0].endswith("16:ok (unchecked: 15; quotient dimension above 2)")
    assert " 15:" not in line[0]


def test_self_test(capsys):
    assert run_cli(["self-test", "--seed", "3", "--trials", "10"]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_emit_miura_text(capsys):
    code = run_cli(["normalize", str(DATA / "example_eg.pb"), "--emit-miura"])
    out = capsys.readouterr().out
    assert code == 0
    assert "X_2 = 1/2*u[2,0]*th[0,0]" in out


def test_console_entry_point_subprocess():
    # the child does not see pytest's pythonpath, so it gets src explicitly
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "thetacalc.cli", "normalize", str(DATA / "p1.pb"), "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["invariants"] == [{"k": 1, "c": "0"}]


def test_generators_parse_back(capsys):
    # emitted generator densities are valid DSL expressions
    code, payload = run_json(
        capsys, ["normalize", str(DATA / "example_eg.pb"), "--format", "json"]
    )
    assert code == 0
    from thetacalc.parser import _Parser

    for g in payload["generators"]:
        poly = _Parser(g).parse_expr()
        assert poly is not None


def test_worked_example_order_51_both_encodings(tmp_path, capsys):
    # c_k = (-1)^(k+1) for the first 25 invariants, whichever way the
    # example is written
    from thetacalc.deltaform import DeltaForm
    from thetacalc.parser import BracketSpecFile
    from thetacalc.printer import format_bracket_file

    one = DiffPoly.one()
    delta = BracketSpecFile(
        51, "delta", delta=DeltaForm({(0, 0, 1): one, (2, 3, 0): one, (2, 2, 1): one})
    )
    densities = {d: F.density for d, F in delta.to_series().components.items()}
    payloads = []
    for spec in (delta, BracketSpecFile(51, "theta", densities=densities)):
        path = tmp_path / f"example_{spec.kind}.pb"
        path.write_text(format_bracket_file(spec))
        code, payload = run_json(capsys, ["normalize", str(path), "--order", "51", "--format", "json"])
        assert code == 0
        jsonschema.validate(payload, SCHEMA)
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert payloads[0]["invariants"] == [{"k": k, "c": str((-1) ** (k + 1))} for k in range(1, 26)]
    assert len(payloads[0]["generators"]) == 51
