"""Command-line driver.

Subcommands: normalize, check, cohomology, verify-lemmas, self-test.
Exit codes: 0 success, 1 usage/parse/input errors, 2 Jacobi violation,
3 obstruction.  JSON output serializes rationals as 'p/q' strings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .cohomology import (
    theta_quotient_basis,
    verify_nontriv_lemma,
    verify_square_lemma,
    verify_varder_lemma,
)
from .errors import (
    JacobiViolation,
    ObstructionNonzeroBockstein,
    ParseError,
    ThetaCalcError,
)
from .normalizer import invariants_fast, normalize
from .parser import parse
from .printer import format_poly
from .rationals import rat_str
from .schouten import jacobi_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_JACOBI = 2
EXIT_OBSTRUCTION = 3

# surrogateescape decodes each byte that is not UTF-8 to one of these
_UNDECODED_BYTE = re.compile("[\udc80-\udcff]")


def _load_series(path: str, order):
    # utf-8-sig drops a leading byte-order mark, which some editors write
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        text = fh.read()
    bad = _UNDECODED_BYTE.search(text)
    if bad is not None:
        i = bad.start()
        raise ParseError(
            f"invalid UTF-8 byte 0x{ord(text[i]) - 0xDC00:02x}",
            text.count("\n", 0, i) + 1,
            i - text.rfind("\n", 0, i),
        )
    series = parse(text).to_series()
    return series if order is None else series.truncate(order)


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _error_out(fmt: str, code: int, kind: str, message: str, extra=None) -> int:
    payload = {"error": {"type": kind, "message": message}}
    if extra:
        payload.update(extra)
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)
    return code


def _cmd_normalize(args) -> int:
    series = _load_series(args.file, args.order)
    if args.fast:
        order, jacobi, generators = series.order, "skipped", []
        invariants = list(enumerate(invariants_fast(series), start=1))
        lines = [f"order: {order}", "jacobi: skipped (fast path)"]
        lines += [f"c_{k} = {rat_str(c)}" for k, c in invariants]
    else:
        result = normalize(series)
        order, jacobi, invariants = result.order, "ok", result.invariants
        generators = [format_poly(g.density) for g in result.generators]
        lines = [f"order: {order}", "jacobi: ok", "invariants:"]
        lines += [f"  c_{k} = {rat_str(c)}" for k, c in invariants]
        if args.emit_miura:
            lines.append("generators (densities of the applied vector fields):")
            lines += [f"  X_{i} = {g}" for i, g in enumerate(generators, start=1)]
    payload = {
        "order": order,
        "invariants": [{"k": k, "c": rat_str(c)} for k, c in invariants],
        "generators": generators,
        "obstruction": None,
        "jacobi": jacobi,
    }
    _emit(payload, args.format, lines)
    return EXIT_OK


def _cmd_check(args) -> int:
    verdict = jacobi_check(_load_series(args.file, args.order))
    if verdict != "ok":
        raise JacobiViolation(verdict)
    _emit({"jacobi": "ok"}, args.format, ["jacobi: ok"])
    return EXIT_OK


def _cmd_cohomology(args) -> int:
    basis = theta_quotient_basis(args.p, args.d)
    payload = {
        "p": args.p,
        "d": args.d,
        "dimension": len(basis),
        "basis": [format_poly(b) for b in basis],
    }
    lines = [f"quotient basis at super degree {args.p}, degree {args.d}:"]
    lines += [f"  {format_poly(b)}" for b in basis] or ["  (empty)"]
    _emit(payload, args.format, lines)
    return EXIT_OK


def _cmd_verify_lemmas(args) -> int:
    payload, lines = {}, []
    for name, verify in (
        ("square", verify_square_lemma),
        ("varder", verify_varder_lemma),
        ("nontriv", verify_nontriv_lemma),
    ):
        results = {n: verify(n) for n in range(1, args.max_degree + 1)}
        payload[name] = {str(n): v for n, v in results.items()}
        marks = " ".join(f"{n}:{'ok' if v else 'FAIL'}" for n, v in results.items())
        lines.append(f"{name + ':':9}{marks}")
    _emit(payload, args.format, lines)
    ok = all(v for results in payload.values() for v in results.values())
    return EXIT_OK if ok else EXIT_USAGE


def _cmd_self_test(args) -> int:
    import random

    from .algebra import random_element
    from .cohomology import delta as delta_op
    from .schouten import schouten, standard_leading_term
    from .variational import Functional

    rng = random.Random(args.seed)
    failures = []
    p1 = standard_leading_term()
    for trial in range(args.trials):
        P, Q = Functional(random_element(rng)), Functional(random_element(rng))
        p, q = P.super_degree(), Q.super_degree()
        if not schouten(P, Q) == schouten(Q, P).scale((-1) ** (p * q)):
            failures.append(f"graded symmetry, trial {trial}")
        f = random_element(rng)
        if not schouten(p1, Functional(f)) == Functional(delta_op(f)):
            failures.append(f"leading-term derivation identity, trial {trial}")
    for line in failures:
        print(f"FAIL {line}")
    print(f"self-test: {args.trials} trials, {len(failures)} failures (seed {args.seed})")
    return EXIT_OK if not failures else EXIT_USAGE


class _UsageError(Exception):
    """A command-line usage error, raised in place of argparse's exit."""

    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _ArgumentParser(argparse.ArgumentParser):
    """Raises _UsageError so that run_cli can report it as JSON.

    Subparsers are built from the same class, so this covers them too.
    """

    def error(self, message):
        raise _UsageError(self, message)


def _json_requested(argv) -> bool:
    """Whether argv asks for --format json, read before parsing succeeds.

    Spellings as argparse accepts them: --format=json, and any prefix
    from --fo on (--f alone is ambiguous with --fast).
    """
    for i, arg in enumerate(argv):
        name, eq, value = arg.partition("=")
        if len(name) < 4 or not "--format".startswith(name):
            continue
        if not eq:
            value = argv[i + 1] if i + 1 < len(argv) else None
        if value == "json":
            return True
    return False


def _int_at_least(text: str, low: int) -> int:
    try:
        n = int(text)
    except ValueError:
        # argparse would name the type function: "invalid count value"
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
    return n


def count(text: str) -> int:
    """The argparse type of a count: an int of at least 1."""
    return _int_at_least(text, 1)


def natural(text: str) -> int:
    """The argparse type of a degree or a number of factors: an int of at least 0."""
    return _int_at_least(text, 0)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="thetacalc",
        description="Normal forms and invariants of dispersive scalar "
        "Poisson brackets in two independent variables.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    common = _ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "text"], default="text")

    p = sub.add_parser("normalize", parents=[common], help="reduce to normal form")
    p.add_argument("file")
    p.add_argument("--order", type=count, default=None)
    # the fast path computes no generators, so it has nothing to emit
    path = p.add_mutually_exclusive_group()
    path.add_argument("--emit-miura", action="store_true")
    path.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("check", parents=[common], help="Jacobi identity only")
    p.add_argument("file")
    p.add_argument("--order", type=count, default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("cohomology", parents=[common], help="quotient basis tables")
    p.add_argument("--p", type=natural, required=True)
    p.add_argument("--d", type=natural, required=True)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("verify-lemmas", parents=[common], help="structural lemma suites")
    p.add_argument("--max-degree", type=count, default=8)
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("self-test", parents=[common], help="randomized identity checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=count, default=25)
    p.set_defaults(func=_cmd_self_test)

    return ap


def run_cli(argv) -> int:
    argv = list(argv)
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except _UsageError as exc:
        if _json_requested(argv):
            return _error_out("json", EXIT_USAGE, "UsageError", str(exc))
        # argparse's own text: usage and message on stderr
        exc.parser.print_usage(sys.stderr)
        print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # -h/--help
        return EXIT_USAGE if exc.code else EXIT_OK
    # the one place where a failure becomes an exit code and a payload
    try:
        return args.func(args)
    except (OSError, ThetaCalcError) as exc:
        code, detail = EXIT_USAGE, None
        if isinstance(exc, JacobiViolation):
            code, detail = EXIT_JACOBI, {"jacobi": {"violation_degree": exc.order}}
        elif isinstance(exc, ObstructionNonzeroBockstein):
            obstruction = {"degree": exc.degree, "chi": format_poly(exc.chi)}
            code, detail = EXIT_OBSTRUCTION, {"obstruction": obstruction}
        return _error_out(args.format, code, type(exc).__name__, str(exc), detail)


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
