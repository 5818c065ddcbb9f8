"""Command-line driver.

Subcommands: normalize, check, cohomology, verify-lemmas, self-test.
Exit codes: 0 success, 1 usage/parse/input errors, 2 Jacobi violation,
3 obstruction.  JSON output serializes rationals as 'p/q' strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cohomology import (
    theta_quotient_basis,
    verify_nontriv_lemma,
    verify_square_lemma,
    verify_varder_lemma,
)
from .errors import (
    BracketSpecError,
    InternalInconsistency,
    JacobiViolation,
    MissingComponent,
    NonconstantInvariant,
    NonstandardLeadingTerm,
    ObstructionNonzeroBockstein,
    ThetaCalcError,
)
from .normalizer import invariants_fast, normalize
from .parser import parse
from .printer import format_poly
from .rationals import rat_str
from .schouten import BracketSeries, jacobi_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_JACOBI = 2
EXIT_OBSTRUCTION = 3


def _load_series(path: str, order):
    if order is not None and order < 1:
        raise BracketSpecError(f"--order must be at least 1, got {order}")
    with open(path, "r", encoding="utf-8") as fh:
        spec = parse(fh.read())
    series = spec.to_series()
    if order is not None:
        series = BracketSeries(
            order,
            {d: F for d, F in series.components.items() if d <= order + 1},
        )
    return series


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
    fmt = args.format
    try:
        series = _load_series(args.file, args.order)
    except (OSError, BracketSpecError) as exc:
        return _error_out(fmt, EXIT_USAGE, type(exc).__name__, str(exc))
    try:
        if args.fast:
            c1, c2 = invariants_fast(series)
            payload = {
                "order": series.order,
                "invariants": [
                    {"k": 1, "c": rat_str(c1)},
                    {"k": 2, "c": rat_str(c2)},
                ],
                "generators": [],
                "obstruction": None,
                "jacobi": "skipped",
            }
            lines = [
                f"order: {series.order}",
                "jacobi: skipped (fast path)",
                f"c_1 = {rat_str(c1)}",
                f"c_2 = {rat_str(c2)}",
            ]
            _emit(payload, fmt, lines)
            return EXIT_OK
        result = normalize(series)
    except JacobiViolation as exc:
        return _error_out(
            fmt,
            EXIT_JACOBI,
            "JacobiViolation",
            str(exc),
            {"jacobi": {"violation_degree": exc.order}},
        )
    except ObstructionNonzeroBockstein as exc:
        return _error_out(
            fmt,
            EXIT_OBSTRUCTION,
            "ObstructionNonzeroBockstein",
            str(exc),
            {"obstruction": {"degree": exc.degree, "chi": format_poly(exc.chi)}},
        )
    except (
        NonstandardLeadingTerm,
        NonconstantInvariant,
        MissingComponent,
        InternalInconsistency,
    ) as exc:
        return _error_out(fmt, EXIT_USAGE, type(exc).__name__, str(exc))
    payload = {
        "order": result.order,
        "invariants": [
            {"k": k, "c": rat_str(c)} for k, c in result.invariants
        ],
        "generators": [format_poly(g.density) for g in result.generators],
        "obstruction": None,
        "jacobi": "ok",
    }
    lines = [f"order: {result.order}", "jacobi: ok", "invariants:"]
    for k, c in result.invariants:
        lines.append(f"  c_{k} = {rat_str(c)}")
    if args.emit_miura:
        lines.append("generators (densities of the applied vector fields):")
        for i, g in enumerate(result.generators, start=1):
            lines.append(f"  X_{i} = {format_poly(g.density)}")
    _emit(payload, fmt, lines)
    return EXIT_OK


def _cmd_check(args) -> int:
    fmt = args.format
    try:
        series = _load_series(args.file, args.order)
    except (OSError, BracketSpecError) as exc:
        return _error_out(fmt, EXIT_USAGE, type(exc).__name__, str(exc))
    verdict = jacobi_check(series)
    if verdict == "ok":
        _emit({"jacobi": "ok"}, fmt, ["jacobi: ok"])
        return EXIT_OK
    _emit(
        {"jacobi": {"violation_degree": verdict}},
        fmt,
        [f"jacobi: violated at degree {verdict}"],
    )
    return EXIT_JACOBI


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
    n = args.max_degree
    square = {k: verify_square_lemma(k) for k in range(1, n + 1)}
    varder = {d: verify_varder_lemma(d) for d in range(1, n + 1)}
    nontriv = {}
    for d in range(1, n + 1):
        if len(theta_quotient_basis(3, d)) <= 2:
            nontriv[d] = verify_nontriv_lemma(d)
    payload = {
        "square": {str(k): v for k, v in square.items()},
        "varder": {str(d): v for d, v in varder.items()},
        "nontriv": {str(d): v for d, v in nontriv.items()},
    }
    ok = all(square.values()) and all(varder.values()) and all(nontriv.values())
    lines = [
        "square:  " + " ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in square.items()),
        "varder:  " + " ".join(f"{d}:{'ok' if v else 'FAIL'}" for d, v in varder.items()),
        "nontriv: " + " ".join(f"{d}:{'ok' if v else 'FAIL'}" for d, v in nontriv.items()),
    ]
    _emit(payload, args.format, lines)
    return EXIT_OK if ok else EXIT_USAGE


def _cmd_self_test(args) -> int:
    import random

    from .algebra import DiffPoly, Grade, enumerate_basis
    from .cohomology import delta as delta_op
    from .rationals import QQ
    from .schouten import schouten, standard_leading_term
    from .variational import Functional

    rng = random.Random(args.seed)

    def sample(d, p, w, terms=2):
        basis = enumerate_basis(Grade(d, p, w))
        out = DiffPoly.zero()
        for _ in range(terms):
            if not basis:
                break
            out = out + rng.choice(basis).as_poly().scale(QQ(rng.randint(-3, 3)))
        return out

    failures = []
    p1 = standard_leading_term()
    for trial in range(args.trials):
        P = Functional(sample(rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 3)))
        Q = Functional(sample(rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 3)))
        p, q = P.super_degree(), Q.super_degree()
        if not schouten(P, Q) == schouten(Q, P).scale((-1) ** (p * q)):
            failures.append(f"graded symmetry, trial {trial}")
        f = sample(rng.randint(0, 3), rng.randint(0, 2), rng.randint(1, 3), 1)
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
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--emit-miura", action="store_true")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("check", parents=[common], help="Jacobi identity only")
    p.add_argument("file")
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("cohomology", parents=[common], help="quotient basis tables")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("verify-lemmas", parents=[common], help="structural lemma suites")
    p.add_argument("--max-degree", type=int, default=8)
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("self-test", parents=[common], help="randomized identity checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
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
    try:
        return args.func(args)
    except ThetaCalcError as exc:
        return _error_out(args.format, EXIT_USAGE, type(exc).__name__, str(exc))


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
