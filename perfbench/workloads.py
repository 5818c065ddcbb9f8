"""Seeded inputs and exact checks for the three workloads.

conjugates   normalize(P, 6) over two Miura conjugates of random normal
             forms in one process, so coboundary columns repeat across
             inputs.
example_cli  cold `python -m thetacalc.cli normalize FILE --order 51
             --format json` on the worked example A[2;3,0]=A[2;2,1]=1.
lemmas       the structural lemma verifiers: rank, not solves; nothing
             repeats and there is no Miura action.

The seed is the only source of variation.  For conjugates it draws the
normal-form constants and the generator coefficients (the recipe of
acceptance criterion 7, constants kept nonzero); the generator monomials
follow a fixed design, because the monomial choice alone changes the cost
of an input about threefold and a pass holds only two inputs.  For
example_cli it picks the encoding of the file (delta or theta form), and
for lemmas the order of the verifier calls.  Every check is exact.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("conjugates", "example_cli", "lemmas")

# (full, tiny) sizes; tiny is for the smoke test only
CONJUGATE_ORDER = {False: 6, True: 4}
CLI_ORDER = {False: 51, True: 9}
LEMMA_MAX = {False: 18, True: 6}
BOCKSTEIN_MAX = {False: 12, True: 5}

# Generator of degree 1, 2 and 3 per input, as u-factor index lists:
# ((0, 0), (1, 0)) is u*u[1,0].  Weights 1-3, both x and y derivatives.
CONJUGATE_DESIGN = (
    (((0, 0), (1, 0)), ((1, 1),), ((1, 0), (2, 0))),
    (((0, 0), (0, 1)), ((0, 0), (0, 1), (1, 0)), ((2, 1),)),
)

SCHEMA = Path("src/thetacalc/schema/normalize-output.schema.json")


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


# -- conjugates ---------------------------------------------------------


def make_conjugates(seed, tiny=False):
    """[(constants, P)]: P is a Miura conjugate of the normal form p(constants)."""
    from thetacalc.algebra import DiffPoly, mul
    from thetacalc.cohomology import evolutionary_field
    from thetacalc.normalizer import build_normal_form
    from thetacalc.rationals import QQ
    from thetacalc.schouten import miura_apply

    order = CONJUGATE_ORDER[tiny]
    rng = _rng("conjugates", seed)
    items = []
    for design in CONJUGATE_DESIGN:
        cs = [QQ(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4)) for _ in range(order // 2)]
        P = build_normal_form(cs, order)
        for factors in design:
            g = DiffPoly.one()
            for s, t in factors:
                g = mul(g, DiffPoly.u(s, t))
            coeff = QQ(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice((1, -1))
            P = miura_apply(evolutionary_field(g.scale(coeff)), P, order)
        items.append((cs, P))
    return order, items


def time_conjugates(order, items, call):
    """normalize each input through call(fn, *args); return (seconds, results)."""
    from time import perf_counter

    from thetacalc import normalizer

    results = []
    t0 = perf_counter()
    for _, P in items:
        results.append(_attempt(call, normalizer.normalize, P, order))
    return perf_counter() - t0, results


def check_conjugates(items, results, corrupt=False):
    """Failure messages, one per input that is not recovered exactly."""
    failures = []
    for (cs, P), res in zip(items, results):
        want = [c + 1 for c in cs] if corrupt else cs
        if isinstance(res, Exception):
            failures.append(f"raised {type(res).__name__}: {res}")
        elif res.invariant_values() != want:
            failures.append(f"invariants {res.invariant_values()} != {want}")
        elif not res.replay(P) == res.normalized:
            failures.append("replay of the generators does not give the normal form")
    return failures


def _attempt(call, fn, *args):
    try:
        return call(fn, *args)
    except Exception as exc:  # a raising item is a failed item, not a crash
        return exc


# -- lemmas -------------------------------------------------------------


def make_lemma_calls(seed, tiny=False):
    """[(verifier, argument)] in a seeded order, as `cli verify-lemmas` selects them."""
    from thetacalc.cohomology import theta_quotient_basis

    n = LEMMA_MAX[tiny]
    calls = [("square", k) for k in range(1, n + 1)]
    calls += [("varder", d) for d in range(1, n + 1)]
    calls += [("nontriv", d) for d in range(1, n + 1) if len(theta_quotient_basis(3, d)) <= 2]
    calls += [("bockstein", d) for d in range(1, BOCKSTEIN_MAX[tiny] + 1)]
    _rng("lemmas", seed).shuffle(calls)
    return calls


def time_lemmas(calls, call):
    """Run each verifier through call(fn, arg); return (seconds, results)."""
    from time import perf_counter

    from thetacalc import cohomology

    verifiers = {
        "square": cohomology.verify_square_lemma,
        "varder": cohomology.verify_varder_lemma,
        "nontriv": cohomology.verify_nontriv_lemma,
        "bockstein": cohomology.verify_bockstein_injective,
    }
    results = []
    t0 = perf_counter()
    for kind, arg in calls:
        results.append(_attempt(call, verifiers[kind], arg))
    return perf_counter() - t0, results


def check_lemmas(calls, results, corrupt=False):
    want = not corrupt
    return [
        f"{kind}({arg}) gave {res!r}"
        for (kind, arg), res in zip(calls, results)
        if res is not want
    ]


# -- example_cli --------------------------------------------------------


def write_example(seed, path, tiny=False):
    """Write the worked example at the CLI order to path; return the order."""
    from thetacalc.algebra import DiffPoly
    from thetacalc.deltaform import DeltaForm
    from thetacalc.parser import BracketSpecFile, parse
    from thetacalc.printer import format_bracket_file

    order = CLI_ORDER[tiny]
    one = DiffPoly.one()
    spec = BracketSpecFile(
        order, "delta", delta=DeltaForm({(0, 0, 1): one, (2, 3, 0): one, (2, 2, 1): one})
    )
    if _rng("example_cli", seed).random() < 0.5:
        series = spec.to_series()
        spec = BracketSpecFile(
            order, "theta", densities={d: F.density for d, F in series.components.items()}
        )
    text = format_bracket_file(spec)
    if parse(text) != spec:
        raise RuntimeError("the example file does not parse back to itself")
    Path(path).write_text(text, encoding="utf-8")
    return order


def check_cli_output(text, returncode, order, corrupt=False):
    """Failure messages for one `normalize --format json` run (empty if exact)."""
    import jsonschema

    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError as exc:
        return [f"schema: {exc.message}"]
    sign = -1 if corrupt else 1
    want = [{"k": k, "c": str(sign * (-1) ** (k + 1))} for k in range(1, order // 2 + 1)]
    failures = []
    if payload["invariants"] != want:
        failures.append(f"invariants {payload['invariants']} != {want}")
    if payload["order"] != order or payload["jacobi"] != "ok" or payload["obstruction"] is not None:
        failures.append("order, jacobi or obstruction field is wrong")
    if len(payload["generators"]) != order:
        failures.append(f"{len(payload['generators'])} generators for order {order}")
    return failures
