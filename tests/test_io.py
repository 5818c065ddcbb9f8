import importlib
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from thetacalc.algebra import DiffPoly, Grade, enumerate_basis, mul
from thetacalc.deltaform import DeltaForm, delta_to_theta, theta_to_delta
from thetacalc.errors import DegreeMismatch, OddPower, ParseError
from thetacalc.parser import BracketSpecFile, parse
from thetacalc.printer import format_bracket_file, format_poly
from thetacalc.rationals import QQ
from thetacalc.schouten import BracketSeries, miura_apply, pst, standard_leading_term
from thetacalc.variational import Functional, is_total_divergence, var_theta

u = DiffPoly.u
th = DiffPoly.theta
half = DiffPoly.rational(1, 2)


# -- parsing -----------------------------------------------------------------


def test_parse_example_delta_file():
    spec = parse("order=7; delta { A[0;0,1]=1; A[2;3,0]=1; A[2;2,1]=1; }")
    assert spec.order == 7 and spec.kind == "delta"
    one = DiffPoly.one()
    assert spec.delta.coefficients == {(0, 0, 1): one, (2, 3, 0): one, (2, 2, 1): one}
    series = spec.to_series()
    assert series.component(1) == standard_leading_term()
    assert series.component(3) == pst(3, 0) + pst(2, 1)


def test_parse_theta_file():
    spec = parse("order=3; theta { density[1] = 1/2*th[0,0]*th[0,1]; }")
    assert spec.kind == "theta"
    assert spec.to_series().component(1) == standard_leading_term()


def test_parse_expressions():
    spec = parse(
        "order=2; theta { density[2] = (1/3*u - u^2)*th[0,0]*th[2,0]"
        " - 2*u*u[1,0]*th[0,0]*th[1,0]; }"
    )
    got = spec.densities[2]
    want = mul(
        DiffPoly.rational(1, 3) * u() - u() * u(),
        th(0, 0) * th(2, 0),
    ) - DiffPoly.rational(2) * u() * u(1, 0) * th(0, 0) * th(1, 0)
    assert got == want


def test_parse_comments_and_whitespace():
    text = """
    # leading term only
    order = 1;   theta {
      density[1] = 1/2 * th[0,0] * th[0,1];  # the standard bivector
    }
    """
    assert parse(text).order == 1


def delta_entry_error(entry):
    """The DegreeMismatch of one bad delta entry placed at line 4, col 5."""
    with pytest.raises(DegreeMismatch) as exc:
        parse(f"order=3;\ndelta {{\n  A[0;0,1] = 1;\n    {entry}\n}}")
    # the check lives in DeltaForm; the parser adds the entry's position
    assert (exc.value.line, exc.value.col) == (4, 5)
    return str(exc.value)


def test_delta_entries_validated_once(monkeypatch):
    # each entry's degree is checked once, by DeltaForm, not again on
    # building the form
    checked = []
    standard_degree = DiffPoly.standard_degree
    monkeypatch.setattr(
        DiffPoly, "standard_degree", lambda self: checked.append(self) or standard_degree(self)
    )
    spec = parse("order=7; delta { A[0;0,1]=1; A[1;0,0]=0; A[2;3,0]=1; A[2;2,1]=u; }")
    assert checked == [DiffPoly.one(), DiffPoly.one(), u()]
    assert list(spec.delta.coefficients) == [(0, 0, 1), (2, 3, 0), (2, 2, 1)]


def test_degree_mismatch_reported():
    assert "degree must be 0" in delta_entry_error("A[1;2,0] = u[1,0];")


def test_index_constraint_reported():
    assert "k1+k2 <= k+1" in delta_entry_error("A[1;3,0] = 1;")


def test_theta_in_coefficient_rejected():
    assert "theta-free" in delta_entry_error("A[1;1,0] = th[0,0]*th[1,0];")


def test_odd_power_rejected():
    with pytest.raises(OddPower) as exc:
        parse("order=2; theta { density[2] = th[1,0]^2*u; }")
    assert exc.value.line == 1


def test_u_powers_allowed():
    spec = parse("order=2; theta { density[2] = u^3*th[0,0]*th[2,0]; }")
    assert spec.densities[2] == u() ** 3 * th(0, 0) * th(2, 0)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse("order=2;\ntheta { density[2] = ; }")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("order=2;\ntheta { density[2] = \u00b2*th[0,0]*th[2,0]; }", 2, 22),
        ("order=2;\ntheta { density[2] = u\u00b2*th[0,0]*th[2,0]; }", 2, 23),
        ("order=\u0661; theta { }", 1, 7),
        ("order=2\u0661; theta { }", 1, 8),
    ],
    ids=["superscript", "after-name", "arabic-indic", "after-digit"],
)
def test_non_ascii_digit_rejected(text, line, col):
    # str.isdigit accepts these; int() rejects '\u00b2' and reads '\u0661' as 1
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert "unexpected character" in str(exc.value)


def test_duplicate_entry_rejected():
    with pytest.raises(ParseError):
        parse("order=2; delta { A[1;1,0]=u[1,0]; A[1;1,0]=u[0,1]; }")


@pytest.mark.parametrize(
    "text, entry",
    [
        ("order=7; delta { A[0;0,1]=1; A[2;3,0]=0; A[2;3,0]=1; }", "A[2;3,0]"),
        ("order=3; theta { density[3]=0; density[3]=1/2*th[0,0]*th[3,0]; }", "density[3]"),
    ],
    ids=["delta", "theta"],
)
def test_duplicate_of_a_zero_entry_rejected(text, entry):
    # a zero entry is never stored, but it is read: its copy is a duplicate
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (1, text.rindex(entry) + 1)
    assert str(exc.value).endswith(f"duplicate entry {entry}")


def test_inhomogeneous_density_rejected():
    with pytest.raises(DegreeMismatch):
        parse("order=2; theta { density[2] = th[0,0]*th[2,0] + th[0,0]*th[1,0]; }")


def test_wrong_super_degree_rejected():
    with pytest.raises(DegreeMismatch):
        parse("order=2; theta { density[2] = u[2,0]*u; }")


def test_order_must_be_positive():
    with pytest.raises(ParseError):
        parse("order=0; theta { }")


def test_entry_beyond_truncation_rejected():
    with pytest.raises(ParseError):
        parse("order=2; delta { A[3;3,0] = 1; }")


# -- printing ----------------------------------------------------------------


def test_print_parse_roundtrip_poly():
    rng = random.Random(9)
    for _ in range(25):
        d, p, w = rng.randint(0, 4), rng.choice([0, 1, 2]), rng.randint(0, 3)
        basis = enumerate_basis(Grade(d, p, w))
        if not basis:
            continue
        poly = DiffPoly.zero()
        for _ in range(3):
            c = QQ(rng.randint(-4, 4), rng.randint(1, 3))
            poly = poly + rng.choice(basis).as_poly().scale(c)
        if p == 2 and not poly.is_zero():
            text = f"order={max(d,1)}; theta {{ density[{d}] = {format_poly(poly)}; }}"
            if 1 <= d <= max(d, 1) + 1:
                assert parse(text).densities[d] == poly


def test_print_parse_fixed_point_on_files():
    texts = [
        "order=7; delta { A[0;0,1]=1; A[2;3,0]=1; A[2;2,1]=1; }",
        "order=3; theta { density[1] = 1/2*th[0,0]*th[0,1]; }",
        "order=5; delta { A[0;0,1]=1; A[2;3,0]=5; A[4;5,0]=-7; }",
    ]
    for text in texts:
        once = format_bracket_file(parse(text))
        twice = format_bracket_file(parse(once))
        assert once == twice
        assert parse(once) == parse(text)


COEFF = st.one_of(
    st.integers(-5, 5).filter(bool), st.builds(QQ, st.integers(-7, 7).filter(bool), st.integers(2, 5))
)


@st.composite
def graded_poly(draw, d, p):
    """A nonzero sum of Grade(d, p, w) monomials, the weights 0-2 mixed."""
    monos = [m for w in range(3) for m in enumerate_basis(Grade(d, p, w))]
    picks = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique_by=lambda m: m.key))
    return DiffPoly({m.key: draw(COEFF) for m in picks})


@st.composite
def bracket_specs(draw):
    """A theta-form or delta-form spec of order 1-6 with int and QQ entries."""
    order = draw(st.integers(1, 6))
    if draw(st.booleans()):
        degrees = draw(st.sets(st.integers(1, order + 1), min_size=1))
        return BracketSpecFile(
            order, "theta", densities={d: draw(graded_poly(d, 2)) for d in sorted(degrees)}
        )
    coefficients = {}
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(0, order))
        k1 = draw(st.integers(0, k + 1))
        k2 = draw(st.integers(0, k + 1 - k1))
        coefficients[(k, k1, k2)] = draw(graded_poly(k - k1 - k2 + 1, 0))
    return BracketSpecFile(order, "delta", delta=DeltaForm(coefficients))


@settings(max_examples=150, deadline=None)
@given(bracket_specs())
def test_bracket_file_roundtrip(spec):
    text = format_bracket_file(spec)
    assert parse(text) == spec
    assert format_bracket_file(parse(text)) == text
    # equality must see every field: another order, or one coefficient
    # of the operator form changed, is another spec
    assert parse(text) != BracketSpecFile(spec.order + 1, spec.kind, spec.delta, spec.densities)
    D = spec.delta if spec.kind == "delta" else theta_to_delta(spec.to_series())
    if D.coefficients:
        key, A = next(iter(D.coefficients.items()))
        changed = DeltaForm({**D.coefficients, key: A.scale(2)})
        assert changed != D
        if spec.kind == "delta":
            assert parse(text) != BracketSpecFile(spec.order, "delta", delta=changed)
    assert repr(D).startswith("DeltaForm(coefficients={")
    assert repr(spec.to_series()).startswith(f"BracketSeries(order={spec.order}, components={{")


def test_format_zero():
    assert format_poly(DiffPoly.zero()) == "0"


# -- operator-form conversions ------------------------------------------------


def test_leading_delta_term_maps_to_p1():
    D = DeltaForm({(0, 0, 1): DiffPoly.one()})
    assert D.coefficients == {(0, 0, 1): DiffPoly.one()}
    series = delta_to_theta(D, 3)
    assert series.component(1) == standard_leading_term()


def test_third_derivative_term_maps_to_p3():
    D = DeltaForm({(2, 3, 0): DiffPoly.one()})
    assert delta_to_theta(D, 3).component(3) == pst(3, 0)


def test_first_derivative_self_adjoint_projection():
    # a lone first-derivative term keeps only its skew part
    D = DeltaForm({(0, 1, 0): DiffPoly.one()})
    F = delta_to_theta(D, 2).component(1)
    assert F == Functional(half * th(0, 0) * th(1, 0))
    assert not F.is_zero()


def test_theta_to_delta_reads_p3():
    D = theta_to_delta(BracketSeries(3, {3: pst(3, 0)}))
    assert D.coefficient(2, 3, 0) == DiffPoly.one()


def test_theta_to_delta_reads_mixed_term():
    D = theta_to_delta(BracketSeries(3, {3: pst(2, 1)}))
    assert D.coefficient(2, 2, 1) == DiffPoly.one()


def test_theta_to_delta_of_zero():
    assert theta_to_delta(BracketSeries(2, {})).coefficients == {}


def _random_bivector(rng, d):
    """A random degree-d bivector density, u-dependent in general."""
    poly = DiffPoly.zero()
    for w in range(3):
        basis = enumerate_basis(Grade(d, 2, w))
        for _ in range(2 if basis else 0):
            c = QQ(rng.randint(-3, 3), rng.randint(1, 3))
            poly = poly + rng.choice(basis).as_poly().scale(c)
    return poly


def test_theta_to_delta_is_invariant_under_divergence_shifts():
    # every coefficient, not only the three the fast invariants read,
    # depends on the functional alone
    rng = random.Random(12)
    for _ in range(12):
        d = rng.randint(1, 5)
        density = _random_bivector(rng, d)
        D0 = theta_to_delta(BracketSeries(d, {d: Functional(density)}))
        for _ in range(3):
            basis = enumerate_basis(Grade(d - 1, 2, rng.randint(0, 2)))
            if not basis:
                continue
            a, b = (rng.choice(basis).as_poly().scale(QQ(rng.randint(-2, 2))) for _ in "ab")
            shifted = BracketSeries(d, {d: Functional(density + a.dx() + b.dy())})
            assert theta_to_delta(shifted).coefficients == D0.coefficients


def test_theta_to_delta_is_a_left_inverse_on_skew_forms():
    # theta_to_delta returns the skew operator, so converting it back and
    # reading it off again gives the same form
    rng = random.Random(13)
    seen = 0
    for _ in range(12):
        d = rng.randint(1, 5)
        D = theta_to_delta(BracketSeries(d, {d: Functional(_random_bivector(rng, d))}))
        assert theta_to_delta(delta_to_theta(D, d)) == D
        seen += bool(D.coefficients)
    assert seen
    # the form of a Miura conjugate of the worked example is skew as well
    example = BracketSeries(5, {1: standard_leading_term(), 3: pst(3, 0) + pst(2, 1)})
    D = theta_to_delta(miura_apply(Functional(u() * u(1, 0) * th(0, 0)), example, 5))
    assert any(k[0] > 2 for k in D.coefficients)
    assert theta_to_delta(delta_to_theta(D, 5)) == D


def _key_level_theta_to_delta(P):
    """theta_to_delta as the loop that unpacks the keys of var_theta."""
    coefficients = {}
    for d, F in P.components.items():
        for (upow, ufs, ((s, t),)), c in var_theta(F.density).terms.items():
            coefficients.setdefault((d - 1, s, t), {})[(upow, ufs, ())] = c
    return {key: DiffPoly(terms) for key, terms in coefficients.items()}


def _typed_form(coefficients):
    return {key: {k: (c, type(c)) for k, c in A.terms.items()} for key, A in coefficients.items()}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    yield importlib.import_module("workloads")
    sys.modules.pop("workloads", None)


def test_theta_to_delta_matches_the_key_level_loop(workloads):
    # the worked example, one of its Miura conjugates and the two
    # conjugates of the benchmark at seed 7, coefficient types included
    example = parse("order=7; delta { A[0;0,1]=1; A[2;3,0]=1; A[2;2,1]=1; }").to_series()
    series = [example, miura_apply(Functional(u() * u(1, 0) * th(0, 0)), example, 7)]
    series += [P for _, P in workloads.make_conjugates(7)[1]]
    orders = set()
    for P in series:
        want = _typed_form(_key_level_theta_to_delta(P))
        assert _typed_form(theta_to_delta(P).coefficients) == want
        orders.update(k for k, _, _ in want)
    assert max(orders) > 2


def test_delta_theta_roundtrip_functional_identity():
    rng = random.Random(21)
    for _ in range(10):
        d = rng.randint(1, 5)
        basis = enumerate_basis(Grade(d, 2, rng.randint(0, 2)))
        if not basis:
            continue
        poly = DiffPoly.zero()
        for _ in range(2):
            poly = poly + rng.choice(basis).as_poly().scale(QQ(rng.randint(-3, 3)))
        if poly.is_zero():
            continue
        P = BracketSeries(d, {d: Functional(poly)})
        back = delta_to_theta(theta_to_delta(P), d)
        assert back.component(d) == P.component(d)


def test_principal_reads_invariant_under_divergence_shifts():
    # the three coefficient reads used by the fast invariants do not move
    # when the density representative changes by a divergence
    rng = random.Random(4)
    base = BracketSeries(7, {3: pst(3, 0) + pst(2, 1), 5: pst(5, 0).scale(QQ(-2, 3))})
    D0 = theta_to_delta(base)
    for _ in range(5):
        comps = {}
        for d in (3, 5):
            basis = enumerate_basis(Grade(d - 1, 2, rng.randint(0, 2)))
            shift = rng.choice(basis).as_poly().scale(QQ(rng.randint(-2, 2)))
            density = base.component(d).density + shift.dx() + shift.dy()
            comps[d] = Functional(density)
        D1 = theta_to_delta(BracketSeries(7, comps))
        for key in [(2, 3, 0), (2, 2, 1), (4, 5, 0)]:
            assert D0.coefficient(*key) == D1.coefficient(*key), key


def test_delta_form_validates_degrees():
    DeltaForm({(1, 1, 0): u(1, 0)})  # degree 1-1-0+1 = 1 matches
    with pytest.raises(DegreeMismatch):
        DeltaForm({(2, 3, 0): u(1, 0)})  # needs a constant
    with pytest.raises(DegreeMismatch):
        DeltaForm({(1, 3, 0): DiffPoly.one()})  # k1+k2 > k+1
