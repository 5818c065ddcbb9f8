from hypothesis import given, settings, strategies as st
from reference_elimination import reference_rank, reference_solve

from thetacalc.algebra import DiffPoly, mul
from thetacalc.cohomology import (
    bockstein_split,
    decompose_h2,
    evolutionary_field,
    theta_monomial,
)
from thetacalc.linsolve import Factorization
from thetacalc.rationals import QQ
from thetacalc.schouten import pst, schouten, standard_leading_term
from thetacalc.variational import Functional

KEYS = [(0, (), ((k, 0),)) for k in range(6)]
FOREIGN = (0, (), ((9, 9),))  # a row key no column reaches

coeff = st.builds(QQ, st.integers(-6, 6).filter(bool), st.integers(1, 6))
column = st.dictionaries(st.sampled_from(KEYS), coeff, max_size=4).map(DiffPoly)


@st.composite
def system(draw):
    """Sparse columns with rational entries, some zero or repeated, and a rhs."""
    cols = draw(st.lists(column, max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        if cols:
            src = cols[draw(st.integers(0, len(cols) - 1))]
            cols.insert(draw(st.integers(0, len(cols))), src.scale(draw(coeff)))
    kind = draw(st.sampled_from(["span", "random", "foreign"]))
    rhs = DiffPoly.zero()
    if kind == "span":
        for col in cols:
            rhs = rhs + col.scale(draw(st.builds(QQ, st.integers(-3, 3), st.integers(1, 3))))
    else:
        rhs = draw(column)
        if kind == "foreign":
            rhs = rhs + DiffPoly({FOREIGN: draw(coeff)})
    return cols, rhs


@settings(max_examples=300, deadline=None)
@given(system())
def test_kernel_matches_fraction_reference(sys_):
    cols, rhs = sys_
    want = reference_solve(cols, rhs)
    assert Factorization(cols).solve(rhs) == want
    assert len(Factorization(cols).pivot_columns) == reference_rank(cols)


@settings(max_examples=300, deadline=None)
@given(st.lists(column, max_size=3), st.lists(column, min_size=1, max_size=3), st.booleans())
def test_independent_from_matches_the_rank_equation(a, b, dependent):
    # a column combined from b[0] and a[0] makes the dependent case common
    if dependent:
        b = b + [b[0].scale(QQ(-2, 3)) + (a[0] if a else DiffPoly.zero())]
    want = reference_rank(a + b) == reference_rank(a) + len(b)
    assert Factorization(a + b).independent_from(len(a)) == want


def _all_qq(values):
    return all(isinstance(v, QQ) for v in values)


def test_solutions_are_rationals():
    # int columns and int rhs coefficients must not leak ints or floats
    cols = [DiffPoly({KEYS[0]: 2, KEYS[1]: 4}), DiffPoly({KEYS[1]: 3}), DiffPoly({KEYS[2]: 1})]
    rhs = DiffPoly({KEYS[0]: 1, KEYS[1]: 5})
    sol = Factorization(cols).solve(rhs)
    assert sol == [QQ(1, 2), QQ(1), QQ(0)]
    assert _all_qq(sol)

    chi = theta_monomial((3, 2, 0))
    g = mul(DiffPoly.u(), DiffPoly.u(3, 1)).scale(QQ(2, 3))
    coboundary = schouten(standard_leading_term(), evolutionary_field(g))
    P = pst(5, 0).scale(QQ(7, 3)) + Functional(bockstein_split(chi).scale(-2)) + coboundary
    dec = decompose_h2(P, 5)
    assert dec.c == QQ(7, 3) and dec.chi == chi.scale(-2)
    values = [dec.c, *dec.chi.terms.values(), *dec.X.density.terms.values()]
    assert _all_qq(values)

    Y = decompose_h2(coboundary, 5).X
    assert schouten(standard_leading_term(), Y) == coboundary
    assert Y.density.terms and _all_qq(Y.density.terms.values())
