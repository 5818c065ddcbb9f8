import ast
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st
from reference_euler import reference_euler, reference_partial, reference_total_derivative

from thetacalc.algebra import (
    DiffPoly,
    Grade,
    _key_grade,
    enumerate_basis,
    mul,
    partial_derivative,
    total_derivative,
)
from thetacalc.linsolve import Factorization
from thetacalc.rationals import QQ
from thetacalc.variational import (
    Functional,
    _DerivativeTable,
    _euler_operator,
    is_total_divergence,
    var_theta,
    var_u,
)

u = DiffPoly.u
th = DiffPoly.theta


@st.composite
def small_poly(draw, dmax=5, pmax=3, wmax=3, terms=3):
    d = draw(st.integers(0, dmax))
    p = draw(st.integers(0, pmax))
    w = draw(st.integers(0, wmax))
    basis = enumerate_basis(Grade(d, p, w))
    if not basis:
        return DiffPoly.zero()
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(basis) - 1), st.integers(-3, 3)),
            min_size=1,
            max_size=terms,
        )
    )
    out = DiffPoly.zero()
    for i, c in picks:
        out = out + basis[i].as_poly().scale(QQ(c))
    return out


# -- variational derivatives ---------------------------------------------


def test_var_u_kills_exact_density():
    assert var_u(u() * u(1, 0)).is_zero()  # density is dx(u^2/2)


def test_var_u_mixed_derivative():
    # hand expansion: d/du_x -> u_y, -dx(u_y) = -u_xy; d/du_y term likewise
    assert var_u(u(1, 0) * u(0, 1)) == DiffPoly.rational(-2) * u(1, 1)


def test_var_u_cubic():
    assert var_u(u() ** 3) == DiffPoly.rational(3) * u() * u()


def test_var_theta_leading_density():
    p1 = DiffPoly.rational(1, 2) * th(0, 0) * th(0, 1)
    assert var_theta(p1) == th(0, 1)


def test_var_theta_exact_density():
    assert var_theta((th(0, 0) * u()).dx()).is_zero()


def test_var_theta_single_term():
    assert var_theta(u() * th(0, 0)) == u()


INDEX = st.tuples(st.integers(0, 6), st.integers(0, 6))
# few indices, so that a raised u-factor often lands on one already there
DENSE_INDEX = st.tuples(st.integers(0, 2), st.integers(0, 2))
INT = st.integers(-5, 5).filter(bool)
RATIONAL = st.builds(QQ, st.integers(-7, 7).filter(bool), st.integers(2, 5))
MIXED = st.one_of(INT, RATIONAL)


def keys(index, max_ufs=2):
    return st.tuples(
        st.integers(0, 1),
        st.dictionaries(index.filter(lambda i: i != (0, 0)), st.integers(1, 2), max_size=max_ufs),
        st.sets(index, max_size=2),
    ).filter(lambda k: k[0] + sum(k[1].values()) + len(k[2]) <= 4)  # bounds the D^12 blow-up


@st.composite
def keyed_poly(draw, coeff, key_strategy=keys(INDEX)):
    """Inhomogeneous polynomial with coefficients drawn from coeff.

    Keys are built directly, so u and theta factors reach order 6 in
    both x and y, beyond what the enumerated bases of small_poly give.
    """
    terms = {}
    for upow, ufs, ths in draw(st.lists(key_strategy, min_size=1, max_size=5)):
        key = (upow, tuple(sorted(ufs.items())), tuple(sorted(ths, reverse=True)))
        terms[key] = draw(coeff)
    return DiffPoly(terms)


def mixed_poly():
    """Polynomial with int and QQ coefficients."""
    return keyed_poly(MIXED)


@st.composite
def rational_poly(draw):
    """All-rational polynomial with some denominator above 1.

    Denominators are 2-9.  A total x- and y-derivative of a second such
    polynomial is added, so terms cancel inside the Euler sweeps (its
    image is zero) and against the first summand's.
    """
    coeff = st.builds(QQ, st.integers(-9, 9).filter(bool), st.integers(2, 9))
    f = draw(keyed_poly(coeff)) + draw(keyed_poly(coeff)).dx() - draw(keyed_poly(coeff)).dy()
    assume(any(c.denominator > 1 for c in f.terms.values()))
    return f


def _typed(poly):
    return {k: (c, type(c)) for k, c in poly.terms.items()}


@pytest.mark.parametrize("coeff", [INT, RATIONAL, MIXED], ids=["int", "qq", "mixed"])
@pytest.mark.parametrize("axis", ["x", "y"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_total_derivative_matches_reference(coeff, axis, data):
    # equal terms and equal coefficient types
    f = data.draw(keyed_poly(coeff, keys(DENSE_INDEX, max_ufs=3)))
    assert _typed(total_derivative(f, axis)) == _typed(reference_total_derivative(f, axis))


@pytest.mark.parametrize("coeff", [INT, RATIONAL, MIXED], ids=["int", "qq", "mixed"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_partial_derivative_matches_per_index_scan(coeff, data):
    # every index f carries, plus one it does not; equal terms and types
    f = data.draw(keyed_poly(coeff, keys(DENSE_INDEX, max_ufs=3)))
    indices = {("u", 0, 0), ("u", 7, 7), ("theta", 7, 7)}
    for _, ufs, ths in f.terms:
        indices.update(("u", s, t) for (s, t), _ in ufs)
        indices.update(("theta", s, t) for s, t in ths)
    for kind, s, t in indices:
        got = partial_derivative(f, kind, s, t)
        assert _typed(got) == _typed(reference_partial(f, kind, s, t))


def test_reference_shares_no_partial_kernel():
    # the oracle would otherwise compare the kernel with itself
    tree = ast.parse(Path(__file__).with_name("reference_euler.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"partial_derivative", "_partials", "_ufactor_lower", "_ufactor_set"}


def test_total_derivative_raises_an_exponent():
    # the raised index is already a factor: u^(1,0) u^(2,0) -> u^(2,0)^2 + ...
    f = u(1, 0) * u(2, 0) * u(3, 0)
    want = u(2, 0) * u(2, 0) * u(3, 0) + u(1, 0) * u(3, 0) * u(3, 0) + u(1, 0) * u(2, 0) * u(4, 0)
    assert f.dx() == want
    assert (u() * u(0, 1)).dy() == u(0, 1) * u(0, 1) + u() * u(0, 2)


@settings(max_examples=150, deadline=None)
@given(mixed_poly())
def test_euler_operators_match_two_loop_reference(f):
    # equal terms and equal coefficient types: int inputs stay int
    assert _typed(var_theta(f)) == _typed(reference_euler(f, "theta"))
    assert _typed(var_u(f)) == _typed(reference_euler(f, "u"))


@settings(max_examples=100, deadline=None)
@given(rational_poly())
def test_euler_operators_on_rational_input_match_reference(f):
    # the all-rational input is lifted to ints and divided back: same
    # terms, and every coefficient is rational as in the reference
    assert _typed(var_theta(f)) == _typed(reference_euler(f, "theta"))
    assert _typed(var_u(f)) == _typed(reference_euler(f, "u"))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(mixed_poly(), rational_poly()), min_size=1, max_size=4))
def test_derivative_table_matches_direct_euler_operators(batch):
    # one table across a batch, both kinds: equal terms and equal
    # coefficient types, whatever the table already holds
    table = _DerivativeTable()
    for f in batch:
        assert _typed(_euler_operator(f, "theta", table)) == _typed(var_theta(f))
        assert _typed(_euler_operator(f, "u", table)) == _typed(var_u(f))
    for f in batch:
        assert _typed(table(f, "x")) == _typed(total_derivative(f, "x"))
        assert _typed(table(f, "y")) == _typed(total_derivative(f, "y"))


@settings(max_examples=60)
@given(small_poly())
def test_var_kills_divergences(c):
    for im in (c.dx(), c.dy()):
        assert var_u(im).is_zero()
        assert var_theta(im).is_zero()


@settings(max_examples=40)
@given(small_poly())
def test_var_grade_shift(a):
    if a.is_zero():
        return
    g = a.grade()
    vu = var_u(a)
    if not vu.is_zero():
        assert vu.grade() == Grade(g.d, g.p, g.w - 1)
    vt = var_theta(a)
    if not vt.is_zero():
        assert vt.grade() == Grade(g.d, g.p - 1, g.w)


# -- divergence decision --------------------------------------------------


def test_divergence_examples():
    a = (u() * th(0, 0) * th(1, 0)).dx() + (u() * u()).dy()
    assert is_total_divergence(a)
    assert not is_total_divergence(DiffPoly.rational(1, 2) * th(0, 0) * th(0, 1))
    assert not is_total_divergence(DiffPoly.one())


@settings(max_examples=40)
@given(small_poly(), small_poly(dmax=4))
def test_divergence_metamorphic(a, c):
    # adding any divergence never changes the verdict
    before = is_total_divergence(a)
    assert is_total_divergence(a + c.dx()) == before
    assert is_total_divergence(a + c.dy()) == before


def full_divergence_test(a):
    """The kernel characterization without the super-degree shortcut."""
    if a.is_zero():
        return True
    if a.constant_term() != 0:
        return False
    return var_theta(a).is_zero() and var_u(a).is_zero()


@settings(max_examples=60)
@given(small_poly())
def test_quotient_shortcut_agrees_with_full_test(a):
    # for super degrees one and two the theta derivative alone decides
    assert is_total_divergence(a) == full_divergence_test(a)


def test_functional_equality_is_divergence_aware():
    # the two densities of the same class from integration by parts
    f = Functional(th(0, 0) * th(2, 1))
    g = Functional(th(2, 0) * th(0, 1))
    assert f == g
    assert not f == Functional(DiffPoly.zero())


def test_functionals_not_hashable():
    with pytest.raises(TypeError):
        hash(Functional(u()))


# -- explicit witnesses ----------------------------------------------------


class DecompositionError(Exception):
    """divergence_decompose called on a non-divergence."""


def divergence_decompose(a, grade=None):
    """Explicit witnesses (bx, by) with a = dx(bx) + dy(by).

    Solved exactly over the enumerated monomial bases one grade lower;
    raises DecompositionError when a is not a divergence.
    """
    if a.is_zero():
        return DiffPoly.zero(), DiffPoly.zero()
    if grade is None:
        grade = a.grade()
    if grade is None:
        # handle each homogeneous piece separately
        pieces = {}
        for key, c in a.terms.items():
            pieces.setdefault(_key_grade(key), {})[key] = c
        bx_total, by_total = DiffPoly.zero(), DiffPoly.zero()
        for g, terms in sorted(pieces.items()):
            bx, by = divergence_decompose(DiffPoly(terms), g)
            bx_total, by_total = bx_total + bx, by_total + by
        return bx_total, by_total
    d, p, w = grade
    if d == 0:
        raise DecompositionError("degree-0 elements are never divergences")
    basis = [m.as_poly() for m in enumerate_basis(Grade(d - 1, p, w))]
    sol = Factorization([m.dx() for m in basis] + [m.dy() for m in basis]).solve(a)
    if sol is None:
        raise DecompositionError("element is not a total divergence")
    n = len(basis)
    bx, by = DiffPoly.zero(), DiffPoly.zero()
    for j, m in enumerate(basis):
        if sol[j]:
            bx = bx + m.scale(sol[j])
        if sol[n + j]:
            by = by + m.scale(sol[n + j])
    return bx, by


def test_decompose_simple():
    bx, by = divergence_decompose(u(1, 0))
    assert bx.dx() + by.dy() == u(1, 0)


def test_decompose_zero():
    assert divergence_decompose(DiffPoly.zero()) == (DiffPoly.zero(), DiffPoly.zero())


def test_decompose_bockstein_witness():
    # the image of the y-derivation on a split element is a divergence
    # with an explicit y-witness
    from thetacalc.cohomology import bockstein_split, delta, theta_monomial

    t = theta_monomial((3, 2, 0))
    a = delta(bockstein_split(t))  # equals dy(t)
    bx, by = divergence_decompose(a)
    assert bx.dx() + by.dy() == a
    assert not by.is_zero()


@settings(max_examples=30, deadline=None)
@given(small_poly(dmax=4), small_poly(dmax=4))
def test_decompose_roundtrip_random(c1, c2):
    a = c1.dx() + c2.dy()
    bx, by = divergence_decompose(a)
    assert bx.dx() + by.dy() == a


def test_decompose_rejects_non_divergence():
    with pytest.raises(DecompositionError):
        divergence_decompose(DiffPoly.rational(1, 2) * th(0, 0) * th(0, 1))
    with pytest.raises(DecompositionError):
        divergence_decompose(DiffPoly.one())
