import pytest
from hypothesis import assume, given, settings, strategies as st
from reference_elimination import reference_solve
from reference_euler import reference_ad_p1_column

from thetacalc import cohomology
from thetacalc.algebra import DiffPoly, Grade, enumerate_basis, mul, total_derivative
from thetacalc.cohomology import (
    NONTRIV_MAX_DIM,
    BlockOperator,
    _ad_p1_column,
    block_operator,
    bockstein_split,
    decompose_h2,
    delta,
    evolutionary_field,
    is_theta_poly,
    reduce_mod_dx,
    theta_basis,
    theta_monomial,
    theta_quotient_basis,
    verify_bockstein_injective,
    verify_nontriv_lemma,
    verify_square_lemma,
    verify_varder_lemma,
)
from thetacalc.errors import InternalInconsistency, NotACocycle
from thetacalc.linsolve import Factorization
from thetacalc.rationals import QQ
from thetacalc.schouten import pst, schouten, standard_leading_term
from thetacalc.variational import Functional, _DerivativeTable, var_theta

u = DiffPoly.u
th = DiffPoly.theta
half = DiffPoly.rational(1, 2)


# -- the odd derivation ----------------------------------------------------


def test_delta_examples():
    assert delta(u()) == th(0, 1)
    assert delta(u(1, 0) * th(0, 0)) == th(1, 1) * th(0, 0)


def test_delta_squares_to_zero_up_to_833():
    for d in range(9):
        for p in range(4):
            for w in range(4):
                for m in enumerate_basis(Grade(d, p, w)):
                    assert delta(delta(m.as_poly())).is_zero(), m.key


def test_delta_is_an_odd_derivation():
    a = u() * th(1, 0)
    b = u(0, 1) * th(0, 0)
    pa = a.super_degree()
    lhs = delta(mul(a, b))
    rhs = mul(delta(a), b) + mul(a, delta(b)).scale((-1) ** pa)
    assert lhs == rhs


# -- the splitting map -----------------------------------------------------


def test_splitting_on_triple():
    got = bockstein_split(theta_monomial((2, 1, 0)))
    want = (
        u(2, 0) * th(1, 0) * th(0, 0)
        - u(1, 0) * th(2, 0) * th(0, 0)
        + u() * th(2, 0) * th(1, 0)
    )
    assert got == want


def test_splitting_of_constant():
    assert bockstein_split(DiffPoly.one()).is_zero()


def test_split_then_derive_is_dy():
    for d in range(9):
        for p in range(5):
            for t in theta_basis(p, d):
                assert delta(bockstein_split(t)) == t.dy()


def test_split_commutes_with_dx():
    for d in range(8):
        for p in range(4):
            for t in theta_basis(p, d):
                assert bockstein_split(t.dx()) == bockstein_split(t).dx()


# -- quotient bases ---------------------------------------------------------


def test_quotient_basis_small():
    assert theta_quotient_basis(3, 3) == [theta_monomial((2, 1, 0))]
    assert theta_quotient_basis(3, 5) == [theta_monomial((3, 2, 0))]
    assert theta_quotient_basis(2, 7) == [theta_monomial((4, 3))]
    assert theta_quotient_basis(2, 8) == []
    assert theta_quotient_basis(1, 0) == [theta_monomial((0,))]
    assert theta_quotient_basis(1, 3) == []


def test_quotient_basis_sizes_match_the_closed_form():
    for k in range(2, 9):
        assert len(theta_quotient_basis(3, 2 * k - 1)) == (k - 2) // 3 + 1
    for k in range(3, 9):
        assert len(theta_quotient_basis(3, 2 * k)) == (k - 3) // 3 + 1


def test_quotient_basis_sizes_match_rank_nullity():
    for p in (2, 3, 4):
        for d in range(1, 13):
            dim = len(theta_basis(p, d))
            rank = len(Factorization([b.dx() for b in theta_basis(p, d - 1)]).pivot_columns)
            assert len(theta_quotient_basis(p, d)) == dim - rank, (p, d)


# -- reduction modulo the x-derivative --------------------------------------


def test_reduce_kills_exact_elements():
    assert reduce_mod_dx(theta_monomial((2, 1, 0)).dx()).is_zero()


def test_reduce_fixes_basis_elements():
    t = theta_monomial((3, 2, 0))
    assert reduce_mod_dx(t) == t


def test_reduce_gap_monomial():
    # th4 th1 th0 = dx(th3 th1 th0) - th3 th2 th0, so its class is the
    # negative of the adjacent-pair representative
    assert reduce_mod_dx(theta_monomial((4, 1, 0))) == -theta_monomial((3, 2, 0))


def test_reduce_idempotent_and_supported_on_basis():
    import random

    rng = random.Random(5)
    for d in range(1, 10):
        monos = theta_basis(3, d)
        if not monos:
            continue
        t = DiffPoly.zero()
        for m in monos:
            t = t + m.scale(QQ(rng.randint(-3, 3)))
        r = reduce_mod_dx(t)
        assert reduce_mod_dx(r) == r
        allowed = set()
        for b in theta_quotient_basis(3, d):
            allowed.update(b.terms)
        assert set(r.terms) <= allowed


def test_reduce_exhaustive_difference_is_exact():
    # t - reduce(t) must lie in the image of dx for every basis monomial
    for d in range(1, 9):
        dx_img = [b.dx() for b in theta_basis(3, d - 1)]
        for t in theta_basis(3, d):
            diff = t - reduce_mod_dx(t)
            if diff.is_zero():
                continue
            assert Factorization(dx_img).solve(diff) is not None, (d, t)


def test_reduce_rejects_mixed_input():
    with pytest.raises(ValueError):
        reduce_mod_dx(u() * th(0, 0))
    assert is_theta_poly(theta_monomial((1, 0)))
    assert not is_theta_poly(th(0, 1))


# -- second-cohomology decomposition ----------------------------------------


def test_decompose_already_normal():
    dec = decompose_h2(pst(3, 0), 3)
    assert dec.c == 1 and dec.chi.is_zero() and dec.X.density.is_zero()


def test_decompose_pure_coboundary():
    dec = decompose_h2(pst(2, 1), 3)
    assert dec.c == 0 and dec.chi.is_zero()
    assert schouten(standard_leading_term(), dec.X) == pst(2, 1)
    # the deterministic solver lands on the evolutionary generator
    assert dec.X.density == -half * u(2, 0) * th(0, 0)


def test_decompose_gradient_cocycle():
    # first-order cocycle: no constant class in even degree, trivial split
    # part, and an explicit gradient generator
    dens = half * (
        (-u() * u(0, 1)) * th(0, 0) * th(1, 0)
        + (u() * u(1, 0)) * th(0, 0) * th(0, 1)
    )
    dec = decompose_h2(Functional(dens), 2)
    assert dec.c is None
    assert dec.chi.is_zero()
    assert schouten(standard_leading_term(), dec.X) == Functional(dens)
    candidate = evolutionary_field(-half * u() * u() * u(1, 0))
    assert schouten(standard_leading_term(), candidate) == Functional(dens)


def test_decompose_split_class_detected():
    chi = theta_monomial((2, 1, 0))
    dec = decompose_h2(Functional(bockstein_split(chi)), 3)
    assert dec.c == 0
    assert dec.chi == chi


def test_decompose_mixture():
    chi = theta_monomial((3, 2, 0))
    P = pst(5, 0).scale(QQ(7, 3)) + Functional(bockstein_split(chi).scale(-2)) + pst(4, 1)
    dec = decompose_h2(P, 5)
    assert dec.c == QQ(7, 3)
    assert dec.chi == chi.scale(-2)


def test_decompose_rejects_non_cocycle():
    with pytest.raises(NotACocycle):
        decompose_h2(Functional(half * u() * th(0, 0) * th(3, 0)), 3)


def test_decompose_unique_against_pivot_order():
    # re-solve the mixture with the unknown columns reversed; the class
    # data must not move
    chi = theta_monomial((3, 2, 0))
    P = pst(5, 0).scale(QQ(7, 3)) + Functional(bockstein_split(chi).scale(-2)) + pst(4, 1)
    d = 5
    for w, block in P.density.weight_components().items():
        cols = []
        tags = []
        gens = [m.as_poly() for m in enumerate_basis(Grade(d - 1, 0, w + 1))]
        for m in reversed(gens):
            cols.append(reference_ad_p1_column(m))
            tags.append(("X", None))
        if w == 1:
            for j, q in enumerate(theta_quotient_basis(3, d)):
                cols.append(var_theta(bockstein_split(q)))
                tags.append(("chi", j))
        if w == 0:
            cols.append(var_theta(pst(d, 0).density))
            tags.append(("c", None))
        sol = Factorization(cols).solve(var_theta(block))
        assert sol is not None
        for coeff, (kind, j) in zip(sol, tags):
            if kind == "c":
                assert coeff == QQ(7, 3)
            elif kind == "chi":
                assert coeff == (QQ(-2) if j == 0 else 0)


# -- the block operator ------------------------------------------------------


def _reference_block(d, w):
    """Generator basis and columns of the (d, w) block, built directly."""
    basis = [m.as_poly() for m in enumerate_basis(Grade(d - 1, 0, w + 1))]
    cols = [reference_ad_p1_column(m) for m in basis]
    has_c = w == 0 and d % 2 == 1
    if has_c:
        cols.append(var_theta(pst(d, 0).density))
    quot = theta_quotient_basis(3, d) if w == 1 else []
    cols += [var_theta(bockstein_split(q)) for q in quot]
    return basis, has_c, quot, cols


def _split_reference(sol, basis, has_c, quot):
    x = DiffPoly.zero()
    for coeff, m in zip(sol, basis):
        x = x + m.scale(coeff)
    c = sol[len(basis)] if has_c else None
    chi = DiffPoly.zero()
    for coeff, q in zip(sol[len(sol) - len(quot) :], quot):
        chi = chi + q.scale(coeff)
    return x, c, chi


def test_block_operator_matches_direct_solve():
    import random

    rng = random.Random(17)
    foreign = th(9, 9) * th(8, 7)  # its var_theta 2*th(17,16) is a row no block reaches
    for d in range(1, 8):
        for w in range(4):
            basis, has_c, quot, cols = _reference_block(d, w)
            op = block_operator(d, w)
            # the densities whose var_theta are the columns
            densities = [delta(mul(m, th(0, 0))) for m in basis]
            if has_c:
                densities.append(pst(d, 0).density)
            densities += [bockstein_split(q) for q in quot]
            rhs = DiffPoly.zero()
            for dens in densities:
                rhs = rhs + dens.scale(QQ(rng.randint(-3, 3), rng.randint(1, 3)))
            sol = reference_solve(cols, var_theta(rhs))
            assert sol is not None
            assert tuple(op.solve(rhs)) == _split_reference(sol, basis, has_c, quot), (d, w)
            outside = [foreign]
            unit = next(
                (m.as_poly() for m in enumerate_basis(Grade(d, 2, w))
                 if reference_solve(cols, var_theta(m.as_poly())) is None),
                None,
            )
            if unit is not None:
                outside.append(unit + rhs)
            for target in outside:
                assert reference_solve(cols, var_theta(target)) is None
                assert op.solve(target) is None, (d, w)


def test_block_solve_rejects_a_theta_derivative():
    # solve takes the bivector density, not its var_theta
    with pytest.raises(ValueError):
        block_operator(3, 1).solve(var_theta(bockstein_split(theta_monomial((2, 1, 0)))))


def _odd_order(poly):
    """The terms whose one theta factor th^(s,t) has s + t odd."""
    return DiffPoly({k: c for k, c in poly.terms.items() if sum(k[2][0]) % 2 == 1})


def _typed(poly):
    return {k: (c, type(c)) for k, c in poly.terms.items()}


def test_ad_p1_column_is_the_odd_part_of_the_horner_column():
    # every generator monomial of the blocks d <= 8, w <= 4, as an int unit
    # monomial through one table per block (as BlockOperator builds them)
    # and as a QQ monomial on its own
    count = 0
    for d in range(1, 9):
        for w in range(5):
            table = _DerivativeTable()
            for m in enumerate_basis(Grade(d - 1, 0, w + 1)):
                unit = DiffPoly({m.key: 1})
                want = _odd_order(reference_ad_p1_column(unit))
                assert _typed(_ad_p1_column(unit, table)) == _typed(want), m.key
                assert _typed(_ad_p1_column(m.as_poly())) == _typed(
                    _odd_order(reference_ad_p1_column(m.as_poly()))
                ), m.key
                count += 1
    assert count > 1000


GEN_INDEX = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda i: i != (0, 0))
INT = st.integers(-5, 5).filter(bool)
RATIONAL = st.builds(QQ, st.integers(-7, 7).filter(bool), st.integers(2, 5))


@st.composite
def generator_poly(draw, coeff):
    """A theta-free polynomial, the density g of a field g*th."""
    terms = {}
    for upow, ufs in draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.dictionaries(GEN_INDEX, st.integers(1, 2), max_size=2)),
            min_size=1,
            max_size=5,
        )
    ):
        terms[(upow, tuple(sorted(ufs.items())), ())] = draw(coeff)
    return DiffPoly(terms)


@pytest.mark.parametrize(
    "coeff", [INT, RATIONAL, st.one_of(INT, RATIONAL)], ids=["int", "qq", "mixed"]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ad_p1_column_matches_horner_column_on_generator_polynomials(coeff, data):
    batch = data.draw(st.lists(generator_poly(coeff), min_size=1, max_size=3))
    table = _DerivativeTable()  # shared by the batch, as in a block
    for m in batch:
        want = _typed(_odd_order(reference_ad_p1_column(m)))
        assert _typed(_ad_p1_column(m)) == want
        assert _typed(_ad_p1_column(m, table)) == want


@st.composite
def bivector_pair(draw):
    """(rho, sigma): super-degree-2 densities of one grade.

    sigma is rho plus a total divergence dx(a) + dy(b), or rho plus one
    basis monomial of the grade.
    """
    d = draw(st.integers(1, 7))
    w = draw(st.integers(0, 3))
    coeff = st.one_of(INT, RATIONAL)

    def combination(grade):
        basis = enumerate_basis(grade)
        if not basis:
            return DiffPoly.zero()
        out = DiffPoly.zero()
        for i in draw(st.lists(st.integers(0, len(basis) - 1), max_size=4)):
            out = out + basis[i].as_poly().scale(draw(coeff))
        return out

    rho = combination(Grade(d, 2, w))
    if draw(st.booleans()):
        sigma = rho + combination(Grade(d - 1, 2, w)).dx() + combination(Grade(d - 1, 2, w)).dy()
    else:
        basis = enumerate_basis(Grade(d, 2, w))
        assume(basis)
        sigma = rho + draw(st.sampled_from(basis)).as_poly().scale(draw(coeff))
    return rho, sigma


@settings(max_examples=150, deadline=None)
@given(bivector_pair())
def test_odd_order_coordinates_decide_bivector_equality(pair):
    # a bivector density gives a skew operator, whose even-order
    # coefficients follow from its odd-order ones
    rho, sigma = pair
    vr, vs = var_theta(rho), var_theta(sigma)
    assert (vr == vs) == (_odd_order(vr) == _odd_order(vs))


@pytest.mark.parametrize("w", [1, 2])
def test_block_columns_derive_each_monomial_once(monkeypatch, w):
    # the block's Euler sweeps share one derivative table: total_derivative
    # runs once per distinct (monomial, axis), always on a unit monomial
    from thetacalc import variational

    calls = []

    def counting(a, axis):
        calls.append((tuple(a.terms.items()), axis))
        return total_derivative(a, axis)

    monkeypatch.setattr(variational, "total_derivative", counting)
    BlockOperator(7, w)
    assert calls
    assert len(calls) == len(set(calls))
    assert all(len(terms) == 1 and terms[0][1] == 1 for terms, _ in calls)


# -- structural lemma verifiers ---------------------------------------------


def test_square_lemma_small_range():
    for k in range(1, 7):
        assert verify_square_lemma(k)


def test_square_witness_is_trivial():
    sq = mul(theta_monomial((3, 0)), theta_monomial((3, 0)))
    assert sq.is_zero()


def test_varder_lemma_small_range():
    for d in range(1, 9):
        assert verify_varder_lemma(d)


def test_splitting_injective_small_range():
    # against the rank formula: the split columns add their full count
    # to the rank of the generator columns
    for d in range(1, 11):
        quot = theta_quotient_basis(3, d)
        gen = [reference_ad_p1_column(m.as_poly()) for m in enumerate_basis(Grade(d - 1, 0, 2))]
        b = [var_theta(bockstein_split(q)) for q in quot]
        want = len(Factorization(gen + b).pivot_columns) == (
            len(Factorization(gen).pivot_columns) + len(quot)
        )
        assert verify_bockstein_injective(d) == want
        assert want, d


def test_nontriv_small_range():
    for d in range(1, 10):
        assert verify_nontriv_lemma(d)


def test_nontriv_rejects_a_large_quotient_before_any_bracket(monkeypatch):
    def no_bracket(*args):
        raise AssertionError("a bracket was formed")

    assert len(theta_quotient_basis(3, 15)) > NONTRIV_MAX_DIM
    monkeypatch.setattr(cohomology, "_bracket", no_bracket)
    with pytest.raises(InternalInconsistency, match="quotient dimension"):
        verify_nontriv_lemma(15)


def test_self_bracket_identity():
    # the self-bracket of a split class is itself a split image: the
    # square of the theta gradient, pushed through the splitting map
    for d in (3, 5, 6, 7):
        for chi in theta_quotient_basis(3, d):
            lhs = schouten(Functional(bockstein_split(chi)), Functional(bockstein_split(chi)))
            grad = var_theta(chi)
            rhs = Functional(bockstein_split(mul(grad, grad)))
            assert lhs == rhs or lhs == rhs.scale(-1), d
