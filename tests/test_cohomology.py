import ast
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st
from reference_elimination import reference_pivot_columns, reference_rank, reference_solve
from reference_euler import reference_ad_p1_column, reference_bockstein_split, reference_delta
from reference_lemmas import (
    is_theta_poly,
    reduce_mod_dx,
    reference_chain_feasible,
    reference_split_leaks,
    reference_varder_solvable,
    theta_basis,
)
from reference_nontriv import reference_nontriv
from test_algebra import _brute_force_basis

from thetacalc import cohomology
from thetacalc.algebra import DiffPoly, Grade, _key_grade, _u_keys, enumerate_basis, mul, total_derivative
from thetacalc.cohomology import (
    _ad_p1_column,
    bockstein_split,
    decompose_h2,
    delta,
    evolutionary_field,
    solve_slice,
    theta_monomial,
    theta_quotient_basis,
    verify_bockstein_injective,
    verify_nontriv_lemma,
    verify_square_lemma,
    verify_varder_lemma,
)
from thetacalc.errors import InternalInconsistency, NotACocycle
from thetacalc.linsolve import solve
from thetacalc.rationals import QQ
from thetacalc.schouten import pst, schouten, standard_leading_term
from thetacalc.variational import Functional, _DerivativeTable, var_theta, var_u

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
            rank = reference_rank([b.dx() for b in theta_basis(p, d - 1)])
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
            assert solve(dx_img, diff) is not None, (d, t)


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


def test_every_decomposition_part_is_a_cocycle():
    # why decompose_h2 may test the cocycle condition only on failure: a
    # passing round trip writes P_d as a sum of these three kinds of part
    p1 = standard_leading_term()
    for d in range(2, 7):
        for w in range(3):
            for m in enumerate_basis(Grade(d - 1, 0, w + 1)):
                image = schouten(p1, evolutionary_field(m.as_poly()))
                assert schouten(p1, image).is_zero(), (d, w, m)
    for d in range(2, 8):
        assert schouten(p1, pst(d, 0)).is_zero()
        for q in theta_quotient_basis(3, d):
            assert schouten(p1, Functional(bockstein_split(q))).is_zero(), (d, q)


def test_decompose_checks_the_cocycle_condition_only_on_failure(monkeypatch):
    brackets = []

    def recording(P, Q):
        brackets.append(Q.super_degree())
        return schouten(P, Q)

    monkeypatch.setattr(cohomology, "schouten", recording)
    X = evolutionary_field(u() * u(3, 1))  # degree 4, so [p1, X] has degree 5
    P = pst(5, 0).scale(QQ(2)) + schouten(standard_leading_term(), X)
    assert decompose_h2(P, 5).c == QQ(2)
    assert 2 not in brackets  # only the round trip's [p1, X]
    brackets.clear()
    with pytest.raises(NotACocycle):
        decompose_h2(Functional(half * u() * th(0, 0) * th(3, 0)), 3)
    assert brackets.count(2) == 1


def test_round_trip_rejects_a_wrong_decomposition():
    from thetacalc.cohomology import H2Decomposition, _assert_roundtrip

    P = pst(5, 0).scale(QQ(2))
    _assert_roundtrip(P, decompose_h2(P, 5))
    wrong = H2Decomposition(5, QQ(3), DiffPoly.zero(), evolutionary_field(DiffPoly.zero()))
    with pytest.raises(InternalInconsistency, match="round-trip failed at degree 5"):
        _assert_roundtrip(P, wrong)
    # equal modulo divergences is equal: add dx of a bivector density
    shifted = Functional(P.density + (half * u() * th(0, 0) * th(3, 0)).dx())
    _assert_roundtrip(shifted, decompose_h2(P, 5))


def test_decompose_unique_against_pivot_order():
    # re-solve the mixture with the unknown columns reversed; the class
    # data must not move
    chi = theta_monomial((3, 2, 0))
    P = pst(5, 0).scale(QQ(7, 3)) + Functional(bockstein_split(chi).scale(-2)) + pst(4, 1)
    d = 5
    by_weight = {}
    for key, c in P.density.terms.items():
        by_weight.setdefault(_key_grade(key).w, {})[key] = c
    for w, terms in sorted(by_weight.items()):
        block = DiffPoly(terms)
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
        sol = solve(cols, var_theta(block))
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


def _x_order(key):
    _, ufs, ths = key
    return sum(s * e for (s, _), e in ufs) + sum(s for s, _ in ths)


def _y_order(key):
    _, ufs, ths = key
    return sum(t * e for (_, t), e in ufs) + sum(t for _, t in ths)


def _solve_by_slices(d, w, rhs):
    """Split the weight-w block density rhs slice by slice, as decompose_h2
    does; None when a slice is infeasible."""
    x, c, chi = DiffPoly.zero(), None, DiffPoly.zero()
    for (wr, a), rows in cohomology._slices(var_theta(rhs)).items():
        assert wr == w
        part = solve_slice(d, w, a, rows)
        if part is None:
            return None
        x, chi = x + part.x, chi + part.chi
        if part.c is not None:
            c = part.c
    if c is None and w == 0 and d % 2 == 1:
        c = QQ(0)  # the c column exists, but rhs has no row in its slice
    return x, c, chi


def test_block_operator_matches_direct_solve():
    # the slice solutions, assembled, are the whole-block solution
    import random

    rng = random.Random(17)
    foreign = th(9, 9) * th(8, 7)  # its var_theta 2*th(17,16) is a row no block reaches
    for d in range(1, 8):
        for w in range(4):
            basis, has_c, quot, cols = _reference_block(d, w)
            # the slices partition the generators
            keys = [k for a in range(d) for k in _u_keys(a, d - 1 - a, w + 1)]
            assert sorted(keys) == sorted(next(iter(m.terms)) for m in basis)
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
            assert _solve_by_slices(d, w, rhs) == _split_reference(sol, basis, has_c, quot), (d, w)
            unit = next(
                (m.as_poly() for m in enumerate_basis(Grade(d, 2, w))
                 if reference_solve(cols, var_theta(m.as_poly())) is None),
                None,
            )
            if unit is not None:
                assert _solve_by_slices(d, w, unit + rhs) is None, (d, w)
    for a in (7, 17):
        # no slice holds the row, whether or not the slice has columns
        assert solve_slice(7, 0, a, var_theta(foreign)) is None


def test_generator_keys_are_the_x_order_slices_of_the_basis():
    # slice a's keys are the x-order-a keys of the generator basis, in
    # sorted order, against a brute-force basis that shares no code
    # with the slice search; empty slices give ()
    oracle = _brute_force_basis(7, 0, 4)
    for d in range(1, 9):
        for w in range(4):
            basis = sorted(oracle.get(Grade(d - 1, 0, w + 1), ()))
            for a in range(-1, d + 2):
                want = tuple(k for k in basis if _x_order(k) == a)
                assert _u_keys(a, d - 1 - a, w + 1) == want, (d, w, a)
                if a < 0 or a >= d:
                    assert want == ()


def test_block_slices_follow_the_x_order_grading():
    # a generator monomial of x-order a has its column in x-order a,
    # y-order d - a; the c and split-class columns lie in x-order d, y-order 0
    for d in range(1, 10):
        for w in range(5):
            table = _DerivativeTable()
            for m in enumerate_basis(Grade(d - 1, 0, w + 1)):
                a = _x_order(m.key)
                for key in _ad_p1_column(DiffPoly({m.key: 1}), table).terms:
                    assert (_x_order(key), _y_order(key)) == (a, d - a), (d, w, m.key)
        classes = [var_theta(bockstein_split(q)) for q in theta_quotient_basis(3, d)]
        if d % 2 == 1:
            classes.append(var_theta(pst(d, 0).density))
        for col in classes:
            assert {(_x_order(k), _y_order(k)) for k in col.terms} == {(d, 0)}, d


def test_bockstein_check_agrees_with_the_whole_block():
    # the class slice decides what the whole (d, 1) block decides
    for d in range(1, 13):
        basis, _, _, cols = _reference_block(d, 1)
        splits_independent = set(range(len(basis), len(cols))) <= set(reference_pivot_columns(cols))
        assert verify_bockstein_injective(d) == splits_independent, d


def _leads(columns):
    # the lead of each column, None for a zero one
    return [max(col.terms) if col.terms else None for col in columns]


def test_leads_certificate_decides_independence():
    a, b, c = (th(k, 0) for k in range(3))
    assert cohomology._leads_distinct(_leads([a, a + b, b + c]))
    # equal leads with independent columns: the certificate cannot tell
    assert not cohomology._leads_distinct(_leads([a + c, c]))
    assert not cohomology._leads_distinct(_leads([a, DiffPoly.zero()]))
    assert cohomology._leads_distinct([])


def test_split_class_leads_are_distinct_and_the_rank_is_full():
    # the certificate holds where the elimination finds full rank, d <= 30
    for d in range(1, 31):
        _, columns = cohomology._split_class_columns(d)
        assert reference_rank(columns) == len(columns), d
        assert cohomology._leads_distinct(_leads(columns)), d


def test_bockstein_cannot_decide_equal_leads(monkeypatch):
    monkeypatch.setattr(cohomology, "_leads_distinct", lambda columns: False)
    with pytest.raises(InternalInconsistency, match="cannot decide"):
        verify_bockstein_injective(5)


def test_bockstein_is_false_on_a_zero_split_column(monkeypatch):
    split = cohomology._split_class_columns

    def with_a_zero(d):
        keys, columns = split(d)
        return keys + keys[:1], columns + [DiffPoly.zero()]

    monkeypatch.setattr(cohomology, "_split_class_columns", with_a_zero)
    assert verify_bockstein_injective(5) is False


def test_block_solve_rejects_a_bivector_density():
    # solve takes the var_theta coordinates of a slice, not the density
    density = bockstein_split(theta_monomial((2, 1, 0)))
    assert solve_slice(3, 1, 3, _odd_order(var_theta(density))) is not None
    with pytest.raises(ValueError):
        solve_slice(3, 1, 3, density)


def _odd_order(poly):
    """The terms whose one theta factor th^(s,t) has s + t odd."""
    return DiffPoly({k: c for k, c in poly.terms.items() if sum(k[2][0]) % 2 == 1})


def _typed(poly):
    return {k: (c, type(c)) for k, c in poly.terms.items()}


def test_ad_p1_column_is_the_odd_part_of_the_horner_column(max_degree=8):
    # every generator monomial of the blocks d <= max_degree, w <= 4, as an
    # int unit monomial through one table per block (as solve_slice builds
    # them) and as a QQ monomial through a fresh table; CI runs max_degree=11
    count = 0
    for d in range(1, max_degree + 1):
        for w in range(5):
            table = _DerivativeTable()
            for m in enumerate_basis(Grade(d - 1, 0, w + 1)):
                unit = DiffPoly({m.key: 1})
                want = _odd_order(reference_ad_p1_column(unit))
                assert _typed(_ad_p1_column(unit, table)) == _typed(want), m.key
                assert _typed(_ad_p1_column(m.as_poly(), _DerivativeTable())) == _typed(
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
        assert _typed(_ad_p1_column(m, _DerivativeTable())) == want
        assert _typed(_ad_p1_column(m, table)) == want


THETA_INDEX = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def super_poly(draw, coeff):
    """A polynomial in u, its derivatives and the thetas, grades mixed."""
    terms = {}
    for upow, ufs, ths in draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.dictionaries(GEN_INDEX, st.integers(1, 2), max_size=2),
                st.sets(THETA_INDEX, max_size=3),
            ),
            min_size=1,
            max_size=5,
        )
    ):
        terms[(upow, tuple(sorted(ufs.items())), tuple(sorted(ths, reverse=True)))] = draw(coeff)
    return DiffPoly(terms)


@pytest.mark.parametrize(
    "coeff", [INT, RATIONAL, st.one_of(INT, RATIONAL)], ids=["int", "qq", "mixed"]
)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_delta_and_split_match_the_key_level_loops(coeff, data):
    a = data.draw(super_poly(coeff))
    assert _typed(delta(a)) == _typed(reference_delta(a))
    assert _typed(bockstein_split(a)) == _typed(reference_bockstein_split(a))


def test_delta_and_split_match_the_key_level_loops_on_unit_monomials():
    # int unit monomials, as the block columns are built, and QQ ones
    for d in range(6):
        for p in range(4):
            for w in range(3):
                for m in enumerate_basis(Grade(d, p, w)):
                    for a in (DiffPoly({m.key: 1}), m.as_poly()):
                        assert _typed(delta(a)) == _typed(reference_delta(a)), m.key
                        want = _typed(reference_bockstein_split(a))
                        assert _typed(bockstein_split(a)) == want, m.key


def test_cohomology_and_deltaform_read_only_the_partial_kernel():
    # delta, the splitting map and theta_to_delta are sums over _partials;
    # no other private name of algebra edits key tuples for them (_u_keys
    # lists the generator keys of a slice and edits none)
    src = Path(cohomology.__file__).parent
    for name in ("cohomology.py", "deltaform.py"):
        tree = ast.parse((src / name).read_text())
        private = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in ("algebra", "thetacalc.algebra")
            for alias in node.names
            if alias.name.startswith("_")
        }
        assert private <= {"_partials", "_u_keys"}, name


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
    # a slice's generator columns share one derivative table: while they
    # are built, total_derivative runs once per distinct (monomial, axis),
    # always on a unit monomial and only along x and y; each stored
    # D_y^2 row is D_y applied twice to its unit monomial
    from thetacalc import variational

    calls = []
    building = []
    tables = []

    def counting(a, axis):
        if building:
            calls.append((tuple(a.terms.items()), axis))
        return total_derivative(a, axis)

    def generator_column(m, table):
        building.append(m)
        tables.append(table)
        try:
            return _ad_p1_column(m, table)
        finally:
            building.pop()

    monkeypatch.setattr(variational, "total_derivative", counting)
    monkeypatch.setattr(cohomology, "_ad_p1_column", generator_column)
    second = 0
    for a in range(7):
        calls.clear()
        tables.clear()
        solve_slice(7, w, a, th(0, 0))
        assert calls, a
        assert len(calls) == len(set(calls)), a
        assert all(len(terms) == 1 and terms[0][1] == 1 for terms, _ in calls)
        assert {axis for _, axis in calls} <= {"x", "y"}, a
        assert len({id(t) for t in tables}) == 1, a  # one table per slice
        for key, row in tables[0]._rows["yy"].items():
            twice = total_derivative(total_derivative(DiffPoly({key: 1}), "y"), "y")
            assert _typed(DiffPoly(dict(row))) == _typed(twice), key
            second += 1
    assert second


def test_derivative_table_keeps_rows_only():
    # the table keeps first-derivative rows per axis and the D_y^2 rows,
    # each keyed by a monomial; the mixed derivatives D_x^i D_y^j of a
    # column are walked, not memoized per (key, i, j)
    table = _DerivativeTable()
    for key in _u_keys(3, 4, 3):
        _ad_p1_column(DiffPoly({key: 1}), table)
    assert not hasattr(table, "power")
    assert set(table.__slots__) == {"_rows"}
    assert set(table._rows) == {"x", "y", "yy"}
    assert all(table._rows.values())
    for rows in table._rows.values():
        for upow, ufs, ths in rows:
            assert type(upow) is int and type(ufs) is tuple and ths == ()


# -- structural lemma verifiers ---------------------------------------------


def test_square_lemma_small_range():
    for k in range(1, 7):
        assert verify_square_lemma(k)


def test_square_witness_is_trivial():
    sq = mul(theta_monomial((3, 0)), theta_monomial((3, 0)))
    assert sq.is_zero()


def test_no_square_is_dx_exact_up_to_k_14():
    # the lemma itself, without the verifier: a = P_i +- P_j and seeded
    # rational combinations of P_i = th^(i,0) th^(k-i,0); reduce_mod_dx
    # gives the canonical representative modulo dx, so a nonzero one
    # means the square is not exact
    import random
    from itertools import combinations

    rng = random.Random(14)
    checked = 0
    for k in range(3, 15):
        support = range(k // 2 + 1, k + 1)
        P = {i: theta_monomial((i, k - i)) for i in support}
        elements = [P[i] + P[j].scale(sign) for i, j in combinations(support, 2) for sign in (1, -1)]
        for _ in range(3):
            coeffs = [QQ(rng.randint(-6, 6), rng.randint(1, 5)) for _ in support]
            coeffs[0] = coeffs[0] or QQ(1)
            coeffs[-1] = coeffs[-1] or QQ(-1)
            a = DiffPoly.zero()
            for c, i in zip(coeffs, support):
                a = a + P[i].scale(c)
            elements.append(a)
        for a in elements:
            assert not reduce_mod_dx(mul(a, a)).is_zero(), (k, a)
            checked += 1
    assert checked == 260


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_square_lemma_cannot_decide_a_feasible_chain(monkeypatch, k):
    # every k with a split runs the chain certificate, also those where
    # the products alone are independent modulo the dx images
    monkeypatch.setattr(cohomology, "_chains_are_infeasible", lambda k: False)
    with pytest.raises(InternalInconsistency, match="chain certificate fails"):
        verify_square_lemma(k)


def test_chain_certificate_agrees_with_the_chain_elimination():
    # the dual certificate holds where the elimination finds every chain
    # system infeasible, k <= 26
    for k in range(1, 27):
        assert reference_chain_feasible(k) == [], k
        assert cohomology._chains_are_infeasible(k), k


def test_chain_certificate_sees_a_broken_functional(monkeypatch):
    # a dx that raises only the first index leaves e_(l+1) alone in each
    # chain column, where phi_t is +-1
    monkeypatch.setattr(cohomology, "_dx_tuples", lambda ks: [(ks[0] + 1,) + ks[1:]])
    assert not cohomology._chains_are_infeasible(5)


@pytest.mark.parametrize("k", [5, 6])
def test_square_lemma_cannot_decide_a_leaking_split(monkeypatch, k):
    monkeypatch.setattr(cohomology, "_outer_split_is_triangular", lambda k: False)
    with pytest.raises(InternalInconsistency, match="outer-sum split leaks"):
        verify_square_lemma(k)


def test_outer_split_certificate_agrees_with_the_leak_elimination():
    # the certificate holds where the elimination finds no leak, k <= 26
    for k in range(1, 27):
        assert not reference_split_leaks(k), k
        assert cohomology._outer_split_is_triangular(k), k
        assert verify_square_lemma(k), k


def test_dx_tuples_are_the_terms_of_dx():
    # the tuple model of the certificate: every term of dx of a
    # four-theta monomial, each with coefficient +1; the largest is the
    # one with k0 raised
    for deg in range(6, 24):
        for ks in cohomology._descending_tuples(4, deg, deg):
            raised = cohomology._dx_tuples(ks)
            want = DiffPoly.zero()
            for t in raised:
                want = want + theta_monomial(t)
            assert theta_monomial(ks).dx() == want, ks
            assert max(raised) == (ks[0] + 1,) + ks[1:], ks


def test_outer_split_certificate_sees_a_repeated_lead(monkeypatch):
    # distinct four-theta monomials have distinct leads; a monomial listed
    # twice gives two equal leads, and the certificate fails
    real = cohomology._descending_tuples

    def twice(count, deg, cap):
        for ks in real(count, deg, cap):
            yield ks
            yield ks

    monkeypatch.setattr(cohomology, "_descending_tuples", twice)
    assert not cohomology._outer_split_is_triangular(6)


def test_varder_lemma_small_range():
    for d in range(1, 9):
        assert verify_varder_lemma(d)


def test_varder_witness_matches_the_euler_operator(max_degree=60):
    # per target g, the closed-form witness coefficients against
    # var_theta(th * g) and 3g themselves; CI runs max_degree=120
    for d in range(1, max_degree + 1):
        for i in range((d - 1) // 2 + 1):
            g = theta_monomial((d - i, i))
            key, lhs, rhs = cohomology._varder_witness(d, i)
            assert var_theta(mul(th(0, 0), g)).coefficient(key) == lhs, (d, i)
            assert g.scale(3).coefficient(key) == rhs, (d, i)


def test_varder_lemma_agrees_with_the_elimination():
    # per target, the witness decision against a solve over the
    # var_theta columns of theta_basis(3, d), d <= 26
    for d in range(1, 27):
        want = reference_varder_solvable(d)
        witnesses = [cohomology._varder_witness(d, i) for i in range((d - 1) // 2 + 1)]
        got = [lhs == rhs for _, lhs, rhs in witnesses]
        assert got == want, d
        assert not any(want) and verify_varder_lemma(d), d


def test_splitting_injective_small_range():
    # against the rank formula: the split columns add their full count
    # to the rank of the generator columns
    for d in range(1, 11):
        quot = theta_quotient_basis(3, d)
        gen = [reference_ad_p1_column(m.as_poly()) for m in enumerate_basis(Grade(d - 1, 0, 2))]
        b = [var_theta(bockstein_split(q)) for q in quot]
        want = reference_rank(gen + b) == reference_rank(gen) + len(quot)
        assert verify_bockstein_injective(d) == want
        assert want, d


def test_nontriv_small_range():
    for d in range(1, 10):
        assert verify_nontriv_lemma(d)


def test_nontriv_agrees_with_the_reference_up_to_quotient_dimension_two():
    degrees = [d for d in range(1, 17) if 1 <= len(theta_quotient_basis(3, d)) <= 2]
    assert len(degrees) == 12
    for d in degrees:
        assert verify_nontriv_lemma(d) == reference_nontriv(d), d


def _pair_splits(d):
    splits = [Functional(bockstein_split(q)) for q in theta_quotient_basis(3, d)]
    return [(Bi, Bj) for i, Bi in enumerate(splits) for Bj in splits[i:]]


def _pair_brackets(d):
    return [schouten(Bi, Bj).density for Bi, Bj in _pair_splits(d)]


def _pair_columns(d, euler):
    return [euler(f) for f in _pair_brackets(d)]


def test_nontriv_var_u_and_var_theta_pair_columns_agree():
    # both operators are injective on the pair brackets (u-weight one,
    # super degree three), so their columns have the same dependencies
    degrees = [d for d in range(1, 23) if theta_quotient_basis(3, d)]
    assert len(degrees) == 19
    for d in degrees:
        by_u, by_theta = _pair_columns(d, var_u), _pair_columns(d, var_theta)
        assert reference_pivot_columns(by_u) == reference_pivot_columns(by_theta), d
        assert [c.is_zero() for c in by_u] == [c.is_zero() for c in by_theta], d


def test_nontriv_is_false_on_a_zero_self_bracket(monkeypatch):
    monkeypatch.setattr(cohomology, "_pair_lead", lambda P, Q: None)
    assert verify_nontriv_lemma(15) is False


def test_nontriv_pair_leads_are_distinct_and_the_rank_is_full():
    # the certificate holds where the elimination finds full rank, d <= 22
    for d in range(1, 23):
        columns = _pair_columns(d, var_u)
        assert reference_rank(columns) == len(columns), d
        assert cohomology._leads_distinct(_pair_columns(d, cohomology._var_u_lead)), d


def _top(f):
    # the largest s1 + a over the terms c u^(a,0) th^(s1,0) ... of f
    return max(ths[0][0] + (ufs[0][0][0] if ufs else 0) for _, ufs, ths in f.terms)


def test_var_u_lead_matches_the_full_column(max_degree=24):
    # every pair bracket of every degree <= max_degree; CI runs
    # max_degree=48.  The sweep stops at T = the lead's first index, so
    # drops records how far T fell below the top of each bracket
    drops = set()
    for d in range(1, max_degree + 1):
        for f in _pair_brackets(d):
            lead = cohomology._var_u_lead(f)
            assert lead == _leads([var_u(f)])[0], d
            if lead is not None:
                drops.add(_top(f) - lead[2][0][0])
    assert {0, 1} <= drops


def test_var_u_lead_when_the_top_layers_cancel():
    # dx(u^(3,0) th^5 th^1 th^0) has var_u zero and top s1 + a = 9, so the
    # sweep must fall from T = 9 to the first index 2 of var_u(u th^2 th^1 th^0)
    low = mul(u(), theta_monomial((2, 1, 0)))
    f = mul(u(3, 0), theta_monomial((5, 1, 0))).dx() + low
    assert _top(f) == 9
    assert cohomology._var_u_lead(f) == (0, (), ((2, 0), (1, 0), (0, 0))) == max(var_u(f).terms)
    # a rational coefficient and one D_x step: -3/2 D_x th^4 th^2 th^0 leads with th^5 th^2 th^0
    g = mul(u(1, 0), theta_monomial((4, 2, 0))).scale(QQ(-3, 2))
    assert cohomology._var_u_lead(g) == (0, (), ((5, 0), (2, 0), (0, 0))) == max(var_u(g).terms)


def test_var_u_lead_of_a_zero_column_is_none():
    assert cohomology._var_u_lead(DiffPoly.zero()) is None
    # a nonzero divergence: var_u is zero at every T down to 0
    f = mul(u(), theta_monomial((2, 1, 0))).dx()
    assert not f.is_zero() and var_u(f).is_zero()
    assert cohomology._var_u_lead(f) is None


@pytest.mark.parametrize(
    "f",
    [
        mul(u(0, 1), theta_monomial((2, 1, 0))),  # a y-derivative of u
        mul(u(), th(2, 1) * th(1, 0) * th(0, 0)),  # a y-derivative of theta
        mul(u() * u(1, 0), theta_monomial((2, 1, 0))),  # u-weight 2
        mul(u(1, 0) ** 2, theta_monomial((2, 1, 0))),  # u-weight 2 in one factor
        theta_monomial((2, 1, 0)),  # u-weight 0
        mul(u(), theta_monomial((2, 1))),  # two thetas
    ],
)
def test_var_u_lead_rejects_other_shapes(f):
    with pytest.raises(InternalInconsistency):
        cohomology._var_u_lead(f)


def test_pair_lead_is_the_lead_of_the_full_bracket(max_degree=30):
    # every pair of every degree <= max_degree; CI runs max_degree=60
    pairs = 0
    for d in range(1, max_degree + 1):
        for Bi, Bj in _pair_splits(d):
            lead = cohomology._pair_lead(Bi, Bj)
            assert lead is not None and lead == cohomology._var_u_lead(schouten(Bi, Bj).density), d
            pairs += 1
    assert pairs == {30: 165, 60: 1155}.get(max_degree, pairs)


class _Tagged(int):
    """An int coefficient that logs each product it is a factor of."""

    log = []

    def __new__(cls, value, tag):
        self = super().__new__(cls, value)
        self.tag = tag
        return self

    def __mul__(self, other):
        _Tagged.log.append(frozenset((self.tag, getattr(other, "tag", None))))
        return int(self) * int(other)

    __rmul__ = __mul__


def _tagged(B, name, sign=1):
    """B with its variations carrying tagged coefficients, var_theta times sign."""
    theta, u = (
        DiffPoly({k: _Tagged(s * c, (name + part, k)) for k, c in poly.terms.items()})
        for poly, part, s in ((B.theta_variation(), "th", sign), (B.u_variation(), "u", 1))
    )
    return Functional(B.density, theta, u)


def _multiplications(fn, *args):
    _Tagged.log.clear()
    out = fn(*args)
    return out, list(_Tagged.log)


def test_pair_lead_multiplies_each_factor_pair_once():
    # the factors of P and Q carry tagged coefficients, so a product of
    # two factor terms is logged by their tags; mul in schouten forms
    # every nonzero product once, and _pair_lead a subset, each once
    taken = formed = 0
    for d in range(1, 19):
        for Bi, Bj in _pair_splits(d):
            P, Q = _tagged(Bi, "P"), _tagged(Bj, "Q")
            lead, done = _multiplications(cohomology._pair_lead, P, Q)
            bracket, every = _multiplications(schouten, P, Q)
            assert lead == cohomology._var_u_lead(bracket.density), d
            assert len(set(done)) == len(done) and set(done) <= set(every), d
            assert len(set(every)) == len(every)
            taken, formed = taken + len(done), formed + len(every)
    assert taken * 10 < formed  # 198 of 4240 through degree 18
    # the zero column: var_theta(Q) = -var_theta(P) and var_u(Q) = var_u(P)
    # cancel the two products, so T falls to 0 and every pair is taken
    B = _pair_splits(15)[0][0]
    P, Q = _tagged(B, "P"), _tagged(B, "Q", sign=-1)
    lead, done = _multiplications(cohomology._pair_lead, P, Q)
    bracket, every = _multiplications(schouten, P, Q)
    assert lead is None and bracket.density.is_zero()
    assert sorted(done, key=sorted) == sorted(every, key=sorted) and len(set(done)) == len(done)


@pytest.mark.parametrize(
    "left, right",
    [
        (mul(u(0, 1), th()), theta_monomial((2, 1))),  # a y-derivative of u
        (mul(u(), th(1, 1)), theta_monomial((2, 1))),  # a y-derivative of theta
        (mul(u() * u(1, 0), th()), theta_monomial((2, 1))),  # u-weight 2
        (mul(u(), th()), theta_monomial((2, 1, 0))),  # three thetas
        (mul(u(), th()), mul(u(), th(3, 0))),  # two u-linear factors
        (theta_monomial((2, 1)), theta_monomial((3, 1))),  # two u-free factors
        (mul(u(), th()) + theta_monomial((2, 1)), theta_monomial((3, 1))),  # a mixed factor
    ],
)
def test_pair_lead_rejects_other_factors(left, right):
    # the variations are given, so the pair bracket is theirs alone
    P = Functional(mul(u(), theta_monomial((1, 0))), left, right)
    with pytest.raises(InternalInconsistency):
        cohomology._pair_lead(P, P)


def test_nontriv_cannot_decide_equal_leads(monkeypatch):
    monkeypatch.setattr(cohomology, "_leads_distinct", lambda columns: False)
    with pytest.raises(InternalInconsistency, match="cannot decide"):
        verify_nontriv_lemma(15)


def test_nontriv_cannot_decide_dependent_pair_columns(monkeypatch):
    # the first off-diagonal pair, (0, 1), repeats the diagonal pair (0, 0)
    bracket = cohomology._pair_lead
    repeated = []

    def one_repeat(P, Q):
        if P is not Q and not repeated:
            repeated.append((P, Q))
            Q = P
        return bracket(P, Q)

    monkeypatch.setattr(cohomology, "_pair_lead", one_repeat)
    with pytest.raises(InternalInconsistency, match="cannot decide"):
        verify_nontriv_lemma(15)
    assert len(repeated) == 1


@pytest.mark.parametrize("d", [15, 17])
def test_nontriv_self_brackets_are_nonzero_at_quotient_dimension_three(d):
    # direct, without the rank argument: [B(chi), B(chi)] != 0 for
    # seeded nonzero chi, some with zero coordinates
    import random

    quot = theta_quotient_basis(3, d)
    assert len(quot) == 3
    rng = random.Random(d)
    vectors = [(1, 0, 0), (0, 0, 1), (1, -1, 0), (0, 2, 3)]
    vectors += [tuple(QQ(rng.randint(-5, 5), rng.randint(1, 4)) for _ in quot) for _ in range(3)]
    for a in vectors:
        if not any(a):
            continue
        chi = DiffPoly.zero()
        for c, q in zip(a, quot):
            chi = chi + q.scale(c)
        F = Functional(bockstein_split(chi))
        assert not schouten(F, F).is_zero(), a


def test_self_bracket_identity():
    # the self-bracket of a split class is itself a split image: the
    # square of the theta gradient, pushed through the splitting map
    for d in (3, 5, 6, 7):
        for chi in theta_quotient_basis(3, d):
            lhs = schouten(Functional(bockstein_split(chi)), Functional(bockstein_split(chi)))
            grad = var_theta(chi)
            rhs = Functional(bockstein_split(mul(grad, grad)))
            assert lhs == rhs or lhs == rhs.scale(-1), d
