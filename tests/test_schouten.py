import random

import pytest
from hypothesis import given, settings, strategies as st

from thetacalc.algebra import DiffPoly, Grade, enumerate_basis, mul
from thetacalc.cohomology import delta
from thetacalc.errors import SuperDegreeError
from thetacalc.normalizer import build_normal_form
from thetacalc.rationals import QQ
from thetacalc.schouten import (
    BracketSeries,
    jacobi_check,
    miura_apply,
    pst,
    schouten,
    standard_leading_term,
)
from thetacalc.variational import Functional, var_theta, var_u

u = DiffPoly.u
th = DiffPoly.theta
half = DiffPoly.rational(1, 2)


@st.composite
def functional(draw, dmax=5, pmax=3, wmax=3, terms=2, dmin=0, pmin=0, wmin=0):
    d = draw(st.integers(dmin, dmax))
    p = draw(st.integers(pmin, pmax))
    w = draw(st.integers(wmin, wmax))
    basis = enumerate_basis(Grade(d, p, w))
    if not basis:
        return Functional.zero()
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(basis) - 1), st.integers(-2, 2)),
            min_size=1,
            max_size=terms,
        )
    )
    out = DiffPoly.zero()
    for i, c in picks:
        out = out + basis[i].as_poly().scale(QQ(c))
    return Functional(out)


def test_standard_leading_term_is_one_functional():
    # one immutable p1 per process: its variations are computed once
    p1 = standard_leading_term()
    assert standard_leading_term() is p1
    assert p1 == pst(0, 1)
    theta = p1.theta_variation()
    assert standard_leading_term().theta_variation() is theta


# -- sign conventions are pinned by the derivation identity ---------------


def test_leading_term_bracket_is_the_odd_derivation():
    """[leading term, F] equals the integral of the odd derivation of f.

    Exhaustive over all monomial densities with d <= 4, p <= 2, w <= 3;
    this single identity fixes every sign choice in the package.
    """
    p1 = standard_leading_term()
    for d in range(5):
        for p in range(3):
            for w in range(4):
                for m in enumerate_basis(Grade(d, p, w)):
                    f = m.as_poly()
                    assert schouten(p1, Functional(f)) == Functional(delta(f)), m.key


# -- structure constants ---------------------------------------------------


def test_leading_term_is_poisson():
    p1 = standard_leading_term()
    assert schouten(p1, p1).is_zero()


def test_odd_translates_pairwise_compatible():
    for n in range(0, 3):
        for m in range(0, 3):
            assert schouten(pst(2 * n + 1, 0), pst(2 * m + 1, 0)).is_zero()


def test_x2_generates_the_mixed_term():
    # orientation as fixed by the derivation identity above
    X2 = Functional(half * u(2, 0) * th(0, 0))
    assert schouten(X2, standard_leading_term()) == pst(2, 1).scale(-1)
    assert schouten(X2.scale(-1), standard_leading_term()) == pst(2, 1)


def test_x2_shifts_all_mixed_terms():
    X2 = Functional(half * u(2, 0) * th(0, 0))
    for (s, t) in [(3, 0), (2, 1), (5, 0)]:
        assert schouten(X2, pst(s, t)) == pst(s + 2, t).scale(-1)


def test_ad_of_zero():
    X = Functional(u(1, 0) * th(0, 0))
    assert schouten(X, Functional.zero()).is_zero()


def test_gradient_field_cocycle():
    # the field with characteristic F(u) u_x pairs with the leading term
    # into the first-order cocycle with coefficients -F'(u) u_y, F'(u) u_x
    F = half * u() * u()  # F = u^2/2, f = F' = u
    X1 = Functional(F * u(1, 0) * th(0, 0))
    got = schouten(X1.scale(-1), standard_leading_term())
    expected = Functional(
        half * ((-u() * u(0, 1)) * th(0, 0) * th(1, 0) + (u() * u(1, 0)) * th(0, 0) * th(0, 1))
    )
    assert got == expected


def test_inhomogeneous_super_degree_rejected():
    with pytest.raises(SuperDegreeError):
        schouten(Functional(u() + u() * th(0, 0) * th(1, 0)), standard_leading_term())


# -- algebra laws -----------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(functional(), functional())
def test_graded_symmetry(P, Q):
    p, q = P.super_degree(), Q.super_degree()
    assert schouten(P, Q) == schouten(Q, P).scale((-1) ** (p * q))



@settings(max_examples=80, deadline=None)
@given(functional(), functional())
def test_bracket_matches_the_both_products_reference(P, Q):
    # the same terms, coefficients and coefficient types, u-free operands
    # (weight 0) included
    from reference_normalize import reference_schouten

    def typed(F):
        return {k: (c, type(c)) for k, c in F.density.terms.items()}

    assert typed(schouten(P, Q)) == typed(reference_schouten(P, Q))


def test_u_free_operand_skips_the_others_theta_variation(monkeypatch):
    # var_u of a u-free operand is zero, so its product is skipped: the
    # bracket computes var_theta of the u-free operand and var_u of the
    # other, nothing else
    from reference_normalize import reference_schouten

    from thetacalc import variational

    seen = []
    for name in ("var_theta", "var_u"):
        op = getattr(variational, name)
        monkeypatch.setattr(
            variational, name, lambda f, op=op, name=name: seen.append((name, f)) or op(f)
        )
    for dense in (u() * u(1, 0) * th(0, 0), u(0, 1) * th(0, 0) * th(2, 0)):
        for free_first in (True, False):
            # a fresh p1: standard_leading_term() keeps its variations
            free, X = pst(0, 1), Functional(dense)
            args = (free, X) if free_first else (X, free)
            got = schouten(*args)
            # a Functional hands the operator itself, not its density
            assert sorted((name, getattr(f, "density", f) is free.density) for name, f in seen) == [
                ("var_theta", True),
                ("var_u", False),
            ]
            assert got == reference_schouten(*args)
            seen.clear()


@settings(max_examples=25, deadline=None)
@given(
    functional(dmax=4, terms=1),
    functional(dmax=4, terms=1),
    functional(dmax=4, terms=1),
)
def test_graded_jacobi(P, Q, R):
    p, q, r = P.super_degree(), Q.super_degree(), R.super_degree()
    t1 = schouten(schouten(P, Q), R).scale((-1) ** (p * r))
    t2 = schouten(schouten(Q, R), P).scale((-1) ** (q * p))
    t3 = schouten(schouten(R, P), Q).scale((-1) ** (r * q))
    assert (t1 + t2 + t3).is_zero()


@settings(max_examples=40, deadline=None)
@given(functional(terms=1), functional(terms=1))
def test_degree_bookkeeping(P, Q):
    if P.density.is_zero() or Q.density.is_zero():
        return
    g1, g2 = P.grade(), Q.grade()
    if g1 is None or g2 is None:
        return
    out = schouten(P, Q)
    if out.density.is_zero():
        return
    assert out.grade() == Grade(g1.d + g2.d, g1.p + g2.p - 1, g1.w + g2.w - 1)


# -- series and the Miura action -------------------------------------------


def _pb_example(order=7):
    return BracketSeries(
        order, {1: standard_leading_term(), 3: pst(3, 0) + pst(2, 1)}
    )


def test_series_component_degree_checked():
    with pytest.raises(ValueError):
        BracketSeries(3, {2: pst(3, 0)})


def test_series_checks_a_component_again_at_another_degree():
    # the degree is cached on the Functional, the check still runs per series
    F = pst(3, 0)
    assert BracketSeries(3, {3: F}).component(3) is F
    with pytest.raises(ValueError, match="stored at degree 2 has a different standard degree"):
        BracketSeries(3, {2: F})


def test_series_super_degree_checked():
    with pytest.raises(SuperDegreeError):
        BracketSeries(3, {1: Functional(u() * th(0, 0))})


def test_jacobi_ok_for_example():
    assert jacobi_check(_pb_example()) == "ok"


def test_jacobi_ok_for_normal_forms():
    comps = {1: standard_leading_term(), 3: pst(3, 0).scale(QQ(2, 3)), 5: pst(5, 0).scale(-4)}
    assert jacobi_check(BracketSeries(5, comps)) == "ok"


def test_jacobi_violation_reported_with_degree():
    bad = BracketSeries(
        2,
        {1: standard_leading_term(), 3: Functional(half * u() * th(0, 0) * th(3, 0))},
    )
    assert jacobi_check(bad) == 4


def test_miura_expansion_matches_iterated_action():
    # degree-2 generator on the example: the closed-form expansion
    # sum (-1)^n/n! ad^n reproduces the recorded coefficients
    X2 = Functional(half * u(2, 0) * th(0, 0))
    P = _pb_example()
    Q = miura_apply(X2, P, 7)
    # mixed terms cancel at degree 3 and acquire 1/n! - 1/(n-1)! tails
    assert Q.component(3) == pst(3, 0)
    assert Q.component(5) == pst(5, 0).scale(-1) + pst(4, 1).scale(QQ(-1, 2))
    assert Q.component(7) == pst(7, 0).scale(QQ(1, 2)) + pst(6, 1).scale(QQ(1, 3))


def test_miura_group_inverse():
    X = Functional(u() * u(1, 0) * th(0, 0) + half * u(0, 1) * th(0, 0))
    P = _pb_example()
    back = miura_apply(X.scale(-1), miura_apply(X, P, 7), 7)
    assert back == P


@settings(max_examples=8, deadline=None)
@given(functional(dmax=2, pmax=1, pmin=1, wmax=2, terms=1, dmin=1))
def test_miura_preserves_jacobi(X):
    if X.density.is_zero() or X.super_degree() != 1:
        return
    if X.density.standard_degree() is None:
        return
    P = BracketSeries(4, {1: standard_leading_term(), 3: pst(3, 0)})
    assert jacobi_check(miura_apply(X, P, 4)) == "ok"


def test_miura_requires_positive_degree():
    X = Functional(u() * th(0, 0))  # degree 0
    with pytest.raises(ValueError):
        miura_apply(X, _pb_example(), 7)


# -- the folded sign and the scaled-generator push -------------------------


def _seeded_functional(rng, d, p, w, terms):
    """A sum of terms random monomials of grade (d, p, w)."""
    basis = enumerate_basis(Grade(d, p, w))
    out = DiffPoly.zero()
    for _ in range(terms):
        c = QQ(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice((1, -1))
        out = out + rng.choice(basis).as_poly().scale(c)
    return Functional(out)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_bracket_density_is_the_textbook_formula(p, q):
    # every parity pair, each operand u-free (weight 0) or not: the folded
    # sign gives var_theta(P) var_u(Q) + (-1)^p var_u(P) var_theta(Q)
    # term for term
    rng = random.Random(10 * p + q)
    nonzero = 0
    for _ in range(6):
        for P_free in (True, False):
            for Q_free in (True, False):
                wP = 0 if P_free else rng.randint(1, 2)
                wQ = 0 if Q_free else rng.randint(1, 2)
                P = _seeded_functional(rng, rng.randint(2, 4), p, wP, 3)
                Q = _seeded_functional(rng, rng.randint(2, 4), q, wQ, 3)
                want = mul(var_theta(P.density), var_u(Q.density)) + mul(
                    var_u(P.density), var_theta(Q.density)
                ).scale((-1) ** p)
                assert schouten(P, Q).density == want
                nonzero += not (P_free or want.is_zero())
    assert nonzero >= 6


def _chain_length(X, F, limit):
    """How many of the first limit brackets ad_X^n F are nonzero."""
    from reference_normalize import reference_schouten

    n = 0
    while n < limit:
        F = reference_schouten(X, F)
        if F.density.is_zero():
            break
        n += 1
    return n


def test_miura_push_matches_the_rescaled_copy_reference():
    # three pushes from a normal form, at orders 4-9, by generators of
    # degree 1-3 and weight 1-3: the second and third push act on
    # conjugates.  Some pushes truncate below the series' order (its top
    # components are dropped), and the zero generator is one of them.
    # Densities must agree term for term, not only in the quotient.
    from reference_miura import reference_miura_apply

    rng = random.Random(27)
    seen = {"long chain": 0, "above truncation": 0, "zero": 0}
    for case in range(30):
        order = rng.randint(4, 9)
        cs = [QQ(rng.randint(-3, 3), rng.randint(1, 2)) or QQ(1) for _ in range(order // 2)]
        P = build_normal_form(cs, order)
        for step in range(3):
            degree = rng.randint(1, 3)
            X = _seeded_functional(rng, degree, 1, rng.randint(1, 3), rng.randint(1, 3))
            if case % 10 == 0 and step == 1:
                X = Functional.zero()
            cut = order if rng.random() < 0.7 else rng.randint(2, order - 1)
            got = miura_apply(X, P, cut)
            want = reference_miura_apply(X, P, cut)
            assert got.order == want.order == cut
            assert {d: F.density for d, F in got.components.items()} == {
                d: F.density for d, F in want.components.items()
            }
            seen["zero"] += X.density.is_zero()
            seen["above truncation"] += any(d > cut + 1 for d in P.components)
            if degree == 1 and not X.density.is_zero():
                seen["long chain"] += any(
                    _chain_length(X, F, 3) == 3
                    for d, F in P.components.items()
                    if d + 3 <= cut + 1
                )
            if cut == order:
                P = got
    assert min(seen.values()) >= 3, seen
