import hashlib
import random
import sys
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from thetacalc import algebra
from thetacalc.algebra import (
    DiffPoly,
    Grade,
    _partials,
    _u_keys,
    enumerate_basis,
    grade_of,
    mul,
    random_element,
    total_derivative,
)
from thetacalc.printer import format_poly
from thetacalc.rationals import QQ

u = DiffPoly.u
th = DiffPoly.theta


# -- strategies ----------------------------------------------------------


def poly_from_grade(d, p, w, coeffs):
    basis = enumerate_basis(Grade(d, p, w))
    out = DiffPoly.zero()
    for c, m in zip(coeffs, basis):
        out = out + m.as_poly().scale(QQ(c))
    return out


@st.composite
def homogeneous_poly(draw, dmax=6, pmax=3, wmax=3):
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
            max_size=3,
        )
    )
    out = DiffPoly.zero()
    for i, c in picks:
        out = out + basis[i].as_poly().scale(QQ(c))
    return out


# -- multiplication ------------------------------------------------------


def test_theta_anticommute():
    assert mul(th(0, 0), th(1, 0)) == -mul(th(1, 0), th(0, 0))


def test_theta_square_is_zero():
    assert mul(th(1, 0), th(1, 0)).is_zero()


def test_commutative_part():
    prod = mul(u(), mul(u(), u(1, 0)))
    assert grade_of(prod) == Grade(1, 0, 3)
    assert prod == u() * u() * u(1, 0)


@settings(max_examples=60)
@given(homogeneous_poly(), homogeneous_poly())
def test_supercommutativity(a, b):
    pa, pb = a.super_degree(), b.super_degree()
    sign = (-1) ** (pa * pb)
    assert mul(a, b) == mul(b, a).scale(sign)


@settings(max_examples=30)
@given(homogeneous_poly(dmax=4), homogeneous_poly(dmax=4), homogeneous_poly(dmax=4))
def test_mul_associative(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_grades_add_under_mul():
    a = u(1, 0) * th(0, 1)
    b = u() * u(2, 0)
    ga, gb = grade_of(a), grade_of(b)
    assert grade_of(mul(a, b)) == Grade(ga.d + gb.d, ga.p + gb.p, ga.w + gb.w)


# -- total derivatives ---------------------------------------------------


def test_leibniz_example():
    assert total_derivative(u() * th(0, 0), "x") == u(1, 0) * th(0, 0) + u() * th(1, 0)


def test_dy_theta():
    assert total_derivative(th(0, 0), "y") == th(0, 1)


def test_chain_rule_on_coefficient():
    half_u2 = DiffPoly.rational(1, 2) * u() * u()
    assert total_derivative(half_u2, "x") == u() * u(1, 0)


@settings(max_examples=60)
@given(homogeneous_poly())
def test_dx_dy_commute(a):
    assert a.dx().dy() == a.dy().dx()


@settings(max_examples=60)
@given(homogeneous_poly())
def test_derivative_grade_bookkeeping(a):
    g = grade_of(a)
    if a.is_zero():
        return
    for axis in ("x", "y"):
        da = total_derivative(a, axis)
        if not da.is_zero():
            assert grade_of(da) == Grade(g.d + 1, g.p, g.w)


@settings(max_examples=40)
@given(homogeneous_poly(dmax=4), homogeneous_poly(dmax=4))
def test_leibniz_rule(a, b):
    lhs = total_derivative(mul(a, b), "x")
    rhs = mul(total_derivative(a, "x"), b) + mul(a, total_derivative(b, "x"))
    assert lhs == rhs


def test_bad_axis_rejected():
    with pytest.raises(ValueError):
        total_derivative(u(), "z")


# -- partial derivatives -------------------------------------------------


def partial_derivative(a, kind, s, t):
    """d a / d<kind>^(s,t) from the one partials kernel; kind 'u' takes
    (0,0) as d/du, kind 'theta' is the left derivative."""
    return _partials(a.terms, kind).get(s, {}).get(t, DiffPoly.zero())


def test_bad_kind_rejected():
    for f in (u(), DiffPoly.zero()):
        with pytest.raises(ValueError):
            partial_derivative(f, "v", 0, 0)


def test_left_theta_derivative_sign():
    # the (0,1) factor crosses one theta on its way to the front
    f = mul(th(0, 0), th(0, 1))
    assert partial_derivative(f, "theta", 0, 1) == -th(0, 0)
    assert partial_derivative(f, "theta", 0, 0) == th(0, 1)


def test_left_theta_derivative_ordering_oracle():
    # both orderings of the same product must give consistent answers
    f1 = mul(th(0, 0), th(0, 1))
    f2 = mul(th(0, 1), th(0, 0))
    assert f1 == -f2
    for (s, t) in [(0, 0), (0, 1)]:
        assert (
            partial_derivative(f1, "theta", s, t)
            == -partial_derivative(f2, "theta", s, t)
        )


def test_theta_derivative_twice_is_zero():
    f = th(2, 0) * th(1, 0) * th(0, 0)
    once = partial_derivative(f, "theta", 1, 0)
    assert partial_derivative(once, "theta", 1, 0).is_zero()


def test_u_partial():
    g = u() * u(1, 0) * u(1, 0)
    assert partial_derivative(g, "u", 1, 0) == DiffPoly.rational(2) * u() * u(1, 0)
    assert partial_derivative(g, "u", 0, 0) == u(1, 0) * u(1, 0)


def test_partial_absent_variable():
    assert partial_derivative(th(1, 0), "theta", 2, 0).is_zero()


# -- grading -------------------------------------------------------------


def test_grade_examples():
    p1_density = DiffPoly.rational(1, 2) * th(0, 0) * th(0, 1)
    assert grade_of(p1_density) == Grade(1, 2, 0)
    assert grade_of(u(2, 0) * th(1, 0) * th(0, 0)) == Grade(3, 2, 1)
    assert grade_of(u() + th(1, 0)) is None


# -- basis enumeration ---------------------------------------------------


def test_basis_examples():
    keys = {m.key for m in enumerate_basis(Grade(1, 2, 0))}
    assert keys == {
        (0, (), ((1, 0), (0, 0))),
        (0, (), ((0, 1), (0, 0))),
    }
    assert [m.key for m in enumerate_basis(Grade(0, 0, 2))] == [(2, (), ())]
    assert [m.key for m in enumerate_basis(Grade(0, 1, 0))] == [(0, (), ((0, 0),))]


def test_basis_monomials_have_the_right_grade():
    for d in range(5):
        for p in range(3):
            for w in range(3):
                for m in enumerate_basis(Grade(d, p, w)):
                    assert m.grade() == Grade(d, p, w)


def _counting_oracle(dmax, pmax, wmax):
    """Independent dimension count by dynamic programming.

    Generators: the underived u (weight 1), each u^(s,t) with
    1 <= s+t <= dmax (degree s+t, weight 1, unbounded exponent), and
    each theta^(s,t) with s+t <= dmax (degree s+t, super 1, exponent
    0 or 1).
    """
    counts = {(0, 0, 0): 1}

    def add_unbounded(cd, cw):
        # unbounded knapsack: sweep states in increasing (d, w)
        for d in range(dmax + 1):
            for p in range(pmax + 1):
                for w in range(wmax + 1):
                    c = counts.get((d, p, w))
                    if c and d + cd <= dmax and w + cw <= wmax:
                        key = (d + cd, p, w + cw)
                        counts[key] = counts.get(key, 0) + c

    def add_binary(cd):
        items = list(counts.items())
        for (d, p, w), c in items:
            if d + cd <= dmax and p + 1 <= pmax:
                key = (d + cd, p + 1, w)
                counts[key] = counts.get(key, 0) + c

    add_unbounded(0, 1)  # upow
    for deg in range(1, dmax + 1):
        for _ in range(deg + 1):  # indices (s, deg-s)
            add_unbounded(deg, 1)
    for deg in range(0, dmax + 1):
        for _ in range(deg + 1):
            add_binary(deg)
    return counts


def test_basis_counts_match_generating_function():
    dmax, pmax, wmax = 6, 3, 3
    oracle = _counting_oracle(dmax, pmax, wmax)
    for d in range(dmax + 1):
        for p in range(pmax + 1):
            for w in range(wmax + 1):
                got = len(enumerate_basis(Grade(d, p, w)))
                assert got == oracle.get((d, p, w), 0), (d, p, w)


def test_basis_deterministic():
    a = [m.key for m in enumerate_basis(Grade(4, 2, 2))]
    b = [m.key for m in enumerate_basis(Grade(4, 2, 2))]
    assert a == b and a == sorted(a)


def _indices(dmax, lowest=0):
    return [(s, d - s) for d in range(lowest, dmax + 1) for s in range(d + 1)]


def _brute_force_basis(dmax, pmax, wmax):
    """Every (d, p, w) basis up to the bounds, by filtering all products.

    Theta parts are all index sets of size <= pmax, u-derivative parts
    all index multisets of size <= wmax, both of degree <= dmax; the
    underived u fills the remaining weight.
    """

    def deg(idxs):
        return sum(s + t for s, t in idxs)

    thetas = [
        tuple(sorted(c, reverse=True))
        for p in range(pmax + 1)
        for c in combinations(_indices(dmax), p)
        if deg(c) <= dmax
    ]
    ufactors = []
    for n in range(wmax + 1):
        for c in combinations_with_replacement(_indices(dmax, lowest=1), n):
            if deg(c) <= dmax:
                ufactors.append(tuple(sorted((i, c.count(i)) for i in set(c))))
    bases = {}
    for ths in thetas:
        for ufs in ufactors:
            d = deg(ths) + sum((s + t) * e for (s, t), e in ufs)
            nfac = sum(e for _, e in ufs)
            for w in range(nfac, wmax + 1):
                bases.setdefault(Grade(d, len(ths), w), set()).add((w - nfac, ufs, ths))
    return bases


def test_basis_matches_brute_force():
    dmax, pmax, wmax = 7, 3, 4
    oracle = _brute_force_basis(dmax, pmax, wmax)
    for d in range(dmax + 1):
        for p in range(pmax + 1):
            for w in range(wmax + 1):
                keys = [m.key for m in enumerate_basis(Grade(d, p, w))]
                assert keys == sorted(oracle.get(Grade(d, p, w), ())), (d, p, w)


def test_basis_of_long_generator_grades():
    # one u-derivative factor: exactly the u^(s,50-s)
    keys = [m.key for m in enumerate_basis(Grade(50, 0, 1))]
    assert keys == [(0, (((s, 50 - s), 1),), ()) for s in range(51)]
    # two factors: u times one derivative, or a pair of derivatives
    idx = _indices(29, lowest=1)
    pairs = {
        tuple(sorted({a: 1, b: 1}.items())) if a != b else ((a, 2),)
        for a, b in combinations_with_replacement(idx, 2)
        if sum(a) + sum(b) == 30
    }
    want = {(1, (((s, 30 - s), 1),), ()) for s in range(31)}
    want |= {(0, ufs, ()) for ufs in pairs}
    keys = [m.key for m in enumerate_basis(Grade(30, 0, 2))]
    assert len(keys) == len(want) and set(keys) == want


def _full_multiset_search(degree, max_count):
    """Every index multiset by a search that scans the whole index list
    at every level, the last factor included."""
    indices = sorted((s, d - s) for d in range(1, degree + 1) for s in range(d + 1))

    def rec(pos, deg_left, count_left):
        if deg_left == 0:
            yield ()
            return
        for i in range(pos, len(indices)):
            step = sum(indices[i])
            for e in range(1, min(count_left, deg_left // step) + 1):
                for rest in rec(i + 1, deg_left - step * e, count_left - e):
                    yield ((indices[i], e),) + rest

    return list(rec(0, degree, max_count))


def test_derivative_multisets_match_the_full_search():
    # the u parts of one degree, listed by x-order with the last factor
    # looked up, are the multisets of the full search, each once
    for degree in range(13):
        for count in range(8):
            got = sorted(ufs for a in range(degree + 1) for _, ufs, _ in _u_keys(a, degree - a, count))
            assert got == sorted(_full_multiset_search(degree, count)), (degree, count)


def _lines_in_algebra(call):
    """call() and the number of lines it runs inside the algebra module."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != algebra.__file__:
            return None
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        return call(), lines
    finally:
        sys.settrace(previous)


def test_basis_enumeration_does_no_dead_search():
    # Lines run inside the algebra module while listing the 51 monomials
    # of Grade(50, 0, 1): a search that keeps scanning indices once no
    # factor is left runs millions; enumerating them directly, a few
    # tens of thousands.
    basis, lines = _lines_in_algebra(lambda: enumerate_basis(Grade(50, 0, 1)))
    assert len(basis) == 51
    assert lines < 200_000, lines


def test_slice_keys_do_no_dead_search():
    # The same for the 52 generator keys of the slices of block (52, 0),
    # one u-derivative each: looking the last factor up without listing
    # the slice's indices takes about 600 lines, listing them first
    # about 27,000, scanning them for the factor about 300,000.
    keys, lines = _lines_in_algebra(lambda: [k for a in range(52) for k in _u_keys(a, 51 - a, 1)])
    assert keys == [(0, (((a, 51 - a), 1),), ()) for a in range(52)]
    assert lines < 2_000, lines


@pytest.mark.parametrize(
    "seed, digest",
    [(1, "bfbf3b71b66caa77817911d9aea0e682"), (2, "e10dac6cb895fdd1573af357f059968d")],
)
def test_random_element_draws_are_fixed(seed, digest):
    # the self-test and the seeded tests replay these draws
    rng = random.Random(seed)
    lines = [format_poly(random_element(rng)) for _ in range(200)]
    assert hashlib.md5("\n".join(lines).encode()).hexdigest() == digest


def test_power_squares_and_multiplies(monkeypatch):
    calls = 0
    real_mul = algebra.mul

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return real_mul(a, b)

    monkeypatch.setattr(algebra, "mul", counting_mul)
    assert u() ** 1000 == DiffPoly({(1000, (), ()): QQ(1)})
    assert calls <= 20, calls
    assert u(1, 0) ** 0 == DiffPoly.one()
    with pytest.raises(ValueError):
        u() ** -1
