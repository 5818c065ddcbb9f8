import ast
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st
from reference_euler import reference_euler, reference_partial, reference_total_derivative

from thetacalc import algebra
from thetacalc.algebra import (
    DiffPoly,
    Grade,
    _key_grade,
    _partials,
    enumerate_basis,
    mul,
    random_element,
    total_derivative,
)
from thetacalc.linsolve import solve
from thetacalc.rationals import QQ
from thetacalc.variational import (
    Functional,
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


# up to four theta factors of low order, so raised indices often collide
THETA_KEYS = st.tuples(
    st.integers(0, 1),
    st.dictionaries(DENSE_INDEX.filter(lambda i: i != (0, 0)), st.integers(1, 2), max_size=1),
    st.sets(DENSE_INDEX, max_size=4),
)


@pytest.mark.parametrize("axis", ["x", "y"])
@settings(max_examples=100, deadline=None)
@given(f=keyed_poly(MIXED, THETA_KEYS))
def test_total_derivative_matches_reference_with_the_theta_memo_cold_and_warm(axis, f):
    # the first call derives every theta tuple of f, the second reads them
    algebra._THETA_RULES.clear()
    want = _typed(reference_total_derivative(f, axis))
    assert _typed(total_derivative(f, axis)) == want
    assert _typed(total_derivative(f, axis)) == want


def test_theta_memo_holds_one_entry_per_axis_and_tuple():
    f = th(2, 0) * th(1, 0) * th(0, 0) + u() * th(1, 0) * th(0, 0) + u(0, 1) * th(0, 0) * th(1, 1) + u(1, 0)
    algebra._THETA_RULES.clear()
    for axis in ("x", "x", "y"):
        total_derivative(f, axis)
    thetas = {ths for _, _, ths in f.terms}
    assert len(thetas) == 4  # the theta-free u(1, 0) has the empty tuple
    assert sorted(algebra._THETA_RULES) == sorted((axis, ths) for axis in "xy" for ths in thetas)


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
        got = _partials(f.terms, kind).get(s, {}).get(t, DiffPoly.zero())
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


@st.composite
def deep_index(draw):
    n = draw(st.integers(0, 50))
    s = draw(st.integers(0, n))
    return s, n - s


@st.composite
def free_bivectors(draw, coeff):
    """u-free bivector terms c th^a th^b with |a|, |b| up to 50.

    Each target index a + b is split several ways, so that terms land on
    one output key and add up or cancel there.
    """
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(deep_index()), draw(deep_index())
        S, T = a[0] + b[0], a[1] + b[1]
        for _ in range(draw(st.integers(1, 4))):
            n = draw(st.integers(max(0, S + T - 50), min(50, S + T)))
            s = draw(st.integers(max(0, n - T), min(S, n)))
            a2, b2 = (s, n - s), (S - s, T - n + s)
            if a2 != b2:
                terms[(0, (), tuple(sorted((a2, b2), reverse=True)))] = draw(coeff)
    return DiffPoly(terms)


def test_free_bivector_closed_form_signs():
    # c((-1)^|a| - (-1)^|b|) th^(a+b): +2c, -2c, or 0 on equal parity
    assert var_theta(th(2, 0) * th(0, 1)) == th(2, 1).scale(2)
    assert var_theta(th(2, 1) * th(0, 0)) == th(2, 1).scale(-2)
    assert var_theta(th(1, 1) * th(0, 0)).is_zero()
    # two bivectors on one output key cancel: the difference is a divergence
    assert var_theta(th(2, 1) * th(0, 0) + th(2, 0) * th(0, 1)).is_zero()


@pytest.mark.parametrize("with_rest", [False, True], ids=["bivectors", "with-rest"])
@pytest.mark.parametrize("coeff", [INT, RATIONAL, MIXED], ids=["int", "qq", "mixed"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_var_theta_closed_form_matches_reference(coeff, with_rest, data):
    # int terms take the closed form unlifted, all-rational ones unlifted
    # in a density of one or two terms and after the lift in a longer one,
    # mixed ones the sweeps; the other terms (u-dependent, or not two
    # thetas) always take the sweeps.  Equal terms and coefficient types.
    f = data.draw(free_bivectors(coeff))
    if with_rest:
        f = f + data.draw(keyed_poly(coeff))
    assert _typed(var_theta(f)) == _typed(reference_euler(f, "theta"))


@pytest.mark.parametrize("coeff", [1, QQ(3, 4)], ids=["int", "qq"])
def test_var_theta_closed_form_sums_on_shared_keys(coeff):
    # th^(2,1) th and th^(2,0) th^(0,1) cancel on th^(2,1); th^(3,0) th and
    # th^(2,0) th^(1,0) with opposite coefficients add on th^(3,0).  Each
    # pair alone takes the closed form on its coefficients as given, the
    # four terms together after the lift; equal terms and types either way
    def bivector(a, b, c):
        return DiffPoly({(0, (), (a, b)): c})

    cancel = bivector((2, 1), (0, 0), coeff) + bivector((2, 0), (0, 1), coeff)
    add = bivector((3, 0), (0, 0), coeff) + bivector((2, 0), (1, 0), -coeff)
    assert len(add) == len(cancel) == 2
    assert var_theta(cancel).is_zero()
    assert var_theta(add) == th(3, 0).scale(-4 * coeff)
    for f in (cancel, add, cancel + add):
        assert _typed(var_theta(f)) == _typed(reference_euler(f, "theta"))


def test_lift_with_unit_denominators_divides_back_to_rationals():
    # three rational terms of denominator 1 are lifted with L = 1, and the
    # outputs are still rationals, as in the reference: closed-form and
    # swept terms, for both operators
    f = DiffPoly(
        {
            (0, (), ((2, 1), (0, 0))): QQ(2),
            (0, (((1, 0), 1),), ((0, 0),)): QQ(-3),
            (1, (((0, 1), 1),), ((1, 0),)): QQ(5),
        }
    )
    for kind, op in (("theta", var_theta), ("u", var_u)):
        got = _typed(op(f))
        assert got and got == _typed(reference_euler(f, kind))


def _linear(s, t, b, c):
    """c u^(s,t) th^b as a one-term polynomial; (0,0) is the underived u."""
    upow, ufs = (1, ()) if (s, t) == (0, 0) else (0, (((s, t), 1),))
    return DiffPoly({(upow, ufs, (b,)): c})


@pytest.mark.parametrize(
    "coeffs",
    [(2, -3, 5), (QQ(1, 2), QQ(-2, 3), QQ(5, 4)), (2, QQ(-2, 3), 5)],
    ids=["int", "qq", "mixed"],
)
def test_var_u_closed_form_matches_reference(coeffs):
    # linear terms, u^(0,0) th^b included, each alone, in pairs that cancel
    # (u^(1,0) th and u th^(1,0)) or add (u^(0,1) th^(1,0) and u^(1,0)
    # th^(0,1)) on one key, and mixed with weight-two terms, an exponent-2
    # factor and a linear u-weight with two thetas, which are swept
    a, b, c = coeffs
    cancel = _linear(1, 0, (0, 0), a) + _linear(0, 0, (1, 0), a)
    add = _linear(0, 1, (1, 0), b) + _linear(1, 0, (0, 1), b)
    sign = _linear(2, 1, (0, 3), c)  # (-1)^(2+1): var_u is -c th^(2,4)
    swept = DiffPoly(
        {
            (0, (((1, 0), 2),), ((0, 0),)): a,
            (1, (((0, 1), 1),), ((1, 1),)): b,
            (0, (((1, 1), 1),), ((2, 0), (0, 0))): c,
        }
    )
    assert var_u(cancel).is_zero() and var_u(add) == th(1, 1).scale(-2 * b)
    assert var_u(sign) == th(2, 4).scale(-c)
    for f in (cancel, add, sign, cancel + add + sign, sign + swept, swept + add + sign):
        assert _typed(var_u(f)) == _typed(reference_euler(f, "u"))
        F = Functional(f)
        F.super_degree()  # a cached super degree changes nothing
        assert _typed(var_u(F)) == _typed(reference_euler(f, "u"))


@st.composite
def linear_fields(draw, coeff):
    """Linear terms c u^(s,t) th^b with |(s,t)|, |b| up to 30, several
    split from one target b + (s,t), so that they add up or cancel there."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        S, T = draw(st.integers(0, 30)), draw(st.integers(0, 30))
        for _ in range(draw(st.integers(1, 4))):
            s, t = draw(st.integers(0, S)), draw(st.integers(0, T))
            terms.update(_linear(s, t, (S - s, T - t), draw(coeff)).terms)
    return DiffPoly(terms)


@pytest.mark.parametrize("with_rest", [False, True], ids=["linear", "with-rest"])
@pytest.mark.parametrize("coeff", [INT, RATIONAL, MIXED], ids=["int", "qq", "mixed"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_var_u_closed_form_matches_reference_on_random_fields(coeff, with_rest, data):
    # as for var_theta: int and all-rational input take the closed form,
    # mixed input the sweeps; equal terms and coefficient types
    f = data.draw(linear_fields(coeff))
    if with_rest:
        f = f + data.draw(keyed_poly(coeff))
    assert _typed(var_u(f)) == _typed(reference_euler(f, "u"))


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


@settings(max_examples=150, deadline=None)
@given(small_poly(pmax=4), small_poly(dmax=4, pmax=4), small_poly(dmax=4, pmax=4))
def test_quotient_shortcut_agrees_with_full_test(a, b, c):
    # when every term has a theta, the theta derivative alone decides; at
    # super degrees 0-4, on a, on a divergence, and on the divergence
    # perturbed by a (which may mix super degrees)
    div = b.dx() + c.dy()
    for f in (a, div, div + a):
        assert is_total_divergence(f) == full_divergence_test(f)


def test_u_euler_identity():
    # w f = u var_u(f) modulo divergences for f of u-weight w >= 1, so
    # var_u alone decides whether f is a divergence; about one draw in
    # six is a divergence
    import random

    rng = random.Random(17)
    checked = divergences = 0
    while checked < 300:
        f = random_element(rng)
        w = 0 if f.is_zero() else f.grade().w
        if w == 0:
            continue
        assert full_divergence_test(f.scale(QQ(w)) - mul(u(), var_u(f))), f
        verdict = full_divergence_test(f)
        assert var_u(f).is_zero() == verdict, f
        checked += 1
        divergences += verdict
    assert 0 < divergences < checked


def test_theta_euler_identity():
    # 3f = th var_theta(f) modulo divergences at super degree 3, so
    # g = var_theta(f) satisfies var_theta(th g) = 3g; every draw has
    # g != 0, a positive case of the varder lemma's criterion
    import random

    from reference_lemmas import theta_basis

    rng = random.Random(18)
    draws = []
    while len(draws) < 200:
        f = random_element(rng)
        if not f.is_zero() and f.grade().p == 3:
            draws.append(f)
    for d in range(3, 13):
        basis = theta_basis(3, d)
        for _ in range(15):
            f = DiffPoly.zero()
            for b in rng.sample(basis, min(3, len(basis))):
                f = f + b.scale(QQ(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
            draws.append(f)
    checked = 0
    for f in draws:
        g = var_theta(f)
        if g.is_zero():
            continue
        assert var_theta(mul(th(0, 0), g)) == g.scale(3), f
        checked += 1
    assert checked >= 300


def test_functional_equality_is_divergence_aware():
    # the two densities of the same class from integration by parts
    f = Functional(th(0, 0) * th(2, 1))
    g = Functional(th(2, 0) * th(0, 1))
    assert f == g
    assert not f == Functional(DiffPoly.zero())


@pytest.mark.parametrize(
    "density",
    [DiffPoly.zero(), th(0, 0) * th(2, 1), th(0, 0) * th(0, 1) + th(0, 0) * th(2, 1), u()],
    ids=["zero", "homogeneous", "mixed", "degree-zero"],
)
def test_functional_caches_the_standard_degree(density):
    # 0 for zero, None for mixed degrees: neither may read as "not cached";
    # the super degree is cached the same way
    class Counting(DiffPoly):
        __slots__ = ("calls",)

        def standard_degree(self):
            self.calls += 1
            return super().standard_degree()

        def super_degree(self):
            self.calls += 1
            return super().super_degree()

    counting = Counting(density.terms)
    counting.calls = 0
    F = Functional(counting)
    for _ in range(2):
        assert F.standard_degree() == density.standard_degree()
        assert F.super_degree() == density.super_degree()
    assert counting.calls == 2


@settings(max_examples=60, deadline=None)
@given(st.one_of(mixed_poly(), rational_poly()))
def test_functional_variations_are_the_euler_operators(f):
    F = Functional(f)
    assert _typed(F.theta_variation()) == _typed(var_theta(f))
    assert _typed(F.u_variation()) == _typed(var_u(f))


def test_functional_computes_its_variations_once(monkeypatch):
    from thetacalc import variational

    direct = {"var_theta": var_theta, "var_u": var_u}
    calls = []
    for name in ("var_theta", "var_u"):
        op = getattr(variational, name)
        monkeypatch.setattr(
            variational, name, lambda f, op=op, name=name: calls.append(name) or op(f)
        )
    F = Functional(u() * th(0, 0) * th(1, 0) + u(0, 2) * th(0, 0) * th(0, 1))
    theta, u_part = F.theta_variation(), F.u_variation()
    assert sorted(calls) == ["var_theta", "var_u"]
    assert F.theta_variation() is theta and F.u_variation() is u_part
    assert len(calls) == 2
    # scale, + and - return new Functionals that carry the variations on
    # by linearity, equal to the direct ones, with no new Euler call
    for G in (F.scale(3), F + F, -F, F - F.scale(QQ(1, 2))):
        assert G.theta_variation() == direct["var_theta"](G.density)
        assert G.u_variation() == direct["var_u"](G.density)
        assert F.theta_variation() is theta and F.u_variation() is u_part
    assert len(calls) == 2


def _random_functional(rng):
    """A Functional of random_element's monomials with int and rational
    coefficients mixed, holding var_theta, var_u, both or neither."""
    terms = {}
    for _ in range(3):
        for key in random_element(rng).terms:
            integer = rng.randint(-3, 3) or 1
            terms[key] = rng.choice((integer, QQ(rng.randint(-5, 5) or 1, rng.randint(2, 4))))
    F = Functional(DiffPoly(terms))
    which = rng.randrange(4)
    if which & 1:
        F.theta_variation()
    if which & 2:
        F.u_variation()
    return F


def test_linear_operations_carry_exact_variations():
    # a carried variation must be the variation of the result's own
    # density; an operand that lacks one makes the result lack it too
    import random

    rng = random.Random(29)
    for _ in range(60):
        F, G = _random_functional(rng), _random_functional(rng)
        c = rng.choice((0, 2, -1, QQ(-3, 2), QQ(5, 7)))
        results = [(F + G, (F, G)), (F - G, (F, G)), (-F, (F,)), (F.scale(c), (F,)), (F - F, (F,))]
        for H, operands in results:
            for slot, var in (("_theta", var_theta), ("_u", var_u)):
                carried = getattr(H, slot)
                if any(getattr(op, slot) is None for op in operands):
                    assert carried is None
                else:
                    assert carried == var(H.density)
            if H.density.is_zero():
                assert H.super_degree() == H.standard_degree() == 0
    zero = F - F
    assert zero.super_degree() == zero.standard_degree() == 0
    assert F.scale(0).super_degree() == F.scale(0).standard_degree() == 0


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
    sol = solve([m.dx() for m in basis] + [m.dy() for m in basis], a)
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
