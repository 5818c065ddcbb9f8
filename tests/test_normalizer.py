import random

import pytest

from thetacalc.algebra import DiffPoly, Grade, enumerate_basis
from thetacalc.cohomology import (
    bockstein_split,
    decompose_h2,
    evolutionary_field,
    theta_monomial,
    theta_quotient_basis,
)
from thetacalc.errors import (
    JacobiViolation,
    MissingComponent,
    NonstandardLeadingTerm,
    ObstructionNonzeroBockstein,
)
from thetacalc.normalizer import (
    build_normal_form,
    invariants_fast,
    normalize,
    verify_distinctness,
)
from thetacalc.rationals import QQ
from thetacalc.schouten import (
    BracketSeries,
    jacobi_check,
    miura_apply,
    pst,
    standard_leading_term,
)
from thetacalc.variational import Functional

u = DiffPoly.u
th = DiffPoly.theta
half = DiffPoly.rational(1, 2)


def pb_example(order=7):
    return BracketSeries(order, {1: standard_leading_term(), 3: pst(3, 0) + pst(2, 1)})


def random_generator(rng, degree, max_weight=3, terms=1):
    out = DiffPoly.zero()
    for _ in range(terms):
        w = rng.randint(1, max_weight)
        basis = enumerate_basis(Grade(degree, 0, w))
        c = QQ(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice([1, -1])
        out = out + rng.choice(basis).as_poly().scale(c)
    return evolutionary_field(out)


# -- build_normal_form -------------------------------------------------------


def test_normal_form_trivial():
    P = build_normal_form([], 3)
    assert P.degrees() == [1]
    assert P.component(1) == standard_leading_term()


def test_normal_form_is_poisson_for_random_constants():
    rng = random.Random(1)
    cs = [QQ(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
    assert jacobi_check(build_normal_form(cs, 7)) == "ok"


def test_normal_form_alternating_matches_the_example_tail():
    # geometric tail with alternating signs through degree 7
    P = build_normal_form([QQ(1), QQ(-1), QQ(1)], 7)
    assert P.component(3) == pst(3, 0)
    assert P.component(5) == pst(5, 0).scale(-1)
    assert P.component(7) == pst(7, 0)


# -- normalize ----------------------------------------------------------------


def test_normalize_example_bracket():
    res = normalize(pb_example())
    assert res.invariant_values() == [QQ(1), QQ(-1), QQ(1)]
    assert res.normalized == build_normal_form([1, -1, 1], 7)


def test_normalize_replay_reproduces_output():
    P = pb_example()
    res = normalize(P)
    assert res.replay(P) == res.normalized


def test_normalize_example_generator_pattern():
    # the deterministic solver picks the alternating-coefficient even
    # translates: the degree-2s generator is (-1)^(s+1)/(2s) u^(2s,0) th
    res = normalize(pb_example())
    by_degree = {d: g for d, g in enumerate(res.generators, start=1)}
    for s, coeff in [(1, QQ(1, 2)), (2, QQ(-1, 4)), (3, QQ(1, 6))]:
        want = evolutionary_field(u(2 * s, 0).scale(coeff))
        assert by_degree[2 * s].density == want.density
    for d in (1, 3, 5, 7):
        assert by_degree[d].density.is_zero()


def test_normalize_already_normal():
    P = build_normal_form([QQ(5), QQ(-7)], 5)
    res = normalize(P)
    assert res.invariant_values() == [QQ(5), QQ(-7)]
    assert all(g.density.is_zero() for g in res.generators)


def test_normalize_requires_standard_leading_term():
    P = BracketSeries(3, {1: Functional(half * th(0, 0) * th(1, 0))})
    with pytest.raises(NonstandardLeadingTerm):
        normalize(P)


def test_normalize_rejects_non_poisson():
    bad = BracketSeries(
        2, {1: standard_leading_term(), 3: Functional(half * u() * th(0, 0) * th(3, 0))}
    )
    with pytest.raises(JacobiViolation) as exc:
        normalize(bad)
    assert exc.value.order == 4


def test_normalize_reports_obstruction():
    chi = theta_monomial((2, 1, 0))
    P = BracketSeries(
        3,
        {1: standard_leading_term(), 3: Functional(bockstein_split(chi))},
    )
    assert jacobi_check(P) == "ok"  # the self-bracket lives above the horizon
    with pytest.raises(ObstructionNonzeroBockstein) as exc:
        normalize(P)
    assert exc.value.degree == 3
    assert exc.value.chi == chi


def test_normalize_roundtrip_small():
    rng = random.Random(11)
    for _ in range(2):
        cs = [QQ(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
        P = build_normal_form(cs, 5)
        for d in (1, 2):
            P = miura_apply(random_generator(rng, d, max_weight=2), P, 5)
        res = normalize(P)
        assert res.invariant_values() == cs
        assert res.replay(P) == res.normalized


def test_normalize_example_extended_order():
    # the closed form of the example continues with alternating signs
    P = BracketSeries(9, {1: standard_leading_term(), 3: pst(3, 0) + pst(2, 1)})
    res = normalize(P)
    assert res.invariant_values() == [QQ(1), QQ(-1), QQ(1), QQ(-1)]


def test_obstruction_resolves_at_higher_order():
    # at low order the split class is reported as an obstruction; once
    # the horizon reaches its self-bracket the input fails Jacobi, which
    # settles the ambiguity the obstruction error leaves open
    chi = theta_monomial((2, 1, 0))
    comp = Functional(bockstein_split(chi))
    low = BracketSeries(3, {1: standard_leading_term(), 3: comp})
    assert jacobi_check(low) == "ok"
    with pytest.raises(ObstructionNonzeroBockstein):
        normalize(low)
    high = BracketSeries(4, {1: standard_leading_term(), 3: comp})
    assert jacobi_check(high) == 6
    with pytest.raises(JacobiViolation):
        normalize(high)


def test_normalize_degree_locality():
    # after the run, each component of the output decomposes with zero
    # coboundary part
    res = normalize(pb_example())
    for d in range(2, 9):
        dec = decompose_h2(res.normalized.component(d), d)
        assert dec.X.density.is_zero()
        assert dec.chi.is_zero()


# -- fast invariants ----------------------------------------------------------


def test_fast_on_example():
    assert invariants_fast(pb_example()) == (QQ(1), QQ(-1))


def test_fast_reads_normal_form():
    assert invariants_fast(build_normal_form([QQ(5), QQ(-7)], 5)) == (QQ(5), QQ(-7))


def test_fast_agrees_with_normalize_on_conjugate():
    rng = random.Random(3)
    cs = [QQ(2), QQ(-1, 2)]
    P = build_normal_form(cs, 5)
    for d in (1, 2):
        P = miura_apply(random_generator(rng, d, max_weight=2), P, 5)
    res = normalize(P)
    assert invariants_fast(P) == tuple(res.invariant_values())


def test_fast_cancels_field_dependence_exactly():
    # conjugating by a field-dependent second-derivative characteristic
    # makes both coefficient reads depend on u; the invariant combination
    # collapses to a constant
    from thetacalc.deltaform import theta_to_delta

    X = evolutionary_field(u() * u(2, 0))
    cs = [QQ(3), QQ(-1, 2)]
    P = miura_apply(X, build_normal_form(cs, 7), 7)
    D = theta_to_delta(BracketSeries(7, {d: f for d, f in P.components.items() if d in (3, 5)}))
    assert D.coefficient(2, 2, 1) == DiffPoly.rational(-2) * u()
    assert D.coefficient(4, 5, 0) == DiffPoly.rational(-6) * u() - half
    assert invariants_fast(P) == (QQ(3), QQ(-1, 2))
    assert normalize(P).invariant_values() == [QQ(3), QQ(-1, 2), QQ(0)]


def test_fast_agrees_on_gradient_conjugate():
    F = DiffPoly.rational(1, 3) * u() * u() - u()
    X1 = evolutionary_field(F * u(1, 0))
    cs = [QQ(2), QQ(0), QQ(1, 2)]
    P = miura_apply(X1, build_normal_form(cs, 7), 7)
    assert invariants_fast(P) == (QQ(2), QQ(0))
    assert normalize(P).invariant_values() == cs


def test_fast_needs_degree_five():
    with pytest.raises(MissingComponent):
        invariants_fast(build_normal_form([QQ(1)], 3))


def test_fast_requires_standard_leading_term():
    P = BracketSeries(5, {1: Functional(half * th(0, 0) * th(1, 0))})
    with pytest.raises(NonstandardLeadingTerm):
        invariants_fast(P)


def test_fast_rejects_field_dependent_top_coefficient():
    from thetacalc.errors import NonconstantInvariant

    P = BracketSeries(
        5,
        {1: standard_leading_term(), 3: Functional(half * u() * th(0, 0) * th(3, 0))},
    )
    with pytest.raises(NonconstantInvariant):
        invariants_fast(P)


def test_fast_rejects_field_dependent_combination():
    from thetacalc.errors import NonconstantInvariant

    P = BracketSeries(
        5,
        {
            1: standard_leading_term(),
            3: pst(3, 0),
            5: Functional(half * u() * th(0, 0) * th(5, 0)),
        },
    )
    with pytest.raises(NonconstantInvariant):
        invariants_fast(P)


# -- distinctness -------------------------------------------------------------


def test_distinct_constants_not_equivalent():
    assert verify_distinctness([QQ(1)], [QQ(2)], 3) is False


def test_equal_constants_equivalent():
    assert verify_distinctness([QQ(1)], [QQ(1)], 3) is True
    assert verify_distinctness([], [], 2) is True


def test_distinct_in_second_slot():
    assert verify_distinctness([QQ(1), QQ(0)], [QQ(1), QQ(1)], 5) is False


def test_difference_beyond_order_is_invisible():
    assert verify_distinctness([QQ(1), QQ(2)], [QQ(1), QQ(3)], 2) is True


def test_decompose_h2_coboundary_finds_witness():
    target = pst(2, 1)
    dec = decompose_h2(target, 3)
    assert dec.c == 0 and dec.chi.is_zero()
    from thetacalc.schouten import schouten

    assert schouten(standard_leading_term(), dec.X) == target


def test_decompose_h2_reports_class():
    def has_class(P):
        dec = decompose_h2(P, 3)
        return dec.c != 0 or not dec.chi.is_zero()

    assert has_class(pst(3, 0))
    split = Functional(bockstein_split(theta_monomial((2, 1, 0))))
    assert has_class(split)
    assert has_class(split + pst(2, 1))


def test_normal_form_builds_only_class_slices(monkeypatch):
    # the components of a normal form lie in x-order d, y-order 0, so
    # normalizing one builds the class slices and no generator column
    from thetacalc import cohomology

    built = []
    solve_slice = cohomology.solve_slice

    def recording(d, w, a, rows):
        built.append((d, w, a))
        return solve_slice(d, w, a, rows)

    def no_generator_column(m, table):
        raise AssertionError("a generator column was built")

    monkeypatch.setattr(cohomology, "solve_slice", recording)
    monkeypatch.setattr(cohomology, "_ad_p1_column", no_generator_column)
    res = normalize(build_normal_form([QQ(5), QQ(-7), QQ(1, 3)], 7))
    assert res.invariant_values() == [QQ(5), QQ(-7), QQ(1, 3)]
    assert built == [(3, 0, 3), (5, 0, 5), (7, 0, 7)]


def _recipe_conjugate(order):
    """The criterion-7 recipe: (cs, P) with P a Miura conjugate of the
    normal form with invariants cs by three random generators."""
    rng = random.Random(20240)
    cs = [QQ(rng.randint(-6, 6), rng.randint(1, 4)) or QQ(1) for _ in range(order // 2)]
    P = build_normal_form(cs, order)
    for degree in (1, 2, 3):
        P = miura_apply(random_generator(rng, degree), P, order)
    return cs, P


def test_second_normalize_derives_no_theta_tuple():
    # the order-9 recipe conjugate normalized twice: the second run meets
    # only theta tuples that total_derivative has derived already
    from thetacalc.algebra import _THETA_RULES

    _, P = _recipe_conjugate(9)
    normalize(P, 9)
    seen = set(_THETA_RULES)
    normalize(P, 9)
    assert set(_THETA_RULES) == seen


@pytest.mark.parametrize(
    "order, md5",
    [
        (9, "629139992260156f1257240cf0a3519f"),
        (10, "67e0abeb3c67d3cf8f51b4be26df5ab7"),
        (11, "1950aa78fb4c55bdbc0146ed5cb1a50b"),
    ],
)
def test_larger_conjugate_generators_are_pinned(order, md5):
    # the criterion-7 recipe at orders 9, 10 and 11, whose largest slices
    # have 162, 133 and 269 columns: the invariants come back exactly and
    # the generators are pinned (CI also runs order 12)
    import hashlib

    from thetacalc.printer import format_poly

    cs, P = _recipe_conjugate(order)
    res = normalize(P, order)
    assert res.invariant_values() == cs
    text = "".join(format_poly(g.density) + "\n" for g in res.generators)
    assert hashlib.md5(text.encode()).hexdigest() == md5


def test_pushed_components_carry_their_own_variations(monkeypatch):
    # the criterion-7 recipe at order 7: after each push, a component that
    # carries a variation carries var_theta or var_u of its own density,
    # and the components whose terms were all bracketed on carry them;
    # no scaled generator X/n computes a variation, it takes X's
    from thetacalc import variational
    from thetacalc.variational import var_theta, var_u

    derived = []
    for name in ("var_theta", "var_u"):
        op = getattr(variational, name)

        def recording(f, op=op):
            derived.append(getattr(f, "density", f))  # a Functional passes itself
            return op(f)

        monkeypatch.setattr(variational, name, recording)
    rng = random.Random(20240)
    order = 7
    cs = [QQ(rng.randint(-6, 6), rng.randint(1, 4)) or QQ(1) for _ in range(order // 2)]
    P = build_normal_form(cs, order)
    carried = {"theta": 0, "u": 0}
    for degree in (1, 2, 3):
        X = random_generator(rng, degree)
        derived.clear()
        P = miura_apply(X, P, order)
        scaled = [X.density.scale(QQ(1, n)) for n in range(2, order + 1)]
        assert not any(f == g for f in derived for g in scaled)
        assert X._theta is not None and X._u is not None
        for F in P.components.values():
            if F._theta is not None:
                assert F._theta == var_theta(F.density)
                carried["theta"] += 1
            if F._u is not None:
                assert F._u == var_u(F.density)
                carried["u"] += 1
    assert min(carried.values()) > 0, carried


def test_example_push_keeps_the_variations_of_its_terms(monkeypatch):
    # the worked example at order 51, as the CLI normalizes it: the push
    # brackets and multiplies as often as the rescaled-copy push did, but
    # its terms keep their variations, so var_theta runs 542 times, not
    # 675, and each X/n takes var_u from X.  Every component is u-free
    # and every generator linear, so both Euler operators take their
    # closed forms and no total derivative is taken (650 before them)
    import importlib
    import sys
    from pathlib import Path

    from thetacalc.parser import parse

    # a fresh p1, as in a new process: the shared one keeps its variations
    monkeypatch.setattr(importlib.import_module("thetacalc.schouten"), "_P1", pst(0, 1))
    calls = ("var_theta", "var_u", "schouten", "mul", "total_derivative")
    counts = dict.fromkeys(calls, 0)
    modules = ("variational", "variational", "schouten", "algebra", "algebra")
    for module, name in zip(modules, calls):
        op = getattr(importlib.import_module(f"thetacalc.{module}"), name)

        def counted(*args, op=op, name=name):
            counts[name] += 1
            return op(*args)

        # every module that imported the function holds the same object
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("thetacalc.") and getattr(mod, name, None) is op:
                monkeypatch.setattr(mod, name, counted)
    text = (Path(__file__).parent / "data" / "example_eg.pb").read_text(encoding="utf-8")
    normalize(parse(text).to_series().truncate(51))
    assert counts == {"var_theta": 542, "var_u": 25, "schouten": 766, "mul": 998, "total_derivative": 0}


def test_stamped_grades_are_the_densitys_own(monkeypatch):
    # every super degree, standard degree and u-freeness that a bracket
    # stamps or a linear operation passes on, checked on every Functional
    # built by normalize (the order-7 recipe conjugate and the order-51
    # worked example in both encodings), by seeded self-test brackets and
    # by F+G, F-G, F-F, -F and F.scale(0) on seeded operands
    from pathlib import Path

    from thetacalc.algebra import random_element
    from thetacalc.parser import parse
    from thetacalc.schouten import schouten
    from thetacalc.variational import _UNSET

    built = []
    init = Functional.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(Functional, "__init__", recording)
    rng = random.Random(20240)
    cs = [QQ(rng.randint(-6, 6), rng.randint(1, 4)) or QQ(1) for _ in range(3)]
    P = build_normal_form(cs, 7)
    for degree in (1, 2, 3):
        P = miura_apply(random_generator(rng, degree), P, 7)
    assert normalize(P, 7).invariant_values() == cs
    for name in ("example_eg.pb", "example_eg_theta.pb"):
        text = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
        normalize(parse(text).to_series().truncate(51))
    rng = random.Random(7)
    for _ in range(150):
        F, G = Functional(random_element(rng)), Functional(random_element(rng))
        for H in rng.sample((F, G), rng.randint(0, 2)):
            H.standard_degree()  # a bracket stamps a degree only when both are cached
        if rng.random() < 0.5:
            F.is_u_free(), G.is_u_free()
        B = schouten(F, G)
        schouten(B, F)
        for H in (F + G, F - G, F - F, -F, F.scale(0), B + B.scale(QQ(-1, 2))):
            if H.density.is_zero():
                assert H.super_degree() == H.standard_degree() == 0
    counts = {"_super": 0, "_degree": 0, "_free": 0}
    for F in built:
        for slot, own in (("_super", "super_degree"), ("_degree", "standard_degree"), ("_free", "is_u_free")):
            if getattr(F, slot) not in (_UNSET, None):
                assert getattr(F, slot) == getattr(F.density, own)(), (slot, F)
                counts[slot] += 1
    assert min(counts.values()) > 1000, counts


# -- the checks on the failure path ------------------------------------------


def _oracle_input(rng):
    """A Miura conjugate at order 3-5; a third are perturbed by one random
    bivector monomial at a random degree, a third get a split class at
    degree 3 or 5."""
    order = rng.randint(3, 5)
    cs = [QQ(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(order // 2)]
    P = build_normal_form(cs, order)
    for degree in (1, 2):
        P = miura_apply(random_generator(rng, degree, max_weight=2), P, order)
    kind = rng.choice(("conjugate", "perturbed", "split"))
    coeff = QQ(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice([1, -1])
    if kind == "perturbed":
        d = rng.randint(2, order + 1)
        basis = enumerate_basis(Grade(d, 2, rng.randint(0, 2)))
        extra = rng.choice(basis).as_poly().scale(coeff)
    elif kind == "split":
        d = rng.choice([k for k in (3, 5) if k <= order + 1])
        extra = bockstein_split(rng.choice(theta_quotient_basis(3, d))).scale(coeff)
    else:
        return P
    return P + BracketSeries(order, {d: Functional(extra)})


def _outcome(fn, P):
    """Invariants and generator strings, or the error's type, text and degree."""
    from thetacalc.errors import ThetaCalcError
    from thetacalc.printer import format_poly

    try:
        res = fn(P)
    except ThetaCalcError as exc:
        degree = getattr(exc, "order", getattr(exc, "degree", None))
        return type(exc).__name__, str(exc), degree
    return "ok", res.invariants, [format_poly(g.density) for g in res.generators]


def test_normalize_agrees_with_the_checks_first_reference():
    # the parent's order: jacobi_check before the loop, the cocycle test
    # before each decomposition
    from reference_normalize import reference_normalize

    rng = random.Random(2020)
    kinds = {}
    for _ in range(120):
        P = _oracle_input(rng)
        got = _outcome(normalize, P)
        assert got == _outcome(reference_normalize, P)
        kinds[got[0]] = kinds.get(got[0], 0) + 1
    assert set(kinds) == {"ok", "JacobiViolation", "ObstructionNonzeroBockstein"}
    assert min(kinds.values()) >= 10, kinds


def _count_checks(monkeypatch):
    """Count jacobi_check runs and cocycle tests [p1, P_d] of normalize."""
    from thetacalc import cohomology, normalizer

    counts = {"jacobi": 0, "cocycle": 0}
    bracket_of = cohomology.schouten

    def jacobi(P):
        counts["jacobi"] += 1
        return jacobi_check(P)

    def bracket(P, Q):
        # the round trip brackets p1 with a vector field, the cocycle
        # test with the bivector component
        if Q.super_degree() == 2:
            counts["cocycle"] += 1
        return bracket_of(P, Q)

    monkeypatch.setattr(normalizer, "jacobi_check", jacobi)
    monkeypatch.setattr(cohomology, "schouten", bracket)
    return counts


def test_success_path_runs_no_jacobi_or_cocycle_check(monkeypatch):
    counts = _count_checks(monkeypatch)
    rng = random.Random(11)
    cs = [QQ(2), QQ(-1, 3)]
    P = build_normal_form(cs, 5)
    for d in (1, 2, 3):
        P = miura_apply(random_generator(rng, d, max_weight=2), P, 5)
    assert normalize(P).invariant_values() == cs
    assert counts == {"jacobi": 0, "cocycle": 0}


def test_failure_path_runs_each_check_at_most_once(monkeypatch):
    from pathlib import Path

    from thetacalc.parser import parse

    text = (Path(__file__).parent / "data" / "nonpoisson.pb").read_text(encoding="utf-8")
    counts = _count_checks(monkeypatch)
    with pytest.raises(JacobiViolation) as exc:
        normalize(parse(text).to_series())
    assert exc.value.order == 4
    assert counts["jacobi"] == 1 and counts["cocycle"] <= 1
