"""Acceptance suite.

Each test prints one PASS/FAIL line.  Everything is exact rational
arithmetic: the tolerances are zero.  Run with `pytest -s` to see the
lines and timings.
"""

import random
import time

from thetacalc.algebra import Grade, enumerate_basis, mul, random_element
from thetacalc.cohomology import (
    bockstein_split,
    delta,
    evolutionary_field,
    theta_basis,
    theta_quotient_basis,
    verify_nontriv_lemma,
    verify_square_lemma,
    verify_varder_lemma,
)
from thetacalc.linsolve import Factorization
from thetacalc.normalizer import (
    build_normal_form,
    invariants_fast,
    normalize,
    verify_distinctness,
)
from thetacalc.rationals import QQ
from thetacalc.schouten import (
    BracketSeries,
    miura_apply,
    pst,
    schouten,
    standard_leading_term,
)
from thetacalc.variational import Functional, is_total_divergence, var_theta, var_u


def _report(name, ok, t0):
    line = f"[{'PASS' if ok else 'FAIL'}] {name} ({time.time() - t0:.2f}s)"
    print(line)
    assert ok, line


def pb_example(order=7):
    return BracketSeries(order, {1: standard_leading_term(), 3: pst(3, 0) + pst(2, 1)})


def test_criterion_1_example_reproduction():
    t0 = time.time()
    res = normalize(pb_example(), 7)
    ok = res.invariant_values() == [QQ(1), QQ(-1), QQ(1)]
    ok = ok and res.normalized == build_normal_form([1, -1, 1], 7)
    _report("1 example reproduction: c = (1, -1, 1) at order 7", ok, t0)


def test_criterion_2_fast_path_consistency():
    t0 = time.time()
    got = invariants_fast(pb_example())
    ok = got == (QQ(1), QQ(-1))
    elapsed = time.time() - t0
    _report(f"2 fast-path invariants (1, -1), runtime {elapsed:.3f}s < 1s", ok and elapsed < 1.0, t0)


def test_criterion_3_compatibility_suite():
    t0 = time.time()
    ok = True
    for n in range(0, 6):
        for m in range(0, 6):
            P, Q = pst(2 * n + 1, 0), pst(2 * m + 1, 0)
            # evaluate the defining formula directly, independent of any
            # shortcut inside the bracket implementation
            density = mul(var_theta(P.density), var_u(Q.density)) + mul(
                var_u(P.density), var_theta(Q.density)
            )
            ok = ok and is_total_divergence(density)
            ok = ok and schouten(P, Q).is_zero()
    _report("3 compatibility: all odd translate pairs commute (n,m <= 5)", ok, t0)


def test_criterion_4_cohomology_identities():
    t0 = time.time()
    ok = True
    for d in range(0, 11):
        for p in range(0, 6):
            for t in theta_basis(p, d):
                bt = bockstein_split(t)
                ok = ok and delta(delta(bt)).is_zero()
                ok = ok and delta(bt) == t.dy()
                ok = ok and bockstein_split(t.dx()) == bt.dx()
    _report("4 identities: delta^2 = 0, delta o B = dy, B o dx = dx o B (deg <= 10)", ok, t0)


def test_criterion_5_basis_dimensions():
    t0 = time.time()
    ok = True
    for k in range(2, 9):
        d = 2 * k - 1
        want = (k - 2) // 3 + 1
        got = len(theta_quotient_basis(3, d))
        rank = len(Factorization([b.dx() for b in theta_basis(3, d - 1)]).pivot_columns)
        ok = ok and got == want == len(theta_basis(3, d)) - rank
    for k in range(3, 9):
        d = 2 * k
        want = (k - 3) // 3 + 1
        got = len(theta_quotient_basis(3, d))
        rank = len(Factorization([b.dx() for b in theta_basis(3, d - 1)]).pivot_columns)
        ok = ok and got == want == len(theta_basis(3, d)) - rank
    _report("5 quotient dimensions match the closed form and rank-nullity", ok, t0)


def test_criterion_6_lemma_suite():
    t0 = time.time()
    ok = all(verify_square_lemma(k) for k in range(1, 9))
    ok = ok and all(verify_varder_lemma(d) for d in range(1, 11))
    ok = ok and all(verify_nontriv_lemma(d) for d in range(1, 10))
    _report("6 structural lemmas: squares (k <= 8), gradients (d <= 10), self-brackets (d <= 9)", ok, t0)


def test_criterion_7_roundtrip_recovery():
    t0 = time.time()
    rng = random.Random(20240)
    ok = True
    for trial in range(20):
        cs = [QQ(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        P = build_normal_form(cs, 7)
        for degree in (1, 2, 3):
            w = rng.randint(1, 3)
            basis = enumerate_basis(Grade(degree, 0, w))
            coeff = QQ(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice([1, -1])
            X = evolutionary_field(rng.choice(basis).as_poly().scale(coeff))
            P = miura_apply(X, P, 7)
        res = normalize(P, 7)
        good = res.invariant_values() == cs and res.replay(P) == res.normalized
        if not good:
            print(f"  trial {trial}: expected {cs}, got {res.invariant_values()}")
        ok = ok and good
    _report("7 round-trip: 20 random conjugates recover their constants exactly", ok, t0)


def test_criterion_8_distinctness():
    t0 = time.time()
    ok = verify_distinctness([QQ(1)], [QQ(2)], 3) is False
    ok = ok and verify_distinctness([QQ(1)], [QQ(1)], 3) is True
    _report("8 distinctness: c=(1) vs (2) infeasible at order 3", ok, t0)


def test_criterion_9_bracket_laws():
    t0 = time.time()
    rng = random.Random(7777)
    ok = True
    for _ in range(50):
        P, Q, R = (Functional(random_element(rng)) for _ in range(3))
        p, q, r = P.super_degree(), Q.super_degree(), R.super_degree()
        sym = schouten(P, Q) == schouten(Q, P).scale((-1) ** (p * q))
        t1 = schouten(schouten(P, Q), R).scale((-1) ** (p * r))
        t2 = schouten(schouten(Q, R), P).scale((-1) ** (q * p))
        t3 = schouten(schouten(R, P), Q).scale((-1) ** (r * q))
        jac = (t1 + t2 + t3).is_zero()
        ok = ok and sym and jac
    _report("9 bracket laws: graded symmetry and Jacobi on 50 random triples", ok, t0)
