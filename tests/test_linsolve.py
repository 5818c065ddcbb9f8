import random

from hypothesis import given, settings, strategies as st
from reference_elimination import reference_solve

from thetacalc import rationals
from thetacalc.algebra import DiffPoly, _u_keys, mul
from thetacalc.cohomology import (
    _ad_p1_column,
    bockstein_split,
    decompose_h2,
    evolutionary_field,
    solve_slice,
    theta_monomial,
)
from thetacalc.linsolve import SparseSystem, solve
from thetacalc.rationals import QQ, lift
from thetacalc.schouten import pst, schouten, standard_leading_term
from thetacalc.variational import Functional, _DerivativeTable

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
    assert solve(cols, rhs) == reference_solve(cols, rhs)


def _check_lift(terms, L, ints):
    assert ints.keys() == terms.keys()
    assert all(type(v) is int and v == c * L for v, c in zip(ints.values(), terms.values()))


def test_lift_on_int_rational_mixed_and_empty_dicts():
    # an all-int dict, the empty one included, comes back as it is, L = 1
    for terms in ({KEYS[0]: 3, KEYS[1]: -2}, {}):
        L, ints = lift(terms)
        assert L == 1 and ints is terms
    # all-rational, denominator 1 included, and mixed (an int counts as 1)
    for terms, want in (
        ({KEYS[0]: QQ(1, 2), KEYS[1]: QQ(-2, 3), KEYS[2]: QQ(5)}, 6),
        ({KEYS[0]: QQ(4), KEYS[1]: QQ(-1)}, 1),
        ({KEYS[0]: 4, KEYS[1]: QQ(3, 4), KEYS[2]: QQ(-5, 6)}, 12),
    ):
        L, ints = lift(terms)
        assert L == want
        _check_lift(terms, L, ints)


class _Mpz(int):
    """An integer whose products stay of its own type, as gmpy2's mpz."""

    def __mul__(self, other):
        return _Mpz(int(self) * int(other))

    def __rfloordiv__(self, other):
        return _Mpz(int(other) // int(self))


class _Mpq:
    """A rational whose ratio is a pair of _Mpz, as gmpy2's mpq."""

    def __init__(self, p, q):
        self.p, self.q = p, q

    def as_integer_ratio(self):
        return _Mpz(self.p), _Mpz(self.q)


def test_lift_hands_back_ints_from_a_non_int_ratio(monkeypatch):
    # the gmpy2 backend: numerators and denominators are mpz, the lift ints
    monkeypatch.setattr(rationals, "_MPZ", True)
    L, ints = lift({KEYS[0]: _Mpq(1, 2), KEYS[1]: _Mpq(-2, 3), KEYS[2]: 5})
    assert L == 6 and ints == {KEYS[0]: 3, KEYS[1]: -4, KEYS[2]: 30}
    assert all(type(v) is int for v in ints.values())


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(KEYS), st.one_of(coeff, st.integers(-6, 6).filter(bool))))
def test_lift_scales_by_the_denominator_lcm(terms):
    # L clears every denominator, and no smaller multiplier does
    L, ints = lift(terms)
    clears = [m for m in range(1, L + 1) if all((c * m).denominator == 1 for c in terms.values())]
    assert clears == [L]
    _check_lift(terms, L, ints)


def _recording_eliminations(monkeypatch):
    """A list that receives a copy of the rows of every elimination."""
    eliminated = []
    eliminate = SparseSystem._eliminate

    def recording(self, ncols, rows, rhs):
        eliminated.append([dict(r) for r in rows])
        return eliminate(self, ncols, rows, rhs)

    monkeypatch.setattr(SparseSystem, "_eliminate", recording)
    return eliminated


def test_an_infeasible_first_round_refuses_after_one_elimination(monkeypatch):
    eliminated = _recording_eliminations(monkeypatch)
    k0, k1, k2, k3 = KEYS[:4]
    # each column holds two rows; the key no column reaches is in the
    # first round, whose rows then disagree
    cols = [DiffPoly({k0: 1, k1: 2}), DiffPoly({k2: 3, k3: 1})]
    rhs = cols[0] + cols[1].scale(QQ(2)) + DiffPoly({FOREIGN: 1})
    assert reference_solve(cols, rhs) is None
    assert solve(cols, rhs) is None
    assert len(eliminated) == 1 and {} in eliminated[0]

    # the first round takes rows k0 and k1, equal on the columns but not
    # on the right-hand side; row k2 is left out
    eliminated.clear()
    cols = [DiffPoly({k0: 1, k1: 1, k2: 1}), DiffPoly({k0: 1, k1: 1, k2: 1})]
    rhs = DiffPoly({k0: 1, k1: 2})
    assert reference_solve(cols, rhs) is None
    assert solve(cols, rhs) is None
    assert len(eliminated) == 1 and len(eliminated[0]) == 2


def test_row_subsets_agree_with_the_reference_on_every_generator_slice(monkeypatch):
    # a generator slice is solved on a few sparse rows per column and
    # checked on the rows left out; the answer must be that of
    # eliminating every row
    eliminated = _recording_eliminations(monkeypatch)  # of one solve
    rng = random.Random(23)
    second_round, refused = set(), set()
    for d in range(1, 9):
        for w in range(4):
            for a in range(d):
                keys = _u_keys(a, d - 1 - a, w + 1)
                if not keys:
                    continue
                table = _DerivativeTable()
                cols = [_ad_p1_column(DiffPoly({k: 1}), table) for k in keys]
                rhs = DiffPoly.zero()
                for col in cols:
                    rhs = rhs + col.scale(QQ(rng.choice((-3, -2, -1, 1, 2, 3))))
                if rhs.is_zero():
                    continue  # every column is zero: the slice has no row
                eliminated.clear()
                part = solve_slice(d, w, a, rhs)
                want = reference_solve(cols, rhs)
                assert part.x == DiffPoly({k: v for k, v in zip(keys, want) if v}), (d, w, a)
                if len(eliminated) > 1:
                    second_round.add((d, w, a))
                # one more unit on a row that the first elimination left out
                row_of = {}
                for j, col in enumerate(cols):
                    for key, v in col.terms.items():
                        row_of.setdefault(key, {})[j] = v
                left_out = [key for key, row in row_of.items() if row not in eliminated[0]]
                for key in left_out:
                    bad = rhs + DiffPoly({key: QQ(1)})
                    if reference_solve(cols, bad) is None:
                        assert solve_slice(d, w, a, bad) is None, (d, w, a, key)
                        refused.add((d, w, a))
                        break
                else:
                    assert not left_out, (d, w, a)
    # one row per column reaches rank 20 of 21 and 36 of 37 there
    assert second_round == {(7, 3, 2), (8, 3, 3)}
    assert len(refused) == 95  # every slice with more rows than columns


def _all_qq(values):
    return all(isinstance(v, QQ) for v in values)


def test_solutions_are_rationals():
    # int columns and int rhs coefficients must not leak ints or floats
    cols = [DiffPoly({KEYS[0]: 2, KEYS[1]: 4}), DiffPoly({KEYS[1]: 3}), DiffPoly({KEYS[2]: 1})]
    rhs = DiffPoly({KEYS[0]: 1, KEYS[1]: 5})
    sol = solve(cols, rhs)
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
