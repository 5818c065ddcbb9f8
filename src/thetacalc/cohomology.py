"""Cohomology machinery: the odd differential, the constant-theta ring,
quotient bases, the splitting map, and the second-cohomology solver.

Conventions.  delta is the odd derivation sum th^(s,t+1) d/du^(s,t); on
functionals it agrees with the adjoint action of the standard leading
bivector (asserted in the suite).  The splitting map B sends a
constant-coefficient polynomial in the x-derivative thetas to a density
linear in u, commutes with dx, and satisfies delta o B = dy.  Both are
sums over the partial derivatives of algebra._partials; of the
derivations, only the hot column builder _ad_p1_column builds monomial
keys itself.

The solver decompose_h2 writes an adjoint-closed bivector component as

    constant * p_d  +  B(chi)  +  ad_p1(X)

with the constant present only in odd degree.  Unknown vector fields are
parameterized in evolutionary form g * th with g a plain differential
polynomial: every class of super degree one has such a representative,
which keeps the linear systems small.  Equality of functionals of
positive super degree is equivalent to the vanishing of the theta
variational derivative (see variational), so each weight block reduces
to sparse rational solves, one per x-order slice.

The coefficient matrix of a (degree, weight) block depends only on the
block, and it splits further by x-order.  delta raises the y-order by
exactly one and keeps the x-order, and var_theta keeps both, so the
generator column of a monomial of x-order a (and y-order d-1-a) lies
in the rows of x-order a and y-order d-a >= 1.  The c column and the
split-class columns are built from thetas th^(k,0) alone and lie in
x-order d, y-order 0, which no generator column reaches.  So a block
is the direct sum of its slices a = 0..d, which share no row, and the
slice of x-order d holds the class columns only.  Elimination never
mixes slices (every row operation stays among the rows holding one
column), so slice by slice gives the pivots and solutions of the
whole block.

solve_slice(d, w, a, rows) builds the columns of one slice and solves
the slice's rows over them with linsolve.solve, which eliminates a few
sparse rows per column and checks the rest exactly.  It takes the
generator keys of the slice alone (algebra._u_keys builds the monomials
of x-order a directly, without enumerating the block), and nothing is
kept.  decompose_h2 is the one loop that solves through it: it groups
the odd-order coordinates of var_theta(P_d) by (weight, x-order) and
solves only the slices they reach.  On two order-6
conjugates they reach 21 of the 78 generator slices (178 of 494
generator columns).  The normalizer and verify_distinctness both split
their components with decompose_h2; no lemma verifier solves.  A slice
lives only while it is solved, so memory is bounded by the largest
slice.  A process that normalizes many inputs eliminates a slice again
for each input that reaches it; a process-wide cache of factorized
slices was measured and dropped, because slices rarely repeat (6 of 30
lookups on two order-6 conjugates, all of them slices of at most 12
columns, and 0 of 50 on the order-51 worked example) while the cache
raised the peak memory of an order-12 conjugate from about 230 MB to
410 MB.

A block is built and solved on its odd-order coordinates only.  Each
column and right-hand side is var_theta of a super-degree-2 density; its
terms carry one theta factor th^(s,t) each, and a term is odd-order when
s+t is odd.  var_theta of a bivector density is a skew operator
S = sum s_b D^b applied to theta, and the D^b coefficient of
S + S^dagger = 0 reads

    (1 + (-1)^|b|) s_b + sum over c > b of (-1)^|c| C(c,b) D^(c-b) s_c = 0,

so for |b| even s_b follows from higher orders, and by downward
induction S is zero when its odd-order coefficients are.  Dropping the
even-order rows therefore keeps every column dependency, the feasibility
of each right-hand side and the pivot set, hence the solutions, with
about half the rows.

The generator columns are expanded directly by Leibniz (_ad_p1_column),
generating only odd-order terms and walking their mixed derivatives
through one variational._DerivativeTable per slice, which derives each
monomial once per axis and is dropped with the slice.  The split-class
columns, the c column and the bockstein and nontriv verifiers run the
Euler operators of variational directly; verify_varder_lemma reads one
closed-form coefficient per target instead.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Optional

from .algebra import DiffPoly, _partials, _u_keys, mul
from .errors import InternalInconsistency, NotACocycle
from .linsolve import solve
from .rationals import QQ
from .schouten import pst, schouten, standard_leading_term
from .variational import Functional, _DerivativeTable, var_theta, var_u


def _sum_of_products(pairs) -> DiffPoly:
    """sum of mul(DiffPoly({key: 1}), part) over the (key, part) pairs.

    The products are added into one dict, in order, so every coefficient
    comes out as a chain of additions would leave it.
    """
    acc = {}
    for key, part in pairs:
        for k, c in mul(DiffPoly({key: 1}), part).terms.items():
            prev = acc.get(k)
            if prev is None:
                acc[k] = c
            else:
                c = prev + c
                if c == 0:
                    del acc[k]
                else:
                    acc[k] = c
    return DiffPoly(acc)


def delta(a: DiffPoly) -> DiffPoly:
    """The odd derivation sum th^(s,t+1) d/du^(s,t).

    Each partial is multiplied by a unit theta with the int coefficient
    1, so every coefficient keeps its type.
    """
    return _sum_of_products(
        ((0, (), ((s, t + 1),)), part)
        for s, by_t in _partials(a.terms, "u").items()
        for t, part in by_t.items()
    )


def bockstein_split(t: DiffPoly) -> DiffPoly:
    """The map sum u^(i,0) d/dth^(i,0) (left derivatives).

    Defined on the constant-theta ring; commutes with dx and satisfies
    delta(bockstein_split(t)) = dy(t).  The unit u-factors have the int
    coefficient 1, so every coefficient keeps its type.
    """
    return _sum_of_products(
        ((1, (), ()) if s == 0 else (0, (((s, 0), 1),), ()), by_t[0])
        for s, by_t in _partials(t.terms, "theta").items()
        if 0 in by_t
    )


# -- the constant-theta ring --------------------------------------------


def theta_monomial(indices) -> DiffPoly:
    """Monomial th^(k1,0) ... th^(kp,0) from strictly descending k's,
    with the int coefficient 1."""
    ks = tuple(indices)
    if any(ks[i] <= ks[i + 1] for i in range(len(ks) - 1)):
        raise ValueError("indices must be strictly descending")
    return DiffPoly({(0, (), tuple((k, 0) for k in ks)): 1})


def _descending_tuples(count, deg, cap):
    """Strictly descending integer tuples >= 0 with the given sum.

    cap bounds the head; the head may not go below the minimal degree
    the remaining strictly smaller entries need.
    """
    if count == 0:
        if deg == 0:
            yield ()
        return
    tail_min = ((count - 1) * (count - 2)) // 2
    for k in range(min(deg - tail_min, cap), -1, -1):
        if k * count < deg:
            break
        for rest in _descending_tuples(count - 1, deg - k, k - 1):
            yield (k,) + rest


def theta_quotient_basis(p: int, d: int) -> list:
    """Canonical representatives of the dx-quotient at super degree p.

    For p >= 2 these are the monomials whose two leading indices are
    adjacent: th^(i+1) th^(i) th^(i3) ... with the tail strictly
    descending below i; for p = 1 only the underived theta survives, in
    degree zero.
    """
    if p == 0:
        return [DiffPoly.one()] if d == 0 else []
    if p == 1:
        return [theta_monomial((0,))] if d == 0 else []
    out = []
    for i2 in range((d - 1) // 2, -1, -1):
        rest_deg = d - 1 - 2 * i2
        if rest_deg < 0:
            continue
        for tail in _descending_tuples(p - 2, rest_deg, i2 - 1):
            out.append(theta_monomial((i2 + 1, i2) + tail))
    out.sort(key=lambda m: next(iter(m.terms)), reverse=True)
    return out


# -- evolutionary vector fields and the coboundary columns ---------------


def evolutionary_field(g: DiffPoly) -> Functional:
    """The vector field with characteristic g, as the functional of g*th."""
    return Functional(mul(g, DiffPoly.theta(0, 0)))


def _ad_p1_column(m: DiffPoly, table: _DerivativeTable) -> DiffPoly:
    """Odd-order coordinates of var_theta(delta(m*th)), the column of ad_p1
    on the evolutionary field m*th, for a theta-free m.

    delta(m*th) = sum over alpha = (s, T) of a_alpha th^alpha th with
    a_alpha = dm/du^(s,T-1), so its theta-derivative is
    sum (-D_x)^s (-D_y)^T (a_alpha th) - a_alpha th^alpha.  Leibniz
    expands the first part into C(s,i) C(T,j) D_x^i D_y^j(a_alpha)
    th^(s-i,T-j), and only the terms with (s-i)+(T-j) odd are generated;
    the i = j = 0 term meets -a_alpha th^alpha, and when s+T is odd the
    two add to -2 a_alpha th^alpha (when it is even, both are dropped).
    The mixed derivatives of each monomial of a_alpha are walked, not
    kept: D_x once per i, then from the first j of the right parity up
    in steps of D_y^2, each a table.step.  The coefficient type of m is
    kept: an int m gives an int column.
    """
    step = table.step
    acc = {}
    for s, by_t in _partials(m.terms, "u").items():
        for t, a in by_t.items():
            T = t + 1
            sign = -1 if (s + T) & 1 else 1
            for key, c in a.terms.items():
                # a constant has no derivatives: only its i = j = 0 term is left
                imax, jmax = (0, 0) if key == (0, (), ()) else (s, T)
                dx = ((key, 1),)  # D_x^i of the unit monomial key
                for i in range(imax + 1):
                    if i:
                        dx = step(dx, "x")
                    bi = sign * comb(s, i)
                    cur = dx  # D_x^i D_y^j of it
                    # (s - i) + (T - j) odd
                    for j in range((s - i + T + 1) & 1, jmax + 1, 2):
                        if j:
                            cur = step(cur, "yy" if j > 1 else "y")
                        mult = bi * comb(T, j) if i or j else -2
                        th = ((s - i, T - j),)
                        v = c * mult
                        for (upow, ufs, _), n in cur:
                            k = (upow, ufs, th)
                            val = v * n
                            prev = acc.get(k)
                            if prev is None:
                                acc[k] = val
                            else:
                                val = prev + val
                                if val == 0:
                                    del acc[k]
                                else:
                                    acc[k] = val
    return DiffPoly(acc)


def _odd_part(a: DiffPoly) -> DiffPoly:
    """The terms of a var_theta output whose one theta th^(s,t) has s+t odd."""
    return DiffPoly({k: c for k, c in a.terms.items() if sum(k[2][0]) & 1})


def _x_order(key) -> int:
    """The number of x-derivatives of a monomial, theta factors included."""
    _, ufs, ths = key
    return sum(s * e for (s, _), e in ufs) + sum(s for s, _ in ths)


def _slices(theta_part: DiffPoly) -> dict:
    """The odd-order terms of a bivector's var_theta, by (weight, x-order)."""
    out = {}
    for key, c in theta_part.terms.items():
        upow, ufs, ths = key
        if sum(ths[0]) & 1:
            w = upow + sum(e for _, e in ufs)
            out.setdefault((w, _x_order(key)), {})[key] = c
    return {wa: DiffPoly(terms) for wa, terms in out.items()}


class BlockSolution(NamedTuple):
    """One slice of P_d = c*p_d + B(chi) + ad_p1(X)."""

    x: DiffPoly  # generator density g of the evolutionary field g*th
    c: Optional[object]  # coefficient of p_d; None when the slice has no c column
    chi: DiffPoly  # split class part, in the quotient basis


def _split_class_columns(d: int):
    """The keys of theta_quotient_basis(3, d) and their split-class columns.

    Unit monomials with int coefficients keep the columns integral.
    """
    quot = theta_quotient_basis(3, d)
    keys = [next(iter(q.terms)) for q in quot]
    return keys, [_odd_part(var_theta(bockstein_split(q))) for q in quot]


def solve_slice(d: int, w: int, a: int, rows: DiffPoly) -> Optional[BlockSolution]:
    """Split the odd-order coordinates rows of var_theta(P_d) over slice a
    of the (d, w) block, or None.

    Rows are the odd-order coordinates of x-order a and y-order d-a (see
    the module docstring).  For a < d the columns are the ad_p1 images
    of the generators of Grade(d-1, 0, w+1) with x-order a; slice d
    holds the class columns only: the c column (w = 0, d odd) and the
    split-class columns (w = 1).  The columns are built, solved with rows
    as right-hand side by linsolve.solve, and dropped.  None also when a
    row lies outside the slice.  Raises ValueError when rows is not a
    theta derivative of a bivector (super degree one), say the bivector
    density itself.
    """
    if rows.super_degree() != 1:
        raise ValueError("solve_slice expects var_theta coordinates")
    x_keys = _u_keys(a, d - 1 - a, w + 1)
    # unit monomials with int coefficients keep the generator columns
    # integral; their mixed derivatives share one derivative table,
    # dropped with the columns
    table = _DerivativeTable()
    columns = [_ad_p1_column(DiffPoly({k: 1}), table) for k in x_keys]
    has_c = w == 0 and a == d and d % 2 == 1
    if has_c:
        columns.append(_odd_part(var_theta(pst(d, 0).density)))
    chi_keys = []
    if w == 1 and a == d:
        chi_keys, chi_columns = _split_class_columns(d)
        columns += chi_columns
    sol = solve(columns, rows)
    if sol is None:
        return None
    x = DiffPoly({k: v for k, v in zip(x_keys, sol) if v != 0})
    c = sol[len(x_keys)] if has_c else None
    chi_coeffs = sol[len(sol) - len(chi_keys) :]
    chi = DiffPoly({k: v for k, v in zip(chi_keys, chi_coeffs) if v != 0})
    return BlockSolution(x, c, chi)


class H2Decomposition(NamedTuple):
    """Exact decomposition of an adjoint-closed bivector component."""

    degree: int
    c: Optional[object]  # rational, present only in odd degree
    chi: DiffPoly  # reduced class representative at super degree 3
    X: Functional  # super-degree-one generator with the coboundary part

    def parts(self):
        out = []
        if self.c is not None and self.c != 0:
            out.append(pst(self.degree, 0).scale(self.c))
        if not self.chi.is_zero():
            out.append(Functional(bockstein_split(self.chi)))
        return out


def decompose_h2(P_d: Functional, d: int) -> H2Decomposition:
    """Solve  P_d = c*p_d [d odd] + B(chi) + ad_p1(X)  exactly.

    The odd-order coordinates of var_theta(P_d) split by weight and
    x-order, and each slice is solved on its own (see the module
    docstring): the constant and the split classes in slice d, the
    generators of weight w+1 and x-order a in slice a < d of weight w.
    Only the slices that P_d reaches are built, each solved with its
    rows as right-hand side.  Raises NotACocycle when
    the input is not closed and InternalInconsistency when a slice is
    infeasible or the round trip fails (which the cohomology computation
    excludes for genuine cocycles).

    The cocycle condition [p1, P_d] = 0 is tested only when the
    decomposition fails, because a passing round trip proves it: then
    P_d is congruent to ad_p1(X) + c*p_d + B(chi), and
      [p1, ad_p1(X)] = 1/2 [[p1, p1], X] = 0 by the graded Jacobi
        identity, as p1 is Poisson;
      [p1, p_d] = 0, as both are u-free;
      [p1, B(chi)] is congruent to dy(chi), hence zero, as delta o B = dy
        and delta is ad_p1 on functionals.
    So a non-cocycle always fails to decompose, and every input gets the
    error that testing the cocycle condition first would give.
    """
    if not P_d.density.is_zero() and P_d.super_degree() != 2:
        raise ValueError("decompose_h2 expects a bivector component")
    c = QQ(0) if d % 2 == 1 else None
    chi = DiffPoly.zero()
    x_terms = {}
    try:
        for (w, a), rows in _slices(P_d.theta_variation()).items():
            part = solve_slice(d, w, a, rows)
            if part is None:
                raise InternalInconsistency(
                    f"no decomposition at degree {d}, weight {w}, x-order {a}"
                )
            if part.c is not None:
                c = part.c
            chi = chi + part.chi
            x_terms.update(part.x.terms)

        X = evolutionary_field(DiffPoly(x_terms))
        result = H2Decomposition(d, c, chi, X)
        _assert_roundtrip(P_d, result)
    except InternalInconsistency:
        if not schouten(standard_leading_term(), P_d).is_zero():
            raise NotACocycle(d) from None
        raise
    return result


def _assert_roundtrip(P_d: Functional, res: H2Decomposition) -> None:
    """Check ad_p1(X) + the class parts == P_d in the quotient.

    Both sides have super degree two, where var_theta alone decides
    equality and is linear (see variational), so the sum is compared
    with P_d's cached var_theta.
    """
    total = schouten(standard_leading_term(), res.X)
    for part in res.parts():
        total = total + part
    if var_theta(total.density) != P_d.theta_variation():
        raise InternalInconsistency(
            f"decomposition round-trip failed at degree {res.degree}"
        )


# -- certificates for the structural lemmas ------------------------------


def _dx_tuples(ks) -> list:
    """The monomials of dx(th^(k0,0) th^(k1,0) ...), k0 > k1 > ..., as
    index tuples; each has coefficient +1.

    dx is an even derivation: it raises one index by one and never
    reorders, and a raised index that meets its left neighbour gives
    zero.
    """
    return [
        ks[:i] + (ks[i] + 1,) + ks[i + 1 :]
        for i in range(len(ks))
        if i == 0 or ks[i] + 1 < ks[i - 1]
    ]


def _outer_split_is_triangular(k: int) -> bool:
    """The leading-monomial certificate of verify_square_lemma's split.

    Over the index tuples k0 > k1 > k2 > k3 >= 0 of the four-theta
    monomials of degree 2k-1: True when the leads (lexicographically
    largest monomials) of the upper images (k0 + k3 >= k) are distinct
    and none is a monomial of a lower image (k0 + k3 <= k-1).
    """
    leads = set()
    seen = set()
    upper = 0
    for ks in _descending_tuples(4, 2 * k - 1, 2 * k - 1):
        image = _dx_tuples(ks)
        if ks[0] + ks[3] >= k:
            upper += 1
            leads.add(max(image))
        else:
            seen.update(image)
    return len(leads) == upper and leads.isdisjoint(seen)


def _chains_are_infeasible(k: int) -> bool:
    """The dual certificate of verify_square_lemma's chain systems: per
    leading index t, phi_t(e_i) = (-1)^i on the block tuples
    e_i = (i, t, k-t, k-i) vanishes on the block part of every chain
    image and is nonzero on every isolated product tuple."""
    for t in range(k // 2 + 1, k):
        phi = {(i, t, k - t, k - i): (-1) ** i for i in range(t + 1, k + 1)}
        for l in range(t + 1, k):
            if sum(phi.get(m, 0) for m in _dx_tuples((l, t, k - t, k - l - 1))):
                return False
        for s in range(t + 1, k + 1):
            if not phi.get(tuple(sorted((s, k - s, t, k - t), reverse=True))):
                return False
    return True


def verify_square_lemma(k: int) -> bool:
    """Check that no square of a degree-k two-theta element is dx-exact.

    An element a = sum a_i th^i th^(k-i) has square supported on the
    span of products of pairs of its monomials; the square is dx-exact
    when it lies in the image of dx on the four-theta polynomials of
    degree 2k-1.  Split that preimage space by the outer index sum
    k0 + k3 of its monomials th^(k0) th^(k1) th^(k2) th^(k3),
    k0 > k1 > k2 > k3: the upper half (sum >= k) cannot reach the span
    of the monomials seen by the lower half's images.  The proof is a
    triangular certificate (_outer_split_is_triangular).  dx raises one
    index by one with coefficient +1 and never reorders, so the image of
    an upper monomial has the k0-raised tuple as its lexicographically
    largest monomial, its lead, with coefficient +1 and outer sum at
    least k+1, while every monomial of a lower image has outer sum at
    most k.  The certificate takes each lead as the largest monomial of
    its image and checks that the leads are distinct and unseen.  In a
    nonzero combination of upper images take the largest lead among the
    images with a nonzero coefficient: every other image of the
    combination lives below its own, smaller, lead, so that lead keeps
    its nonzero coefficient, and it is not seen.  So no nonzero
    combination of upper images lies on the seen monomials; a failed
    certificate means the check cannot decide.

    Per candidate leading pair (s, t), the only preimage monomials that
    touch the block with middle pair (t, k-t) form a two-banded chain
    whose image never produces the isolated product monomial.
    Infeasibility of every chain system rules out squares with two or
    more nonzero coefficients, and a dual certificate per leading index t
    proves it (_chains_are_infeasible).  On the block monomials
    e_i = (i, t, k-t, k-i), i = t+1..k, the dx image of the chain
    monomial (l, t, k-t, k-l-1), t < l < k, is e_l + e_(l+1) (raising a
    middle index leaves the block), and the product of the pairs s > t
    is +-e_s.  phi_t(e_i) = (-1)^i kills every chain column and is +-1
    on every e_s, so by the Fredholm alternative no chain system is
    feasible.  A failed certificate, in either part, means the check
    cannot decide and raises InternalInconsistency.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not _outer_split_is_triangular(k):
        raise InternalInconsistency(
            f"outer-sum split leaks at k={k}; the check cannot decide"
        )
    if not _chains_are_infeasible(k):
        raise InternalInconsistency(
            f"chain certificate fails at k={k}; the check cannot decide"
        )
    return True


def _varder_witness(d: int, i: int) -> tuple:
    """(key, lhs, rhs) for the target g = th^(d-i,0) th^(i,0), 0 <= i <
    d-i: a witness key, its coefficient in var_theta(th * g) and its
    coefficient in 3g, in closed form (see verify_varder_lemma)."""
    if i == 0:
        return (0, (), ((d, 0), (0, 0))), 0, 3
    sign = -1 if (d - i) & 1 else 1
    if d & 1:
        return (0, (), ((d, 0), (0, 0))), 2 * sign, 0
    if i == 1:
        return (0, (), ((d - 1, 0), (1, 0))), 4 - d, 3
    return (0, (), ((d - 1, 0), (1, 0))), sign * (d - 2 * i), 0


def verify_varder_lemma(d: int) -> bool:
    """No three-theta element has a single pair monomial as its
    theta variational derivative.

    For a target g = th^(a,0) th^(b,0), a = d-i > b = i >= 0, some f in
    the span of the standard monomials th^(i1,0) th^(i2,0) th^(i3,0),
    i1 > i2 > i3 >= 0, of degree d has var_theta(f) = g exactly when
    var_theta(th * g) = 3g.  If var_theta(f) = g, the theta Euler
    identity (see variational) gives 3f congruent to th * g modulo
    divergences, and var_theta, which kills divergences, gives
    var_theta(th * g) = 3g.  Conversely, for i >= 1 the product th * g =
    th^(a,0) th^(b,0) th is a standard monomial of degree d (moving th
    past two odd factors gives no sign), so f = th * g / 3 lies in the
    span and var_theta(f) = g.

    One coefficient of each side decides, so no Euler operator runs
    (_varder_witness).  Write th^k for th^(k,0) and D for D_x.  For
    i = 0, th * g = 0 and var_theta of it is zero, while g itself has
    coefficient 3 in 3g.  For i >= 1 the left partials of th^a th^b th^0
    are th^b th^0, -th^a th^0 and th^a th^b, so

        var_theta(th * g) = (-D)^a (th^b th^0) - (-D)^b (th^a th^0) + th^a th^b,

    and D^n (th^p th^q) = sum over k of C(n,k) th^(p+k) th^(q+n-k), each
    term put in canonical order with a sign (th^m th^m = 0).

    - d odd: a and b differ in parity.  th^d th^0 comes only from the
      k = n terms of the two binomial sums (th^(b+k) = th^0 would need
      b = 0), so its coefficient is (-1)^a - (-1)^b = 2 (-1)^a, while 3g
      has none (b >= 1).
    - d even, so d >= 4, and a, b share their parity: th^(d-1) th^1
      gets (-1)^a a from k = a-1 of the first sum, -(-1)^b b from
      k = b-1 of the second (a+k = 1 is impossible, as a >= 3), and for
      b = 1 also -(-1)^a from k = 0 of the first sum, reordered, and +1
      from th^a th^b.  For i >= 2 that is (-1)^a (d-2i), nonzero as
      i < d-i, against 0 in 3g; for i = 1 (a = d-1 odd) it is 4-d,
      against 3.

    So var_theta(th * g) != 3g for every target: the lemma holds at every
    d >= 1.  The suite checks the witness coefficients against var_theta.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return all(
        lhs != rhs
        for _, lhs, rhs in (_varder_witness(d, i) for i in range((d - 1) // 2 + 1))
    )


def _leads_distinct(columns) -> bool:
    """True when the columns are nonzero and their leads (largest keys)
    are pairwise distinct.  This proves them independent: in a nonzero
    combination, the largest lead among the columns used is a key of no
    other column used, so it keeps its coefficient."""
    if any(col.is_zero() for col in columns):
        return False
    return len({max(col.terms) for col in columns}) == len(columns)


def verify_bockstein_injective(d: int) -> bool:
    """The split classes stay independent modulo adjoint coboundaries.

    Decides the independence of the split-class columns, the columns of
    slice d of the (d, 1) block.  They lie in x-order d and y-order 0,
    every coboundary column in y-order at least one (see the module
    docstring), so the two share no row: a combination of split columns
    equal to a coboundary is zero on both sides.  Independence modulo the
    coboundaries is therefore independence of the split columns alone.
    A zero column gives False, distinct leads (_leads_distinct) True,
    and two equal leads raise InternalInconsistency: cannot decide.
    """
    _, columns = _split_class_columns(d)
    if any(col.is_zero() for col in columns):
        return False
    if not _leads_distinct(columns):
        raise InternalInconsistency(
            f"split-class columns share a lead at d={d}; the check cannot decide"
        )
    return True


def verify_nontriv_lemma(d: int) -> bool:
    """Nonzero reduced classes have self-bracket obstructions.

    For every nonzero chi in the span of the quotient basis q_1..q_n at
    super degree three, the self-bracket of its split image B(chi) must
    be nonzero.  With chi = sum a_i q_i and delta_ij the Kronecker delta,

        [B(chi), B(chi)] = sum_{i <= j} (2 - delta_ij) a_i a_j [B(q_i), B(q_j)],

    so each coordinate of its var_u is a quadratic form in a.  var_u
    decides here: B(q) is linear in u, and a bracket multiplies var_theta
    of one operand (linear in u) by var_u of the other (u-free), so every
    pair bracket has u-weight one, where var_u is injective on the
    quotient (w f is congruent to u * var_u(f); see variational).  A
    combination of pair brackets is therefore zero as a functional
    exactly when the same combination of their var_u columns is zero:
    the columns have the linear dependencies, hence the zero columns,
    of the brackets themselves.  The var_theta columns (injective at
    super degree three) would give the same, but var_u is cheaper: each
    bracket term has one u-factor u^(a,0) but three theta factors.  When
    the n(n+1)/2 pair columns (the var_u coordinates of the
    [B(q_i), B(q_j)], i <= j) are linearly independent, the coordinate
    forms span every quadratic form in a; each a_i^2 is then a
    combination of them, and a common zero forces a = 0.  This holds over any field containing QQ, so no test for real
    roots is needed.

    A zero diagonal column makes q_i itself a counterexample: False.
    Otherwise distinct leads (_leads_distinct) prove the columns
    independent and give True; a zero off-diagonal column or two equal
    leads raise InternalInconsistency, because the certificate cannot
    decide the lemma then.
    """
    quot = theta_quotient_basis(3, d)
    if not quot:
        return True
    # int unit monomials keep the brackets and the Euler operators on ints;
    # each split image computes its variations once, for all its brackets
    splits = [Functional(bockstein_split(q)) for q in quot]
    cols = []
    for i, Bi in enumerate(splits):
        for Bj in splits[i:]:
            col = var_u(schouten(Bi, Bj))
            if Bi is Bj and col.is_zero():
                return False
            cols.append(col)
    if not _leads_distinct(cols):
        raise InternalInconsistency(
            f"self-bracket columns share a lead at d={d}; the check cannot decide"
        )
    return True
