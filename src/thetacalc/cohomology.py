"""Cohomology machinery: the odd differential, the constant-theta ring,
quotient bases, the splitting map, and the second-cohomology solver.

Conventions.  delta is the odd derivation sum th^(s,t+1) d/du^(s,t); on
functionals it agrees with the adjoint action of the standard leading
bivector (asserted in the suite).  The splitting map B sends a
constant-coefficient polynomial in the x-derivative thetas to a density
linear in u, commutes with dx, and satisfies delta o B = dy.

The solver decompose_h2 writes an adjoint-closed bivector component as

    constant * p_d  +  B(chi)  +  ad_p1(X)

with the constant present only in odd degree.  Unknown vector fields are
parameterized in evolutionary form g * th with g a plain differential
polynomial: every class of super degree one has such a representative,
which keeps the linear systems small.  Equality of super degree <= 2
functionals is equivalent to the vanishing of the theta variational
derivative, so each weight block reduces to one sparse rational solve.

The coefficient matrix of a (degree, weight) block depends only on the
block.  block_operator builds and eliminates it once and memoizes it for
the life of the process.  decompose_h2 is the one loop that solves
through it, replaying the recorded elimination on each weight block's
right-hand side; the normalizer and verify_distinctness both split their
components with decompose_h2, and verify_bockstein_injective reads the
pivots of the weight-one block.  Memory is bounded by the blocks touched
(about 0.8 MB for two order-6 conjugates).

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
generating only odd-order terms.  They, the split-class columns and the
columns of verify_varder_lemma are built through one
variational._DerivativeTable, so each monomial is derived once per axis;
verify_nontriv_lemma runs the variations of its brackets through one
table per degree.  A table is local to its batch and dropped with it.
There is no table across blocks: one that grows with the process costs
more memory than it saves time (see variational).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple, Optional

from .algebra import (
    DiffPoly,
    Grade,
    _accumulate,
    _partials,
    _theta_insert,
    _ufactor_lower,
    _ufactors_mul,
    enumerate_basis,
    mul,
)
from .errors import InternalInconsistency, NotACocycle
from .linsolve import Factorization
from .rationals import QQ
from .schouten import _bracket, _variations, pst, schouten, standard_leading_term
from .variational import Functional, _DerivativeTable, _euler_operator, var_theta


def delta(a: DiffPoly) -> DiffPoly:
    """The odd derivation sum th^(s,t+1) d/du^(s,t)."""
    acc = {}
    for (upow, ufs, ths), c in a.terms.items():
        if upow:
            res = _theta_insert((0, 1), ths)
            if res is not None:
                sign, nths = res
                _accumulate(acc, (upow - 1, ufs, nths), sign * c * upow)
        for i, ((s, t), e) in enumerate(ufs):
            res = _theta_insert((s, t + 1), ths)
            if res is not None:
                sign, nths = res
                key = (upow, _ufactor_lower(ufs, i), nths)
                _accumulate(acc, key, sign * c * e)
    return DiffPoly(acc)


def bockstein_split(t: DiffPoly) -> DiffPoly:
    """The map sum u^(i,0) d/dth^(i,0) (left derivatives).

    Defined on the constant-theta ring; commutes with dx and satisfies
    delta(bockstein_split(t)) = dy(t).
    """
    acc = {}
    for (upow, ufs, ths), c in t.terms.items():
        for j, (s, tt) in enumerate(ths):
            if tt != 0:
                continue
            sign = -1 if j & 1 else 1
            nths = ths[:j] + ths[j + 1 :]
            if s == 0:
                key = (upow + 1, ufs, nths)
            else:
                key = (upow, _ufactors_mul(ufs, (((s, 0), 1),)), nths)
            _accumulate(acc, key, sign * c)
    return DiffPoly(acc)


# -- the constant-theta ring --------------------------------------------


def is_theta_poly(a: DiffPoly) -> bool:
    """True when a lives in the ring generated by th^(k,0) alone."""
    for upow, ufs, ths in a.terms:
        if upow or ufs or any(t != 0 for _, t in ths):
            return False
    return True


def theta_monomial(indices) -> DiffPoly:
    """Monomial th^(k1,0) ... th^(kp,0) from strictly descending k's."""
    ks = tuple(indices)
    if any(ks[i] <= ks[i + 1] for i in range(len(ks) - 1)):
        raise ValueError("indices must be strictly descending")
    return DiffPoly({(0, (), tuple((k, 0) for k in ks)): QQ(1)})


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


def theta_basis(p: int, d: int) -> list:
    """Standard monomials th^(i1,0)...th^(ip,0), i1 > ... > ip >= 0."""
    out = [theta_monomial(ks) for ks in _descending_tuples(p, d, d)]
    out.sort(key=lambda m: next(iter(m.terms)), reverse=True)
    return out


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


def _theta_key(key):
    """Lexicographic sort key of a constant-theta monomial."""
    return tuple(s for s, _ in key[2])


def reduce_mod_dx(t: DiffPoly) -> DiffPoly:
    """Canonical representative modulo the image of dx.

    Standard monomials whose leading index exceeds the second by at
    least two (or any derived theta at super degree one) are tops of
    dx-images; they are eliminated by a descending lexicographic sweep,
    leaving a combination of quotient-basis monomials.
    """
    if not is_theta_poly(t):
        raise ValueError("reduce_mod_dx expects a constant-theta element")
    cur = dict(t.terms)

    def top_preimage(ths):
        ks = tuple(s for s, _ in ths)
        if len(ks) == 1:
            if ks[0] >= 1:
                return (ks[0] - 1,)
        elif len(ks) >= 2 and ks[0] >= ks[1] + 2:
            return (ks[0] - 1,) + ks[1:]
        return None

    while True:
        best = None
        for key in cur:
            pre = top_preimage(key[2])
            if pre is None:
                continue
            lex = _theta_key(key)
            if best is None or lex > best[0]:
                best = (lex, key, pre)
        if best is None:
            return DiffPoly(cur)
        _, key, pre = best
        coeff = cur[key]
        image = theta_monomial(pre).dx()
        for k2, c2 in image.terms.items():
            _accumulate(cur, k2, -coeff * c2)


# -- evolutionary vector fields and the coboundary columns ---------------


def evolutionary_field(g: DiffPoly) -> Functional:
    """The vector field with characteristic g, as the functional of g*th."""
    return Functional(mul(g, DiffPoly.theta(0, 0)))


def _ad_p1_column(m: DiffPoly, table=None) -> DiffPoly:
    """Odd-order coordinates of var_theta(delta(m*th)), the column of ad_p1
    on the evolutionary field m*th, for a theta-free m.

    delta(m*th) = sum over alpha = (s, T) of a_alpha th^alpha th with
    a_alpha = dm/du^(s,T-1), so its theta-derivative is
    sum (-D_x)^s (-D_y)^T (a_alpha th) - a_alpha th^alpha.  Leibniz
    expands the first part into C(s,i) C(T,j) D_x^i D_y^j(a_alpha)
    th^(s-i,T-j), and only the terms with (s-i)+(T-j) odd are generated;
    the i = j = 0 term meets -a_alpha th^alpha, and when s+T is odd the
    two add to -2 a_alpha th^alpha (when it is even, both are dropped).
    The mixed derivatives of the monomials of a_alpha come from
    table.power (a fresh _DerivativeTable when None).  The coefficient
    type of m is kept: an int m gives an int column.
    """
    if table is None:
        table = _DerivativeTable()
    power = table.power
    acc = {}
    for s, by_t in _partials(m.terms, "u").items():
        for t, a in by_t.items():
            T = t + 1
            sign = -1 if (s + T) & 1 else 1
            for key, c in a.terms.items():
                # a constant has no derivatives: only its i = j = 0 term is left
                imax, jmax = (0, 0) if key == (0, (), ()) else (s, T)
                for i in range(imax + 1):
                    bi = sign * comb(s, i)
                    # (s - i) + (T - j) odd
                    for j in range((s - i + T + 1) & 1, jmax + 1, 2):
                        mult = bi * comb(T, j) if i or j else -2
                        th = ((s - i, T - j),)
                        v = c * mult
                        for (upow, ufs, _), n in power(key, i, j):
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


class BlockSolution(NamedTuple):
    """One weight block of P_d = c*p_d + B(chi) + ad_p1(X)."""

    x: DiffPoly  # generator density g of the evolutionary field g*th
    c: Optional[object]  # coefficient of p_d; None when the block has no c column
    chi: DiffPoly  # split class part, in the quotient basis


class BlockOperator:
    """The coefficient matrix of the (d, w) block, factorized once.

    Columns are the ad_p1 images of the generator basis Grade(d-1, 0, w+1)
    first, then the c column (w = 0, d odd), then the split-class columns
    (w = 1).  X-first ordering keeps the generator pivots those of the
    generator columns alone, so a right-hand side in their span solves
    with c = 0 and chi = 0; for genuine cocycles the class columns are
    independent of the generators and the split is the unique one.
    Rows are the odd-order coordinates only (see the module docstring).
    The columns live only while the block is factorized.
    """

    __slots__ = ("_x_keys", "_c_index", "_chi_keys", "_system")

    def __init__(self, d: int, w: int):
        self._x_keys = tuple(m.key for m in enumerate_basis(Grade(d - 1, 0, w + 1)))
        quot = theta_quotient_basis(3, d) if w == 1 else []
        self._chi_keys = tuple(next(iter(q.terms)) for q in quot)
        # unit monomials with int coefficients keep the generator and
        # split-class columns integral; the generators' mixed derivatives
        # and the split-class sweeps share one derivative table, dropped
        # with the columns
        table = _DerivativeTable()
        columns = [_ad_p1_column(DiffPoly({k: 1}), table) for k in self._x_keys]
        self._c_index = None
        if w == 0 and d % 2 == 1:
            self._c_index = len(columns)
            columns.append(_odd_part(var_theta(pst(d, 0).density)))
        columns += [
            _odd_part(_euler_operator(bockstein_split(DiffPoly({k: 1})), "theta", table))
            for k in self._chi_keys
        ]
        self._system = Factorization(columns)

    @property
    def splits_independent(self) -> bool:
        """Whether the split-class columns stay independent modulo the generators."""
        return self._system.independent_from(self._system.ncols - len(self._chi_keys))

    def solve(self, density: DiffPoly) -> Optional[BlockSolution]:
        """Split the weight-w bivector block density, or None.

        The system is read on the odd-order coordinates of
        var_theta(density); a bivector density gives a skew operator, so
        they decide it (see the module docstring).  Raises ValueError
        when the density does not have super degree two.
        """
        if not density.is_zero() and density.super_degree() != 2:
            raise ValueError("BlockOperator.solve expects a bivector block density")
        sol = self._system.solve(_odd_part(var_theta(density)))
        if sol is None:
            return None
        x = DiffPoly({k: v for k, v in zip(self._x_keys, sol) if v != 0})
        c = None if self._c_index is None else sol[self._c_index]
        chi_coeffs = sol[len(sol) - len(self._chi_keys) :]
        chi = DiffPoly({k: v for k, v in zip(self._chi_keys, chi_coeffs) if v != 0})
        return BlockSolution(x, c, chi)


@lru_cache(maxsize=None)
def block_operator(d: int, w: int) -> BlockOperator:
    """The (d, w) block operator, built once per process."""
    return BlockOperator(d, w)


@dataclass
class H2Decomposition:
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

    Weight blocks are independent: the constant sits at weight zero, the
    split classes at weight one, and the generator unknown for weight w
    at weight w+1.  Raises NotACocycle when the input is not closed and
    InternalInconsistency when a block is infeasible (which the
    cohomology computation excludes for genuine cocycles).
    """
    p1 = standard_leading_term()
    if not P_d.density.is_zero() and P_d.super_degree() != 2:
        raise ValueError("decompose_h2 expects a bivector component")
    if not schouten(p1, P_d).is_zero():
        raise NotACocycle(d)

    c = QQ(0) if d % 2 == 1 else None
    chi = DiffPoly.zero()
    x_density = DiffPoly.zero()
    for w, block in P_d.density.weight_components().items():
        part = block_operator(d, w).solve(block)
        if part is None:
            raise InternalInconsistency(
                f"no decomposition at degree {d}, weight {w}"
            )
        if part.c is not None:
            c = part.c
        chi = chi + part.chi
        x_density = x_density + part.x

    X = evolutionary_field(x_density)
    result = H2Decomposition(d, c, chi, X)
    _assert_roundtrip(P_d, result)
    return result


def _assert_roundtrip(P_d: Functional, res: H2Decomposition) -> None:
    total = schouten(standard_leading_term(), res.X)
    for part in res.parts():
        total = total + part
    if not total == P_d:
        raise InternalInconsistency(
            f"decomposition round-trip failed at degree {res.degree}"
        )


# -- brute-force verifiers for the structural lemmas ---------------------


def _restrict(poly: DiffPoly, keys) -> DiffPoly:
    return DiffPoly({k: c for k, c in poly.terms.items() if k in keys})


def verify_square_lemma(k: int) -> bool:
    """Check that no square of a degree-k two-theta element is dx-exact.

    An element a = sum a_i th^i th^(k-i) has square supported on the
    span of products of pairs of its monomials.  Two exact passes:

    1. When that span meets the image of dx only in zero, any exact
       square is already zero.  The products are distinct monomials, so
       this holds exactly when they are independent modulo the dx
       images.

    2. Otherwise split the preimage space by the outer index sum: the
       half with sum >= k cannot reach the span of monomials seen by
       the other half, and per candidate leading pair (s, t) the only
       preimage monomials that touch the block with middle pair
       (t, k-t) form a two-banded chain whose image never produces the
       isolated product monomial.  Infeasibility of every chain system
       rules out squares with two or more nonzero coefficients.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    support = list(range(k // 2 + 1, k + 1))  # i > k - i >= 0
    if len(support) < 2:
        return True
    pair = {i: theta_monomial((i, k - i)) for i in support}
    prods = []
    for a in range(len(support)):
        for b in range(a + 1, len(support)):
            prod = mul(pair[support[b]], pair[support[a]])
            if not prod.is_zero():
                prods.append(prod)
    if not prods:
        return True
    basis = theta_basis(4, 2 * k - 1)
    dx_cols = [b.dx() for b in basis]
    if Factorization(dx_cols + prods).independent_from(len(dx_cols)):
        return True

    # pass 2: blockwise chain analysis, on the preimages and images of pass 1
    seen = set()
    upper_images = []
    for b, image in zip(basis, dx_cols):
        ks = _theta_key(next(iter(b.terms)))
        if ks[0] + ks[3] <= k - 1:
            seen.update(image.terms)
        else:
            upper_images.append(image)
    if upper_images and seen:
        # the unit monomials are independent, so they stay independent
        # modulo the upper images exactly when no nonzero combination of
        # upper images lives on the seen monomials alone
        units = [DiffPoly({key: QQ(1)}) for key in sorted(seen)]
        if not Factorization(upper_images + units).independent_from(len(upper_images)):
            raise InternalInconsistency(
                f"outer-sum split leaks at k={k}; the check cannot decide"
            )
    for b in range(len(support)):
        for a in range(b):
            t, s = support[a], support[b]
            target = mul(pair[s], pair[t])
            if target.is_zero():
                continue
            block_keys = {
                next(iter(theta_monomial((i, t, k - t, k - i)).terms))
                for i in range(t + 1, k + 1)
            }
            chain = []
            for l in range(t + 1, k):
                idx = (l, t, k - t, k - l - 1)
                if len(set(idx)) < 4:
                    continue
                mono = theta_monomial(tuple(sorted(idx, reverse=True)))
                chain.append(_restrict(mono.dx(), block_keys))
            rhs = _restrict(target, block_keys)
            if Factorization(chain).solve(rhs) is not None:
                raise InternalInconsistency(
                    f"chain system feasible at k={k}, pair ({s},{t}); "
                    "the check cannot decide"
                )
    return True


def verify_varder_lemma(d: int) -> bool:
    """No three-theta element has a single pair monomial as its
    theta variational derivative."""
    if d < 1:
        raise ValueError("d must be >= 1")
    table = _DerivativeTable()
    cols = [_euler_operator(b, "theta", table) for b in theta_basis(3, d)]
    if not cols:
        return True
    system = Factorization(cols)
    for i in range(0, (d - 1) // 2 + 1):
        if system.solve(theta_monomial((d - i, i))) is not None:
            return False
    return True


def verify_bockstein_injective(d: int) -> bool:
    """The split classes stay independent modulo adjoint coboundaries."""
    return block_operator(d, 1).splits_independent


def _poly_gcd(a, b):
    """gcd of univariate rational coefficient lists (ascending)."""

    def strip(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = strip(list(a)), strip(list(b))
    while b:
        # a mod b
        while len(a) >= len(b) and a:
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, coeff in enumerate(b):
                a[i + shift] -= f * coeff
            strip(a)
        a, b = b, a
    return a


# the largest quotient dimension verify_nontriv_lemma decides
NONTRIV_MAX_DIM = 2


def verify_nontriv_lemma(d: int) -> bool:
    """Nonzero reduced classes have self-bracket obstructions.

    For every nonzero chi in the span of the quotient basis at super
    degree three, the self-bracket of its split image must be nonzero.
    The quadratic form in the basis coefficients is tested for common
    real zeros coordinate by coordinate.  Raises InternalInconsistency,
    before any bracket is formed, when the quotient dimension exceeds
    NONTRIV_MAX_DIM.
    """
    quot = theta_quotient_basis(3, d)
    if not quot:
        return True
    n = len(quot)
    if n > NONTRIV_MAX_DIM:
        raise InternalInconsistency(
            f"nontriviality check supports quotient dimension <= {NONTRIV_MAX_DIM}, got {n}"
        )
    # int unit monomials keep the brackets and the Euler operators on ints;
    # each split image is u-dependent of super degree two, so its bracket
    # is read off its variations, computed once
    variations = [
        _variations(Functional(bockstein_split(DiffPoly({next(iter(q.terms)): 1}))))
        for q in quot
    ]
    table = _DerivativeTable()
    brk = {}
    for i in range(n):
        for j in range(i, n):
            f = _bracket(variations[i], variations[j], 2).density
            # coordinates where a super-3 functional vanishes iff both
            # variational derivatives do
            brk[(i, j)] = (_euler_operator(f, "theta", table), _euler_operator(f, "u", table))
    if n == 1:
        v = brk[(0, 0)]
        return not (v[0].is_zero() and v[1].is_zero())
    f11, f12, f22 = brk[(0, 0)], brk[(0, 1)], brk[(1, 1)]
    # a=1, b=0 corner
    if f11[0].is_zero() and f11[1].is_zero():
        return False
    # b != 0: common real roots of v11 t^2 + 2 v12 t + v22 per coordinate
    polys = []
    for slot in (0, 1):
        for key in (
            set(f11[slot].terms) | set(f12[slot].terms) | set(f22[slot].terms)
        ):
            # QQ, because _poly_gcd divides and ints would give floats
            polys.append(
                [
                    QQ(f22[slot].coefficient(key)),
                    QQ(2 * f12[slot].coefficient(key)),
                    QQ(f11[slot].coefficient(key)),
                ]
            )
    g = []
    for p in polys:
        g = _poly_gcd(g, p) if g else [c for c in p]
    if not g or len(g) == 1:
        return True  # no common root at all
    if len(g) == 2:
        return False  # a common rational root exists
    disc = g[1] * g[1] - 4 * g[2] * g[0]
    return disc < 0
