"""Schouten-Nijenhuis bracket, adjoint actions, and bracket series.

The bracket of functionals of super degrees p and q lands in super
degree p+q-1 and satisfies the graded symmetry [P,Q] = (-1)^(pq) [Q,P]
and the graded Jacobi identity; both are exercised by the test suite as
functional identities.  The degree-1 generator of translations in y,

    half of the integral of th * th^(0,1),

acts by the odd derivation sum_{s,t} th^(s,t+1) d/du^(s,t) (see
cohomology.delta); this identity pins the sign conventions of the whole
package and is asserted exhaustively in the suite.
"""

from __future__ import annotations

from .algebra import DiffPoly, mul
from .errors import SuperDegreeError
from .rationals import QQ
from .variational import Functional


def standard_leading_term() -> Functional:
    """The standard leading bivector, half of the integral of th * th^(0,1).

    Every call returns the same Functional, which is immutable, so its
    variations are computed once per process.
    """
    return _P1


def pst(s: int, t: int) -> Functional:
    """The u-independent bivector  half * integral of th * th^(s,t)."""
    return Functional(
        DiffPoly.rational(1, 2) * DiffPoly.theta(0, 0) * DiffPoly.theta(s, t)
    )


_P1 = pst(0, 1)


def _super_degree(F: Functional) -> int:
    p = F.super_degree()
    if p is None:
        raise SuperDegreeError("operands must be homogeneous in super degree")
    return p


def schouten(P: Functional, Q: Functional) -> Functional:
    """Schouten-Nijenhuis bracket of homogeneous multivectors.

    The bracket is var_theta(P) var_u(Q) + (-1)^p var_u(P) var_theta(Q),
    and it reads only the variations of the products it needs, which
    each Functional computes once: an operand with no u dependence has
    var_u = 0, so its product is skipped, the other product is returned
    as it is, and the other operand's var_theta is not computed.  For p
    odd and q even, var_u(P) and var_theta(Q) are both odd, so
    -var_u(P) var_theta(Q) is exactly var_theta(Q) var_u(P): the sign
    is folded into the factor order instead of negating a product.
    Homogeneous operands give every term of both products p+q-1 thetas
    and deg P + deg Q derivatives (the Euler operators keep the standard
    degree), so a nonzero bracket is stamped with that grade, its degree
    only when both operand degrees are cached.
    """
    p = _super_degree(P)
    q = _super_degree(Q)
    P_free = P.is_u_free()
    Q_free = Q.is_u_free()
    if P_free and Q_free:
        return Functional.zero()
    first = None if Q_free else mul(P.theta_variation(), Q.u_variation())
    if P_free:
        out = first
    elif p % 2 and not q % 2:
        second = mul(Q.theta_variation(), P.u_variation())
        out = second if first is None else first + second
    else:
        second = mul(P.u_variation(), Q.theta_variation())
        if first is None:
            out = -second if p % 2 else second
        else:
            out = first - second if p % 2 else first + second
    R = Functional(out)
    if out.terms:
        R._super = p + q - 1
        if type(P._degree) is int and type(Q._degree) is int:
            R._degree = P._degree + Q._degree
    return R


class BracketSeries:
    """Bivector series truncated at a given order.

    The component of standard degree d corresponds to order d-1 in the
    deformation parameter; components run over 1 <= d <= order + 1 and
    all have super degree two.
    """

    def __init__(self, order: int, components: dict | None = None):
        self.order = order
        clean = {}
        for d, F in (components or {}).items():
            if not isinstance(F, Functional):
                F = Functional(F)
            if F.density.is_zero():
                continue
            if not (1 <= d <= order + 1):
                raise ValueError(f"component degree {d} outside truncation")
            sd = F.super_degree()
            if sd != 2:
                raise SuperDegreeError(
                    f"component at degree {d} has super degree {sd}, want 2"
                )
            if F.standard_degree() != d:
                raise ValueError(
                    f"component stored at degree {d} has a different standard degree"
                )
            clean[d] = F
        self.components = clean

    def __repr__(self) -> str:
        return f"BracketSeries(order={self.order!r}, components={self.components!r})"

    def component(self, d: int) -> Functional:
        return self.components.get(d, Functional.zero())

    def degrees(self):
        return sorted(self.components)

    def truncate(self, order: int) -> "BracketSeries":
        return BracketSeries(
            order, {d: F for d, F in self.components.items() if d <= order + 1}
        )

    def __add__(self, other: "BracketSeries") -> "BracketSeries":
        if other.order != self.order:
            raise ValueError("order mismatch")
        acc = dict(self.components)
        for d, F in other.components.items():
            acc[d] = acc[d] + F if d in acc else F
        return BracketSeries(self.order, acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BracketSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        for d in set(self.components) | set(other.components):
            if not self.component(d) == other.component(d):
                return False
        return True


def miura_apply(X: Functional, P: BracketSeries, order: int | None = None) -> BracketSeries:
    """Exponential of the adjoint action, truncated by standard degree.

    X must be homogeneous of super degree one and standard degree >= 1;
    each application raises the degree by deg X, so the series is finite
    on every component.

    The n-th term ad_X^n F / n! of a chain is [X/n, its (n-1)-th term],
    stored and bracketed on as it is.  X/n is built once per step, after
    X has cached the variations the step reads.  Each degree's terms are
    summed, in the order of P's components, after every chain has run,
    so a component whose terms were all chained carries their
    variations into the next step.
    """
    if order is None:
        order = P.order
    if X.density.is_zero():
        return P.truncate(order)
    if X.super_degree() != 1:
        raise SuperDegreeError("Miura generator must have super degree one")
    m = X.standard_degree()
    if m is None:
        raise SuperDegreeError("Miura generator must be degree-homogeneous")
    if m < 1:
        raise ValueError("Miura generator must have standard degree >= 1")
    top = order + 1
    chains = [(i, d, F) for i, (d, F) in enumerate(P.components.items()) if d <= top]
    # terms[D][i]: the degree-D term of the chain from P's i-th component
    terms = {d: {i: F} for i, d, F in chains}
    n = 0
    while chains := [(i, d + m, Q) for i, d, Q in chains if d + m <= top]:
        n += 1
        if any(not Q.is_u_free() for _, _, Q in chains):
            X.theta_variation()  # cached before X/n copies it
        Xn = X.scale(QQ(1, n)) if n > 1 else X
        live = []
        for i, d, Q in chains:
            Q = schouten(Xn, Q)
            if not Q.density.is_zero():
                terms.setdefault(d, {})[i] = Q
                live.append((i, d, Q))
        chains = live
    acc = {}
    for d, by_source in terms.items():
        first, *rest = (by_source[i] for i in sorted(by_source))
        acc[d] = sum(rest, first)
    return BracketSeries(order, acc)


def jacobi_check(P: BracketSeries):
    """Test [P,P] = 0 degree by degree within the truncation horizon.

    Returns 'ok' or the lowest violating standard degree.  Components of
    [P,P] are reliable through degree P.order+2; beyond that unknown tail
    terms of P would contribute.
    """
    degrees = P.degrees()
    for D in range(2, P.order + 3):
        total = Functional.zero()
        for d1 in degrees:
            if d1 > D - 1:
                break
            d2 = D - d1
            if d2 < d1:
                break
            F2 = P.components.get(d2)
            if F2 is None:
                continue
            term = schouten(P.components[d1], F2)
            if term.density.is_zero():
                continue
            total = total + (term if d1 == d2 else term.scale(2))
        if not total.is_zero():
            return D
    return "ok"
