"""Reference self-bracket lemma decision for quotient dimension n <= 2.

For tests only.  With chi = a q_1 (n = 1) or chi = a q_1 + b q_2
(n = 2), every coordinate of var_theta and var_u of the self-bracket
[B(chi), B(chi)] is a binary quadratic form

    v11 a^2 + 2 v12 a b + v22 b^2.

n = 1: the lemma holds when some v11 is nonzero.  n = 2: the corner
a = 1, b = 0 fails when every v11 is zero; otherwise, with b = 1, the
forms share a real zero t = a exactly when the gcd of the polynomials
v22 + 2 v12 t + v11 t^2 has a real root.  A gcd of degree 0 means no
common zero, degree 1 a rational one, and degree 2 a pair decided by
its discriminant.
"""

from fractions import Fraction

from thetacalc.cohomology import bockstein_split, theta_quotient_basis
from thetacalc.schouten import schouten
from thetacalc.variational import Functional, var_theta, var_u


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


def _coordinates(density):
    # a super-3 functional vanishes iff both variational derivatives do
    return var_theta(density), var_u(density)


def reference_nontriv(d):
    """The lemma's verdict at degree d; ValueError when n > 2."""
    quot = theta_quotient_basis(3, d)
    n = len(quot)
    if n > 2:
        raise ValueError(f"the reference decides n <= 2 only, got {n}")
    if n == 0:
        return True
    split = [Functional(bockstein_split(q)) for q in quot]
    f11 = _coordinates(schouten(split[0], split[0]).density)
    if f11[0].is_zero() and f11[1].is_zero():
        return False
    if n == 1:
        return True
    f12 = _coordinates(schouten(split[0], split[1]).density)
    f22 = _coordinates(schouten(split[1], split[1]).density)
    polys = []
    for slot in (0, 1):
        for key in set(f11[slot].terms) | set(f12[slot].terms) | set(f22[slot].terms):
            polys.append(
                [
                    Fraction(f22[slot].coefficient(key)),
                    Fraction(2 * f12[slot].coefficient(key)),
                    Fraction(f11[slot].coefficient(key)),
                ]
            )
    g = []
    for p in polys:
        g = _poly_gcd(g, p) if g else list(p)
    if not g or len(g) == 1:
        return True  # no common root at all
    if len(g) == 2:
        return False  # a common rational root exists
    disc = g[1] * g[1] - 4 * g[2] * g[0]
    return disc < 0
