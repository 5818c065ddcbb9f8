"""Conversion between the differential-operator form of a bracket and
theta densities.

A bracket is specified by coefficients A[k; k1,k2] multiplying the
(k1,k2) delta-derivative at deformation order k, with deg A equal to
k - k1 - k2 + 1.  The corresponding density at standard degree k+1 is
half of  th * A * th^(k1,k2).  Symmetric operator parts are total
divergences and vanish in the quotient.  The reverse direction reads
the skew operator of the bivector off var_theta of its density: the
coefficient of th^(s,t) is A[d-1; s,t].  It depends only on the
functional, and for a skew input form it is that form.
"""

from __future__ import annotations

from .algebra import DiffPoly, _partials, mul
from .errors import DegreeMismatch
from .schouten import BracketSeries
from .variational import Functional, var_theta


class DeltaForm:
    """Operator-form coefficients keyed by (k, k1, k2)."""

    def __init__(self, coefficients: dict | None = None):
        self.coefficients = {}
        for key, poly in (coefficients or {}).items():
            self.set_coefficient(*key, poly)

    def __repr__(self) -> str:
        return f"DeltaForm(coefficients={self.coefficients!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeltaForm):
            return NotImplemented
        return self.coefficients == other.coefficients

    def set_coefficient(self, k: int, k1: int, k2: int, poly: DiffPoly) -> None:
        """Store poly at A[k; k1,k2] (a zero poly is dropped).

        Raises DegreeMismatch unless k1 + k2 <= k + 1 and poly is
        theta-free and homogeneous of degree k - k1 - k2 + 1.
        """
        if poly.is_zero():
            return
        if k < 0 or k1 < 0 or k2 < 0 or k1 + k2 > k + 1:
            raise DegreeMismatch(f"A[{k};{k1},{k2}]: indices violate k1+k2 <= k+1")
        if not poly.is_theta_free():
            raise DegreeMismatch(f"A[{k};{k1},{k2}]: coefficient must be theta-free")
        want = k - k1 - k2 + 1
        if poly.standard_degree() != want:
            raise DegreeMismatch(f"A[{k};{k1},{k2}]: degree must be {want}")
        self.coefficients[(k, k1, k2)] = poly

    def coefficient(self, k: int, k1: int, k2: int) -> DiffPoly:
        return self.coefficients.get((k, k1, k2), DiffPoly.zero())


def delta_to_theta(D: DeltaForm, order: int) -> BracketSeries:
    """Theta-density series of an operator-form bracket."""
    half_theta = DiffPoly.rational(1, 2) * DiffPoly.theta(0, 0)
    components = {}
    for (k, k1, k2), A in D.coefficients.items():
        d = k + 1
        if d > order + 1:
            continue
        piece = mul(mul(half_theta, A), DiffPoly.theta(k1, k2))
        if piece.is_zero():
            continue
        components[d] = components.get(d, DiffPoly.zero()) + piece
    return BracketSeries(
        order, {d: Functional(p) for d, p in components.items() if not p.is_zero()}
    )


def theta_to_delta(P: BracketSeries) -> DeltaForm:
    """Operator-form coefficients of a bivector series.

    Each component F of degree d gives A[d-1; s,t] = the coefficient of
    th^(s,t) in var_theta(F): half of th times that skew operator is F
    again modulo divergences, so composing with delta_to_theta gives back
    the input as functionals, and a divergence shift of a density leaves
    every coefficient unchanged.
    """
    return DeltaForm(
        {
            (d - 1, s, t): A
            for d, F in P.components.items()
            for s, by_t in _partials(var_theta(F.density).terms, "theta").items()
            for t, A in by_t.items()
        }
    )
