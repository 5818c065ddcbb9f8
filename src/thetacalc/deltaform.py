"""Conversion between the differential-operator form of a bracket and
theta densities.

A bracket is specified by coefficients A[k; k1,k2] multiplying the
(k1,k2) delta-derivative at deformation order k, with deg A equal to
k - k1 - k2 + 1.  The corresponding density at standard degree k+1 is
half of  th * A * th^(k1,k2).  Symmetric operator parts are total
divergences and vanish in the quotient; the reverse direction therefore
fixes a canonical first-slot-underived form by integration by parts and
reads the coefficients off that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import DiffPoly, mul
from .errors import DegreeMismatch
from .rationals import QQ
from .schouten import BracketSeries
from .variational import Functional


@dataclass
class DeltaForm:
    """Operator-form coefficients keyed by (k, k1, k2)."""

    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        given, self.coefficients = self.coefficients, {}
        for key, poly in given.items():
            self.set_coefficient(*key, poly)

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

    @property
    def leading(self) -> bool:
        """True when the order-zero part is the standard leading term."""
        zero_part = {
            key: poly for key, poly in self.coefficients.items() if key[0] == 0
        }
        return zero_part == {(0, 0, 1): DiffPoly.one()}

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


def _first_slot_reduce(density: DiffPoly) -> DiffPoly:
    """Integrate by parts until every monomial contains the underived theta.

    The second theta slot loses one derivative per pass, so the sweep
    terminates; the result equals the input modulo total divergences.
    """
    work = density
    while True:
        good = {}
        bad = []
        for key, c in work.terms.items():
            ths = key[2]
            if len(ths) != 2:
                raise ValueError("first-slot reduction expects super degree 2")
            if ths[-1] == (0, 0):
                good[key] = c
            else:
                bad.append((key, c))
        if not bad:
            return DiffPoly(good)
        acc = DiffPoly(good)
        for (upow, ufs, ths), c in bad:
            (a, b), (cs, ct) = ths
            axis = "x" if cs > 0 else "y"
            e = (1, 0) if cs > 0 else (0, 1)
            f = DiffPoly({(upow, ufs, ()): c})
            th_hi = DiffPoly.theta(a, b)
            th_lo = DiffPoly.theta(cs - e[0], ct - e[1])
            acc = acc - mul(mul(f.dx() if axis == "x" else f.dy(), th_hi), th_lo)
            acc = acc - mul(mul(f, DiffPoly.theta(a + e[0], b + e[1])), th_lo)
        work = acc


def theta_to_delta(P: BracketSeries) -> DeltaForm:
    """Operator-form coefficients of a bivector series.

    The output is the deterministic first-slot-underived rewrite of each
    component; composing back with delta_to_theta reproduces the input
    as functionals.
    """
    coefficients = {}
    for d, F in P.components.items():
        reduced = _first_slot_reduce(F.density)
        per_index = {}
        for (upow, ufs, ths), c in reduced.terms.items():
            (a, b), _ = ths
            key = (upow, ufs, ())
            block = per_index.setdefault((a, b), {})
            block[key] = block.get(key, QQ(0)) + (-2) * c
        for (a, b), terms in per_index.items():
            poly = DiffPoly({k: v for k, v in terms.items() if v != 0})
            if not poly.is_zero():
                coefficients[(d - 1, a, b)] = poly
    return DeltaForm(coefficients)
