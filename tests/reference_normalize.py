"""Reference normalization with the checks up front, for tests only.

reference_normalize runs jacobi_check on the truncated input before the
degree loop and raises JacobiViolation at once; reference_decompose_h2
tests the cocycle condition [p1, P_d] = 0 before it solves, and checks
the round trip as a quotient equality, total == P_d.  thetacalc's
normalize and decompose_h2 run those checks only on their failure path;
the oracle tests compare the two on seeded inputs.

reference_schouten is the bracket that computes both variations of
both operands and both products, whatever the operands.
"""

from thetacalc.algebra import DiffPoly, mul
from thetacalc.cohomology import H2Decomposition, _slices, evolutionary_field, solve_slice
from thetacalc.errors import (
    InternalInconsistency,
    JacobiViolation,
    NotACocycle,
    ObstructionNonzeroBockstein,
)
from thetacalc.normalizer import (
    NormalizationResult,
    _replace_component,
    _require_standard_leading,
    build_normal_form,
)
from thetacalc.rationals import QQ
from thetacalc.schouten import jacobi_check, miura_apply, schouten, standard_leading_term
from thetacalc.variational import Functional, var_theta, var_u


def reference_schouten(P, Q):
    """[P, Q] = var_theta(P) var_u(Q) + (-1)^p var_u(P) var_theta(Q)."""
    p = P.super_degree()
    if P.density.is_u_free() and Q.density.is_u_free():
        return Functional.zero()
    first = mul(var_theta(P.density), var_u(Q.density))
    second = mul(var_u(P.density), var_theta(Q.density))
    return Functional(first - second if p % 2 else first + second)


def reference_decompose_h2(P_d, d):
    """The cocycle test first, then the slices and the round trip."""
    p1 = standard_leading_term()
    if not P_d.density.is_zero() and P_d.super_degree() != 2:
        raise ValueError("decompose_h2 expects a bivector component")
    if not schouten(p1, P_d).is_zero():
        raise NotACocycle(d)
    c = QQ(0) if d % 2 == 1 else None
    chi = DiffPoly.zero()
    x_terms = {}
    for (w, a), rows in _slices(var_theta(P_d.density)).items():
        part = solve_slice(d, w, a, rows)
        if part is None:
            raise InternalInconsistency(
                f"no decomposition at degree {d}, weight {w}, x-order {a}"
            )
        if part.c is not None:
            c = part.c
        chi = chi + part.chi
        x_terms.update(part.x.terms)
    result = H2Decomposition(d, c, chi, evolutionary_field(DiffPoly(x_terms)))
    total = schouten(p1, result.X)
    for part in result.parts():
        total = total + part
    if not total == P_d:
        raise InternalInconsistency(f"decomposition round-trip failed at degree {d}")
    return result


def reference_normalize(P, order=None):
    """jacobi_check first, then the degree loop over reference_decompose_h2."""
    if order is None:
        order = P.order
    cur = P.truncate(order)
    _require_standard_leading(cur)
    verdict = jacobi_check(cur)
    if verdict != "ok":
        raise JacobiViolation(verdict)
    invariants = []
    generators = []
    for d in range(2, order + 2):
        dec = reference_decompose_h2(cur.component(d), d)
        if not dec.chi.is_zero():
            raise ObstructionNonzeroBockstein(d, dec.chi)
        if d % 2 == 1:
            invariants.append(((d - 1) // 2, dec.c))
        elif dec.c not in (None, 0):
            raise InternalInconsistency(f"constant class reported at even degree {d}")
        Y = dec.X.scale(-1)
        generators.append(Y)
        if not Y.density.is_zero():
            cur = miura_apply(Y, cur, order)
        cur = _replace_component(cur, d, sum(dec.parts(), Functional.zero()))
    if not cur == build_normal_form([c for _, c in invariants], order):
        raise InternalInconsistency("normalized series is not in normal form")
    return NormalizationResult(order, invariants, generators, cur)
