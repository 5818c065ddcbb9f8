"""Degree-by-degree Miura normalization and invariant extraction.

The loop walks the series one standard degree at a time: the component
is decomposed against the second cohomology, the constant part is
recorded as an invariant in odd degree, the coboundary part is removed
by the exponential of a vector field, and a surviving split class stops
the run as an obstruction (the input is either not Poisson or truncated
too early for the class to be excluded).  Applying the recorded
generators in order reproduces the normalized series by construction.

normalize and verify_distinctness pause the cyclic garbage collector
(process-wide) and then restore the caller's setting.  Their work leaves no reference
cycle (the suite checks it), so reference counting frees all of it,
and a collection would only rescan the live rows, keys and brackets.
"""

from __future__ import annotations

import gc
from functools import wraps
from typing import NamedTuple

from .algebra import DiffPoly, Grade
from .cohomology import decompose_h2
from .deltaform import theta_to_delta
from .errors import (
    InternalInconsistency,
    JacobiViolation,
    MissingComponent,
    NonconstantInvariant,
    NonstandardLeadingTerm,
    ObstructionNonzeroBockstein,
    ThetaCalcError,
)
from .rationals import QQ
from .schouten import (
    BracketSeries,
    jacobi_check,
    miura_apply,
    pst,
    standard_leading_term,
)
from .variational import Functional


class NormalizationResult(NamedTuple):
    order: int
    invariants: list  # [(k, c_k)] with 2k+1 <= order+1
    generators: list  # applied vector fields, ascending degree
    normalized: BracketSeries

    def invariant_values(self):
        return [c for _, c in self.invariants]

    def replay(self, P: BracketSeries) -> BracketSeries:
        """Apply the recorded generators to P in recorded order."""
        cur = P.truncate(self.order)
        for Y in self.generators:
            cur = miura_apply(Y, cur, self.order)
        return cur


def build_normal_form(cs, order: int) -> BracketSeries:
    """The series p(c): leading term plus c_k at each odd degree 2k+1."""
    components = {1: standard_leading_term()}
    for k, ck in enumerate(cs, start=1):
        d = 2 * k + 1
        if d > order + 1:
            break
        if ck != 0:
            components[d] = pst(d, 0).scale(QQ(ck))
    return BracketSeries(order, components)


def _replace_component(P: BracketSeries, d: int, F: Functional) -> BracketSeries:
    comps = dict(P.components)
    if F.density.is_zero():
        comps.pop(d, None)
    else:
        comps[d] = F
    return BracketSeries(P.order, comps)


def _require_standard_leading(P: BracketSeries) -> None:
    if not P.component(1) == standard_leading_term():
        raise NonstandardLeadingTerm(
            "degree-1 component must be the standard leading bivector"
        )


def _collector_paused(fn):
    """fn, run with the cyclic garbage collector off and then set back."""

    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
def normalize(P: BracketSeries, order: int | None = None) -> NormalizationResult:
    """Reduce a bracket with standard leading term to its normal form.

    The Jacobi verdict comes from the degree loop.  When a step fails
    (any ThetaCalcError), jacobi_check runs on the truncated input, and
    a violation raises JacobiViolation at its lowest degree; otherwise
    the step's own error is raised.  When every step passes, the loop
    has proved [P, P] = 0 through degree order+2, all that jacobi_check
    tests.  Each step applies exp(ad Y), an automorphism of the bracket
    that keeps the lower degrees, so [P, P] vanishes through degree d+1
    exactly when [cur, cur] does.  At step d the components of cur below
    d are in normal form, hence u-free, and brackets of u-free elements
    vanish, so the degree-(d+1) part of [cur, cur] is 2 [p1, cur_d],
    which is zero when cur_d decomposes (see decompose_h2).  So every
    input gets the result, the error and the degree that a Jacobi check
    run first would give.
    """
    if order is None:
        order = P.order
    truncated = P.truncate(order)
    _require_standard_leading(truncated)
    try:
        return _normalize_steps(truncated, order)
    except ThetaCalcError:
        verdict = jacobi_check(truncated)
        if verdict != "ok":
            raise JacobiViolation(verdict) from None
        raise


def _normalize_steps(cur: BracketSeries, order: int) -> NormalizationResult:
    """The degree loop of normalize, on the truncated input."""
    invariants = []
    generators = []
    for d in range(2, order + 2):
        dec = decompose_h2(cur.component(d), d)
        if not dec.chi.is_zero():
            raise ObstructionNonzeroBockstein(d, dec.chi)
        if d % 2 == 1:
            invariants.append(((d - 1) // 2, dec.c))
        elif dec.c not in (None, 0):
            raise InternalInconsistency(
                f"constant class reported at even degree {d}"
            )
        Y = dec.X.scale(-1)
        generators.append(Y)
        if not Y.density.is_zero():
            cur = miura_apply(Y, cur, order)
        # the degree-d component now equals its class part; store the
        # canonical density so later steps push around less material
        cur = _replace_component(cur, d, sum(dec.parts(), Functional.zero()))

    expected = build_normal_form([c for _, c in invariants], order)
    if not cur == expected:
        raise InternalInconsistency("normalized series is not in normal form")
    return NormalizationResult(order, invariants, generators, cur)


def _constant_value(poly: DiffPoly, what: str):
    if poly.is_zero():
        return QQ(0)
    if poly.grade() == Grade(0, 0, 0):
        return poly.constant_term()
    raise NonconstantInvariant(f"{what} must be a constant, got a u-dependent value")


def invariants_fast(P: BracketSeries):
    """Closed-form first two invariants read from the operator form.

    Requires the standard leading term and components through degree
    five (a truncation order of at least four).
    """
    _require_standard_leading(P)
    if P.order < 4:
        raise MissingComponent(5)
    low = BracketSeries(
        P.order,
        {d: F for d, F in P.components.items() if d in (3, 5)},
    )
    D = theta_to_delta(low)
    c1 = _constant_value(D.coefficient(2, 3, 0), "A[2;3,0]")
    a221 = D.coefficient(2, 2, 1)
    a450 = D.coefficient(4, 5, 0)
    c2 = _constant_value(a450 - a221.scale(c1), "A[4;5,0] - A[2;3,0]*A[2;2,1]")
    return c1, c2


@_collector_paused
def verify_distinctness(cs, cs_other, order: int) -> bool:
    """Whether two normal forms are Miura equivalent within the order.

    Solves degree by degree for a transformation mapping one onto the
    other.  Each gap is a cocycle, because both series are Poisson and
    agree below its degree; decompose_h2 splits it, and a class part (a
    nonzero c or chi) means the two forms are inequivalent.
    """
    source = build_normal_form(cs, order)
    target = build_normal_form(cs_other, order)
    cur = source
    for d in range(2, order + 2):
        gap = target.component(d) - cur.component(d)
        if gap.is_zero():
            continue
        dec = decompose_h2(gap, d)
        if dec.c or not dec.chi.is_zero():
            return False
        cur = miura_apply(dec.X, cur, order)
    return True
