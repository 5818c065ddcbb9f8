"""Variational derivatives and local functionals.

A local functional is a density considered modulo total x- and
y-derivatives.  Equality in the quotient is decided through the kernel
characterization: an element is a total divergence exactly when both
variational derivatives vanish and it has no constant term.  For
densities of super degree one or two the theta-derivative alone decides
(the u-derivative of a divergence vanishes automatically once the
theta-derivative does); this shortcut carries most of the solver load
and is cross-checked against the full test in the suite.

The Euler operators sum (-D)^k over the partial derivatives by Horner's
rule, one sweep over the y-order and one over the x-order.  Each sweep
folds the sign into the partials, B_k = D B_(k+1) + (-1)^k f_k, instead
of negating the whole accumulator at every step, adds the partials in
place and skips D while the accumulator is zero.
"""

from __future__ import annotations

from .algebra import (
    DiffPoly,
    Grade,
    _accumulate,
    grade_of,
    partial_derivative,
    total_derivative,
)
from .errors import DecompositionError


def _euler_operator(f: DiffPoly, kind: str) -> DiffPoly:
    """sum over (s,t) of (-dx)^s (-dy)^t d f / d<kind>^(s,t).

    The partials are grouped by s and summed by two sign-folded Horner
    sweeps (see _signed_horner): over t with dy for each s, then over s
    with dx.
    """
    indices = set()
    for upow, ufs, ths in f.terms:
        if kind == "u":
            if upow:
                indices.add((0, 0))
            indices.update(idx for idx, _ in ufs)
        else:
            indices.update(ths)
    if not indices:
        return DiffPoly.zero()
    by_s = {}
    for s, t in indices:
        by_s.setdefault(s, {})[t] = partial_derivative(f, kind, s, t)
    return _signed_horner(
        {s: _signed_horner(col, "y") for s, col in by_s.items()}, "x"
    )


def _signed_horner(parts: dict, axis: str) -> DiffPoly:
    """sum over k of (-D)^k parts[k], with D the total derivative along axis.

    Horner's rule with the signs folded into the parts: B_k = D B_(k+1)
    + (-1)^k parts[k], and the sum is B_0.  D is skipped while the
    accumulator is zero, and each part is added into the accumulator in
    place instead of through a negated copy.
    """
    acc = {}
    for k in range(max(parts), -1, -1):
        if acc:
            # the result dict is fresh, so it can be updated in place
            acc = total_derivative(DiffPoly(acc), axis).terms
        part = parts.get(k)
        if part is not None:
            odd = k & 1
            for key, c in part.terms.items():
                _accumulate(acc, key, -c if odd else c)
    return DiffPoly(acc)


def var_u(f) -> DiffPoly:
    """Variational derivative with respect to u; kills divergences."""
    return _euler_operator(_density(f), "u")


def var_theta(f) -> DiffPoly:
    """Variational derivative with respect to theta (left derivatives)."""
    return _euler_operator(_density(f), "theta")


def _density(f) -> DiffPoly:
    return f.density if isinstance(f, Functional) else f


def is_total_divergence(a: DiffPoly) -> bool:
    """Exact membership test for im dx + im dy.

    Both variational derivatives vanish and there is no constant term;
    in super degrees one and two the theta-derivative alone decides.
    """
    if a.is_zero():
        return True
    if a.constant_term() != 0:
        return False
    if not var_theta(a).is_zero():
        return False
    return {len(ths) for (_, _, ths) in a.terms} <= {1, 2} or var_u(a).is_zero()


class Functional:
    """An element of the quotient space, held as a chosen density."""

    __slots__ = ("density", "_grade")

    def __init__(self, density: DiffPoly):
        self.density = density
        self._grade = None

    @classmethod
    def zero(cls) -> "Functional":
        return cls(DiffPoly.zero())

    def grade(self):
        if self._grade is None:
            self._grade = grade_of(self.density)
        return self._grade

    def super_degree(self):
        return self.density.super_degree()

    def is_zero(self) -> bool:
        return is_total_divergence(self.density)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Functional):
            return NotImplemented
        return is_total_divergence(self.density - other.density)

    def __hash__(self):
        raise TypeError("functionals are not hashable (quotient equality)")

    def __add__(self, other: "Functional") -> "Functional":
        return Functional(self.density + other.density)

    def __sub__(self, other: "Functional") -> "Functional":
        return Functional(self.density - other.density)

    def __neg__(self) -> "Functional":
        return Functional(-self.density)

    def scale(self, c) -> "Functional":
        return Functional(self.density.scale(c))

    def __repr__(self):
        from .printer import format_poly

        return f"Functional({format_poly(self.density)!r})"


def divergence_decompose(a: DiffPoly, grade: Grade | None = None):
    """Explicit witnesses (bx, by) with a = dx(bx) + dy(by).

    Solved exactly over the enumerated monomial bases one grade lower;
    raises DecompositionError when a is not a divergence.
    """
    from .linsolve import solve_poly_system
    from .algebra import enumerate_basis

    if a.is_zero():
        return DiffPoly.zero(), DiffPoly.zero()
    if grade is None:
        grade = grade_of(a)
    if grade is None:
        # handle each homogeneous piece separately
        bx_total, by_total = DiffPoly.zero(), DiffPoly.zero()
        pieces = {}
        for key, c in a.terms.items():
            from .algebra import _key_grade

            pieces.setdefault(_key_grade(key), {})[key] = c
        for g, terms in sorted(pieces.items()):
            bx, by = divergence_decompose(DiffPoly(terms), g)
            bx_total, by_total = bx_total + bx, by_total + by
        return bx_total, by_total

    d, p, w = grade
    if d == 0:
        raise DecompositionError("degree-0 elements are never divergences")
    basis = enumerate_basis(Grade(d - 1, p, w))
    cols = [total_derivative(m.as_poly(), "x") for m in basis]
    cols += [total_derivative(m.as_poly(), "y") for m in basis]
    sol = solve_poly_system(cols, a)
    if sol is None:
        raise DecompositionError("element is not a total divergence")
    n = len(basis)
    bx = DiffPoly.zero()
    by = DiffPoly.zero()
    for j, m in enumerate(basis):
        if sol[j]:
            bx = bx + m.as_poly().scale(sol[j])
        if sol[n + j]:
            by = by + m.as_poly().scale(sol[n + j])
    return bx, by
