"""Variational derivatives and local functionals.

A local functional is a density considered modulo total x- and
y-derivatives.  Equality in the quotient is decided through the kernel
characterization: an element is a total divergence exactly when both
variational derivatives vanish and it has no constant term.  At every
positive super degree the theta-derivative alone decides.  For f with p
theta factors in each term, p >= 1, the left derivatives satisfy the
Euler identity sum over (s,t) of th^(s,t) df/dth^(s,t) = p f: each
term gives back one copy of itself per theta factor.  Integrating by
parts, th^(s,t) g = (D_x^s D_y^t th) g is congruent to
th (-D_x)^s (-D_y)^t g modulo divergences, so

    p f  is congruent to  th * var_theta(f)  modulo divergences,

and var_theta(f) = 0 makes f a divergence.  Applying var_theta, which
kills divergences, gives var_theta(th * g) = p g for every g =
var_theta(f); conversely, var_theta(th * g) = p g makes th * g / p a
preimage of g.  So at super degree p a density g of super degree p-1
is a theta variational derivative exactly when var_theta(th * g) = p g,
one Euler operator instead of a solve.  cohomology.verify_varder_lemma
decides each of its targets by this criterion with p = 3, and needs
not even the operator: one coefficient of each side, in closed form,
differs.  var_theta lowers the
super degree by one, so it vanishes on a mixed density exactly when it
vanishes on each homogeneous part; the theta-free part is then the only
one left to decide, and var_u of the other parts is zero already.  So
var_u is needed only when some term has no theta.  The suite checks the
shortcut against the full test at super degrees 0-4.

The u operator satisfies the same identity by u-weight.  For f of
u-weight w >= 1 (w factors u^(s,t) in each term), sum over (s,t) of
u^(s,t) df/du^(s,t) = w f, and since u is even, u^(s,t) g is congruent
to u (-D_x)^s (-D_y)^t g modulo divergences, with no sign.  So

    w f  is congruent to  u * var_u(f)  modulo divergences,

and var_u is injective on the quotient at every weight w >= 1, as
var_theta is at every positive super degree.  On a density of positive
u-weight and positive super degree either operator decides, and the
cheaper one is the one whose variable has fewer factors per term:
cohomology.verify_nontriv_lemma takes the leads of var_u of brackets
with one u-factor but three theta factors in each term.

The Euler operators sum (-D)^k over the partial derivatives by Horner's
rule, one sweep over the y-order and one over the x-order.  Each sweep
folds the sign into the partials, B_k = D B_(k+1) + (-1)^k f_k, instead
of negating the whole accumulator at every step, adds the partials in
place and skips D while the accumulator is zero.  All partials come
from one pass over the density.

The operators are linear, and they lift by one rule.  A density of
more than two terms with no int coefficient is lifted once by
rationals.lift: it is multiplied by the lcm L of its denominators, the
closed forms below and the sweeps run on Python ints, and each output
coefficient is divided by L once.  Every other density runs on its
coefficients as given: int input is on ints already, on one or two
terms an lcm, a lift and a division back cost more than they save, and
mixed int/rational input is not lifted, so that an output coefficient
fed only by int terms stays an int.

Both operators have a closed form on the terms of a constant-coefficient
bracket and of its Miura generators.  A u-free bivector term c th^a th^b
(a above b in the canonical order) has left partials c th^b and -c th^a,
and D only raises the one remaining theta index, so var_theta gets
c ((-1)^|a| - (-1)^|b|) th^(a+b), with |a| = s+t for a = (s,t): zero
when |a| and |b| have the same parity, else 2c th^(a+b) with the sign
of (-1)^|a|.  A linear term c u^(s,t) th^b (u-weight one, u^(0,0)
included, one theta) has the one partial c th^b, so var_u gets
(-1)^(s+t) c th^(b+(s,t)).  The pass that splits these off adds them
directly; only the other terms are swept.  A sweep output keeps the
u-weight and theta count of its term, less one theta (var_theta) or one
u (var_u), so a key of weight 0 with one theta comes only from a
closed-form term, and the two parts never share a key.  Mixed
int/rational input sweeps every term: where terms cancel on one key,
the type of what is left depends on the order of the additions, and
the sweeps keep that order.  The operators read nothing of a
Functional but its density.

_DerivativeTable serves the coboundary columns (see cohomology): it
derives each (axis, monomial) once, by total_derivative on the unit
monomial, and composes D_y^2 from y rows.  A column walks its mixed
derivatives D_x^i D_y^j by steps of these rows and keeps none: a
partial m/u^alpha of a slice has one generator m.  The columns of one
slice share one table.  A table per column was slower (0.358 s against
0.314 s on two order-6 conjugates, median of 10 runs, Python 3.11, 2
vCPUs), one per degree no faster, and one process-wide table raised
peak RSS from 20.2 to 21.7 MB for 3% less wall time.
The Euler operators themselves run on total_derivative for every
caller; only its theta images are kept process-wide (see algebra).

A Functional is immutable, so it computes its degrees, its u-freeness
and each of its variations on first use and keeps them, one cache per
kind (theta_variation, u_variation): the Miura action brackets one
operand many times.  A bracket reads only the variations it multiplies:
var_u of a u-free operand is zero, so the other operand's var_theta is
not computed (see schouten.schouten), and decompose_h2 reads var_theta
alone.  The cache lives as long as its Functional.  The Euler operators
are linear, so scale, negation, + and - pass on the variations their
operands have already computed, scaled, negated, added or subtracted:
the normalizer's generator Y = -X reuses the var_u that the round trip
computed for X.  No operation computes a variation its operands lack,
nor a grade: they pass on a degree both operands share, unless the
result is zero (it reads 0 and 0), and u-freeness when both are u-free;
schouten stamps each bracket with its grade.
"""

from __future__ import annotations

from .algebra import DiffPoly, _accumulate, _partials, grade_of, total_derivative
from .rationals import QQ, lift


def _euler_operator(f, kind: str) -> DiffPoly:
    """sum over (s,t) of (-dx)^s (-dy)^t d f / d<kind>^(s,t), f a DiffPoly
    or a Functional, lifted to ints at most once (see the module
    docstring).  Closed-form terms are summed directly, the partials of
    the others grouped by s and summed by sign-folded Horner sweeps (see
    _signed_horner) over t, then s.
    """
    theta = kind == "theta"
    terms = (f.density if isinstance(f, Functional) else f).terms
    L = None
    if len(terms) > 2 and int not in map(type, terms.values()):
        L, terms = lift(terms)
    out, rest, T = {}, {}, type(next(iter(terms.values()), None))
    for key, c in terms.items():
        if type(c) is not T:
            out, rest = {}, terms  # mixed input: every term is swept
            break
        upow, ufs, ths = key
        if theta and not (upow or ufs) and len(ths) == 2:
            # c th^a th^b adds c ((-1)^|a| - (-1)^|b|) th^(a+b)
            (s1, t1), (s2, t2) = ths
            if (s1 + t1 + s2 + t2) & 1:
                _accumulate(out, (0, (), ((s1 + s2, t1 + t2),)), -2 * c if (s1 + t1) & 1 else 2 * c)
        elif not theta and len(ths) == 1 and upow + len(ufs) == 1 and (upow or ufs[0][1] == 1):
            # c u^(s,t) th^b adds (-1)^(s+t) c th^(b+(s,t))
            s, t = ufs[0][0] if ufs else (0, 0)
            ((s2, t2),) = ths
            _accumulate(out, (0, (), ((s + s2, t + t2),)), -c if (s + t) & 1 else c)
        else:
            rest[key] = c
    by_s = _partials(rest, kind) if rest else None
    if by_s:
        swept = _signed_horner({s: _signed_horner(col, "y") for s, col in by_s.items()}, "x").terms
        if out:
            out.update(swept)  # no key in both parts (see the module docstring)
        else:
            out = swept
    if L is not None:
        out = {k: QQ(v, L) if L != 1 else QQ(v) for k, v in out.items()}  # L = 1: no gcd
    return DiffPoly(out)


def _signed_horner(parts: dict, axis: str) -> DiffPoly:
    """sum over k of (-D)^k parts[k], with D = total_derivative(., axis).

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


class _DerivativeTable:
    """Total derivatives of theta-free unit monomials, each derived once.

    The row of a monomial on axis x or y is its derivative as a tuple of
    (key, int multiplier), computed on first use by total_derivative on
    the unit monomial, so the Leibniz rule is written once; its row on
    axis yy is D_y^2, composed from y rows.  step(cur, axis) applies the
    rows to a tuple of the same form.  A table is meant to be dropped
    with its batch: it holds every monomial the batch reached.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows = {"x": {}, "y": {}, "yy": {}}

    def _row(self, key, axis):
        if axis == "yy":
            row = self.step(self.step(((key, 1),), "y"), "y")
        else:
            row = tuple(total_derivative(DiffPoly({key: 1}), axis).terms.items())
        self._rows[axis][key] = row
        return row

    def step(self, cur: tuple, axis: str) -> tuple:
        """D_x, D_y or D_y^2 (axis x, y or yy) of a tuple of (key, int)."""
        rows = self._rows[axis]
        if len(cur) == 1 and cur[0][1] == 1:
            return rows.get(cur[0][0]) or self._row(cur[0][0], axis)
        acc = {}
        for k, m in cur:
            for k2, m2 in rows.get(k) or self._row(k, axis):
                acc[k2] = acc.get(k2, 0) + m * m2
        return tuple(acc.items())  # theta-free: every multiplier is positive


def var_u(f) -> DiffPoly:
    """Variational derivative with respect to u; kills divergences."""
    return _euler_operator(f, "u")


def var_theta(f) -> DiffPoly:
    """Variational derivative with respect to theta (left derivatives)."""
    return _euler_operator(f, "theta")


def is_total_divergence(a: DiffPoly) -> bool:
    """Exact membership test for im dx + im dy.

    Both variational derivatives vanish and there is no constant term;
    when every term has a theta, the theta-derivative alone decides (see
    the module docstring).
    """
    if a.is_zero():
        return True
    if a.constant_term() != 0:
        return False
    if not var_theta(a).is_zero():
        return False
    return all(ths for (_, _, ths) in a.terms) or var_u(a).is_zero()


_UNSET = object()  # a cached degree not yet computed (it may be 0 or None)


def _carried(op, *operands):
    """op(*operands), or None when an operand is a variation not computed."""
    return None if any(x is None for x in operands) else op(*operands)


class Functional:
    """An element of the quotient space, held as a chosen density.

    Immutable, like its density, so its degrees, u-freeness and each
    variation of the density are cached on first use.  The variations
    are linear, so scale, negation, + and - hand the result the
    variations their operands have computed and the grades they share
    (see _graded); they compute none.  theta and u, when given, are
    var_theta and var_u of density.
    """

    __slots__ = ("density", "_degree", "_super", "_free", "_theta", "_u")

    def __init__(self, density: DiffPoly, theta=None, u=None):
        self.density = density
        self._degree = _UNSET
        self._super = _UNSET
        self._free = None
        self._theta = theta
        self._u = u

    @classmethod
    def zero(cls) -> "Functional":
        return cls(DiffPoly.zero())

    def grade(self):
        return grade_of(self.density)

    def super_degree(self):
        """density.super_degree(), computed once."""
        if self._super is _UNSET:
            self._super = self.density.super_degree()
        return self._super

    def standard_degree(self):
        """density.standard_degree(), computed once."""
        if self._degree is _UNSET:
            self._degree = self.density.standard_degree()
        return self._degree

    def is_u_free(self) -> bool:
        """density.is_u_free(), computed once."""
        if self._free is None:
            self._free = self.density.is_u_free()
        return self._free

    def theta_variation(self) -> DiffPoly:
        """var_theta(density), computed once; safe because a Functional
        is immutable."""
        if self._theta is None:
            self._theta = var_theta(self)
        return self._theta

    def u_variation(self) -> DiffPoly:
        """var_u(density), computed once."""
        if self._u is None:
            self._u = var_u(self)
        return self._u

    def is_zero(self) -> bool:
        return is_total_divergence(self.density)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Functional):
            return NotImplemented
        return is_total_divergence(self.density - other.density)

    def __hash__(self):
        raise TypeError("functionals are not hashable (quotient equality)")

    def __add__(self, other: "Functional") -> "Functional":
        H = Functional(
            self.density + other.density,
            _carried(DiffPoly.__add__, self._theta, other._theta),
            _carried(DiffPoly.__add__, self._u, other._u),
        )
        return _graded(H, self, other)

    def __sub__(self, other: "Functional") -> "Functional":
        H = Functional(
            self.density - other.density,
            _carried(DiffPoly.__sub__, self._theta, other._theta),
            _carried(DiffPoly.__sub__, self._u, other._u),
        )
        return _graded(H, self, other)

    def __neg__(self) -> "Functional":
        H = Functional(
            -self.density,
            _carried(DiffPoly.__neg__, self._theta),
            _carried(DiffPoly.__neg__, self._u),
        )
        return _graded(H, self, self)

    def scale(self, c) -> "Functional":
        H = Functional(
            self.density.scale(c),
            _carried(DiffPoly.scale, self._theta, c),
            _carried(DiffPoly.scale, self._u, c),
        )
        return _graded(H, self, self)

    def __repr__(self):
        from .printer import format_poly

        return f"Functional({format_poly(self.density)!r})"


def _graded(H: Functional, F: Functional, G: Functional) -> Functional:
    """H, a linear combination of F and G, with the degrees they share
    (unless H is zero) and u-freeness when both are u-free."""
    H._free = True if F._free and G._free else None
    if H.density.terms:
        if type(F._degree) is int and G._degree == F._degree:
            H._degree = F._degree
        if type(F._super) is int and G._super == F._super:
            H._super = F._super
    return H
