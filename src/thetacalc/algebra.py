"""Exact arithmetic in the super-commutative differential algebra.

Elements are polynomials in u, its mixed derivatives u^(s,t) with
(s,t) != (0,0), and anticommuting generators th^(s,t) (any (s,t)),
with exact rational coefficients.

A monomial is keyed by

    (upow, ufactors, thetas)

where upow is the exponent of the underived u, ufactors is an ascending
tuple of ((s,t), exponent) pairs with (s,t) != (0,0), and thetas is a
strictly descending tuple of theta indices.  Reordering theta factors
into the canonical descending order flips the coefficient by the Koszul
sign; a repeated theta index kills the monomial.

Three gradings are tracked: the standard degree d (total derivative
count, thetas included), the super degree p (number of theta factors),
and the u-weight w (upow plus the u-derivative factors counted with
multiplicity).  Total derivatives raise d by one and preserve p and w.

total_derivative derives the theta part of a key through one
process-wide dict, _THETA_RULES, keyed by (axis, thetas): a process
meets few theta tuples, so each is derived once per axis.  Nothing else
is memoized across calls; a u-part memo grows with the monomials a
process reaches (see the README, Performance).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .rationals import QQ, ZERO, rat


class Grade(NamedTuple):
    d: int  # standard degree
    p: int  # super degree
    w: int  # u-weight


class Monomial(NamedTuple):
    coeff: object
    upow: int
    ufactors: tuple
    thetafactors: tuple

    @property
    def key(self):
        return (self.upow, self.ufactors, self.thetafactors)

    def grade(self) -> Grade:
        return _key_grade(self.key)

    def as_poly(self) -> "DiffPoly":
        return DiffPoly({self.key: QQ(self.coeff)})


def _key_grade(key) -> Grade:
    upow, ufs, ths = key
    d = sum((s + t) * e for (s, t), e in ufs) + sum(s + t for s, t in ths)
    w = upow + sum(e for _, e in ufs)
    return Grade(d, len(ths), w)


def _theta_merge(ths1, ths2):
    """Concatenate two canonical tuples and resort, tracking the sign."""
    if not ths1:
        return 1, ths2
    if not ths2:
        return 1, ths1
    out = []
    sign = 1
    i = j = 0
    n1 = len(ths1)
    while i < n1 and j < len(ths2):
        a, b = ths1[i], ths2[j]
        if a > b:
            out.append(a)
            i += 1
        elif b > a:
            # b jumps over the remaining factors of ths1
            if (n1 - i) & 1:
                sign = -sign
            out.append(b)
            j += 1
        else:
            return None
    out.extend(ths1[i:])
    out.extend(ths2[j:])
    return sign, tuple(out)


def _ufactors_mul(ufs1, ufs2):
    if not ufs1:
        return ufs2
    if not ufs2:
        return ufs1
    acc = dict(ufs1)
    for idx, e in ufs2:
        acc[idx] = acc.get(idx, 0) + e
    return tuple(sorted(acc.items()))


class DiffPoly:
    """Canonical sum of monomials; immutable after construction."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = terms if terms is not None else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "DiffPoly":
        return cls({})

    @classmethod
    def one(cls) -> "DiffPoly":
        return cls({(0, (), ()): QQ(1)})

    @classmethod
    def rational(cls, p, q=1) -> "DiffPoly":
        c = rat(p, q)
        return cls({(0, (), ()): c}) if c != 0 else cls({})

    @classmethod
    def u(cls, s: int = 0, t: int = 0) -> "DiffPoly":
        if s == 0 and t == 0:
            return cls({(1, (), ()): QQ(1)})
        return cls({(0, (((s, t), 1),), ()): QQ(1)})

    @classmethod
    def theta(cls, s: int = 0, t: int = 0) -> "DiffPoly":
        return cls({(0, (), ((s, t),)): QQ(1)})

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> dict:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, key):
        return self._terms.get(key, ZERO)

    def constant_term(self):
        return self._terms.get((0, (), ()), ZERO)

    # -- ring structure ------------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        small, big = (self._terms, other._terms)
        if len(small) > len(big):
            small, big = big, small
        acc = dict(big)
        for key, c in small.items():
            _accumulate(acc, key, c)
        return DiffPoly(acc)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        acc = dict(self._terms)
        for key, c in other._terms.items():
            _accumulate(acc, key, -c)
        return DiffPoly(acc)

    def scale(self, c) -> "DiffPoly":
        c = QQ(c)
        if c == 0:
            return DiffPoly({})
        return DiffPoly({k: c * v for k, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, DiffPoly):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise ValueError("negative powers are not defined")
        # square and multiply: about 2*log2(n) products, not n
        out, base = DiffPoly.one(), self
        while n:
            if n & 1:
                out = mul(out, base)
            n >>= 1
            if n:
                base = mul(base, base)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        from .printer import format_poly

        return f"DiffPoly({format_poly(self)!r})"

    # -- grading --------------------------------------------------------

    def grade(self) -> Optional[Grade]:
        return grade_of(self)

    def super_degree(self) -> Optional[int]:
        """Common super degree of all terms, or None when mixed."""
        ps = {len(ths) for (_, _, ths) in self._terms}
        if len(ps) == 1:
            return ps.pop()
        return None if ps else 0

    def standard_degree(self) -> Optional[int]:
        """Common standard degree of all terms, or None when mixed.

        One scan, summing each key's derivative counts and stopping at
        the first mismatch.
        """
        deg = None
        for _, ufs, ths in self._terms:
            n = 0
            for (s, t), e in ufs:
                n += (s + t) * e
            for s, t in ths:
                n += s + t
            if deg is None:
                deg = n
            elif n != deg:
                return None
        return 0 if deg is None else deg

    def is_u_free(self) -> bool:
        return all(upow == 0 and not ufs for (upow, ufs, _) in self._terms)

    def is_theta_free(self) -> bool:
        return all(not ths for (_, _, ths) in self._terms)

    # -- derivations ----------------------------------------------------

    def dx(self) -> "DiffPoly":
        return total_derivative(self, "x")

    def dy(self) -> "DiffPoly":
        return total_derivative(self, "y")


def _accumulate(acc: dict, key, c) -> None:
    prev = acc.get(key)
    if prev is None:
        acc[key] = c
    else:
        s = prev + c
        if s == 0:
            del acc[key]
        else:
            acc[key] = s


def mul(a: DiffPoly, b: DiffPoly) -> DiffPoly:
    """Super-commutative product; grades add, odd factors anticommute."""
    acc = {}
    for (up1, ufs1, ths1), c1 in a._terms.items():
        for (up2, ufs2, ths2), c2 in b._terms.items():
            merged = _theta_merge(ths1, ths2)
            if merged is None:
                continue
            sign, ths = merged
            key = (up1 + up2, _ufactors_mul(ufs1, ufs2), ths)
            c = c1 * c2
            _accumulate(acc, key, c if sign > 0 else -c)
    return DiffPoly(acc)


def _ufactor_lower(ufs, i):
    """ufs with the exponent in slot i lowered by one (dropped at 0)."""
    idx, e = ufs[i]
    if e == 1:
        return ufs[:i] + ufs[i + 1 :]
    return ufs[:i] + ((idx, e - 1),) + ufs[i + 1 :]


def _ufactor_raise(ufs, start, idx):
    """ufs with the exponent of idx raised by one.

    idx belongs at slot start or later; the tuple stays ascending.
    """
    j, n = start, len(ufs)
    while j < n and ufs[j][0] < idx:
        j += 1
    if j < n and ufs[j][0] == idx:
        return ufs[:j] + ((idx, ufs[j][1] + 1),) + ufs[j + 1 :]
    return ufs[:j] + ((idx, 1),) + ufs[j:]


_THETA_RULES = {}  # (axis, thetas) -> the Leibniz images of the thetas


def _theta_rule(ths, ds, dt):
    """The images of the theta tuple ths under D, as (thetas, odd) pairs.

    One pair per slot i whose raised index is not already a factor, in
    slot order.  The raised index sorts above ths[i] and so above every
    later factor: it leaves slot i and lands in slot j <= i, and the two
    moves give the sign (-1)^(i - j), odd when i - j is.
    """
    out = []
    for i, (s, t) in enumerate(ths):
        raised = (s + ds, t + dt)
        j = 0
        while j < i and ths[j] > raised:
            j += 1
        if j < i and ths[j] == raised:
            continue
        out.append((ths[:j] + (raised,) + ths[j:i] + ths[i + 1 :], (i - j) & 1))
    return tuple(out)


def total_derivative(a: DiffPoly, axis: str) -> DiffPoly:
    """Total x- or y-derivative: even Leibniz derivation of degree +1.

    Works on the key tuples directly: a differentiated u-factor moves to
    a larger index, so its new slot is searched from its old one on.
    The theta part of a term is looked up in _THETA_RULES, one
    process-wide dict filled on first use by _theta_rule: a process
    meets few theta tuples (860 for the benchmark's lemmas pass, 79 for
    two order-6 conjugates, 610 for an order-12 one), so each is derived
    once per axis.  A coefficient is multiplied only by an exponent
    above 1 and negated for an odd sign, never multiplied by 1 or -1.
    Output terms are accumulated inline, without a function call per
    term, in the same order as without the dict.
    """
    if axis == "x":
        ds, dt = 1, 0
    elif axis == "y":
        ds, dt = 0, 1
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    acc = {}
    rules = _THETA_RULES
    for (upow, ufs, ths), c in a._terms.items():
        if upow:
            key = (upow - 1, _ufactor_raise(ufs, 0, (ds, dt)), ths)
            v = c if upow == 1 else c * upow
            prev = acc.get(key)
            if prev is None:
                acc[key] = v
            else:
                v = prev + v
                if v == 0:
                    del acc[key]
                else:
                    acc[key] = v
        for i, ((s, t), e) in enumerate(ufs):
            # every factor before slot i sorts below the raised index
            base = _ufactor_lower(ufs, i)
            key = (upow, _ufactor_raise(base, i, (s + ds, t + dt)), ths)
            v = c if e == 1 else c * e
            prev = acc.get(key)
            if prev is None:
                acc[key] = v
            else:
                v = prev + v
                if v == 0:
                    del acc[key]
                else:
                    acc[key] = v
        rule = rules.get((axis, ths))
        if rule is None:
            rule = rules[axis, ths] = _theta_rule(ths, ds, dt)
        for ths2, odd in rule:
            key = (upow, ufs, ths2)
            v = -c if odd else c
            prev = acc.get(key)
            if prev is None:
                acc[key] = v
            else:
                v = prev + v
                if v == 0:
                    del acc[key]
                else:
                    acc[key] = v
    return DiffPoly(acc)


def _partials(terms: dict, kind: str) -> dict:
    """Every partial d/d<kind>^(s,t) that terms has, as {s: {t: DiffPoly}}.

    One pass files each term under each partial it has; the terms of a
    partial come in the order of terms.  kind 'u' takes (0,0) as d/du,
    kind 'theta' is the left derivative.
    """
    if kind not in ("u", "theta"):
        raise ValueError(f"kind must be 'u' or 'theta', got {kind!r}")
    acc = {}
    for (upow, ufs, ths), c in terms.items():
        if kind == "u":
            if upow:
                part = acc.setdefault((0, 0), {})
                _accumulate(part, (upow - 1, ufs, ths), c if upow == 1 else c * upow)
            for i, (idx, e) in enumerate(ufs):
                part = acc.setdefault(idx, {})
                key = (upow, _ufactor_lower(ufs, i), ths)
                _accumulate(part, key, c if e == 1 else c * e)
        else:
            for i, idx in enumerate(ths):
                part = acc.setdefault(idx, {})
                key = (upow, ufs, ths[:i] + ths[i + 1 :])
                _accumulate(part, key, -c if i & 1 else c)
    by_s = {}
    for (s, t), part in acc.items():
        by_s.setdefault(s, {})[t] = DiffPoly(part)
    return by_s


def grade_of(a: DiffPoly) -> Optional[Grade]:
    """Common grade of all terms, or None for an inhomogeneous element.

    The zero polynomial is reported as Grade(0, 0, 0).
    """
    grade = None
    for key in a._terms:
        g = _key_grade(key)
        if grade is None:
            grade = g
        elif g != grade:
            return None
    return grade if grade is not None else Grade(0, 0, 0)


# -- finite bases -------------------------------------------------------


def _u_keys(a: int, b: int, w: int) -> tuple:
    """The theta-free keys of u-weight w, x-order a and y-order b, sorted.

    Built directly as ascending multisets of u-derivative indices (s, t)
    with s <= a and t <= b, at most w factors, the rest of the weight on
    the underived u.  The last factor is the index of the whole order
    left, so it is looked up; at w = 1 no index is even listed.
    """
    if a < 0 or b < 0:
        return ()
    indices = [(s, t) for s in range(a + 1) for t in range(b + 1) if s or t] if w > 1 else ()
    out = []

    def rec(pos, xs, ys, count, ufs):
        if not (xs or ys):
            out.append((w - count, ufs, ()))
            return
        if count == w:
            return  # order left but no factor left
        if count == w - 1:
            # one factor left: it is (xs, ys) itself, taken only if it
            # sorts after the last factor, so no multiset comes twice
            if not ufs or (xs, ys) > ufs[-1][0]:
                out.append((0, ufs + (((xs, ys), 1),), ()))
            return
        for i in range(pos, len(indices)):
            s, t = indices[i]
            if s > xs:
                break
            e = 1
            while e * s <= xs and e * t <= ys and count + e <= w:
                rec(i + 1, xs - e * s, ys - e * t, count + e, ufs + (((s, t), e),))
                e += 1

    rec(0, a, b, 0, ())
    return tuple(sorted(out))


def _theta_sets(degree: int, count: int, prev=None):
    """Strictly descending theta index tuples with given total degree.

    Descending refers to the tuple order on (s,t), which does not sort
    by degree: later indices may carry more derivatives than earlier
    ones as long as their tuple is smaller.
    """
    if count == 0:
        if degree == 0:
            yield ()
        return
    cands = sorted(
        ((s, dd - s) for dd in range(degree + 1) for s in range(dd + 1)),
        reverse=True,
    )
    for idx in cands:
        if prev is not None and idx >= prev:
            continue
        rest_deg = degree - idx[0] - idx[1]
        for rest in _theta_sets(rest_deg, count - 1, idx):
            yield (idx,) + rest


def enumerate_basis(g: Grade) -> list:
    """Complete monomial basis of the (d, p, w) component.

    Finite because d bounds every derivative order and w bounds the
    number of u factors.  The u parts of each theta degree are listed
    once, by x-order, and shared by that degree's theta sets.  Sorted by
    key.
    """
    d, p, w = g
    if d < 0 or p < 0 or w < 0:
        return []
    out = []
    for du in range(d + 1):
        thetas = list(_theta_sets(d - du, p))
        if not thetas:
            continue
        ukeys = [k for a in range(du + 1) for k in _u_keys(a, du - a, w)]
        for ths in thetas:
            for upow, ufs, _ in ukeys:
                out.append(Monomial(QQ(1), upow, ufs, ths))
    out.sort(key=lambda m: m.key)
    return out


def random_element(rng) -> DiffPoly:
    """A random homogeneous element for randomized identity checks.

    Draws a nonempty grade with d <= 5, p <= 3 and w <= 3, then sums two
    basis monomials with coefficients in -3..3 (so the sum may be zero).
    rng is a random.Random; the sequence of draws is fixed.
    """
    while True:
        d, p, w = rng.randint(0, 5), rng.randint(0, 3), rng.randint(0, 3)
        basis = enumerate_basis(Grade(d, p, w))
        if basis:
            break
    out = DiffPoly.zero()
    for _ in range(2):
        out = out + rng.choice(basis).as_poly().scale(QQ(rng.randint(-3, 3)))
    return out
