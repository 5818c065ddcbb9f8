"""Reference Euler operator, total derivative, partial derivative, odd
derivation, splitting map and coboundary column, for tests only.

reference_partial is the per-index partial derivative that
thetacalc.algebra replaced by its one-pass kernel: one scan over every
term of f for a single index, with the lowered u-exponent rebuilt through
a dict and a sort.

reference_total_derivative is the dict-and-sort total derivative that
thetacalc.algebra replaced by its tuple-native one: every differentiated
u-factor goes through a dict of exponents and a sorted rebuild, and every
coefficient is multiplied by its exponent or sign.

reference_euler is the two-loop Horner evaluation of

    sum over (s,t) of (-dx)^s (-dy)^t d f / d<kind>^(s,t)

that thetacalc.variational replaced by its sign-folded sweep: for each s
the accumulator is differentiated and negated, acc = -dy(acc) + f_(s,t),
running t downwards, and the per-s sums are then combined the same way
with dx.  It takes one reference_partial per index, differentiates with
reference_total_derivative and never lifts to ints, so it shares no code
with the production kernels beyond DiffPoly and the product helpers.  It
is also the oracle for the closed forms that thetacalc.variational uses
for var_theta on u-free bivector terms c th^a th^b and for var_u on
linear terms c u^(s,t) th^b: reference_euler runs the full two-loop
sweep on those terms too.

reference_delta and reference_bockstein_split are the odd derivation
sum th^(s,t+1) d/du^(s,t) and the splitting map sum u^(i,0) d/dth^(i,0)
as the key-level loops that thetacalc.cohomology replaced by sums over
its partial-derivative kernel: each term is edited in place, a theta
factor inserted by _theta_insert and a u-exponent lowered through
_ufactor_set.

reference_ad_p1_column is the coboundary column that thetacalc.cohomology
replaced by its direct Leibniz expansion: var_theta of the density
reference_delta(m*th), all coordinates, even and odd order, by the Horner
sweeps that test_euler_operators_match_two_loop_reference checks against
reference_euler.
"""

from thetacalc.algebra import DiffPoly, _accumulate, _ufactors_mul, mul
from thetacalc.variational import var_theta


def _theta_insert(th, ths):
    """Multiply th from the left into a canonical tuple.

    Returns (sign, tuple) or None when the index is already present.
    """
    for i, existing in enumerate(ths):
        if th > existing:
            return -1 if i & 1 else 1, ths[:i] + (th,) + ths[i:]
        if th == existing:
            return None
    return -1 if len(ths) & 1 else 1, ths + (th,)


def _ufactor_set(ufs, idx, e):
    """Return ufs with the exponent of idx set to e (dropped when 0)."""
    acc = dict(ufs)
    if e:
        acc[idx] = e
    else:
        del acc[idx]
    return tuple(sorted(acc.items()))


def reference_partial(a, kind, s, t):
    """d a / d<kind>^(s,t); kind 'u' with (0,0) is d/du, 'theta' the left derivative."""
    acc = {}
    if kind == "u":
        if s == 0 and t == 0:
            for (upow, ufs, ths), c in a.terms.items():
                if upow:
                    _accumulate(acc, (upow - 1, ufs, ths), c * upow)
        else:
            idx = (s, t)
            for (upow, ufs, ths), c in a.terms.items():
                for (si, ti), e in ufs:
                    if (si, ti) == idx:
                        key = (upow, _ufactor_set(ufs, idx, e - 1), ths)
                        _accumulate(acc, key, c * e)
                        break
    elif kind == "theta":
        idx = (s, t)
        for (upow, ufs, ths), c in a.terms.items():
            for i, th in enumerate(ths):
                if th == idx:
                    sign = -1 if i & 1 else 1
                    key = (upow, ufs, ths[:i] + ths[i + 1 :])
                    _accumulate(acc, key, sign * c)
                    break
    else:
        raise ValueError(f"kind must be 'u' or 'theta', got {kind!r}")
    return DiffPoly(acc)


def reference_total_derivative(a, axis):
    """Total x- or y-derivative: even Leibniz derivation of degree +1."""
    ds, dt = {"x": (1, 0), "y": (0, 1)}[axis]
    acc = {}
    for (upow, ufs, ths), c in a.terms.items():
        if upow:
            key = (upow - 1, _ufactors_mul(ufs, (((ds, dt), 1),)), ths)
            _accumulate(acc, key, c * upow)
        for (s, t), e in ufs:
            base = _ufactor_set(ufs, (s, t), e - 1)
            key = (upow, _ufactors_mul(base, (((s + ds, t + dt), 1),)), ths)
            _accumulate(acc, key, c * e)
        for i, (s, t) in enumerate(ths):
            res = _theta_insert((s + ds, t + dt), ths[:i] + ths[i + 1 :])
            if res is None:
                continue
            sign, new_ths = res
            if i & 1:
                sign = -sign
            _accumulate(acc, (upow, ufs, new_ths), sign * c)
    return DiffPoly(acc)


def reference_euler(f, kind):
    """The theta (kind 'theta') or u (kind 'u') variational derivative of f."""
    partials = {}
    for upow, ufs, ths in f.terms:
        if kind == "u":
            if upow:
                partials.setdefault((0, 0), None)
            for idx, _ in ufs:
                partials.setdefault(idx, None)
        else:
            for idx in ths:
                partials.setdefault(idx, None)
    if not partials:
        return DiffPoly.zero()
    for idx in partials:
        partials[idx] = reference_partial(f, kind, idx[0], idx[1])
    smax = max(s for s, _ in partials)
    by_s = []
    for s in range(smax + 1):
        col = {t: g for (si, t), g in partials.items() if si == s}
        if not col:
            by_s.append(DiffPoly.zero())
            continue
        acc = DiffPoly.zero()
        for t in range(max(col), -1, -1):
            acc = -reference_total_derivative(acc, "y")
            if t in col:
                acc = acc + col[t]
        by_s.append(acc)
    acc = DiffPoly.zero()
    for s in range(smax, -1, -1):
        acc = -reference_total_derivative(acc, "x") + by_s[s]
    return acc


def reference_delta(a):
    """The odd derivation sum th^(s,t+1) d/du^(s,t)."""
    acc = {}
    for (upow, ufs, ths), c in a.terms.items():
        if upow:
            res = _theta_insert((0, 1), ths)
            if res is not None:
                sign, nths = res
                _accumulate(acc, (upow - 1, ufs, nths), sign * c * upow)
        for (s, t), e in ufs:
            res = _theta_insert((s, t + 1), ths)
            if res is not None:
                sign, nths = res
                key = (upow, _ufactor_set(ufs, (s, t), e - 1), nths)
                _accumulate(acc, key, sign * c * e)
    return DiffPoly(acc)


def reference_bockstein_split(t):
    """The splitting map sum u^(i,0) d/dth^(i,0) (left derivatives)."""
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


def reference_ad_p1_column(m):
    """theta-derivative coordinates of ad_p1 of the evolutionary field m*th."""
    return var_theta(reference_delta(mul(m, DiffPoly({(0, (), ((0, 0),)): 1}))))
