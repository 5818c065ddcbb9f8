"""Reference Euler operator, for tests only.

The two-loop Horner evaluation of

    sum over (s,t) of (-dx)^s (-dy)^t d f / d<kind>^(s,t)

that thetacalc.variational replaced by its sign-folded sweep: for each s
the accumulator is differentiated and negated, acc = -dy(acc) + f_(s,t),
running t downwards, and the per-s sums are then combined the same way
with dx.  Every step goes through the public DiffPoly operations, so it
shares no code with the production sweep beyond the algebra itself.
"""

from thetacalc.algebra import DiffPoly, partial_derivative, total_derivative


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
        partials[idx] = partial_derivative(f, kind, idx[0], idx[1])
    smax = max(s for s, _ in partials)
    by_s = []
    for s in range(smax + 1):
        col = {t: g for (si, t), g in partials.items() if si == s}
        if not col:
            by_s.append(DiffPoly.zero())
            continue
        acc = DiffPoly.zero()
        for t in range(max(col), -1, -1):
            acc = -total_derivative(acc, "y")
            if t in col:
                acc = acc + col[t]
        by_s.append(acc)
    acc = DiffPoly.zero()
    for s in range(smax, -1, -1):
        acc = -total_derivative(acc, "x") + by_s[s]
    return acc
