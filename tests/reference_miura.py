"""The Miura push with a rescaled copy per term, for tests only.

reference_miura_apply is the loop that miura_apply replaced: each chain
brackets the unscaled term ad_X^n F with X, adds a copy divided by n!
into its component as soon as the bracket returns it, and brackets on
with the unscaled term.  Its brackets are reference_schouten's, the
textbook form with both products and no folded sign, so the oracle
tests compare the push and the bracket with code that shares neither.
"""

from math import factorial

from reference_normalize import reference_schouten

from thetacalc.rationals import QQ
from thetacalc.schouten import BracketSeries


def reference_miura_apply(X, P, order=None):
    """exp(ad_X) P truncated at standard degree order + 1."""
    if order is None:
        order = P.order
    if X.density.is_zero():
        return P.truncate(order)
    m = X.standard_degree()
    acc = {}

    def put(d, F):
        if d in acc:
            acc[d] = acc[d] + F
        else:
            acc[d] = F

    for d, F in P.components.items():
        if d > order + 1:
            continue
        put(d, F)
        Q = F
        n = 0
        while d + (n + 1) * m <= order + 1:
            n += 1
            Q = reference_schouten(X, Q)
            if Q.density.is_zero():
                break
            put(d + n * m, Q if n == 1 else Q.scale(QQ(1, factorial(n))))
    return BracketSeries(order, acc)
