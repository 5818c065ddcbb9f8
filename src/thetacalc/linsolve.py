"""Sparse exact linear algebra over the rationals.

Systems are assembled from polynomial columns, with rows keyed by
monomial keys and columns by unknown indices.  Each column is scaled by
the lcm of its coefficient denominators, so the coefficient matrix is
integral, and the right-hand side by the lcm of its own; both scales are
undone in the solution.

Elimination is fraction-free over Python ints (Bareiss 1968; von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 5).  The pivot row is
left undivided.  Every other row r holding f in the pivot column becomes
(a*r - b*pr) / content, where g = gcd(pv, f), a = pv/g, b = f/g and
content is the gcd of the new row's entries and its right-hand side,
which takes the same update.

The pivot rule (leftmost column, then the pivot row with the fewest
nonzeros, index tie-break) depends only on row supports, and scaling a
row never changes its support.  So the pivots, and the solutions with
free unknowns set to zero, are those of Gauss-Jordan elimination over
QQ, and repeated runs produce identical solutions.  Arithmetic is
exact; there is no tolerance anywhere.

solve is the one entry point: each call eliminates once, reduces its
right-hand side with the rows, and keeps nothing.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd, lcm

from .rationals import QQ, ZERO


def _integral(poly):
    """The lcm s of poly's coefficient denominators, and its nonzero
    coefficients times s as ints."""
    terms = poly.terms
    s = lcm(*(int(c.denominator) for c in terms.values()))
    return s, {k: int(c.numerator) * (s // int(c.denominator)) for k, c in terms.items() if c}


class SparseSystem:
    """The integer rows of a set of polynomial columns and a right-hand side.

    rhs is the integer right-hand side, one entry per row, scaled by
    rhs_scale.  A key of the right-hand side that no column reaches is an
    empty row with a nonzero rhs entry.
    """

    def __init__(self, columns, rhs):
        rows = defaultdict(dict)
        self.scales = []
        for j, col in enumerate(columns):
            s, entries = _integral(col)
            self.scales.append(s)
            for key, v in entries.items():
                rows[key][j] = v
        self.rhs_scale, b = _integral(rhs)
        for key in b:
            rows.setdefault(key, {})
        self.ncols = len(self.scales)
        keys = sorted(rows)
        self.rows = [rows[k] for k in keys]
        self.rhs = [b.get(k, 0) for k in keys]

    def _eliminate(self, ncols: int, rows, rhs):
        """Fraction-free Gauss-Jordan elimination of rows and rhs in place.

        Returns the pivot rows and the map from pivot column to pivot row.
        """
        colindex = defaultdict(set)
        for i, r in enumerate(rows):
            for c in r:
                colindex[c].add(i)
        used = set()
        pivot_of = {}
        for col in range(ncols):
            holders = colindex.get(col)
            if not holders:
                continue
            best = None
            for i in holders:
                if i in used or not rows[i].get(col):
                    continue
                size = (len(rows[i]), i)
                if best is None or size < best[0]:
                    best = (size, i)
            if best is None:
                continue
            piv = best[1]
            used.add(piv)
            pivot_of[col] = piv
            pr = rows[piv]
            pv = pr[col]
            rp = rhs[piv]
            for i in [i for i in holders if i != piv and rows[i].get(col)]:
                r = rows[i]
                f = r[col]
                g = gcd(pv, f)
                a, b = pv // g, f // g
                if a != 1:
                    r = {k: a * v for k, v in r.items()}
                for k, v in pr.items():
                    nv = r.get(k, 0) - b * v
                    if nv:
                        r[k] = nv
                        colindex[k].add(i)
                    else:
                        r.pop(k, None)
                ri = a * rhs[i] - b * rp
                content = gcd(ri, *r.values()) or 1
                if content != 1:
                    r = {k: v // content for k, v in r.items()}
                    ri //= content
                rows[i] = r
                rhs[i] = ri
            colindex[col] = {piv}
        return used, pivot_of


def solve(columns, rhs):
    """Coefficients expressing the polynomial rhs over the columns.

    Free unknowns are set to zero; None when rhs is outside the span.
    """
    system = SparseSystem(columns, rhs)
    rows, b = system.rows, system.rhs
    used, pivot_of = system._eliminate(system.ncols, rows, b)
    if any(b[i] for i in range(len(rows)) if i not in used):
        return None
    sol = [ZERO] * system.ncols
    for col, piv in pivot_of.items():
        if b[piv]:
            sol[col] = QQ(b[piv] * system.scales[col], rows[piv][col] * system.rhs_scale)
    return sol
