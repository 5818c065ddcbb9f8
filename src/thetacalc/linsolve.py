"""Sparse exact linear algebra over the rationals.

Systems are assembled from polynomial columns, with rows keyed by
monomial keys and columns by unknown indices.  Each column is lifted to
ints by rationals.lift, scaled by the lcm of its coefficient
denominators, so the coefficient matrix is integral, and the right-hand
side by the lcm of its own; both scales are undone in the solution.  A
column with int coefficients (every generator column is one) goes into
the rows as it is, with scale 1.

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

solve reduces the right-hand side inside the elimination and keeps
nothing.  Most rows of a coboundary slice end as zero, and reducing
them is most of the work, so it eliminates a subset of the rows in
rounds.  Round k takes every row that no column holds (a key of the
right-hand side that no column reaches) and, for each column in turn,
the k sparsest rows holding it that no earlier column took.  A round
whose own rows disagree returns None; otherwise its candidate is checked
in ints on every row left out and returned when every residual is zero
(at once when the round took every row).  When one is not, k doubles,
so a round eventually takes every row.  The answer is the one of
eliminating every row:

  - column j is a pivot exactly when it is independent of columns
    0..j-1 over the rows eliminated.  A column that depends on earlier
    ones over all rows does so over any subset, so the subset's pivot
    columns are among the full pivot columns;
  - the full pivot columns are independent, so at most one vector
    supported on them solves every row: the full solution with free
    unknowns zero;
  - the subset solution is supported on the subset's pivots, so once
    it solves the rows left out too, it is that vector, value for
    value;
  - a subset of the equations with no solution proves that the whole
    system has none.

No rank bound is needed.  The one proposed for coboundary slices, the
column count less the Hamiltonian fields, fails where H^1 is nonzero:
at (d even, w = 0, a = d-1) it allows rank 1, but the one column, that
of u^(d-1,0)*th, is zero.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd, lcm

from .rationals import QQ, ZERO, lift


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
            s, entries = lift(col.terms)
            self.scales.append(s)
            for key, v in entries.items():
                rows[key][j] = v
        self.rhs_scale, b = lift(rhs.terms)
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

    def _pivots(self, rows, rhs):
        """Eliminate rows and rhs in place.

        Returns each pivot unknown with a nonzero value as
        {column: (rhs entry, pivot entry)} of its pivot row, or None when a
        row off the pivots keeps a nonzero right-hand side.
        """
        used, pivot_of = self._eliminate(self.ncols, rows, rhs)
        if any(rhs[i] for i in range(len(rows)) if i not in used):
            return None
        return {col: (rhs[piv], rows[piv][col]) for col, piv in pivot_of.items() if rhs[piv]}

    def _satisfies(self, pivots, skip):
        """Whether the pivot values solve every row outside skip, in ints.

        Each value is v/pv; over their common denominator L the row
        equation sum_j r_j v_j/pv_j = b reads sum_j r_j (v_j L/pv_j) = b L.
        """
        L = lcm(*(pv for _, pv in pivots.values()))
        num = {col: v * (L // pv) for col, (v, pv) in pivots.items()}
        b = self.rhs
        for i, r in enumerate(self.rows):
            if i in skip:
                continue
            total = 0
            for col, v in r.items():
                n = num.get(col)
                if n is not None:
                    total += v * n
            if total != b[i] * L:
                return False
        return True

    def _solution(self, pivots):
        """The solution from _pivots' pivot unknowns; None passes through."""
        if pivots is None:
            return None
        sol = [ZERO] * self.ncols
        for col, (v, pv) in pivots.items():
            sol[col] = QQ(v * self.scales[col], pv * self.rhs_scale)
        return sol


def solve(columns, rhs):
    """Coefficients expressing the polynomial rhs over the columns.

    Free unknowns are set to zero; None when rhs is outside the span.
    Solved in rounds on row subsets (see the module docstring).
    """
    system = SparseSystem(columns, rhs)
    rows, b = system.rows, system.rhs
    # each column's rows, sparsest first (sorted is stable: index tie-break)
    holders = [[] for _ in range(system.ncols)]
    for i in sorted(range(len(rows)), key=[len(r) for r in rows].__getitem__):
        for col in rows[i]:
            holders[col].append(i)
    k = 1
    while True:
        taken = {i: None for i, r in enumerate(rows) if not r}  # keys no column reaches
        for hs in holders:
            n = 0
            for i in hs:
                if n == k:
                    break
                if i not in taken:
                    taken[i] = None
                    n += 1
        pivots = system._pivots([dict(rows[i]) for i in taken], [b[i] for i in taken])
        if pivots is None or len(taken) == len(rows) or system._satisfies(pivots, taken):
            return system._solution(pivots)
        k *= 2
