"""Sparse exact linear algebra over the rationals.

Systems are assembled from polynomial columns, with rows keyed by
monomial keys and columns by unknown indices.  Each column is scaled by
the lcm of its coefficient denominators, so the coefficient matrix is
integral; the scale is undone in the solution.

Elimination is fraction-free over Python ints (Bareiss 1968; von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 5).  The pivot row is
left undivided.  Every other row r holding f in the pivot column becomes
(a*r - b*pr) / content, where g = gcd(pv, f), a = pv/g, b = f/g and
content is the gcd of the new row's entries.

The pivot rule (leftmost column, then the pivot row with the fewest
nonzeros, index tie-break) depends only on row supports, and scaling a
row never changes its support.  So the pivots, and the solutions with
free unknowns set to zero, are those of Gauss-Jordan elimination over
QQ, and repeated runs produce identical solutions.  Arithmetic is
exact; there is no tolerance anywhere.

Factorization is the one solver: it eliminates a column set once and
records the integer row operations.  A right-hand side is reduced in
one place, the replay of those operations in Factorization.solve, and
only the right-hand side is rational; a pivot unknown is the reduced
rhs of its row over the final pivot value, times its column scale.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from math import gcd, lcm

from .rationals import QQ, ZERO


class SparseSystem:
    """The integer coefficient rows of a set of polynomial columns.

    rhs is the all-zero int list of a system without a right-hand side.
    It stays in _eliminate's signature, untouched, because the benchmark
    tracer (perfbench/tracer.py) reads it there.
    """

    def __init__(self, columns):
        rows = defaultdict(dict)
        self.scales = []
        for j, col in enumerate(columns):
            terms = col.terms
            s = lcm(*(int(c.denominator) for c in terms.values()))
            self.scales.append(s)
            for key, c in terms.items():
                if c:
                    rows[key][j] = int(c.numerator) * (s // int(c.denominator))
        self.ncols = len(self.scales)
        self.keys = sorted(rows)
        self.rows = [rows[k] for k in self.keys]
        self.rhs = [0] * len(self.keys)

    def _eliminate(self, ncols: int, rows, rhs, *, on_pivot):
        """Fraction-free Gauss-Jordan elimination of rows in place.

        on_pivot is called once per pivot column with the pivot row, the
        other rows reduced and their (a, b, content) triples: the row
        operations, in order, that Factorization replays on a
        right-hand side.  rhs is not read.
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
            targets = [i for i in holders if i != piv and rows[i].get(col)]
            ops = []
            for i in targets:
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
                content = gcd(*r.values()) or 1
                if content != 1:
                    r = {k: v // content for k, v in r.items()}
                rows[i] = r
                ops.append((a, b, content))
            on_pivot(piv, targets, ops)
            colindex[col] = {piv}
        return used, pivot_of


class Factorization:
    """Columns eliminated once; solve replays the elimination on a rhs.

    The record holds, per pivot column, the pivot row and the range of
    its updates; an update is a target row index (all packed in one int
    array) and its integer (a, b, content) triple (interned, in one
    tuple).  The replay in solve is the only place a right-hand side is
    reduced, tested for feasibility and back-substituted.
    """

    __slots__ = ("ncols", "pivot_columns", "_row_of", "_steps", "_targets",
                 "_ops", "_free_rows", "_pivots")

    def __init__(self, columns):
        system = SparseSystem(columns)
        interned = {}
        steps = []
        targets = array("i")
        ops = []

        def on_pivot(piv, rows_hit, triples):
            lo = len(targets)
            targets.extend(rows_hit)
            ops.extend(interned.setdefault(t, t) for t in triples)
            steps.append((piv, lo, len(targets)))

        rows = system.rows
        self.ncols = system.ncols
        used, pivot_of = system._eliminate(self.ncols, rows, system.rhs, on_pivot=on_pivot)
        self.pivot_columns = frozenset(pivot_of)
        self._row_of = {key: i for i, key in enumerate(system.keys)}
        self._steps = tuple(steps)
        self._targets = memoryview(targets).toreadonly()
        self._ops = tuple(ops)
        free = array("i", (i for i in range(len(rows)) if i not in used))
        self._free_rows = memoryview(free).toreadonly()
        # a pivot unknown is its row's rhs times scale / final pivot value
        self._pivots = tuple(
            (col, piv, QQ(system.scales[col], rows[piv][col]))
            for col, piv in sorted(pivot_of.items())
        )

    def independent_from(self, n: int) -> bool:
        """Whether columns n, n+1, ... are independent modulo columns 0..n-1.

        Pivot columns are taken leftmost first, so column j is a pivot
        exactly when it is independent of columns 0..j-1; every column
        from n on is then a pivot exactly when those columns are
        independent modulo the span of the first n.
        """
        return all(j in self.pivot_columns for j in range(n, self.ncols))

    def solve(self, rhs):
        """Coefficients expressing the polynomial rhs over the columns.

        Free unknowns are set to zero; None when rhs is outside the span.
        """
        vec = [ZERO] * len(self._row_of)
        row_of = self._row_of
        for key, c in rhs.terms.items():
            i = row_of.get(key)
            if i is None:
                return None
            vec[i] = QQ(c)
        targets, ops = self._targets, self._ops
        for piv, lo, hi in self._steps:
            r = vec[piv]
            if r:
                for i, (a, b, g) in zip(targets[lo:hi], ops[lo:hi]):
                    v = a * vec[i] - b * r
                    vec[i] = v / g if g != 1 else v
                continue
            # with r zero a row operation only rescales its target
            for i, (a, _, g) in zip(targets[lo:hi], ops[lo:hi]):
                if a != 1 or g != 1:
                    v = vec[i]
                    if v:
                        v = a * v
                        vec[i] = v / g if g != 1 else v
        if any(vec[i] for i in self._free_rows):
            return None
        sol = [ZERO] * self.ncols
        for col, piv, m in self._pivots:
            v = vec[piv]
            if v:
                sol[col] = v * m
        return sol
