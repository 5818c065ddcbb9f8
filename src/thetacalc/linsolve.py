"""Sparse exact linear algebra over the rationals.

Systems are assembled with rows keyed by monomial keys and columns by
unknown indices, then reduced by deterministic leftmost-column
elimination (pivot row chosen by fewest nonzeros, index tie-break), so
repeated runs produce identical solutions.  Arithmetic is exact, there
is no tolerance anywhere.

A Factorization eliminates a column set once and keeps the row
operations; each later solve replays them on the right-hand side alone,
so a coefficient matrix that recurs is reduced only once.
"""

from __future__ import annotations

from array import array
from collections import defaultdict

from .rationals import ZERO


class SparseSystem:
    """A x = b with sparse rational rows."""

    def __init__(self):
        self._rows = defaultdict(dict)
        self._rhs = defaultdict(lambda: ZERO)

    def add(self, row_key, col: int, coeff) -> None:
        row = self._rows[row_key]
        c = row.get(col, ZERO) + coeff
        if c == 0:
            row.pop(col, None)
        else:
            row[col] = c

    def add_rhs(self, row_key, coeff) -> None:
        c = self._rhs[row_key] + coeff
        if c == 0:
            self._rhs.pop(row_key, None)
        else:
            self._rhs[row_key] = c

    def add_poly_column(self, col: int, poly) -> None:
        for key, c in poly.terms.items():
            self.add(key, col, c)

    def add_poly_rhs(self, poly) -> None:
        for key, c in poly.terms.items():
            self.add_rhs(key, c)

    def _materialize(self):
        keys = sorted(set(self._rows) | set(self._rhs))
        rows = [dict(self._rows.get(k, ())) for k in keys]
        rhs = [self._rhs.get(k, ZERO) for k in keys]
        return keys, rows, rhs

    def _eliminate(self, ncols: int, rows, rhs, *, on_pivot=None):
        """Gauss-Jordan elimination of rows and rhs in place.

        on_pivot, when given, is called once per pivot column with the
        pivot row, the pivot value, and the other rows reduced with
        their factors: the row operations, in order, that Factorization
        replays on a later right-hand side.
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
            if pv != 1:
                for k in pr:
                    pr[k] /= pv
                rhs[piv] /= pv
            rp = rhs[piv]
            targets = []
            factors = []
            for i in holders:
                f = rows[i].get(col)
                if f and i != piv:
                    targets.append(i)
                    factors.append(f)
            for i, f in zip(targets, factors):
                r = rows[i]
                for k, v in pr.items():
                    nv = r.get(k, ZERO) - f * v
                    if nv == 0:
                        r.pop(k, None)
                    else:
                        r[k] = nv
                        colindex[k].add(i)
                if rp:
                    rhs[i] = rhs[i] - f * rp
            if on_pivot is not None:
                on_pivot(piv, pv, targets, factors)
            colindex[col] = {piv}
        return used, pivot_of

    def solve(self, ncols: int):
        """One exact solution with free unknowns set to zero, or None.

        After the full sweep every non-pivot row is identically zero on
        the coefficient side, so feasibility is just their rhs values.
        """
        _, rows, rhs = self._materialize()
        used, pivot_of = self._eliminate(ncols, rows, rhs)
        for i, r in enumerate(rows):
            if i not in used and rhs[i] != 0:
                return None
        sol = [ZERO] * ncols
        for col, piv in pivot_of.items():
            sol[col] = rhs[piv]
        return sol

    def rank(self, ncols: int) -> int:
        _, rows, rhs = self._materialize()
        used, pivot_of = self._eliminate(ncols, rows, rhs)
        return len(pivot_of)


def solve_poly_system(columns, rhs):
    """Express rhs as a rational combination of the given polynomials.

    Returns the coefficient list or None when rhs is outside the span.
    """
    system = SparseSystem()
    for j, col in enumerate(columns):
        system.add_poly_column(j, col)
    system.add_poly_rhs(rhs)
    return system.solve(len(columns))


def poly_rank(columns) -> int:
    system = SparseSystem()
    for j, col in enumerate(columns):
        system.add_poly_column(j, col)
    return system.rank(len(columns))


class Factorization:
    """Columns eliminated once; solve replays the elimination on a rhs.

    The record holds, per pivot column, the pivot row, the pivot value
    and the (row, factor) updates, packed: row indices in one int array,
    factors in one tuple of interned values.  Solutions equal those of
    solve_poly_system on the same columns.
    """

    __slots__ = ("ncols", "pivot_columns", "_row_of", "_steps", "_targets",
                 "_factors", "_free_rows", "_pivots")

    def __init__(self, columns):
        system = SparseSystem()
        for j, col in enumerate(columns):
            system.add_poly_column(j, col)
        keys, rows, rhs = system._materialize()
        interned = {}
        steps = []
        targets = array("i")
        factors = []

        def on_pivot(piv, pv, rows_hit, fs):
            lo = len(targets)
            targets.extend(rows_hit)
            factors.extend(interned.setdefault(f, f) for f in fs)
            steps.append((piv, interned.setdefault(pv, pv), lo, len(targets)))

        self.ncols = len(columns)
        used, pivot_of = system._eliminate(self.ncols, rows, rhs, on_pivot=on_pivot)
        self.pivot_columns = frozenset(pivot_of)
        self._row_of = {key: i for i, key in enumerate(keys)}
        self._steps = tuple(steps)
        self._targets = memoryview(targets).toreadonly()
        self._factors = tuple(factors)
        free = array("i", (i for i in range(len(rows)) if i not in used))
        self._free_rows = memoryview(free).toreadonly()
        self._pivots = tuple(sorted(pivot_of.items()))

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
            vec[i] = c
        targets, factors = self._targets, self._factors
        for piv, pv, lo, hi in self._steps:
            r = vec[piv]
            if not r:
                continue
            if pv != 1:
                r = vec[piv] = r / pv
            for i, f in zip(targets[lo:hi], factors[lo:hi]):
                vec[i] = vec[i] - f * r
        if any(vec[i] for i in self._free_rows):
            return None
        sol = [ZERO] * self.ncols
        for col, piv in self._pivots:
            sol[col] = vec[piv]
        return sol
