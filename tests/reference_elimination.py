"""Reference sparse eliminator over Fraction, for tests only.

Plain Gauss-Jordan elimination over the rationals with the pivot rule of
thetacalc.linsolve (leftmost column, then the pivot row with the fewest
nonzeros, index tie-break): the pivot row is divided by its pivot and
every other row holding the column loses f times it.  linsolve's
fraction-free integer kernel must give exactly these solutions.  The
rank questions of the tests (pivot columns, rank) are answered here
only; the library decides its lemmas by certificates.
"""

from collections import defaultdict
from fractions import Fraction


def _system(columns, rhs_terms):
    rows = defaultdict(dict)
    for j, col in enumerate(columns):
        for key, c in col.terms.items():
            if c:
                rows[key][j] = Fraction(c)
    b = {k: Fraction(c) for k, c in rhs_terms.items() if c}
    keys = sorted(set(rows) | set(b))
    return [dict(rows.get(k, {})) for k in keys], [b.get(k, Fraction(0)) for k in keys]


def _eliminate(ncols, rows, rhs):
    colindex = defaultdict(set)
    for i, r in enumerate(rows):
        for c in r:
            colindex[c].add(i)
    used = set()
    pivot_of = {}
    for col in range(ncols):
        candidates = [i for i in colindex.get(col, ()) if i not in used and rows[i].get(col)]
        if not candidates:
            continue
        piv = min(candidates, key=lambda i: (len(rows[i]), i))
        used.add(piv)
        pivot_of[col] = piv
        pr = rows[piv]
        pv = pr[col]
        for k in pr:
            pr[k] /= pv
        rhs[piv] /= pv
        for i in [i for i in colindex[col] if i != piv and rows[i].get(col)]:
            r = rows[i]
            f = r[col]
            for k, v in pr.items():
                nv = r.get(k, 0) - f * v
                if nv:
                    r[k] = nv
                    colindex[k].add(i)
                else:
                    r.pop(k, None)
            rhs[i] -= f * rhs[piv]
        colindex[col] = {piv}
    return used, pivot_of


def reference_solve(columns, rhs):
    """Coefficients of rhs over the columns (free unknowns zero), or None."""
    rows, b = _system(columns, rhs.terms)
    used, pivot_of = _eliminate(len(columns), rows, b)
    if any(b[i] for i in range(len(rows)) if i not in used):
        return None
    sol = [Fraction(0)] * len(columns)
    for col, piv in pivot_of.items():
        sol[col] = b[piv]
    return sol


def reference_pivot_columns(columns):
    """The pivot columns, ascending.  Pivots are taken leftmost first, so
    column j is a pivot exactly when it is independent of columns
    0..j-1."""
    rows, b = _system(columns, {})
    return sorted(_eliminate(len(columns), rows, b)[1])


def reference_rank(columns):
    return len(reference_pivot_columns(columns))
