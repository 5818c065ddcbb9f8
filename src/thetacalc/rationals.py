"""Exact rational coefficients.

fractions.Fraction is the default.  When gmpy2 is installed (the
optional `fast` extra, `pip install -e .[fast]`), its mpq is used
instead.  Sparse elimination runs on Python ints either way (see
linsolve), so the backend affects only the remaining rational work.
"""

try:
    from gmpy2 import mpq as QQ
except ImportError:
    from fractions import Fraction as QQ

ZERO = QQ(0)


def rat(p, q=1):
    """Build an exact rational from integers or a 'p/q' string."""
    if isinstance(p, str):
        if "/" in p:
            num, den = p.split("/", 1)
            return QQ(int(num), int(den))
        return QQ(int(p))
    return QQ(p, q)


def rat_str(x) -> str:
    """Serialize a rational as 'p' or 'p/q' (exactness survives JSON)."""
    n, d = x.numerator, x.denominator
    return f"{n}/{d}" if d != 1 else f"{n}"
