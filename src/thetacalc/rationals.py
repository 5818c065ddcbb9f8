"""Exact rational coefficients, and their one lift to integers.

fractions.Fraction is the default.  When gmpy2 is installed (the
optional `fast` extra, `pip install -e .[fast]`), its mpq is used
instead.  Sparse elimination runs on Python ints either way (see
linsolve), so the backend affects only the remaining rational work.

lift is the one place that multiplies a density's coefficients up to
Python ints: the sparse elimination lifts every column and right-hand
side with it, and the Euler operators (see variational) lift a longer
all-rational density with it.
"""

from math import lcm

try:
    from gmpy2 import mpq as QQ

    _MPZ = True  # as_integer_ratio gives mpz, which lift turns into ints
except ImportError:
    from fractions import Fraction as QQ

    _MPZ = False

ZERO = QQ(0)


def lift(terms):
    """(L, ints): the lcm L of the coefficient denominators of the dict
    terms (an int counts as 1) and its coefficients times L as Python
    ints.  An all-int dict is returned as it is, with L = 1."""
    if all(type(c) is int for c in terms.values()):
        return 1, terms
    # one read per coefficient; Fraction's ratio is made of ints already
    ratios = {k: c.as_integer_ratio() for k, c in terms.items()}
    L = lcm(*{q for _, q in ratios.values()})
    if _MPZ:
        return L, {k: int(p * (L // q)) for k, (p, q) in ratios.items()}
    return L, {k: p * (L // q) for k, (p, q) in ratios.items()}


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
