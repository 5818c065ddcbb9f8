"""Reference decisions of the square lemma's outer-sum split and chain
systems and of the varder lemma by elimination, for tests only.

reference_split_leaks is the leak check that
thetacalc.cohomology.verify_square_lemma replaced by its leading-monomial
certificate: the dx images of the four-theta basis monomials of degree
2k-1 are split by the outer index sum of their preimage, the monomials
of the lower images (sum <= k-1) are collected, and the pivot columns
of the upper images followed by those unit monomials tell whether the
units stay independent modulo the upper images.  The split leaks when
they do not.

reference_chain_feasible is the elimination that verify_square_lemma
replaced by its dual certificate: per leading index t, the chain columns
(the dx images of the monomials (l, t, k-t, k-l-1), restricted to the
block keys (i, t, k-t, k-i)) are built once, and the product of every
pair (s, t), s > t, restricted to the block, is solved over them.

reference_varder_solvable is the decision that verify_varder_lemma
replaced by the theta Euler identity: var_theta of every basis monomial
of theta_basis(3, d) is one column, and each target th^(d-i,0) th^(i,0)
is solved over those columns.

theta_basis lists the standard monomials of the constant-theta ring;
the verifiers no longer enumerate them, the tests and these references
do.  reduce_mod_dx is the canonical reduction of that ring modulo the
image of dx; the tests use it as the square lemma's oracle.
"""

from reference_elimination import reference_pivot_columns

from thetacalc.algebra import DiffPoly, mul
from thetacalc.cohomology import _descending_tuples, theta_monomial
from thetacalc.linsolve import solve
from thetacalc.rationals import QQ
from thetacalc.variational import var_theta


def is_theta_poly(a):
    """True when a lives in the ring generated by th^(k,0) alone."""
    for upow, ufs, ths in a.terms:
        if upow or ufs or any(t != 0 for _, t in ths):
            return False
    return True


def _theta_key(key):
    """Lexicographic sort key of a constant-theta monomial."""
    return tuple(s for s, _ in key[2])


def reduce_mod_dx(t):
    """Canonical representative modulo the image of dx.

    Standard monomials whose leading index exceeds the second by at
    least two (or any derived theta at super degree one) are tops of
    dx-images; they are eliminated by a descending lexicographic sweep,
    leaving a combination of quotient-basis monomials.
    """
    if not is_theta_poly(t):
        raise ValueError("reduce_mod_dx expects a constant-theta element")
    cur = t

    def top_preimage(ths):
        ks = tuple(s for s, _ in ths)
        if len(ks) == 1:
            if ks[0] >= 1:
                return (ks[0] - 1,)
        elif len(ks) >= 2 and ks[0] >= ks[1] + 2:
            return (ks[0] - 1,) + ks[1:]
        return None

    while True:
        best = None
        for key in cur.terms:
            pre = top_preimage(key[2])
            if pre is None:
                continue
            lex = _theta_key(key)
            if best is None or lex > best[0]:
                best = (lex, key, pre)
        if best is None:
            return cur
        _, key, pre = best
        cur = cur - theta_monomial(pre).dx().scale(cur.terms[key])


def theta_basis(p, d):
    """Standard monomials th^(i1,0)...th^(ip,0), i1 > ... > ip >= 0."""
    out = [theta_monomial(ks) for ks in _descending_tuples(p, d, d)]
    out.sort(key=lambda m: next(iter(m.terms)), reverse=True)
    return out


def reference_split_leaks(k):
    """True when some nonzero combination of upper images lives on the
    monomials of the lower images."""
    seen = set()
    upper_images = []
    for b in theta_basis(4, 2 * k - 1):
        image = b.dx()
        ks = _theta_key(next(iter(b.terms)))
        if ks[0] + ks[3] <= k - 1:
            seen.update(image.terms)
        else:
            upper_images.append(image)
    if not (upper_images and seen):
        return False
    units = [DiffPoly({key: QQ(1)}) for key in sorted(seen)]
    cols = upper_images + units
    return not set(range(len(upper_images), len(cols))) <= set(reference_pivot_columns(cols))


def _restrict(poly, keys):
    return DiffPoly({k: c for k, c in poly.terms.items() if k in keys})


def reference_chain_feasible(k):
    """The pairs (s, t) whose chain system is feasible."""
    support = list(range(k // 2 + 1, k + 1))  # i > k - i >= 0
    pair = {i: theta_monomial((i, k - i)) for i in support}
    feasible = []
    for a, t in enumerate(support[:-1]):
        block_keys = {
            next(iter(theta_monomial((i, t, k - t, k - i)).terms))
            for i in range(t + 1, k + 1)
        }
        chain = []
        for l in range(t + 1, k):
            idx = (l, t, k - t, k - l - 1)
            if len(set(idx)) < 4:
                continue
            mono = theta_monomial(tuple(sorted(idx, reverse=True)))
            chain.append(_restrict(mono.dx(), block_keys))
        for s in support[a + 1 :]:
            target = mul(pair[s], pair[t])
            if target.is_zero():
                continue
            if solve(chain, _restrict(target, block_keys)) is not None:
                feasible.append((s, t))
    return feasible


def reference_varder_solvable(d):
    """Per target th^(d-i,0) th^(i,0), i = 0..(d-1)//2: whether it is
    var_theta of some element of span(theta_basis(3, d))."""
    cols = [var_theta(b) for b in theta_basis(3, d)]
    targets = [theta_monomial((d - i, i)) for i in range(0, (d - 1) // 2 + 1)]
    if not cols:
        return [False] * len(targets)
    return [solve(cols, g) is not None for g in targets]
