"""Exact rational arithmetic helpers: integer/rational square roots, linear
algebra over Q, Hermite reduction over Z, rational polynomials, and Sturm
chains for root counting and root isolation.

Everything in this module is exact; no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction


def frac(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction (floats are dyadic-exact)."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def sqrt_decompose(x: Fraction):
    """Write sqrt(x) = c * sqrt(r) with c rational and r a squarefree integer.

    Returns (c, r).  x must be nonnegative.
    """
    x = frac(x)
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0), 1
    # sqrt(p/q) = sqrt(p*q)/q
    m = x.numerator * x.denominator
    c = Fraction(1, x.denominator)
    # extract square part of m
    square = 1
    rad = 1
    d = 2
    while d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
            square *= d
        if m % d == 0:
            m //= d
            rad *= d
        d += 1
    rad *= m
    return c * square, rad


# ---------------------------------------------------------------------------
# Linear algebra over Q
# ---------------------------------------------------------------------------

def mat_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_det(a):
    """Determinant by fraction Gaussian elimination."""
    n = len(a)
    m = [[frac(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [m[r][j] - f * m[col][j] for j in range(n)]
    return det


def mat_is_integral(a) -> bool:
    return all(frac(x).denominator == 1 for row in a for x in row)


# ---------------------------------------------------------------------------
# Hermite reduction over Z
# ---------------------------------------------------------------------------

def hermite_row_basis(rows):
    """Reduce integer generating rows to a Z-basis of their row span.

    Classic column-sweep HNF without pivot-size normalization; returns the
    nonzero rows.  Deterministic.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivot_row = 0
    for col in range(ncols):
        # gcd-reduce all entries in this column below pivot_row
        while True:
            nz = [i for i in range(pivot_row, nrows) if m[i][col] != 0]
            if not nz:
                break
            # bring smallest |entry| to pivot position
            i_min = min(nz, key=lambda i: abs(m[i][col]))
            m[pivot_row], m[i_min] = m[i_min], m[pivot_row]
            done = True
            for i in range(pivot_row + 1, nrows):
                if m[i][col] != 0:
                    qf = m[i][col] // m[pivot_row][col]
                    m[i] = [m[i][j] - qf * m[pivot_row][j] for j in range(ncols)]
                    if m[i][col] != 0:
                        done = False
            if done:
                break
        if pivot_row < nrows and m[pivot_row][col] != 0:
            if m[pivot_row][col] < 0:
                m[pivot_row] = [-x for x in m[pivot_row]]
            pivot_row += 1
    basis = [row for row in m[:pivot_row]]
    return basis


# ---------------------------------------------------------------------------
# Rational polynomials (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def poly_neg(p):
    return [-c for c in p]


def poly_eval(p, x):
    acc = Fraction(0) if isinstance(x, (int, Fraction)) else x * 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p):
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def poly_divmod(p, q):
    """Euclidean division of rational polynomials; returns (quot, rem)."""
    q = poly_trim(list(q))
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    r = [frac(c) for c in p]
    quot = [Fraction(0)] * max(0, len(r) - len(q) + 1)
    dq = len(q) - 1
    lead = q[-1]
    while len(poly_trim(r)) - 1 >= dq and poly_trim(r):
        r = poly_trim(r)
        k = len(r) - 1 - dq
        c = r[-1] / lead
        quot[k] = c
        for j in range(len(q)):
            r[k + j] -= c * q[j]
        r = r[:-1]
    return poly_trim(quot), poly_trim(r)


def poly_primitive(p):
    """Scale by a positive rational so coefficients are coprime integers."""
    p = poly_trim(p)
    if not p:
        return p
    den = 1
    for c in p:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    return [Fraction(v, g) for v in ints]


def sturm_chain(p):
    """Sturm chain of a nonzero rational polynomial (primitive-scaled)."""
    p0 = poly_primitive(p)
    chain = [p0]
    p1 = poly_primitive(poly_deriv(p0))
    if p1:
        chain.append(p1)
    while len(chain[-1]) > 1:
        _, r = poly_divmod(chain[-2], chain[-1])
        r = poly_trim(r)
        if not r:
            break
        chain.append(poly_primitive(poly_neg(r)))
    return chain


def _sign_variations(chain, x):
    """Sign changes along the chain at x; x = None stands for +inf, where
    each sign is that of the leading coefficient."""
    signs = []
    for p in chain:
        v = p[-1] if x is None else poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p, lo: Fraction, hi: Fraction = None) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi);
    leaving hi out means hi = +inf.

    Endpoint roots are divided out exactly (they do not belong to the open
    interval), so the count is always well defined.
    """
    p = poly_trim([frac(c) for c in p])
    if not p:
        raise ValueError("zero polynomial")
    lo = frac(lo)
    hi = None if hi is None else frac(hi)
    if hi is not None and lo > hi:
        raise ValueError("empty interval")
    for endpoint in (lo,) if hi is None else (lo, hi):
        while len(p) > 1 and poly_eval(p, endpoint) == 0:
            p, rem = poly_divmod(p, [-endpoint, Fraction(1)])
            assert not rem
    if len(p) == 1:
        return 0
    chain = sturm_chain(p)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


# relative width to which sturm_roots isolates each root
_ROOT_WIDTH = Fraction(1, 2 ** 30)


def sturm_roots(p, lo: Fraction) -> list:
    """The distinct real roots of p beyond lo, in increasing order, each as
    the midpoint of an interval of width at most _ROOT_WIDTH * max(1, |y|)
    that Sturm bisection shows to hold exactly that root.
    """
    p = poly_trim([frac(c) for c in p])
    if not p:
        raise ValueError("zero polynomial")
    lo = frac(lo)
    if len(p) == 1:
        return []
    # Cauchy: every root has |y| < 1 + max |c_i / c_d|
    hi = max(lo, 1 + max(abs(c / p[-1]) for c in p[:-1]))
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:
        # the chain ends in gcd(p, p'): bisect the square-free part, whose
        # chain has no common zero at a multiple root
        chain = sturm_chain(poly_divmod(p, chain[-1])[0])
    roots = []
    # V(a) - V(b) counts the roots in (a, b], endpoint roots included
    stack = [(lo, _sign_variations(chain, lo), hi,
              _sign_variations(chain, hi))]
    while stack:
        a, va, b, vb = stack.pop()
        if va == vb:
            continue
        m = (a + b) / 2
        if va - vb == 1 and b - a <= _ROOT_WIDTH * max(1, abs(m)):
            roots.append(m)
            continue
        vm = _sign_variations(chain, m)
        stack += [(m, vm, b, vb), (a, va, m, vm)]
    return sorted(roots)


def poly_positive_on(p, lo: Fraction, hi: Fraction) -> bool:
    """Exact check p > 0 on the closed interval [lo, hi]."""
    p = poly_trim([frac(c) for c in p])
    lo, hi = frac(lo), frac(hi)
    if not p:
        return False
    if poly_eval(p, lo) <= 0 or poly_eval(p, hi) <= 0:
        return False
    if lo == hi:
        return True
    return sturm_count(p, lo, hi) == 0
