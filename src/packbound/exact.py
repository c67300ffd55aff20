"""Exact rational arithmetic helpers: the one guarded parser of rational
text, integer/rational square roots, the scaling of a rational vector to
integers, Hermite reduction over Z, rational polynomials, and one Sturm
chain, of the square-free part in primitive integer polynomials and divided
by its gcd, for counting the roots beyond a point and isolating them.

There is no Fraction determinant: a lattice reads its determinant off the
diagonal of its Hermite-reduced basis, which is triangular, and the exact
simplex inverts its basis blocks fraction-free (Bareiss).

Everything in this module is exact; no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction


def frac(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction (floats are dyadic-exact);
    a string goes through `rational`."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return rational(x)
    return Fraction(x)


# a number given as text longer than this, or with a larger decimal
# exponent, is refused: each integer of its Fraction then stays below
# 2 * MAX_NUMBER_CHARS digits, within str()'s 4,300-digit limit
MAX_NUMBER_CHARS = 2000


def rational(text: str) -> Fraction:
    """Fraction(text), refusing, before any integer is built, a text whose
    length or exponent passes MAX_NUMBER_CHARS (ValueError).  Every number
    read as text (a command-line flag, a certificate file) is parsed here."""
    exponent = text.lower().partition("e")[2]
    if len(text) > MAX_NUMBER_CHARS or (
            exponent and abs(int(exponent)) > MAX_NUMBER_CHARS):
        raise ValueError(f"number longer than {MAX_NUMBER_CHARS} characters "
                         f"or with an exponent beyond {MAX_NUMBER_CHARS}")
    return Fraction(text)


def sqrt_decompose(x: Fraction):
    """Write sqrt(x) = c * sqrt(r) with c rational and r a squarefree integer.

    Returns (c, r).  x must be nonnegative.
    """
    x = frac(x)
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0), 1
    # sqrt(p/q) = sqrt(p*q)/q; strip every square d^2 from p*q into c
    m, c = x.numerator * x.denominator, Fraction(1, x.denominator)
    d = 2
    while d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
            c *= d
        d += 1
    return c, m


# ---------------------------------------------------------------------------
# Rational vectors and matrices
# ---------------------------------------------------------------------------

def integer_scaled(values):
    """A rational vector times the lcm of its denominators (an integer
    vector), and that multiplier."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def mat_is_integral(a) -> bool:
    return all(frac(x).denominator == 1 for row in a for x in row)


# ---------------------------------------------------------------------------
# Hermite reduction over Z
# ---------------------------------------------------------------------------

def hermite_row_basis(rows):
    """Reduce integer generating rows to a Z-basis of their row span.

    Classic column-sweep HNF without pivot-size normalization; returns the
    nonzero rows.  Deterministic.  Each returned row's first nonzero entry
    is positive and lies right of the previous row's, so rows of rank n in
    n columns give an upper triangular basis with a positive diagonal.
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
    return m[:pivot_row]


# ---------------------------------------------------------------------------
# Rational polynomials (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


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
    for k in reversed(range(len(quot))):
        quot[k] = c = r[k + len(q) - 1] / q[-1]
        for j, qj in enumerate(q):
            r[k + j] -= c * qj
    return poly_trim(quot), poly_trim(r[:len(q) - 1])


def poly_primitive(p):
    """Scale by a positive rational so the coefficients are coprime ints."""
    p = poly_trim(p)
    if not p:
        return p
    ints, _ = integer_scaled(p)
    g = math.gcd(*ints)
    return [v // g for v in ints]


def sturm_chain(p):
    """Sturm chain of the square-free part of a nonzero rational polynomial,
    each member a primitive integer polynomial (a positive multiple, so its
    roots and signs are kept).  If the remainder sequence of p ends in a
    nonconstant g = gcd(p, p'), every member is divided by g: the quotients
    are a Sturm chain of p / g."""
    chain = [poly_primitive(p)]
    der = poly_primitive(poly_deriv(chain[0]))
    if der:
        chain.append(der)
    while len(chain[-1]) > 1:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(poly_primitive([-c for c in r]))
    g = chain[-1]
    if len(g) > 1:
        chain = [poly_primitive(poly_divmod(c, g)[0]) for c in chain]
    return chain


def _sign(p, x):
    """Sign of the integer polynomial p at x = a/b (b > 0), read off the
    integer sum c_i a^i b^(deg - i) by Horner; x = None stands for +inf."""
    if x is None:
        v = p[-1]
    else:
        a, b = x.numerator, x.denominator
        v, bk = 0, 1
        for c in reversed(p):
            v = v * a + c * bk
            bk *= b
    return (v > 0) - (v < 0)


def _sign_variations(chain, x):
    """Sign changes along the chain at x (None for +inf).  For the chain of
    a square-free p, V(a) - V(b) counts the roots of p in (a, b]."""
    signs = [s for s in (_sign(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p, lo: Fraction) -> int:
    """Number of distinct real roots of p in (lo, +inf)."""
    p = poly_trim([frac(c) for c in p])
    if not p:
        raise ValueError("zero polynomial")
    chain = sturm_chain(p)
    return _sign_variations(chain, frac(lo)) - _sign_variations(chain, None)


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
    # Cauchy: every root has |y| < 1 + max |c_i / c_d|
    hi = max(lo, 1 + max((abs(c / p[-1]) for c in p[:-1]), default=0))
    chain = sturm_chain(p)
    roots = []
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
