"""Exact rational arithmetic helpers: the one guarded parser of rational
text, integer/rational square roots, the scaling of a rational vector to
integers, Hermite reduction over Z, rational polynomials, and one Sturm
chain, of the square-free part in primitive integer polynomials built from
integer pseudo-remainders and divided by its gcd, for counting the roots
beyond a point and isolating them.

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


def _pseudo_remainder(a, b):
    """lc(b)^(deg a - deg b + 1) times the remainder of the integer
    polynomial a by the integer polynomial b, deg a >= deg b: every step
    multiplies by lc(b), so the division stays in integers."""
    lc, db = b[-1], len(b) - 1
    r = list(a)
    for k in reversed(range(len(a) - db)):
        # r <- lc r - r_top x^k b, whose top coefficient cancels
        top = r[-1]
        r = ([lc * v for v in r[:k]]
             + [lc * v - top * w for v, w in zip(r[k:-1], b)])
    return poly_trim(r)


def sturm_chain(p):
    """Sturm chain of the square-free part of a nonzero rational polynomial,
    each member a primitive integer polynomial (a positive multiple, so its
    roots and signs are kept).  Each member after p' is the primitive part
    of -prem(A, B) = -lc(B)^(delta+1) rem(A, B), negated once more when
    lc(B)^(delta+1) < 0 so that the factor stays positive, for delta =
    deg A - deg B: the same members as the Fraction remainders, with no
    Fraction.  If the sequence ends in a nonconstant g = gcd(p, p'), every
    member is divided by g: the quotients are a Sturm chain of p / g."""
    chain = [poly_primitive(p)]
    der = poly_primitive(poly_deriv(chain[0]))
    if der:
        chain.append(der)
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _pseudo_remainder(a, b)
        if not r:
            break
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-c for c in r]
        chain.append(poly_primitive(r))
    g = chain[-1]
    if len(g) > 1:
        chain = [poly_primitive(poly_divmod(c, g)[0]) for c in chain]
    return chain


# _sign first tries a point a/b with more than _FILTER_BITS bits in a and b
# together in _FILTER_W-bit fixed point
_FILTER_BITS = 256
_FILTER_W = 64


def _sign(p, a, b):
    """Sign of the integer polynomial p at a/b, for integers a and b >= 0,
    read off the homogeneous integer sum c_i a^i b^(deg - i) by Horner;
    (a, b) = (1, 0) is +inf, where the sum is the leading coefficient.  A
    point with more than _FILTER_BITS bits in a and b goes to
    _fixed_point_sign first, and the exact sum decides only what that
    leaves open."""
    if b and len(p) > 1 and a.bit_length() + b.bit_length() > _FILTER_BITS:
        s = _fixed_point_sign(p, a, b)
        if s is not None:
            return s
    v, bk = 0, 1
    for c in reversed(p):
        v = v * a + c * bk
        bk *= b
    return (v > 0) - (v < 0)


def _fixed_point_sign(p, a, b):
    """The sign of the nonconstant integer polynomial p at a/b, b > 0, when
    p(x~) proves it, else None, for x~ = t / 2^W, t = floor(a 2^W / b) and
    W = _FILTER_W.  |a/b - x~| < 2^-W, and every point between has
    |y| <= X = floor(|a| / b) + 1, so by the mean value theorem
    |p(a/b) - p(x~)| < 2^-W sum_i i |c_i| X^(i-1): when |p(x~)| reaches
    that bound, p(a/b) has its sign.  p(x~) 2^(W deg) is one homogeneous
    Horner sum on t, which has about W more bits than |a/b|."""
    deg = len(p) - 1
    t, x_cap = (a << _FILTER_W) // b, abs(a) // b + 1
    v, slope = 0, 0
    for k, c in enumerate(reversed(p)):
        v = v * t + (c << (_FILTER_W * k))
    for i in range(deg, 0, -1):
        slope = slope * x_cap + i * abs(p[i])
    if abs(v) >= slope << (_FILTER_W * (deg - 1)):
        return (v > 0) - (v < 0)
    return None


def _sign_variations(chain, a, b):
    """Sign changes along the chain at a/b ((1, 0) for +inf).  For the chain
    of a square-free p, V(x) - V(y) counts the roots of p in (x, y]."""
    signs = [s for s in (_sign(p, a, b) for p in chain) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def sturm_count(p, lo: Fraction) -> int:
    """Number of distinct real roots of p in (lo, +inf)."""
    p = poly_trim([frac(c) for c in p])
    if not p:
        raise ValueError("zero polynomial")
    chain = sturm_chain(p)
    lo = frac(lo)
    return (_sign_variations(chain, lo.numerator, lo.denominator)
            - _sign_variations(chain, 1, 0))


# sturm_roots isolates each root y to a relative width of 2^-_ROOT_BITS
_ROOT_BITS = 30


def sturm_roots(p, lo: Fraction) -> list:
    """The distinct real roots of p beyond lo, in increasing order, each as
    the midpoint of an interval of width at most 2^-_ROOT_BITS * max(1, |y|)
    that Sturm bisection shows to hold exactly that root.

    The bisection halves [lo, hi], hi the Cauchy bound, and keeps the halves
    (a, m], (m, b] that hold a root.  Its endpoints at depth k are integers
    over den * 2^k.  A doubling search first proves a root bound R:
    V(R) = V(+inf), so every midpoint m >= R reads V(+inf) without a chain
    evaluation; R moves no midpoint, so no root.  An interval that holds
    exactly one root is halved on the sign of chain[0], the square-free
    part, alone: the root lies in (a, m] when p(m) is 0 or has the sign of
    p(b).
    """
    p = poly_trim([frac(c) for c in p])
    if not p:
        raise ValueError("zero polynomial")
    lo = frac(lo)
    # Cauchy: every root has |y| < 1 + max |c_i / c_d|
    hi = max(lo, 1 + max((abs(c / p[-1]) for c in p[:-1]), default=0))
    chain = sturm_chain(p)
    v_inf = _sign_variations(chain, 1, 0)
    bound = max(Fraction(1), lo + 1)
    while _sign_variations(chain, bound.numerator,
                           bound.denominator) != v_inf:
        bound *= 2
    # lo, hi and the bound, 1 or (lo + 1) times a power of two, are
    # integers over den
    den = math.lcm(lo.denominator, hi.denominator)
    a, b, bound = int(lo * den), int(hi * den), int(bound * den)
    roots = []
    # no root lies beyond hi, so V(hi) = V(+inf)
    stack = [(0, a, _sign_variations(chain, a, den), b, v_inf)]
    while stack:
        k, a, va, b, vb = stack.pop()
        if va - vb == 1:
            roots.append(_isolate(chain[0], a, b, den << k))
        elif va != vb:
            m = a + b
            vm = (v_inf if m >= bound << (k + 1)
                  else _sign_variations(chain, m, den << (k + 1)))
            stack += [(k + 1, m, vm, 2 * b, vb), (k + 1, 2 * a, va, m, vm)]
    return sorted(roots)


def _isolate(p, a, b, den):
    """The root midpoint of sturm_roots for the one root of the square-free
    integer polynomial p in (a/den, b/den]: halve on the sign of p until
    the width is at most 2^-_ROOT_BITS * max(1, |m|)."""
    sb = _sign(p, b, den)
    while True:
        m = a + b
        # (b - a) / den <= 2^-_ROOT_BITS * max(1, |m| / (2 den))
        if (b - a) << (_ROOT_BITS + 1) <= max(2 * den, abs(m)):
            return Fraction(m, 2 * den)
        den *= 2
        sm = _sign(p, m, den)
        if sm in (0, sb):
            a, b, sb = 2 * a, m, sm
        else:
            a, b = m, 2 * b
