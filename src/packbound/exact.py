"""Exact rational arithmetic helpers: the one guarded parser of rational
text, integer/rational square roots, the scaling of a rational vector to
integers, Hermite reduction over Z, rational polynomials, and one root
test: a Descartes bisection of primitive integer polynomials, which proves
that no root lies beyond a point or isolates the roots that do, a repeated
one on the square-free part (a gcd modulo a prime, confirmed by division).

There is no Fraction determinant: a lattice reads its determinant off the
diagonal of its Hermite-reduced basis, which is triangular, and the exact
simplex inverts its basis blocks fraction-free (Bareiss).

Everything in this module is exact; no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import ne


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


# _sign first tries a point a/b with more than _FILTER_BITS bits in a and b
# together in _FILTER_W-bit fixed point
_FILTER_BITS = 256
_FILTER_W = 64


def _sign(p, a, b):
    """Sign of the integer polynomial p at a/b, for integers a and b > 0,
    read off the homogeneous integer sum c_i a^i b^(deg - i) by Horner.  A
    point with more than _FILTER_BITS bits in a and b goes to
    _fixed_point_sign first, and the exact sum decides only what that
    leaves open."""
    if len(p) > 1 and a.bit_length() + b.bit_length() > _FILTER_BITS:
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


# root_points isolates each root y to a relative width of 2^-_ROOT_BITS
_ROOT_BITS = 30
# a bisection splits no node after _NODE_BUDGET // max(deg, 24) nodes: 2,000
# up to degree 24, then fewer, so that a repeated root within lpbound's
# verification budget stops the first one in under 10 s (see
# LpCertificate.from_dict)
_NODE_BUDGET = 48_000


def _shift1(h):
    """h(x + 1) for the integer polynomial h listed highest degree first:
    each pass of the classic O(deg^2) Taylor shift is one running sum."""
    h = list(h)
    for k in range(len(h), 1, -1):
        h[:k] = accumulate(h[:k])
    return h


def real_roots(p, lo: Fraction):
    """(roots, unresolved, nodes): the distinct real roots of the nonzero
    rational polynomial p beyond lo, in increasing order, each as an
    interval (a, b) that holds it alone, or as (y, y) when found exactly;
    the intervals that hold the rest; and the nodes counted (see _bisect).

    A repeated root keeps two or more variations at every depth, so it
    stops the bisection of p at the node cap.  Then p / gcd(p, p'), with
    the roots of p, each simple, is bisected instead (see _squarefree): a
    repeated root beyond lo is found.  Only roots too close to part within
    the cap stay unresolved.  So no root is missed."""
    roots, unresolved, nodes, _ = _roots(p, lo)
    return sorted((Fraction(a, den), Fraction(b, den))
                  for a, b, den in roots), unresolved, nodes


def root_points(p, lo: Fraction):
    """The roots of p beyond lo as points: each interval of real_roots
    halved on the sign of the polynomial bisected (see _isolate), and the
    midpoint of each unresolved interval in place of its roots."""
    roots, unresolved, _, q = _roots(p, lo)
    return sorted([_isolate(q, a, b, den) if a < b else Fraction(a, den)
                   for a, b, den in roots]
                  + [(a + b) / 2 for a, b in unresolved])


def _roots(p, lo):
    """real_roots, with the roots as _bisect gives them, and the primitive
    polynomial bisected last."""
    p = poly_primitive([frac(c) for c in p])
    if not p:
        raise ValueError("zero polynomial")
    lo = frac(lo)
    roots, unresolved, nodes = _bisect(p, lo)
    if unresolved and len(q := _squarefree(p)) < len(p):
        roots, unresolved, more = _bisect(q, lo)
        return roots, unresolved, nodes + more, q
    return roots, unresolved, nodes, p


# the exponents e of the Mersenne primes 2^e - 1 from 2^127 - 1 to about
# 2^(1.26 10^6), the moduli of _squarefree
_MERSENNE = (127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941,
             11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049,
             216091, 756839, 859433, 1257787)


def _squarefree(p):
    """p / g for the primitive integer polynomial p and g = gcd(p, p'), by
    the modular method: with gamma = |lc p|, the gcd of the leading
    coefficients, the monic gcd modulo a prime m times gamma, read in (-m/2,
    m/2), is gamma / lc(g) times g once m exceeds twice the Landau-Mignotte
    bound gamma 2^deg ||p||_2 on its coefficients.  The g found is kept only
    when exact division confirms that it divides p and p': then each root of
    g is a repeated root of p, so p / g has the roots of p.  Else p."""
    dp = poly_deriv(p)
    bits = 2 * (max(abs(c).bit_length() for c in p) + len(p))
    e = next((e for e in _MERSENNE if e > bits), None)
    if e is None:
        return p
    m, gamma = (1 << e) - 1, abs(p[-1])
    g = poly_primitive([(c * gamma + m // 2) % m - m // 2
                        for c in _gcd_mod(p, dp, m)])
    (q, r), (_, r_dp) = poly_divmod(p, g), poly_divmod(dp, g)
    return p if r or r_dp else poly_primitive(q)


def _gcd_mod(p, q, m):
    """The monic gcd of the integer polynomials p and q, q nonzero and of
    lower degree, modulo the prime m, by Euclid."""
    p, q = [c % m for c in p], [c % m for c in q]
    while q:
        inv = pow(q[-1], -1, m)
        q = [c * inv % m for c in q]
        for k in range(len(p) - len(q), -1, -1):
            c = p[k + len(q) - 1]
            for j, qj in enumerate(q):
                p[k + j] = (p[k + j] - c * qj) % m
        p, q = q, poly_trim(p[:len(q) - 1])
    return p


def _bisect(p, lo):
    """real_roots of the primitive integer polynomial p, by one Descartes
    bisection (Collins-Akritas), with each root as integers (a, b, den):
    the interval (a/den, b/den), or a/den exactly when a = b.

    It halves (lo, hi), hi the Cauchy bound, on the grid whose endpoints at
    depth k are integers over den * 2^k, from the deepest left node that
    still reaches the Fujiwara bound.  Node (a, b) holds the integer
    polynomial q(x) = p(a + (b - a) x), and the sign variations of
    (x + 1)^deg q(1 / (x + 1)) exceed its roots in (a, b) by an even count.
    With 0 there is none; with 1 there is one, simple, and the node is
    returned as its interval.  The halves of q are 2^deg q(x / 2) and that
    shifted by 1, whose constant term is a multiple of p at the midpoint: a
    root there is returned exactly, and the left half is halved again.
    After _NODE_BUDGET // max(deg, 24) nodes, each node left that shows a
    variation comes back unresolved.
    """
    deg = len(p) - 1
    roots, unresolved, nodes = [], [], 0
    # Cauchy: every root has |y| < hi = 1 + max |c_i / c_d|; Fujiwara:
    # |y| <= 2 max |c_i / c_d|^(1 / (deg - i)) < bound, a power of two, as
    # |c_i / c_d| < 2^(bits(c_i) - bits(c_d) + 1)
    hi = 1 + max((Fraction(abs(c), abs(p[-1])) for c in p[:-1]), default=0)
    top = abs(p[-1]).bit_length()
    bound = 2 << max([0] + [-((top - 1 - abs(c).bit_length()) // (deg - i))
                            for i, c in enumerate(p[:-1])])
    if not deg or min(hi, bound) <= lo:
        return roots, unresolved, nodes
    den = math.lcm(lo.denominator, hi.denominator)
    a, w = int(lo * den), int((hi - lo) * den)
    # start from the deepest left node that still holds (lo, bound): the
    # nodes and midpoints it skips lie beyond every root
    while 2 * a + w >= bound * den << 1:
        a, den = 2 * a, 2 * den
    # den^deg p((a + w x) / den), by Horner on the linear polynomial
    q, scale = [p[-1]], 1
    for c in reversed(p[:-1]):
        scale *= den
        q = [a * u + w * v for u, v in zip(q + [0], [0] + q)]
        q[0] += c * scale
    cap = _NODE_BUDGET // max(deg, 24)
    # nodes (depth k, left end a over den * 2^k, q, whether p(b) = 0)
    stack = [(0, a, q, False)]
    while stack:
        k, a, q, right_root = stack.pop()
        nodes += 1
        # q low degree first is x^deg q(1 / x) high degree first
        signs = [c > 0 for c in _shift1(q) if c]
        v = sum(map(ne, signs, signs[1:]))
        if v == 1 and not right_root:
            roots.append((a, a + w, den << k))
        elif v and nodes >= cap:
            unresolved.append((Fraction(a, den << k),
                               Fraction(a + w, den << k)))
        elif v:
            half = [c << (deg - i) for i, c in enumerate(q)]
            right = _shift1(half[::-1])[::-1]
            m = 2 * a + w
            if not right[0]:
                roots.append((m, m, den << (k + 1)))
            stack += [(k + 1, m, right, right_root),
                      (k + 1, 2 * a, half, not right[0])]
    return roots, unresolved, nodes


def _isolate(p, a, b, den):
    """The root midpoint of root_points for the one root, a simple one, of
    the integer polynomial p in (a/den, b/den), where p(b/den) is not 0:
    halve on the sign of p until the width is at most
    2^-_ROOT_BITS * max(1, |m|)."""
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
