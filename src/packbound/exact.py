"""Exact rational arithmetic helpers: the one guarded parser of rational
text, the scaling of a rational vector to integers, Hermite reduction over
Z, rational polynomials, and one root test: one Descartes bisection of the
square-free part of a primitive integer polynomial (p itself when its gcd
with p' modulo 2^127 - 1 is constant), which proves that no root lies
beyond a point or isolates the roots that do.

There is no Fraction determinant: a lattice reads its determinant off the
diagonal of its Hermite-reduced basis, which is triangular, and the simplex
and the forced-root solve share one fraction-free elimination (Bareiss).

Everything in this module is exact; no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import ne


class PackboundError(ValueError):
    """A refusal: an input the program does not accept or cannot decide."""


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


# ---------------------------------------------------------------------------
# Rational vectors and matrices
# ---------------------------------------------------------------------------

def integer_scaled(values):
    """A rational vector times the lcm of its denominators (an integer
    vector), and that multiplier."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def fraction_free_solve(block, rhs):
    """(x, det) with det > 0 and block x = det rhs, for a nonsingular square
    integer matrix block and integer rows rhs: fraction-free Gauss-Jordan
    (Bareiss) on [block | rhs], where every division is exact.  With rhs
    the identity, x / det is block's inverse."""
    k = len(block)
    aug = [row + r for row, r in zip(block, rhs, strict=True)]
    prev = 1
    for p in range(k):
        piv = next(i for i in range(p, k) if aug[i][p])
        aug[p], aug[piv] = aug[piv], aug[p]
        top = aug[p]
        d = top[p]
        for i in range(k):
            if i != p:
                f = aug[i][p]
                aug[i] = [(d * x - f * y) // prev
                          for x, y in zip(aug[i], top)]
        prev = d
    sign = -1 if prev < 0 else 1
    return [[sign * v for v in row[k:]] for row in aug], sign * prev


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


def _sign(p, a, b):
    """Sign of the integer polynomial p at a/b, for integers a and b > 0,
    read off the homogeneous integer sum c_i a^i b^(deg - i) by Horner."""
    v, bk = 0, 1
    for c in reversed(p):
        v = v * a + c * bk
        bk *= b
    return (v > 0) - (v < 0)


# root_points isolates each root y to a relative width of 2^-_ROOT_BITS
_ROOT_BITS = 30
# a bisection splits no node after _NODE_BUDGET // max(deg, 24) nodes: 2,000
# up to degree 24, then fewer, so that a root cluster within lpbound's
# verification budget stops it in under 20 s (see LpCertificate.from_dict)
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

    A repeated root keeps two or more variations at every depth, so the
    one bisection is of p / gcd(p, p'), which has the roots of p, each
    simple (see _squarefree): a repeated root beyond lo is found.  Only
    roots too close to part within the node cap stay unresolved.  So no
    root is missed."""
    roots, unresolved, nodes = _roots(p, lo)
    return sorted((Fraction(a, den), Fraction(b, den))
                  for a, b, den, _ in roots), unresolved, nodes


def root_points(p, lo: Fraction):
    """The roots of p beyond lo as points: each interval of real_roots
    halved on the sign of its node's polynomial (see _isolate), and the
    midpoint of each unresolved interval in place of its roots."""
    roots, unresolved, _ = _roots(p, lo)
    return sorted([_isolate(q, a, b, den) if q else Fraction(a, den)
                   for a, b, den, q in roots]
                  + [(a + b) / 2 for a, b in unresolved])


def _roots(p, lo):
    """real_roots, with the roots as _bisect gives them."""
    p = poly_primitive([frac(c) for c in p])
    if not p:
        raise ValueError("zero polynomial")
    return _bisect(_squarefree(p), frac(lo))


# the exponents e of the Mersenne primes 2^e - 1 from 2^127 - 1 to about
# 2^(1.26 10^6), the moduli of _squarefree
_MERSENNE = (127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941,
             11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049,
             216091, 756839, 859433, 1257787)


def _squarefree(p):
    """p / g for the primitive integer polynomial p and g = gcd(p, p'), or
    p when g is constant or not confirmed.  The prime m = 2^127 - 1, when
    it does not divide lc p, keeps the degrees of p and p' (m > deg): then a
    constant gcd modulo m proves that their resultant is not 0, so p is
    square-free.  Else, by the modular method: with gamma = |lc p|, the gcd
    of the leading coefficients, the monic gcd modulo a prime m times gamma,
    read in (-m/2, m/2), is gamma / lc(g) times g once m exceeds twice the
    Landau-Mignotte bound 2^deg ||p||_2 on its coefficients.  The g found
    is kept only when exact division confirms that it divides p and p':
    then each root of g is a repeated root of p, so p / g has the roots of
    p."""
    dp = poly_deriv(p)
    m = (1 << _MERSENNE[0]) - 1
    if p[-1] % m and len(_gcd_mod(p, dp, m)) == 1:
        return p
    bits = max(abs(c).bit_length() for c in p) + 2 * len(p)
    e = next((e for e in _MERSENNE if e > bits), None)
    if e is None:
        return p
    m, gamma = (1 << e) - 1, abs(p[-1])
    g = poly_primitive([(c * gamma + m // 2) % m - m // 2
                        for c in _gcd_mod(p, dp, m)])
    (q, r), (_, r_dp) = poly_divmod(p, g), poly_divmod(dp, g)
    return p if r or r_dp else poly_primitive(q)


def _gcd_mod(p, q, m):
    """The gcd of the integer polynomials p and q, q of lower degree, modulo
    the prime m, by Euclid: monic unless q is 0 modulo m."""
    p, q = poly_trim([c % m for c in p]), poly_trim([c % m for c in q])
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
    bisection (Collins-Akritas), with each root as (a, b, den, q): the
    interval (a/den, b/den) and the polynomial q of its node, or a/den
    exactly when a = b, with q None.

    It halves (lo, hi), hi the Cauchy bound, on the grid whose endpoints at
    depth k are integers over den * 2^k, from the deepest left node that
    still reaches the Fujiwara bound.  Node (a, b) holds the integer
    polynomial q(x) = c p(a + (b - a) x), c > 0, and the sign variations of
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
            roots.append((a, a + w, den << k, q))
        elif v and nodes >= cap:
            unresolved.append((Fraction(a, den << k),
                               Fraction(a + w, den << k)))
        elif v:
            half = [c << (deg - i) for i, c in enumerate(q)]
            right = _shift1(half[::-1])[::-1]
            m = 2 * a + w
            if not right[0]:
                roots.append((m, m, den << (k + 1), None))
            stack += [(k + 1, m, right, right_root),
                      (k + 1, 2 * a, half, not right[0])]
    return roots, unresolved, nodes


def _isolate(q, a, b, den):
    """The root midpoint of root_points for the one root, a simple one, in
    (a/den, b/den) of its node's polynomial q, where q(1) is not 0 (see
    _bisect): halve x in (0, 1) on the sign of q at l / 2^j until the width
    (b - a) / (den 2^j) is at most 2^-_ROOT_BITS * max(1, |y|), y the
    midpoint."""
    w, l, j, sb = b - a, 0, 0, _sign(q, 1, 1)
    while True:
        # x = (2 l + 1) / 2^(j + 1), the midpoint of (l, l + 1) / 2^j
        m, mden = (a << (j + 1)) + w * (2 * l + 1), den << (j + 1)
        if w << (_ROOT_BITS + 1) <= max(mden, abs(m)):
            return Fraction(m, mden)
        j, l = j + 1, 2 * l
        sm = _sign(q, l + 1, 1 << j)
        if sm in (0, sb):
            sb = sm
        else:
            l += 1
