import copy
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from packbound import certify as certify_mod
from packbound.certify import (
    Certificate, certify_magic, poisson_check,
)
from packbound import exact
from packbound.exact import (
    PackboundError, _sign, poly_deriv, poly_divmod, poly_eval,
    poly_primitive, poly_trim, real_roots, root_points,
)
from packbound.codes import zero_code
from packbound.lattices import (
    _make_lattice, construction_a, standard_lattice, vectors_by_norm,
)
from packbound.qseries import CertifiedValue


# -- Real roots ---------------------------------------------------------------

def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def from_roots(lead, roots):
    p = [Fraction(lead)]
    for r in roots:
        p = poly_mul(p, [-r, Fraction(1)])
    return p


def poly_gcd(a, b):
    """A gcd of two rational polynomials by Fraction remainders."""
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, poly_trim(r)
    return a


def count_beyond(p, x):
    """Roots of p in (x, inf), each isolated by the Descartes bisection."""
    roots, unresolved, _ = real_roots(p, x)
    assert not unresolved
    return len(roots)


def count_between(p, lo, hi):
    """Roots of p in the open interval (lo, hi), lo < hi, from two counts
    beyond a point; a root at hi lies in (lo, inf) but not in (lo, hi)."""
    return (count_beyond(p, lo) - count_beyond(p, hi)
            - (poly_eval(p, Fraction(hi)) == 0))


def test_sturm_simple():
    p = [Fraction(-2), Fraction(0), Fraction(1)]  # x^2 - 2
    assert count_between(p, 1, 2) == 1
    assert count_between(p, -2, 2) == 2


def test_sturm_cubic():
    # (x-1)(x-2)(x-3) on (0, 5/2) -> 2
    p = from_roots(1, [1, 2, 3])
    assert count_between(p, 0, Fraction(5, 2)) == 2


def test_sturm_roots_isolates_each_root_once():
    # (x-1)(x-2)(x-3)^2: each root is returned once, in an interval that
    # holds it or exactly; the square-free part (x-1)(x-2)(x-3) is bisected
    # in place of p, so the double root is found well below the cap
    p = from_roots(1, [1, 2, 3, 3])
    roots, unresolved, nodes = real_roots(p, 0)
    assert not unresolved and nodes < exact._NODE_BUDGET // 24
    assert [a <= r <= b for (a, b), r in zip(roots, (1, 2, 3))] == [True] * 3
    assert all(abs(y - r) <= Fraction(r, 2 ** 30)
               for y, r in zip(root_points(p, 0), (1, 2, 3)))
    # a root at lo is outside (lo, inf)
    roots, unresolved, _ = real_roots(p, 1)
    assert len(roots) == 2 and not unresolved


def test_sturm_endpoint_root_deflated():
    p = [Fraction(-2), Fraction(0), Fraction(1)]
    # sqrt(2) is interior; endpoint root at 2 of (x-2)(x^2-2)
    q = poly_mul(p, [Fraction(-2), Fraction(1)])
    assert count_between(q, 1, 2) == 1
    # the count runs to +inf; a root at lo is outside it
    r = poly_mul(q, [Fraction(1), Fraction(1)])  # roots -sqrt2, -1, sqrt2, 2
    assert count_beyond(r, -1) == 2
    assert count_beyond(q, 2) == 0


@pytest.mark.parametrize("lead, roots", [
    (Fraction(1), {Fraction(-3, 2): 2, Fraction(-1): 1, Fraction(0): 3,
                   Fraction(1, 3): 1, Fraction(2): 2, Fraction(5, 2): 3}),
    (Fraction(-7, 3), {Fraction(-5, 4): 3, Fraction(1, 7): 2,
                       Fraction(1, 6): 1, Fraction(4): 3}),
], ids=["monic", "negative-lead"])
def test_sturm_roots_at_the_endpoints(lead, roots):
    # known rational roots of multiplicity 1-3; lo on the roots and between
    # them.  Every root beyond lo is isolated once, a repeated one through
    # the square-free part, and nothing at or below lo is returned
    p = from_roots(lead, [r for r, mult in roots.items()
                          for _ in range(mult)])
    ys = sorted(roots)
    points = ys + [(a + b) / 2 for a, b in zip(ys, ys[1:])] + [ys[0] - 1,
                                                                ys[-1] + 1]
    for lo in points:
        assert real_roots(p, lo)[1] == []
        found = root_points(p, lo)
        for y in ys:
            near = [f for f in found
                    if abs(f - y) <= Fraction(max(1, abs(y)), 2 ** 30)]
            assert len(near) == (y > lo), (lo, y)
        assert len(found) == len([y for y in ys if y > lo])


def test_sturm_agrees_with_bisection():
    # oracle: isolate roots of the squarefree part by sign-change bisection
    # down to width 1e-6, scanning in floats (coefficients are small ints)
    def bisection_count(p, lo, hi):
        pf = [float(c) for c in p]

        def ev(x):
            acc = 0.0
            for c in reversed(pf):
                acc = acc * x + c
            return acc

        count = 0
        # prime cell count keeps small rational roots off cell boundaries
        cells = 257
        stack = [(float(lo) + (float(hi) - float(lo)) * i / cells,
                  float(lo) + (float(hi) - float(lo)) * (i + 1) / cells)
                 for i in range(cells)]
        for a, b in stack:
            fa, fb = ev(a), ev(b)
            while b - a > 1e-6:
                m = (a + b) / 2
                fm = ev(m)
                if fa * fm <= 0:
                    b, fb = m, fm
                else:
                    a, fa = m, fm
            # fb == 0 means the drill landed exactly on a root interior to
            # the original cell (fa == 0 is the mirrored case of the
            # neighbouring cell and must not double-count)
            if fa * fb < 0 or (fb == 0 and fa != 0):
                count += 1
        return count

    rng = random.Random(20160314)
    for _ in range(100):
        deg = rng.randint(1, 10)
        p = [Fraction(rng.randint(-9, 9)) for _ in range(deg + 1)]
        while not any(p):
            p = [Fraction(rng.randint(-9, 9)) for _ in range(deg + 1)]
        lo, hi = Fraction(-4), Fraction(4)
        if poly_eval(p, lo) == 0 or poly_eval(p, hi) == 0:
            lo -= Fraction(1, 7)
            hi += Fraction(1, 7)
        sf, _ = poly_divmod(p, poly_gcd(p, poly_deriv(p)))
        count = bisection_count(sf, lo, hi)
        assert count_between(p, lo, hi) == count
        assert len([y for y in root_points(p, lo) if y <= hi]) == count


def fraction_chain(p):
    """The Sturm chain of the square-free part of p from Fraction
    remainders by poly_divmod, each member made primitive."""
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


def fujiwara_power(p):
    """The power of two B above the Fujiwara root bound of p, from its
    primitive integer form c: |c_i / c_d| < 2^(bits(c_i) - bits(c_d) + 1),
    so every root has |y| <= 2 max |c_i / c_d|^(1 / (d - i)) < B = 2^(1 +
    max(0, the ceilings of (bits(c_i) - bits(c_d) + 1) / (d - i)))."""
    c = poly_primitive(p)
    d, top = len(c) - 1, abs(c[-1]).bit_length()
    return 2 ** (1 + max([0] + [
        math.ceil(Fraction(abs(ci).bit_length() - top + 1, d - i))
        for i, ci in enumerate(c[:-1])]))


def bisection_intervals(p, lo):
    """The reference for real_roots: the Sturm bisection of [lo, B], B the
    power of two above the Fujiwara bound, on Fraction endpoints, with the
    fraction_chain signs at every midpoint, down to a width of 2^-30 *
    max(1, |m|); the interval (a, b] of each distinct root beyond lo, in
    increasing order."""
    p = poly_trim([Fraction(c) for c in p])
    lo = Fraction(lo)
    hi = max(lo, Fraction(fujiwara_power(p)))
    chain = fraction_chain(p)

    def variations(x):
        signs = [v > 0 for v in (poly_eval(q, x) for q in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    intervals = []
    stack = [(lo, variations(lo), hi, variations(hi))]
    while stack:
        a, va, b, vb = stack.pop()
        if va == vb:
            continue
        m = (a + b) / 2
        if va - vb == 1 and b - a <= Fraction(1, 2 ** 30) * max(1, abs(m)):
            intervals.append((a, b))
            continue
        vm = variations(m)
        stack += [(m, vm, b, vb), (a, va, m, vm)]
    return sorted(intervals)


def bisection_roots(p, lo):
    """The midpoints of bisection_intervals."""
    return [(a + b) / 2 for a, b in bisection_intervals(p, lo)]


def _random_polynomials(rng):
    """(p, lo) pairs: repeated roots, a root at lo, near-double roots,
    60-digit coefficients, a tiny leading coefficient and a root at a
    midpoint of the bisection."""
    for _ in range(20):
        roots = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                 for _ in range(rng.randint(1, 4))]
        yield (from_roots(rng.choice([1, -3, Fraction(2, 7)]),
                          roots * 2 + roots[:1]),
               Fraction(rng.randint(-60, 10), rng.randint(1, 5)))
        roots = [Fraction(rng.randint(-20, 20), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 6))]
        yield from_roots(1, roots), rng.choice(roots)
        r = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 4))
        eps = Fraction(1, 2 ** rng.randint(20, 60))
        other = [Fraction(rng.randint(-9, 9)) for _ in range(3)] + [1]
        yield (poly_mul(from_roots(1, [r, r + eps]), other),
               Fraction(rng.randint(-5, 5)))
        yield ([Fraction(rng.randint(-10 ** 60, 10 ** 60))
                for _ in range(rng.randint(2, 9))],
               Fraction(rng.randint(-10, 10), 3))
        yield ([Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                for _ in range(rng.randint(1, 7))]
               + [Fraction(1, 10 ** rng.randint(10, 80))],
               Fraction(rng.randint(-3, 3)))
        # y - r bisected on [r + 1 - 2^j, r + 1]: the j-th midpoint is r
        r = Fraction(rng.randint(1, 10 ** 4), rng.randint(1, 99))
        yield [-r, Fraction(1)], r + 1 - 2 ** rng.randint(1, 40)


def test_sturm_roots_match_fraction_bisection():
    # every square-free case gives the reference's roots exactly; every
    # case with a repeated root is bisected on its square-free part, below
    # the node cap, and returns one root for each reference root, the two
    # overlapping: never missed, and nothing unresolved
    resolved = repeated = 0
    for p, lo in _random_polynomials(random.Random(20260314)):
        if not any(p):
            continue
        roots, unresolved, nodes = real_roots(p, lo)
        reference = bisection_intervals(p, lo)
        assert not unresolved, (p, lo)
        if len(poly_gcd(p, poly_deriv(p))) == 1:
            assert root_points(p, lo) == [(a + b) / 2 for a, b in reference]
            resolved += 1
            continue
        repeated += 1
        assert nodes < exact._NODE_BUDGET // max(len(poly_trim(p)) - 1, 24)
        assert len(roots) == len(reference), (p, lo)
        for (u, v), (a, b) in zip(roots, reference):
            assert (u < b and a < v) if u < v else a < u <= b, (p, lo)
    assert (resolved, repeated) == (100, 20)


def _lp_searches(monkeypatch, n, d, lam=1):
    """Every (p, lo) that the refinement of sampled_lp(n, d) searches, with
    the root at y0 = lam PI_LO and the default radii scaled by sqrt(lam)."""
    from packbound import lpbound

    seen = []
    positive_maxima = lpbound._positive_maxima
    samples = [r * math.sqrt(lam) for r in lpbound.default_samples()]
    with monkeypatch.context() as patch:
        patch.setattr(lpbound, "PI_LO", lam * lpbound.PI_LO)
        patch.setattr(lpbound, "default_samples", lambda: samples)
        patch.setattr(lpbound, "_positive_maxima", lambda poly, lo: (
            seen.append((poly, lo)), positive_maxima(poly, lo))[1])
        lpbound.sampled_lp(n, d)
    return seen


def test_sturm_roots_match_fraction_bisection_in_the_lp(monkeypatch):
    # every polynomial the (8, 30) refinement searches, p and p'
    from packbound.lpbound import PI_LO

    seen = _lp_searches(monkeypatch, 8, 30)
    assert len(seen) == 8 and all(lo == PI_LO for _, lo in seen)
    for poly, lo in seen:
        for q in (poly, poly_deriv(poly)):
            assert real_roots(q, lo)[1] == []
            assert root_points(q, lo) == bisection_roots(q, lo)


def test_real_roots_isolates_thirty_roots_under_the_cap():
    # prod_(j <= 30) (y - j), whose Cauchy bound is about 2^111: the
    # bisection starts at the Fujiwara power of two 2^10, so the 30 roots
    # take a few dozen nodes of the 2,000 the cap allows
    p = from_roots(1, range(1, 31))
    hi = 1 + max(abs(c) for c in p[:-1])
    assert 110 <= hi.numerator.bit_length() <= 112
    assert fujiwara_power(p) == 2 ** 10
    roots, unresolved, nodes = real_roots(p, 0)
    points = root_points(p, 0)
    assert [round(y) for y in points] == list(range(1, 31))
    assert all(abs(y - j) <= Fraction(j, 2 ** 30)
               for j, y in enumerate(points, 1))
    assert len(roots) == 30 and not unresolved
    assert nodes <= 100 < exact._NODE_BUDGET // 30


def test_real_roots_skips_only_beyond_the_fujiwara_bound():
    # 2 y^2 - 3 y - 3 beyond 3/2: its root (3 + sqrt 33) / 4 = 2.186 lies
    # below the bound 4 that Fujiwara's factor 2 gives and beyond the 2
    # that it would without, so the first node (3/2, 4) holds it alone
    roots, unresolved, nodes = real_roots([-3, -3, 2], Fraction(3, 2))
    assert roots == [(Fraction(3, 2), Fraction(4))]
    assert not unresolved and nodes == 1
    [y] = root_points([-3, -3, 2], Fraction(3, 2))
    assert abs(y - (3 + math.sqrt(33)) / 4) < 1e-8


def test_real_roots_finds_a_root_at_a_midpoint_exactly():
    # (y - 7/2)(y - 24/7)(1/2 - y) beyond 0: the bisection of (0, 32), 32
    # its Fujiwara power of two, reaches the node (3, 4) at depth 5, which
    # holds both 24/7 and 7/2, and its midpoint 7/2 is found exactly
    p = poly_mul(from_roots(1, [Fraction(7, 2), Fraction(24, 7)]),
                 [Fraction(1, 2), Fraction(-1)])
    assert fujiwara_power(p) == 32
    roots, unresolved, _ = real_roots(p, 0)
    assert roots == [(0, 2), (Fraction(27, 8), Fraction(55, 16)),
                     (Fraction(7, 2), Fraction(7, 2))] and not unresolved
    # (y - 10/3)(y - 7/2) beyond -25: its Fujiwara power of two is 32, so
    # 7/2 is the first midpoint, and the left half, which holds 10/3 alone,
    # ends on a root: it is halved again, not isolated towards 7/2
    p = from_roots(1, [Fraction(10, 3), Fraction(7, 2)])
    assert fujiwara_power(p) == 32
    roots, unresolved, _ = real_roots(p, -25)
    assert roots[1] == (Fraction(7, 2), Fraction(7, 2)) and not unresolved
    assert roots[0][0] < Fraction(10, 3) < roots[0][1] < Fraction(7, 2)
    y = root_points(p, -25)[0]
    assert abs(y - Fraction(10, 3)) <= Fraction(10, 3 * 2 ** 30)


def test_real_roots_bisects_dyadically_over_the_denominator_of_lo():
    # the bisection starts at (lo, B), B a power of two, so for lo = a/q
    # every end it returns is an integer over q 2^k: 3 y^2 - 10 y + 3
    # beyond 0 gives (0, 2) and (2, 4), not ends over the denominator of
    # its Cauchy bound 13/3
    def dyadic_over(q, x):
        rest = x.denominator // math.gcd(x.denominator, q)
        return rest & (rest - 1) == 0

    assert real_roots([3, -10, 3], 0)[0] == [(0, 2), (2, 4)]
    for p, lo in _random_polynomials(random.Random(49)):
        if any(p):
            roots, unresolved, _ = real_roots(p, lo)
            assert all(dyadic_over(Fraction(lo).denominator, x)
                       for interval in roots + unresolved
                       for x in interval), (p, lo)


def test_real_roots_stops_at_the_cap(monkeypatch):
    # two roots 2^-200 apart keep two variations down to depth 200: the
    # bisection splits no node after the cap, and returns each node that
    # still shows a variation as unresolved, the pair inside one of them;
    # p has no repeated root, so it is its own square-free part
    monkeypatch.setattr(exact, "_NODE_BUDGET", 24 * 50)
    near = Fraction(1, 3) + Fraction(1, 2 ** 200)
    p = from_roots(1, [Fraction(1, 3), near, 5])
    roots, unresolved, nodes = real_roots(p, 0)
    assert len(roots) == 1 and roots[0][0] < 5 < roots[0][1]
    assert 50 <= nodes <= 100
    assert any(a < Fraction(1, 3) < near < b for a, b in unresolved)
    # a double root does not stop it: its square-free part is bisected, and
    # the root is found below the cap
    p = from_roots(1, [Fraction(1, 3), Fraction(1, 3), 5])
    roots, unresolved, nodes = real_roots(p, 0)
    assert [a < r < b for (a, b), r in zip(roots, (Fraction(1, 3), 5))] == [
        True, True]
    assert not unresolved and nodes < 50


@pytest.mark.parametrize("lo, count", [(0, 1), (-2, 2)])
def test_real_roots_finds_a_repeated_root(lo, count):
    # (y - 16/3)^2 (y + 1): 16/3 lies on no bisection grid, so the double
    # root would keep two variations down to the cap; p / gcd(p, p') =
    # (y - 16/3) (y + 1) is bisected instead, and both roots come back
    # isolated below the cap
    p = from_roots(1, [Fraction(16, 3), Fraction(16, 3), -1])
    roots, unresolved, nodes = real_roots(p, lo)
    assert len(roots) == count and not unresolved
    assert nodes < exact._NODE_BUDGET // 24
    assert roots[-1][0] < Fraction(16, 3) < roots[-1][1]
    points = root_points(p, lo)
    assert abs(points[-1] - Fraction(16, 3)) <= Fraction(16, 3 * 2 ** 30)
    assert count == 1 or abs(points[0] + 1) <= Fraction(1, 2 ** 30)


def test_squarefree_keeps_only_a_confirmed_divisor(monkeypatch):
    # the divisor the gcd modulo a prime proposes is kept only when exact
    # division confirms that it divides p and p': y + 1, a simple factor
    # of p, does not divide p', and y + 5 divides neither
    p = poly_primitive(from_roots(1, [Fraction(16, 3)] * 2 + [-1]))
    assert exact._squarefree(p) == poly_primitive(
        from_roots(1, [Fraction(16, 3), -1]))
    for wrong in ([1, 1], [5, 1]):
        monkeypatch.setattr(exact, "_gcd_mod", lambda p, q, m: wrong)
        assert exact._squarefree(p) == p


def test_squarefree_p_takes_one_modular_gcd(monkeypatch):
    # a square-free p is settled by one gcd modulo 2^127 - 1, with no lift
    # and no exact division
    moduli = []
    gcd_mod = exact._gcd_mod
    monkeypatch.setattr(exact, "_gcd_mod", lambda p, q, m: (
        moduli.append(m), gcd_mod(p, q, m))[1])
    monkeypatch.setattr(exact, "poly_divmod", None)
    p = from_roots(Fraction(2, 7), range(1, 31))
    assert len(real_roots(p, 0)[0]) == 30
    assert moduli == [2 ** 127 - 1]


def test_real_roots_of_a_constant_and_a_line():
    assert real_roots([5], 0) == ([], [], 0) == real_roots([-1], 0)
    assert root_points([5], 0) == []
    assert real_roots([-3, 2], 0) == ([(Fraction(0), Fraction(4))], [], 1)
    assert abs(root_points([-3, 2], 0)[0] - Fraction(3, 2)) <= Fraction(
        3, 2 ** 31)
    assert real_roots([-3, 2], 2)[:2] == ([], [])


M127 = 2 ** 127 - 1


def test_squarefree_with_a_leading_coefficient_the_prime_divides():
    # p = (M y - 4 M - 1)^2 (1 - y), M = 2^127 - 1, drops to 1 - y modulo
    # M, whose gcd with p' is constant though p has the double root 4 + 1/M:
    # the quick test is skipped, and the lift finds the root.  _gcd_mod
    # trims what it reduces: y^2 + M and its derivative are 1 and 0 mod M
    assert exact._gcd_mod([1, 0, M127], [0, 2 * M127], M127) == [1]
    k = 4 * M127 + 1
    p = poly_mul(from_roots(M127 ** 2, [Fraction(k, M127)] * 2), [1, -1])
    assert poly_primitive(p)[-1] % M127 == 0
    assert exact._squarefree(poly_primitive(p)) == poly_primitive(
        poly_mul([-k, M127], [1, -1]))
    roots, unresolved, nodes = real_roots(p, 3)
    assert not unresolved and nodes == 1
    assert roots[0][0] < Fraction(k, M127) < roots[0][1]


def test_squarefree_lifts_above_twice_the_landau_mignotte_bound(
        monkeypatch):
    # the gcd of p and p' is lifted modulo a prime m > 2 * 2^deg ||p||_2.
    # Here 2^127 - 1, the first Mersenne prime above p's coefficients, is
    # below that bound, so a lift modulo it would rest on no proof
    moduli = []
    gcd_mod = exact._gcd_mod
    monkeypatch.setattr(exact, "_gcd_mod", lambda p, q, m: (
        moduli.append(m), gcd_mod(p, q, m))[1])
    p = poly_primitive(from_roots(1, [1] + list(range(1, 30))))
    assert exact._squarefree(p) == poly_primitive(from_roots(1, range(1, 30)))
    bound_sq = 4 ** len(p) * sum(c * c for c in p)  # (2 * 2^deg ||p||_2)^2
    assert max(c.bit_length() for c in p) < 127 and M127 ** 2 < bound_sq
    assert moduli[0] == M127 and moduli[1] ** 2 > bound_sq


def test_sign_matches_the_fraction_sign():
    # _sign at random a/b of 1 to 1,000 bits, and within 2^-64 of a root,
    # equals the Fraction sign
    def fraction_sign(p, x):
        v = poly_eval(p, x)
        return (v > 0) - (v < 0)

    rng = random.Random(64)
    for _ in range(300):
        p = [rng.randint(-10 ** 30, 10 ** 30)
             for _ in range(rng.randint(2, 12))]
        a = rng.getrandbits(rng.randint(1, 1000)) * rng.choice([-1, 1])
        b = rng.getrandbits(rng.randint(1, 1000)) | 1
        assert _sign(p, a, b) == fraction_sign(p, Fraction(a, b)), (p, a, b)
    for _ in range(100):
        root = Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 999))
        q = [rng.randint(-99, 99) for _ in range(rng.randint(1, 6))] + [1]
        p = [int(c) for c in poly_mul([-root.numerator, root.denominator],
                                       q)]
        eps = Fraction(rng.randint(-2 ** 300, 2 ** 300), 2 ** 365)
        for x in (root + eps, root):
            a, b = x.numerator << 300, x.denominator << 300
            assert _sign(p, a, b) == fraction_sign(p, x), (p, x)


# -- Poisson ------------------------------------------------------------------

def test_poisson_zn8():
    res = poisson_check(standard_lattice("zn", 8), Fraction(1), 25)
    assert res["residual"] <= 1e-10


def test_poisson_refuses_non_unimodular():
    # sqrt(2) Z has determinant 2: its dual is not the lattice itself
    with pytest.raises(PackboundError, match="unimodular"):
        poisson_check(construction_a(zero_code(1)), Fraction(1), 5)


def test_poisson_refuses_a_lattice_without_a_proven_shell_bound():
    # Z^2 on the basis (1, 1), (0, 1): unimodular and odd, but its Gram
    # matrix is not the identity, so no proven shell-count bound covers it
    z2 = standard_lattice("zn", 2)
    skew = _make_lattice([[1, 1], [0, 1]], 0, name="skew-z2",
                         counting=z2.counting)
    assert skew.unimodular and skew.gram != z2.gram
    assert vectors_by_norm(skew, 8) == vectors_by_norm(z2, 8)
    with pytest.raises(PackboundError, match="no proven shell-count bound"):
        poisson_check(skew, Fraction(4, 5), 4)


@pytest.mark.parametrize("name, n", [("e8", None), ("leech", None),
                                     ("l24", None), ("zn", 1), ("zn", 3),
                                     ("zn", 8)])
def test_shell_count_bound_holds_through_norm_64(name, n):
    # every computed shell, up to the enumeration budget, lies under the
    # proven C k^p
    lat = standard_lattice(name, n)
    table = vectors_by_norm(lat, 64)
    c, p = certify_mod._shell_count_bound(lat, table)
    assert all(cnt <= c * k ** p
               for k, (_, cnt) in enumerate(table.counts) if k)


def test_poisson_e8():
    res = poisson_check(standard_lattice("e8"), Fraction(1), 25)
    assert res["residual"] <= 1e-10


def test_poisson_e8_off_symmetric_width():
    # sigma != 1 exercises the two different sums for real
    res = poisson_check(standard_lattice("e8"), Fraction(4, 5), 25)
    assert res["difference"] <= 1e-12
    assert res["residual"] <= 1e-8


def test_poisson_leech():
    res = poisson_check(standard_lattice("leech"), Fraction(1), 12)
    assert res["residual"] <= 1e-8


def test_poisson_residual_decreases_with_cutoff():
    z8 = standard_lattice("zn", 8)
    r1 = poisson_check(z8, Fraction(1), 10)["residual"]
    r2 = poisson_check(z8, Fraction(1), 20)["residual"]
    assert r2 < r1


def _lattice_sum(table, rate):
    """Reference head: sum counts(v) * exp(-rate * v), one exp per shell."""
    total = mp.mpf(0)
    for v, cnt in table.counts:
        if cnt:
            total += cnt * mp.exp(-rate * mp.mpf(v.numerator) / v.denominator)
    return total


def _zeta_upper(s, terms=16):
    """Reference bound zeta(s) <= sum_{k <= terms} k^-s + terms^(1-s)/(s-1),
    by the integral of x^-s beyond the last term."""
    head = sum(Fraction(1, k ** s) for k in range(1, terms + 1))
    return head + Fraction(terms) ** (1 - s) / (s - 1)


def _shell_count_bound(lat, table, quantum):
    """Reference envelope n(v) <= C (v/quantum)^p, p a Fraction: the ball
    bound for Z^n; 240 zeta(3) k^3 for the E4 theta series of E8; and for
    an even unimodular lattice in dimension 24, whose theta series is
    E12 + (N2 - e) Delta with e = 65520/691 and N2 its count at norm 2,
    e zeta(11) k^11 + 2 |N2 - e| k^6."""
    n = lat.dimension
    if all(lat.gram[i][j] == (i == j) for i in range(n) for j in range(n)):
        return Fraction(3) ** n, Fraction(n, 2)
    assert quantum == 2
    if n == 8:
        return 240 * _zeta_upper(3), Fraction(3)
    e = Fraction(65520, 691)
    return e * _zeta_upper(11) + 2 * abs(table.count(2) - e), Fraction(11)


def _tail_bound(c, p, quantum, cutoff_norm, rate):
    """Reference tail: sum_{v > cutoff, v in quantum*Z} C (v/q)^p
    exp(-rate v), bounded through (v/q)^p <= (m/q)^p exp(p (v-m) / m)."""
    g = mp.mpf(quantum.numerator) / quantum.denominator
    m = mp.mpf(cutoff_norm.numerator) / cutoff_norm.denominator
    cf = mp.mpf(c.numerator) / c.denominator
    pf = math.ceil(p)
    # (v/q)^p <= (m/q)^p exp(p (v-m) / m) for v >= m
    ratio = mp.exp(-(rate - pf / m) * g)
    if ratio >= 1:
        return mp.inf
    first = cf * (m / g) ** pf * mp.exp(-(rate) * (m + g) + pf * g / m)
    return first / (1 - ratio)


_POISSON_LATTICES = [("e8", None), ("leech", None), ("l24", None)] + [
    ("zn", n) for n in range(1, 9)]


@pytest.mark.parametrize("name, n", _POISSON_LATTICES,
                         ids=[f"{a}{b or ''}" for a, b in _POISSON_LATTICES])
def test_poisson_side_matches_the_shell_by_shell_sums(name, n):
    # the Horner head and the tail in k and x agree with one exp per shell
    # and the tail in v, within 1e-45 relative, at both rates; the envelope
    # read in k is the one read in v
    lat = standard_lattice(name, n)
    with mp.workdps(certify_mod._POISSON_DPS + 10):
        for cutoff in (1, 12, 25):
            max_norm = Fraction(2 * cutoff)
            table = vectors_by_norm(lat, max_norm)
            c, p = certify_mod._shell_count_bound(lat, table)
            ref_c, ref_p = _shell_count_bound(lat, table, lat.quantum)
            assert (c, p) == (ref_c, math.ceil(ref_p))
            for sigma in (1, Fraction(4, 5), Fraction(1, 2), Fraction(3, 2),
                          Fraction(7, 3)):
                s = mp.mpf(sigma.numerator) / sigma.denominator
                for rate in (mp.pi / s ** 2, mp.pi * s ** 2):
                    head, tail = certify_mod._poisson_side(
                        table, lat.quantum, c, p, rate)
                    ref_head = _lattice_sum(table, rate)
                    ref_tail = _tail_bound(ref_c, ref_p, lat.quantum, max_norm,
                                           rate)
                    where = (cutoff, sigma, rate)
                    assert abs(head - ref_head) <= 1e-45 * ref_head, where
                    assert tail == ref_tail or (
                        abs(tail - ref_tail) <= 1e-45 * ref_tail), where


def test_poisson_check_takes_four_exps(monkeypatch):
    # one exp per side for the head and one for the tail, however many
    # shells the table holds
    calls = []
    exp = mp.exp
    monkeypatch.setattr(mp, "exp", lambda x: (calls.append(x), exp(x))[1])
    for lat, cutoff in ((standard_lattice("e8"), 25),
                        (standard_lattice("leech"), 12),
                        (standard_lattice("zn", 8), 25)):
        calls.clear()
        assert poisson_check(lat, Fraction(4, 5), cutoff)["residual"] < 1e-8
        assert len(calls) <= 4, lat.name


# -- composite certificate ------------------------------------------------------

@pytest.mark.slow
def test_certify_magic_8(spec8):
    cert = certify_magic(8, spec8)
    assert cert.status == "verified", cert.to_dict()


def test_certify_magic_margin_shortfall_is_inconclusive(spec8, monkeypatch):
    # every sign is right, but no margin reaches 1e300: not a refutation
    monkeypatch.setattr(certify_mod, "_FAR_MARGIN", 1e300)
    cert = certify_magic(8, spec8)
    assert cert.status == "inconclusive"
    failing = [s["statement"] for s in cert.log if not s["passed"]]
    assert failing == ["far decay beyond 8.0: signs with margin >= 1e+300"]


def test_certify_magic_sweeps_one_grid(spec8):
    # both sign steps read one sweep from r = 0; besides it only the three
    # far samples are single-radius pair() calls, since every step at an
    # even squared radius, f(r1) = 0 among them, reads the exact jet
    spec = copy.copy(spec8)
    spec._cache = {}
    grids = []
    sweep = spec.sweep

    def counting(r0, step, count):
        if count > 1:
            grids.append((r0, count))
        return sweep(r0, step, count)

    spec.sweep = counting
    assert certify_magic(8, spec).status == "verified"
    assert grids == [(0, 401)]
    assert len(spec._cache) <= 404


@pytest.mark.parametrize("n", [8, 24])
def test_certify_magic_grid_reaches_rmax(n, request):
    # the binary 0.02 lies above the decimal one, so floor(rmax / step)
    # alone would stop one point short of the rmax the steps name
    spec = copy.copy(request.getfixturevalue(f"spec{n}"))
    grids = []
    sweep = spec.sweep

    def recording(r0, step, count):
        if count > 1:
            grids.append((r0, step, count))
        return sweep(r0, step, count)

    spec.sweep = recording
    certify_magic(n, spec)
    [(r0, step, count)] = grids
    rmax = certify_mod._GRID_END[n]
    with mp.workdps(spec.dps + 10):
        assert abs(r0 + (count - 1) * step - rmax) < 1e-12


def test_certify_magic_refuses_a_spec_of_another_dimension(spec8):
    with pytest.raises(PackboundError, match="not of dimension 24"):
        certify_magic(24, spec8)


def test_certify_magic_f_step_reads_the_grid_beyond_r1(spec8):
    # a planted pair at the grid point r = 4 with f = fhat = |A| > 0 breaks
    # f <= 0 there and no other step
    spec = copy.copy(spec8)
    spec._cache = {}
    with mp.workdps(spec.dps + 10):
        key = (200 * mp.mpf(certify_mod._GRID_STEP))._mpf_
        spec._cache[key] = (CertifiedValue(mp.sign(spec._A), 0),
                            CertifiedValue(0, 0))
    cert = certify_magic(8, spec)
    assert cert.status == "refuted"
    assert [s["statement"] for s in cert.log if not s["passed"]] == [
        "f <= 0 on [r1, 8.0]"]


@pytest.mark.slow
def test_certify_magic_sabotage(spec8):
    bad = spec8.flipped_minus_copy()
    cert = certify_magic(8, bad)
    assert cert.status == "refuted"
    # an exact step that fails is a definite failure
    failing = {s["statement"] for s in cert.log
               if not s["passed"] and s["method"] == "exact"}
    assert {"double root of fhat at r1", "quadratic coefficient of f is -27/10",
            "quadratic coefficient of f_hat is -3/2"} <= failing


def test_certificate_json_roundtrip():
    cert = Certificate(claim="demo")
    cert.add_step("trivial", "exact", 0, True)
    import json
    obj = json.loads(json.dumps(cert.to_dict()))
    assert obj["status"] == "verified"
    # the definite flag decides the status but is not part of the record
    assert set(obj["log"][0]) == {"statement", "method", "bound", "passed",
                                  "detail"}


def test_certificate_status_follows_the_steps():
    cert = Certificate(claim="demo")
    assert cert.status == "inconclusive"  # nothing checked, nothing proved
    with pytest.raises(AttributeError):
        cert.status = "verified"
    cert.add_step("within its error bar", "numerical", 0, False,
                  definite=False)
    assert cert.status == "inconclusive"
    cert.add_step("passes", "exact", 0, True)
    assert cert.status == "inconclusive"
    cert.add_step("beyond its error bar", "numerical", 0, False)
    assert cert.status == "refuted"
    with pytest.raises(AttributeError):
        cert.status = "verified"
    assert cert.status == "refuted"
