"""Evaluation of the radial Fourier eigenfunctions and the optimal test
functions for dimensions 8 and 24, with certified error bounds.

Construction
------------
Both eigenfunctions are a squared sine times a Laplace-type transform of a
(quasi-)modular kernel along the imaginary axis.  Writing W(r) =
sin(pi r^2 / 2)^2 and substituting z = it, the real pipelines are

    P(r) = W(r) * int_0^inf t^(n/2-2) psi_plus(i/t) e^(-pi r^2 t) dt
    M(r) = W(r) * int_0^inf psi_minus(it) e^(-pi r^2 t) dt

and the test function pair is f = A*P + B*M, fhat = A*P - B*M (the minus
kernel is the eigenvalue -1 part).  The S-transform t -> 1/t is stated on
the axis (`s_transform_terms`), so every coefficient is real; the
normalizations sit in the real constants A and B:

* A is pinned exactly by f(0) = fhat(0) = 1: the only surviving term at
  r = 0 is the constant coefficient of the middle S-transform series, so
  A = 4 / (kappa_1 * gamma_1) as an exact rational multiple of a pi power.
* B is pinned exactly by the root-order law: fhat is nonnegative with
  fhat(0) = 1, so its root at the minimal vector length r1 must have even
  order.  Killing the linear term of W * I at the r1 pole gives
  B = A * kappa_0 * g2[E1] / psi_minus[E1], again exact.

A is cross-checked against the published table value, and a spec whose A
differs is not built.  B is only derived: only the product B * psi_minus
enters the function, and the root-order and Taylor checks confirm it.

Numerics
--------
The integral is split at t = 1, the fixed point of t -> 1/t.  On [1, inf)
every series term integrates in closed form: int_1^inf t^m e^(-st) dt with
s = pi (r^2 + E/4); the analytic continuation in s is the same expression,
and the sin^2 prefactor cancels the poles at s = 0 (inside |s| < 1e-3,
where W(r) = sin(s/2)^2 because all pole exponents are divisible by 8,
W / s^2 is read off sinc(s/2)).  The terms are folded once per spec into a
table over the distinct grid exponents E (pi E/4 and the combined
coefficients of 1/s, 1/s^2, 1/s^3), held as integers scaled by 2^fix (fix
is the bit precision of dps + 10): outside the band a radius costs one
integer reciprocal per exponent, integer products for its powers and one
integer dot product per side, with a proven truncation term (see
`_TsideTable`).  On (0, 1] the substitution u = 1/t and the S-transform
turn the integrand into u^(-n/2) * (decaying series) * e^(-pi r^2 / u),
integrated by 64-point Gauss-Legendre panels with a proven Bernstein-ellipse
error bound, one constant per kernel for every radius (see `_uside_kernels`).
At spec build each series is summed at every node as an integer dot product
of its exact coefficients with the powers of y = e^(-pi u/4), held in a
wider fixed point with a proven round-off bound (see `_NodeSeries`).  Both
kernels share one node set, where e^(-pi r^2 / u) and the weighted
integrand values are held in the same fixed point, so each quadrature sum
is an exact integer dot product.  One exp per node anchors a radius; on an
arithmetic grid r_k = r0 + k h, `sweep` takes three exps per node once and
then two integer products per node and radius (see `_decays`).  The u-side
error carries proven round-off terms for the node values (in the series
error), their truncation and the decays' 2 (k + 2)^2 units.  `pair(r)` is a
one-radius sweep.  Series truncation tails ride along from the coefficient
envelopes.

Even squared radii
------------------
At r^2 = r_sq in 2Z>=0 the value and the slope d f/d(r^2) are exact
rationals (`MagicFunctionSpec.jet`).  With E = -4 r_sq and s = pi (r^2 +
E/4), W(r) = sin(s/2)^2 = s^2/4 + O(s^4) because 8 | E.  The u-side
integral and every t-side term with another exponent are analytic there, so
W times them is O(s^2).  The term at E is e^(-s) (C_0/s + C_1 (1/s +
1/s^2)), where C_m sums A or +-B times const * c_E over the terms of weight
t^m (C_2 = 0: the m = 2 series vanish at the cusp).  So

    f = C_1/4 + (pi C_0/4) (r^2 - r_sq) + O((r^2 - r_sq)^2),

and each product is rational because the pi powers cancel.
The normalization, the roots at the vector lengths, their orders and the
quadratic Taylor coefficients (the slopes at r_sq = 0) are read off it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import mpmath as mp

from .exact import frac
from .lattices import SymbolicVolume, ball_volume
from .qseries import (CertifiedValue, DEFAULT_TRUNC, GRID, QSeries,
                      psi_forms, s_transform_terms)

DEFAULT_DPS = 60
# the claim of the feasibility certificate of dimension n, by str.format
FEASIBILITY_CLAIM = "test-function feasibility, dimension {}"
# half-width in s = pi (r^2 + E/4) of the band around each t-side pole where
# the sinc branch replaces the closed form
POLE_BAND = 1e-3


class MagicError(ValueError):
    pass


_PI = SymbolicVolume(Fraction(1), Fraction(1))


# Published plus-side combination constants (magnitudes).
_TABLE_ALPHA = {8: SymbolicVolume(Fraction(1, 8640), Fraction(1)),
                24: SymbolicVolume(Fraction(1, 113218560), Fraction(1))}


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes
# ---------------------------------------------------------------------------

_GL_CACHE = {}
_ORDER = 64  # of the u-side rule


def _legendre(order: int, x):
    """P_order(x) and its derivative by the three-term recurrence, in the
    arithmetic of x (float or mpf)."""
    p0, p1 = 1, x
    for k in range(2, order + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, order * (x * p1 - p0) / (x * x - 1)


def legendre_nodes(order: int, dps: int):
    """Nodes and weights of an even order on [-1, 1], once per (order, dps).

    Each positive node is solved by Newton's method in float64 first, so the
    mpmath solve starts 16 digits in and needs about four steps.  The
    negative nodes and their weights are mirrored: P_k(-x) = (-1)^k P_k(x)
    rounds symmetrically, so their weights are bit-identical.
    """
    key = (order, dps)
    if key in _GL_CACHE:
        return _GL_CACHE[key]
    with mp.workdps(dps + 20):
        upper, upper_w = [], []  # the positive nodes, largest first
        for i in range(1, order // 2 + 1):
            x = math.cos(math.pi * (i - 0.25) / (order + 0.5))
            for tol in (1e-12, mp.mpf(10) ** (-dps - 12)):
                for _ in range(120):
                    p, dp = _legendre(order, x)
                    dx = p / dp
                    x -= dx
                    if abs(dx) < tol:
                        break
                x = mp.mpf(x)
            dp = _legendre(order, x)[1]
            upper.append(x)
            upper_w.append(2 / ((1 - x * x) * dp * dp))
        nodes = [-x for x in upper] + upper[::-1]
        weights = upper_w + upper_w[::-1]
    _GL_CACHE[key] = (nodes, weights)
    return _GL_CACHE[key]


# ---------------------------------------------------------------------------
# Spec construction
# ---------------------------------------------------------------------------

class _TsideTable:
    """W * int_1^inf of every t-side series sum, folded once per spec.

    Each side is a list of terms const * t^m * series(it).  For every
    distinct grid exponent E the terms collapse to C_m = sum const * c_E
    (one per power m), so outside the pole band the side is a polynomial in
    x = 1/s, s = pi r^2 + pi E/4:

        W e^(-pi r^2) * sum_E sum_j D_{E,j} x^(j+1),
        D_{E,j} = base^E sum_m C_m m!/(m-j)!.

    The same polynomial with |const * c_E| in place of C_m, |D|, bounds the
    sum of the absolute summands, which sizes the round-off guard.

    Outside the band it is evaluated in integers scaled by 2^fix: per spec
    pi E/4 (floored), D (to nearest) and |D| (rounded up); per radius
    S = P + SHIFT with P the truncated pi r^2, X = 2^(2 fix) // S and each
    further power X_(k+1) = X_k X >> fix; each sum is an integer dot product.
    In units of 2^-fix, with |x| <= m (m from max |X|): S is within 2 units
    of the mpf pi r^2 plus the exact pi E/4, so X is within 1 + 2 x^2 /
    (1 - 2 |x| 2^-fix) < e_1 = 2 + 2 m^2; x^k is within e_k = m^(k-1) e_1 +
    m e_(k-1) + 2 (each factor's error against the other factor, their
    product under a unit, the floor); D is under a unit off.  So D X_k is
    within |D| e_k + m^k 2^fix + e_k units of 2^-2fix: summed over E and j,
    times W g <= 1, that is the truncation term.  The guard (abs_total + 1)
    10^-(dps-8) still covers the mpf inputs (D, pi r^2, W, g).  The series
    tails beyond trunc come from the envelopes, so every series must carry
    one.
    """

    def __init__(self, sides, base, dps, fix):
        if any(s.envelope is None for side in sides for _, _, s in side):
            raise MagicError("t-side series must carry a tail envelope")
        self.dps = dps
        self.fix = fix
        # well beyond fix bits, so the fixed-point constants are rounded
        # from the mpf inputs, not from rounded intermediates
        with mp.workprec(fix + 64):
            exps = sorted({e for side in sides for _, _, series in side
                           for e in series.coeffs})
            index = {e: k for k, e in enumerate(exps)}
            self.exps = exps
            self.band = int(mp.ldexp(POLE_BAND, fix))
            self.shift = [int(mp.floor(mp.ldexp(mp.pi * e / 4, fix)))
                          for e in exps]
            self.bpow = [base ** e for e in exps]
            self.width = 1 + max(m for side in sides for m, _, _ in side)
            self.sides = []
            for side in sides:
                width = 1 + max(m for m, _, _ in side)
                # C_m and sum |const * c_E| per exponent; at least m = 0, 1
                # for the pole band
                c = [[mp.mpf(0)] * max(width, 2) for _ in exps]
                c_abs = [[mp.mpf(0)] * max(width, 2) for _ in exps]
                tail = mp.mpf(0)
                for m, const, series in side:
                    cm = const.mpf()
                    for e, v in series.items():
                        c[index[e]][m] += cm * v
                        c_abs[index[e]][m] += abs(cm * v)
                    tail += abs(cm) * 8 * 2 ** m * \
                        series.envelope.tail_bound(series.trunc, base)

                def fold(cs, rnd):
                    # rows over j of the x^(j+1) coefficients D_{E,j}
                    return [[rnd(mp.ldexp(bp * mp.fsum(
                        cm[m] * math.perm(m, j) for m in range(j, width)),
                        fix))
                        for bp, cm in zip(self.bpow, cs)]
                        for j in range(width)]

                coef = fold(c, lambda d: int(mp.nint(d)))
                coef_abs = fold(c_abs, lambda d: int(d) + 1)
                self.sides.append((sum(coef, []), sum(coef_abs, []),
                                   list(map(sum, coef_abs)), c, c_abs, tail))

    def evaluate(self, pi_r2, w_r, g):
        """[(value, error, truncation)] per side at s = pi r^2 + pi E/4 for
        every E, with g = e^(-pi r^2); the error includes the fixed-point
        truncation term."""
        fix, band = self.fix, self.band
        one = 1 << 2 * fix
        p = _fixed(pi_r2, fix)
        ss = [p + shift for shift in self.shift]
        # x underflows to 0 far outside the band as well (pi r^2 > 2^fix),
        # so the band is marked by s itself
        x = [one // s if abs(s) > band else 0 for s in ss]
        # inside the pole band (reachable only where 8 | E, so W(r) =
        # sin(s/2)^2 exactly) W (C_0/s + C_1 (1/s + 1/s^2)) is read as
        # sinc(s/2)^2 / 4 (C_0 s + C_1 (s + 1))
        in_band = []
        for k in [k for k, s in enumerate(ss) if abs(s) <= band]:
            s = pi_r2 + mp.pi * self.exps[k] / 4
            in_band.append((k, s, g * self.bpow[k], mp.sinc(s / 2) ** 2 / 4))
        powers = [x]
        for _ in range(1, self.width):
            powers.append([a * b >> fix for a, b in zip(powers[-1], x)])
        flat = [v for row in powers for v in row]
        flat_abs = list(map(abs, flat))
        # the truncation per power (see the class docstring)
        m = (max(map(abs, x)) >> fix) + 1
        units = [2 + 2 * m * m]
        for k in range(1, self.width):
            units.append(m ** k * units[0] + m * units[-1] + 2)
        scale = w_r * g
        out = []
        for coef, coef_abs, abs_sums, c, c_abs, tail in self.sides:
            # map stops at the shorter list, so a side reads as many powers
            # of x as it has coefficients
            total = scale * mp.ldexp(sum(map(mul, coef, flat)), -2 * fix)
            abs_total = scale * mp.ldexp(sum(map(mul, coef_abs, flat_abs)),
                                         -2 * fix)
            trunc = scale * mp.ldexp(sum(
                (d + len(x)) * e + (len(x) * m ** (j + 1) << fix)
                for j, (d, e) in enumerate(zip(abs_sums, units))), -2 * fix)
            for k, s, est, sinc2 in in_band:
                c0, c1 = c[k][:2]
                a0, a1 = c_abs[k][:2]
                total += est * sinc2 * (c0 * s + c1 * (s + 1))
                abs_total += est * sinc2 * (a0 * abs(s) + a1 * (abs(s) + 1))
            guard = (abs_total + 1) * mp.mpf(10) ** (-(self.dps - 8))
            out.append((total, tail + guard + trunc, trunc))
        return out


def _fixed(x, fix):
    """x >= 0 as an integer scaled by 2^fix, truncated."""
    _, man, exp, _ = x._mpf_
    return man << (exp + fix) if exp + fix >= 0 else man >> -(exp + fix)


class _UsideKernel:
    """Gauss-Legendre data for int_1^inf u^(-p) Phi(iu) e^(-b/u) du.

    `nodes` holds -1/u at the nodes.  Every kernel of a spec holds the same
    list, so e^(-b/u) is held once per node and radius for all of them.
    `vals` holds the weighted integrand values at the nodes as integers
    scaled by 2^fix (floored from the fixed-point series values; their
    round-off is part of `series_err`), so each quadrature sum against
    decays in the same fixed point is an exact integer dot product.
    `quad_err` bounds the rule's error for every b >= 0.
    """

    def __init__(self, nodes, fix, vals, series_err, tail_err, quad_err):
        self.nodes = nodes
        self.fix = fix
        self.vals = vals
        self.abs_vals = sum(map(abs, vals))
        self.series_err = series_err
        self.tail_err = tail_err
        self.quad_err = quad_err

    def integral(self, decay, units):
        """Certified value of the integral from e^(-b/u) at `nodes`, given
        as integers scaled by 2^fix within `units` units of the exact
        decay."""
        fix = self.fix
        q = mp.ldexp(sum(map(mul, self.vals, decay)), -2 * fix)
        # per node: the value's floor (under a unit, against a decay of at
        # most 1) and the decay's error against the value; per sum: its
        # rounding to working precision
        count = len(decay)
        roundoff = mp.ldexp((count << fix)
                            + (units + 2) * (self.abs_vals + count), -2 * fix)
        return q, roundoff + self.series_err + self.tail_err + self.quad_err


class _NodeSeries:
    """Integer-coefficient series evaluated at z = iu in fixed point.

    Every series is an integer dot product of its exact coefficients with
    y^E, y = e^(-pi u/4), at the exponents E = E0 + g k of the union grid,
    held in a fixed point of F = fix + (bits of the largest |c_E|) +
    _GUARD_BITS bits, so each term's round-off stays below 2^-fix.
    y^g and y^E0 are truncated from mpf values at F + 10 bits: rounding
    the argument x moves e^-x by at most x e^-x 2^-(F+10) < 2^-(F+10), and
    exp and the power add a few units of 2^-(F+10), so with the truncation
    each is within 2 units of 2^-F.  A power P_(k+1) = P_k y^g >> F is
    then within rho d_k + 4 units, d_k being P_k's error and rho = y^g <=
    (Y + 2) 2^-F, Y the stored y^g: rho d_k from P_k, 2 from y^g's error
    against P_k <= 1, under 1 from the product of the two errors and under
    1 from the floor.  By induction every power is within d = 4 / (1 - rho)
    >= 2 units, and the dot product S of a series within d sum |c_E| units.
    """

    def __init__(self, series_list, fix):
        exps = sorted({e for series in series_list for e in series.coeffs})
        self.e0 = exps[0]
        self.g = math.gcd(*(e - self.e0 for e in exps)) or 1
        self.rows = [series.dense(self.e0, exps[-1] + 1, self.g)
                     for series in series_list]
        self.abs_sums = [sum(map(abs, row)) for row in self.rows]
        self.prec = fix + max(abs(c).bit_length() for row in self.rows
                              for c in row) + _GUARD_BITS

    def at(self, u):
        """y = e^(-pi u/4) (an mpf) and, per series, (S, bound): the value
        scaled by 2^F and the bound on its round-off in units of 2^-F."""
        prec = self.prec
        with mp.workprec(prec + 10):
            y = mp.exp(-mp.pi * u / 4)
            step = _fixed(y ** self.g, prec)
            power = _fixed(y ** self.e0, prec)
        powers = [power]
        for _ in range(1, len(self.rows[0])):
            power = power * step >> prec
            powers.append(power)
        d = -(-(4 << prec) // ((1 << prec) - step - 2))
        return y, [(sum(map(mul, row, powers)), d * a)
                   for row, a in zip(self.rows, self.abs_sums)]


# bits of the u-side series evaluation beyond fix + (bits of the largest
# |c_E|): they absorb d times the number of terms in its round-off
_GUARD_BITS = 16


def _uside_kernels(series_list, p, dps):
    """One _UsideKernel per series, all on one node set.

    The panel breaks grow geometrically from 1 up to the u_max of the most
    slowly decaying series, so all kernels are cut at the same point (a
    later cut only shrinks a faster kernel's tail bound).  At each node the
    series are evaluated in the fixed point of `_NodeSeries`.  The weighted
    value is floor(S W 2^-F), W the weight truncated to fix bits (under a
    unit low): off by at most (b (W + 1) + |S|) 2^-F units of 2^-fix
    before the floor (which `integral` counts), b being S's round-off bound.
    Summed over all nodes, that is the round-off term of `series_err`.

    On a panel [a, b] the N-point rule is off by at most (b - a)/2 * 64 M /
    (15 (rho^2 - 1) rho^(2N - 2)) if |integrand| <= M on the ellipse with
    foci a, b through sigma in (0, a) (Trefethen, SIAM Rev. 50 (2008), Thm
    4.5).  There Re u >= sigma: |e^(-pi r^2/u)| <= 1 for every radius, |u^-p|
    <= sigma^-p and |Phi(iu)| <= sum |c_E| e^(-pi sigma E/4) plus the
    envelope tail, so M is one constant per kernel; the least bound over
    sigma = a/8, ..., 7a/8 is kept, and a relative 2^-20 covers its rounding.
    """
    e1s = [series.min_exp for series in series_list]
    if min(e1s) < 1 or any(s.envelope is None for s in series_list):
        raise MagicError("u-side kernel must decay at the cusp and carry a "
                         "tail envelope")
    with mp.workdps(dps + 10):
        fix = mp.mp.prec
        fixed = _NodeSeries(series_list, fix)
        # the same sums with |c_E|: at u they bound |Phi(iz)| for Re z >= u
        majorant = _NodeSeries([QSeries({e: abs(c) for e, c in s.items()},
                                        s.trunc) for s in series_list], fix)
        prec = fixed.prec
        u_max = 1 + (dps + 12) * mp.log(10) * 4 / (mp.pi * min(e1s))
        breaks = [mp.mpf(1)]
        while breaks[-1] < u_max:
            breaks.append(breaks[-1] * 2 + 1)
        breaks[-1] = u_max

        def tails(y):
            # sum_{E >= trunc} |c_E| y^E by the envelopes, per series
            return [s.envelope.tail_bound(s.trunc, y) for s in series_list]

        def bound_phi(u):
            y, sums = majorant.at(u)
            return [mp.ldexp(s + b, -prec) + t
                    for (s, b), t in zip(sums, tails(y))]

        xs, ws = legendre_nodes(_ORDER, dps)
        nodes = []
        vals = [[] for _ in series_list]
        series_err = [mp.mpf(0)] * len(series_list)
        quad_err = [mp.mpf(0)] * len(series_list)
        roundoff = [0] * len(series_list)
        for a, b in zip(breaks, breaks[1:]):
            half = (b - a) / 2
            mid = (b + a) / 2
            for x, w in zip(xs, ws):
                u = mid + half * x
                wu = w * half * u ** (-p)
                weight = _fixed(wu, fix)
                nodes.append(-1 / u)
                y, phis = fixed.at(u)
                for k, ((s, bound), tail) in enumerate(zip(phis, tails(y))):
                    vals[k].append(s * weight >> prec)
                    roundoff[k] += (bound * (weight + 1) + abs(s) >> prec) + 1
                    # series truncation along the contour (e^(-b/u) <= 1)
                    series_err[k] += wu * tail
            panel = [mp.inf] * len(series_list)
            for sigma in (a * j / 8 for j in range(1, 8)):
                c = (mid - sigma) / half
                rho = c + mp.sqrt(c * c - 1)
                scale = half * 64 / (15 * (rho * rho - 1) * sigma ** p
                                     * rho ** (2 * _ORDER - 2))
                panel = [min(e, scale * m)
                         for e, m in zip(panel, bound_phi(sigma))]
            quad_err = [q + e for q, e in zip(quad_err, panel)]
        # contour tail beyond u_max: |Phi(iu)| <= A_U e^(-pi e1 (u-U)/4)
        return [_UsideKernel(nodes, fix, vals[k],
                             series_err[k] + mp.ldexp(roundoff[k], -fix),
                             phi * u_max ** (-p) * 4 / (mp.pi * e1s[k]),
                             quad_err[k] * (1 + mp.mpf(2) ** -20))
                for k, phi in enumerate(bound_phi(u_max))]


class MagicFunctionSpec:
    """Precomputed evaluation pipeline for one dimension."""

    def __init__(self, n, trunc=DEFAULT_TRUNC, dps=DEFAULT_DPS):
        if n not in (8, 24):
            raise MagicError("dimension must be 8 or 24")
        self.n = n
        self.r1_sq = 2 if n == 8 else 4
        self.trunc = trunc
        self.dps = dps
        self._cache = {}

        terms = s_transform_terms(n, trunc)
        psis = psi_forms(n, trunc)

        # t-side decomposition of t^(n/2-2) psi_plus(i/t):
        #   coefficient * t^m * series(it), coefficient = rat pi^p (exact)
        plus_terms = [(it.m, SymbolicVolume(it.rat, Fraction(it.pi_pow)),
                       it.series) for it in terms["psi_plus"]]
        minus_terms = [(0, SymbolicVolume.of(1), psis["psi_minus"])]
        for m, _, series in plus_terms + minus_terms:
            if any(e < 0 and e % GRID for e in series.coeffs):
                raise MagicError("pole exponent off the integer-power grid")
            if m == 2 and series.min_exp < 1:
                raise MagicError("quadratic-weight series must vanish at the "
                                 "cusp")
        self._terms = (plus_terms, minus_terms)

        # u-side (t = 1/u) kernels: u^(-n/2) times psi_plus(iu) and times
        # the conjugate minus kernel at iu, both with coefficient 1
        self.uside_plus, self.uside_minus = _uside_kernels(
            [psis["psi_plus"], terms["psi_minus"][0].series], n // 2, dps)

        # combination constants
        kappa1 = plus_terms[1][1]
        gamma1 = plus_terms[1][2].coeffs.get(0, 0)
        if gamma1 == 0:
            raise MagicError("middle S-transform series has no constant term")
        self.A = SymbolicVolume.of(4) / (kappa1 * gamma1)
        if abs(self.A) != _TABLE_ALPHA[n] * 4:
            raise MagicError(
                f"derived plus constant {self.A!r} does not match the table")
        kappa0 = plus_terms[2][1]
        e1 = -self.r1_sq * 4  # grid exponent of the r1 pole
        g2_res = plus_terms[2][2].coeffs.get(e1, 0)
        psi_minus_res = psis["psi_minus"].coeffs.get(e1, 0)
        g1_res = plus_terms[1][2].coeffs.get(e1, 0)
        if psi_minus_res == 0:
            raise MagicError("minus kernel has no pole at the minimal length")
        if g1_res != 0:
            raise MagicError("value constraint at r1 violated")
        self.B = self.A * kappa0 * Fraction(g2_res, psi_minus_res)

        with mp.workdps(dps + 10):
            self._base = mp.exp(-mp.pi / 4)
            self._A = self.A.mpf()
            self._B = self.B.mpf()
        self._tside = _TsideTable([plus_terms, minus_terms], self._base, dps,
                                  self.uside_plus.fix)

    # -- public evaluation ----------------------------------------------------

    def pair(self, r):
        """Certified (P, M) = (W*I_plus, W*I_minus) at radius r >= 0."""
        with mp.workdps(self.dps + 10):
            # keyed on the radius at working precision, not as the caller
            # would print it
            key = mp.mpf(r)._mpf_
        if key in self._cache:
            return self._cache[key]
        return self.sweep(r, 0, 1)[0]

    def sweep(self, r0, step, count):
        """Certified (P, M) at r_k = r0 + k*step for k < count, with r0 and
        step >= 0; every pair is also put in the pair cache."""
        with mp.workdps(self.dps + 10):
            r0, step = mp.mpf(r0), mp.mpf(step)
            if not (0 <= r0 < mp.inf and 0 <= step < mp.inf):
                raise MagicError("radius and step must be finite and "
                                 "nonnegative")
            out = []
            for k, decay in enumerate(self._decays(r0, step, count)):
                rv = r0 + k * step
                key = rv._mpf_
                if key not in self._cache:
                    pi_r2 = mp.pi * (rv * rv)
                    w_r = mp.sin(pi_r2 / 2) ** 2
                    g = mp.exp(-pi_r2)
                    (p_t, p_terr, _), (m_t, m_terr, _) = self._tside.evaluate(
                        pi_r2, w_r, g)
                    units = 2 * (k + 2) ** 2
                    p_u, p_uerr = self.uside_plus.integral(decay, units)
                    m_u, m_uerr = self.uside_minus.integral(decay, units)
                    self._cache[key] = (
                        CertifiedValue(p_t + w_r * p_u, p_terr + w_r * p_uerr),
                        CertifiedValue(m_t + w_r * m_u, m_terr + w_r * m_uerr))
                out.append(self._cache[key])
        return out

    def _decays(self, r0, h, count):
        """e^(-pi r_k^2 / u) at the shared u-side nodes for r_k = r0 + k*h,
        k < count, as integers scaled by 2^fix.

        One anchor per node and sweep: E_0 by exp and, for more radii,
        R_0 = e^(-pi (2 r0 h + h^2) / u) and Q = e^(-2 pi h^2 / u).  Then
        E_(k+1) = E_k R_k and R_(k+1) = R_k Q, each product truncated to fix
        bits.  With r0, h >= 0 every factor is at most 1, so an anchor is
        off by at most 3 units (exp's rounding, its argument's, the
        truncation) and a product adds the errors of its factors plus one:
        E_k is within 2k^2 + 2k + 3 units of the decay at the exact
        r0 + k h, and rounding r_k moves that decay by under two more, so
        E_k is within 2 (k + 2)^2 units of the decay at r_k.  Iterated at
        the spec's working precision, dps + 10.
        """
        kernel = self.uside_plus
        fix = kernel.fix

        def anchor(scale):
            return [_fixed(mp.exp(scale * v), fix) for v in kernel.nodes]

        decay = anchor(mp.pi * (r0 * r0))
        if count > 1:
            ratio = anchor(mp.pi * h * (2 * r0 + h))
        if count > 2:
            q = anchor(2 * mp.pi * h * h)
        for k in range(count):
            yield decay
            if k + 1 < count:
                decay = [e * r >> fix for e, r in zip(decay, ratio)]
            if k + 2 < count:
                ratio = [r * c >> fix for r, c in zip(ratio, q)]

    def flipped_minus_copy(self) -> "MagicFunctionSpec":
        """Copy with the minus-kernel constant negated (sabotage testing)."""
        import copy
        clone = copy.copy(self)
        clone.B = -self.B
        with mp.workdps(self.dps + 10):
            clone._B = -self._B
        clone._cache = {}
        return clone

    def eval(self, side, r) -> CertifiedValue:
        return self.combine(side, *self.pair(r))

    def combine(self, side, p, m) -> CertifiedValue:
        """f (side "f") or fhat ("f_hat") from a certified pair (P, M)."""
        with mp.workdps(self.dps + 10):
            if side == "f":
                v = self._A * p.value + self._B * m.value
            elif side == "f_hat":
                v = self._A * p.value - self._B * m.value
            else:
                raise MagicError(f"unknown side {side!r}")
            e = abs(self._A) * p.error + abs(self._B) * m.error
            return CertifiedValue(v, e)

    def jet(self, side, r_sq):
        """Exact (f, d f/d(r^2)) of side "f" or "f_hat" at an even squared
        radius r_sq >= 0, as Fractions, from the t-side pole at E = -4 r_sq
        (see the module docstring)."""
        q = frac(r_sq)
        if q < 0 or q.denominator != 1 or q.numerator % 2:
            raise MagicError(
                f"the jet needs an even squared radius >= 0, not {r_sq}")
        if side not in ("f", "f_hat"):
            raise MagicError(f"unknown side {side!r}")
        minus = self.B if side == "f" else -self.B
        out = [Fraction(0), Fraction(0)]
        for coef, terms in ((self.A, self._terms[0]), (minus, self._terms[1])):
            for m, const, series in terms:
                c = series.coeff(-4 * q.numerator)
                # the m = 2 series vanish at the cusp, so m = 2 has no pole
                if not c or m > 1:
                    continue
                part = coef * const * c / 4 * (_PI if m == 0 else 1)
                if not part.is_rational():
                    raise MagicError(f"jet term {part!r} is not rational")
                # the 1/s^2 pole (m = 1) gives the value, 1/s (m = 0) the
                # slope
                out[1 - m] += part.coefficient
        return tuple(out)


_SPEC_CACHE = {}


def magic_spec(n, trunc=DEFAULT_TRUNC, dps=DEFAULT_DPS) -> MagicFunctionSpec:
    key = (n, trunc, dps)
    if key not in _SPEC_CACHE:
        _SPEC_CACHE[key] = MagicFunctionSpec(n, trunc, dps)
    return _SPEC_CACHE[key]


def spec_for(n, spec=None) -> MagicFunctionSpec:
    """spec, or the default spec of dimension n; refuses another dimension."""
    spec = spec or magic_spec(n)
    if spec.n != n:
        raise MagicError(f"a dimension-{spec.n} spec is not of dimension {n}")
    return spec


def grid_count(rmax, step) -> int:
    """Number of points k*step in [0, rmax]; a slack of 1e-9 of a step
    keeps rmax when the binary step lies just above its decimal value."""
    return int(mp.floor(rmax / step + 1e-9)) + 1


def taylor_quadratic(side, n, spec=None) -> Fraction:
    """Exact coefficient of r^2 at the origin: d/d(r^2) there, since the
    functions are even in r."""
    return spec_for(n, spec).jet(side, 0)[1]


def ce_bound_from_function(n, spec=None, certificate=None):
    """Density bound f(0) * vol(B_n(r1/2)), exact: f(0) is the exact value
    of the jet at the origin, which a verified certificate proves is 1.

    Requires a verified feasibility certificate of dimension n.
    """
    spec = spec_for(n, spec)
    if (getattr(certificate, "status", None) != "verified"
            or certificate.claim != FEASIBILITY_CLAIM.format(n)):
        raise MagicError(f"feasibility in dimension {n} is not certified")
    with mp.workdps(spec.dps + 10):
        bound = ball_volume(n, Fraction(spec.r1_sq, 4)) * spec.jet("f", 0)[0]
        return CertifiedValue(bound.mpf(), 0)
