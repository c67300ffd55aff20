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
integrated by 64-point Gauss-Legendre panels with breaks 1, 3, 9, 27, ...
(each three times the last) up to a cut u_max and a proven Bernstein-ellipse
error bound, one constant per kernel for every radius, which the first panel
[1, 3] sets (see `_uside_kernels`).
Both kernels share one node set, held once per spec (`_Uside`) with the
fixed-point 1/u at every node and each kernel's weighted values in the fixed
point of e^(-pi r^2 / u): each kernel's integral is an exact integer dot
product.  One table-driven fixed-point exponential serves every node at
once, with no exp per node (`_exp_fixed`).  At spec build it gives y =
e^(-pi u/4) for the powers with which each series is an integer dot product
of its exact coefficients, with a proven round-off bound (see
`_NodeSeries`).  From the 1/u table it anchors a radius at all nodes (see
`_anchor`); on an arithmetic grid r_k = r0 + k h, `sweep` takes three
anchors once (the first is 1 at r0 = 0, where it takes no exponential) and
then two integer products per node and radius (see `_decays`).  The u-side
error carries proven round-off terms for the node
values (in the series error), their truncation and the decays' 2 (k + 2)^2
units.  `pair(r)` is a one-radius sweep.  Series truncation tails ride along
from the coefficient envelopes, node by node up to a proven cut.  A sweep of
128 radii or more is split across forked processes (see `_spread`): each runs
the recurrence and the dot products on its block of nodes for every radius,
and the t-side and both error bars on its block of radii (the u-side error
of radius k depends on k alone); the parent adds the integer sums exactly
and forms each value with one product and one sum, so no value or error bar
depends on the number of processes.

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

import marshal
import math
import os
from contextlib import suppress
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, repeat
from operator import mul

import mpmath as mp
from mpmath.libmp import MPZ
from mpmath.libmp.libelefun import ln2_fixed

from .exact import PackboundError, frac
from .lattices import SymbolicVolume, ball_volume
from .qseries import (CertifiedValue, DEFAULT_TRUNC, GRID, QSeries,
                      psi_forms, s_transform_terms)

DEFAULT_DPS = 60
# the claim of the feasibility certificate of dimension n, by str.format
FEASIBILITY_CLAIM = "test-function feasibility, dimension {}"
# half-width in s = pi (r^2 + E/4) of the band around each t-side pole where
# the sinc branch replaces the closed form
POLE_BAND = 1e-3


_PI = SymbolicVolume(Fraction(1), 1)


# Published plus-side combination constants (magnitudes).
_TABLE_ALPHA = {8: SymbolicVolume(Fraction(1, 8640), 1),
                24: SymbolicVolume(Fraction(1, 113218560), 1)}


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes
# ---------------------------------------------------------------------------

_GL_CACHE = {}
_ORDER = 64  # of the u-side rule


def _legendre(order: int, x: int, prec: int):
    """P_order(x) and its derivative by the three-term recurrence, on
    integers scaled by 2^prec (each step floored)."""
    one = 1 << prec
    p0, p1 = one, x
    for k in range(2, order + 1):
        p0, p1 = p1, ((2 * k - 1) * (x * p1 >> prec) - (k - 1) * p0) // k
    return p1, order * (x * p1 - p0 * one) // ((x * x >> prec) - one)


def legendre_nodes(order: int, dps: int):
    """Nodes and weights of an even order on [-1, 1], once per (order, dps).

    Each positive node is solved by Newton's method on integers scaled by
    2^prec (the bits of dps + 20 digits plus 32 guard bits) from cos(pi (i -
    1/4) / (order + 1/2)), until a step is under 2^16 units (4 to 9 steps at
    dps 30 to 200).  The node is rounded once to dps + 20 digits; its weight
    2 / ((1 - x^2) P'^2), P' from the last step, is one rounding of an exact
    integer quotient, so 1 - x^2 does not cancel.  Both are within 0.94
    2^-p relative of the rule at dps + 120 digits, p the bits of dps + 20
    digits (orders 4, 14, 64, dps 30, 60, 200).  The negatives are mirrored.
    """
    key = (order, dps)
    if key in _GL_CACHE:
        return _GL_CACHE[key]
    with mp.workdps(dps + 20):
        prec = mp.mp.prec + 32
        one = 1 << prec
        upper, upper_w = [], []  # the positive nodes, largest first
        for i in range(1, order // 2 + 1):
            x = int(mp.ldexp(math.cos(math.pi * (i - 0.25) / (order + 0.5)),
                             prec))
            for _ in range(60):
                p, dp = _legendre(order, x, prec)
                dx = (p << prec) // dp
                x -= dx
                if abs(dx) < 1 << 16:
                    break
            else:
                raise PackboundError(
                    f"Gauss-Legendre node {i} did not converge")
            upper.append(mp.ldexp(mp.mpf(x), -prec))
            upper_w.append(mp.mpf(2 << 4 * prec)
                           / ((one * one - x * x) * dp * dp))
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
    further power X_(k+1) = X_k X >> fix, formed only where a side reads it;
    each sum is an integer dot product over the columns (E, j) with |D| > 0
    (a column with |D| = 0 exactly has D = 0, so dropping it is exact).
    In units of 2^-fix, with |x| <= m (m from max |X|): S is within 2 units
    of the mpf pi r^2 plus the exact pi E/4, so X is within 1 + 2 x^2 /
    (1 - 2 |x| 2^-fix) < e_1 = 2 + 2 m^2; x^k is within e_k = m^(k-1) e_1 +
    m e_(k-1) + 2 (each factor's error against the other factor, their
    product under a unit, the floor); D is under a unit off.  So D X_k is
    within |D| e_k + m^k 2^fix + e_k units of 2^-2fix: summed over the
    columns read, times W g <= 1, that is the truncation term.  The guard
    (abs_total + 1) 10^-(dps-8) still covers the mpf inputs (D, pi r^2, W,
    g).  The series tails beyond trunc come from the envelopes, so every
    series must carry one.
    """

    def __init__(self, sides, base, dps, fix):
        if any(s.envelope is None for side in sides for _, _, s in side):
            raise PackboundError("t-side series must carry a tail envelope")
        self.fix = fix
        # as rounded at the working precision, dps + 10
        with mp.workprec(fix):
            self.guard_scale = mp.mpf(10) ** (-(dps - 8))
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
                # per row j the exponents with |D_{E,j}| > 0 (nested in j),
                # and each one's place in the previous row
                keep = [[k for k, cs in enumerate(c_abs) if any(cs[j:width])]
                        for j in range(width)]
                steps = [[(keep[j - 1].index(k), k) for k in keep[j]]
                         for j in range(1, width)]
                read = [(j, k) for j, row in enumerate(keep) for k in row]
                self.sides.append((
                    [coef[j][k] for j, k in read],
                    [coef_abs[j][k] for j, k in read],
                    [(sum(coef_abs[j][k] for k in row), len(row))
                     for j, row in enumerate(keep)],
                    c, c_abs, tail, keep[0], steps))

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
        # the truncation per power (see the class docstring)
        m = (max(map(abs, x)) >> fix) + 1
        units = [2 + 2 * m * m]
        for k in range(1, self.width):
            units.append(m ** k * units[0] + m * units[-1] + 2)
        scale = w_r * g
        out = []
        for coef, coef_abs, rows, c, c_abs, tail, first, steps in self.sides:
            # the powers of x the side reads, row by row
            picked = row = [x[k] for k in first]
            for step in steps:
                row = [row[i] * x[k] >> fix for i, k in step]
                picked = picked + row
            total = scale * mp.ldexp(sum(map(mul, coef, picked)), -2 * fix)
            abs_total = scale * mp.ldexp(
                sum(map(mul, coef_abs, map(abs, picked))), -2 * fix)
            # per row j of the side: sum |D| and the number of columns read
            trunc = scale * mp.ldexp(sum(
                (d + count) * e + (count * m ** (j + 1) << fix)
                for j, ((d, count), e) in enumerate(zip(rows, units))),
                -2 * fix)
            for k, s, est, sinc2 in in_band:
                c0, c1 = c[k][:2]
                a0, a1 = c_abs[k][:2]
                total += est * sinc2 * (c0 * s + c1 * (s + 1))
                abs_total += est * sinc2 * (a0 * abs(s) + a1 * (abs(s) + 1))
            guard = (abs_total + 1) * self.guard_scale
            out.append((total, tail + guard + trunc, trunc))
        return out


def _fixed(x, fix):
    """x >= 0 as an integer scaled by 2^fix, truncated."""
    _, man, exp, _ = x._mpf_
    return man << (exp + fix) if exp + fix >= 0 else man >> -(exp + fix)


_EXP_TABLES = {}


def _exp_tables(prec):
    """Tables T_l[j] = e^(-j 2^(-8l)), l = 1..4, j < 256, and the Taylor
    coefficients 2^prec // i!, i <= prec // 32, scaled by 2^prec, once per
    precision.  Table l is b^j for b = e^(-2^(-8l)) (one exp, truncated to
    prec + 16 bits: under 2 units low), by products floored there: each
    adds under 3 units, so with the final floor every entry is within 1 +
    765 2^-16 units of 2^-prec."""
    if prec not in _EXP_TABLES:
        wide = prec + 16
        tables = []
        for l in range(1, 5):
            with mp.workprec(wide + 10):
                b = _fixed(mp.exp(-mp.ldexp(1, -8 * l)), wide)
            row = [1 << wide]
            for _ in range(255):
                row.append(row[-1] * b >> wide)
            tables.append([t >> 16 for t in row])
        _EXP_TABLES[prec] = tables, [(1 << prec) // math.factorial(i)
                                     for i in range(prec // 32 + 1)]
    return _EXP_TABLES[prec]


def _exp_fixed(scale, ws, prec, guard):
    """e^(-scale w) for an mpf scale >= 0 and each integer w >= 0 of `ws`
    (w scaled by 2^prec), as integers scaled by 2^(prec - guard): one
    table-driven fixed-point exponential over the whole list (Tang, ACM TOMS
    15 (1989)).

    In units of 2^-prec, from the argument a = floor(S w), S the truncated
    scale (the callers bound a's own error): with a = k LN2 + rem, LN2 =
    ln2_fixed(prec) within 2 units moves 2^-k e^(-rem) by 2k 2^-k <= 1.
    The top 32 bits of rem < 1 index the tables of `_exp_tables`; e^(-t)
    for the rest t < 2^-32 is a Horner sum through degree d = prec // 32,
    within 2.01 units plus a tail t^(d+1)/(d+1)! under one.  The four table
    products (factors at most 1, each floored) add 2.02 units each: 13 in
    all before the last floor, by k + guard bits.
    """
    s = _fixed(scale, prec)
    if not s:  # what the tables give: k = 0, every index 0, all products 1
        return [1 << prec - guard] * len(ws)
    tables, coefs = _exp_tables(prec)
    ln2 = ln2_fixed(prec)
    split = [divmod(s * w >> prec, ln2) for w in ws]
    low = (1 << prec - 32) - 1
    ts = [rem & low for _, rem in split]
    acc = [coefs[-1]] * len(ts)
    for c in coefs[-2::-1]:
        acc = [c - (t * e >> prec) for t, e in zip(ts, acc)]
    for l, table in enumerate(tables, 1):
        acc = [e * table[rem >> prec - 8 * l & 255] >> prec
               for e, (_, rem) in zip(acc, split)]
    return [e >> k + guard for e, (k, _) in zip(acc, split)]


class _Uside:
    """Gauss-Legendre data for int_1^inf u^(-p) Phi(iu) e^(-b/u) du, for
    every kernel Phi of a spec on one node set, so e^(-b/u) is held once per
    node and radius for all of them.

    `inv_u` holds each node's 1/u as rounded at the working precision (fix
    bits), scaled by 2^(fix + G), G = `guard` = L + 8 with u <= 2^L at every
    node: exact, as each 1/u is >= 2^-L.  Per kernel, `vals` holds the
    weighted integrand values at the nodes as integers scaled by 2^fix
    (floored from the fixed-point series values; their round-off is part of
    the series error), so each quadrature sum against decays in the same
    fixed point is an exact integer dot product, which `value` scales;
    `errors` holds its series, contour-tail and rule errors, the last for
    every b >= 0, which `error` adds to the round-off of decays within a
    given number of units.
    """

    def __init__(self, fix, inv_u, vals, errors):
        self.fix = fix
        self.guard = 9 - mp.mag(min(inv_u))  # the least 1/u >= 2^(mag - 1)
        self.inv_u = [_fixed(v, fix + self.guard) for v in inv_u]
        self.vals = vals
        self.abs_sums = [sum(map(abs, v)) for v in vals]
        self.errors = errors

    def value(self, total):
        """A kernel's integral from `total`, the integer dot product of its
        `vals` with e^(-b/u) at the nodes, the decays given as integers
        scaled by 2^fix: exact."""
        return mp.ldexp(total, -2 * self.fix)

    def error(self, units):
        """Per kernel, the error of `value` when every decay is within
        `units` units of the exact one: it depends on nothing else."""
        fix, count = self.fix, len(self.inv_u)
        # the round-off per node: the value's floor (under a unit, against a
        # decay of at most 1) and the decay's error against the value; per
        # sum: its rounding to working precision
        return [sum(errors, mp.ldexp((count << fix) + (units + 2)
                                     * (abs_sum + count), -2 * fix))
                for abs_sum, errors in zip(self.abs_sums, self.errors)]


class _NodeSeries:
    """Integer-coefficient series evaluated at z = iu in fixed point.

    Every series is an integer dot product of its exact coefficients with
    y^E, y = e^(-pi u/4), at the exponents E = E0 + g k of the union grid,
    held in a fixed point of F = fix + (bits of the largest |c_E|) +
    _GUARD_BITS bits, so each term's round-off stays below 2^-fix.
    y^g and y^E0 come from one `_exp_fixed` each over all points u, in P =
    F + G bits, G = L + 8 with u <= 2^L.  In units of 2^-P, the scale c =
    pi g/4 (or pi E0/4) is rounded at P + 10 bits (moving e^(-c u) under
    0.001) and u is exact, so a = floor(S u) is below c u by under u + 1,
    which moves e^(-c u) by at most 1.01 (2^L + 1); the last floor leaves 1
    + (15 + 1.01 2^L) 2^-G < 1.04 units of 2^-F.  A power P_(k+1) = P_k y^g >>
    F is then within rho d_k + 4 units, d_k being P_k's error and rho = y^g
    <= (Y + 2) 2^-F, Y the stored y^g: rho d_k from P_k, 2 from y^g's error
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

    def at(self, us):
        """Per point u > 0 of `us` and per series, (S, bound): the value
        scaled by 2^F and the bound on its round-off in units of 2^-F."""
        prec = self.prec
        guard = mp.mag(max(us)) + 8
        ws = [_fixed(u, prec + guard) for u in us]
        with mp.workprec(prec + guard + 10):
            ys = {e: _exp_fixed(mp.pi * e / 4, ws, prec + guard, guard)
                  for e in {self.g, self.e0}}
        out = []
        for step, power in zip(ys[self.g], ys[self.e0]):
            row = list(accumulate(repeat(step, len(self.rows[0]) - 1),
                                  lambda a, b: a * b >> prec, initial=power))
            d = -(-(4 << prec) // ((1 << prec) - step - 2))
            out.append([(sum(map(mul, coefs, row)), d * a)
                        for coefs, a in zip(self.rows, self.abs_sums)])
        return out


# bits of the u-side series evaluation beyond fix + (bits of the largest
# |c_E|): they absorb d times the number of terms in its round-off
_GUARD_BITS = 16


def _cut_sum(terms, weights, fix):
    """sum_i w_i t_i, mpf w_i >= 0, t_i >= 0 non-increasing and drawn lazily
    from `terms`, up to the first i where t_i times the later weights' sum,
    rounded up to units of 2^-fix, is at most 2^-64 of the sum so far: that
    product bounds every later term, so it is added instead of them."""
    rest = accumulate((_fixed(w, fix) + 1 for w in weights[:0:-1]),
                      initial=0)
    total = mp.mpf(0)
    for w, t, r in zip(weights, terms, list(rest)[::-1]):
        total += w * t
        if (cut := t * mp.ldexp(r, -fix)) <= mp.ldexp(total, -64):
            return total + cut
    return total


def _uside_kernels(series_list, p, dps):
    """The `_Uside` of the series: one node set and one 1/u table for all.

    The panel breaks 1, 3, 9, ... grow by a factor of 3 up to the u_max of
    the most slowly decaying series, so all kernels are cut at the same
    point (a later cut only shrinks a faster kernel's tail bound).  The
    first panel sets the rule error, and the wider later ones, where the
    integrand has decayed, add under 1e-9 of it.  The series are
    evaluated at all nodes at once in the fixed point of `_NodeSeries`.
    The weighted value is floor(S W 2^-F), W the weight truncated to fix
    bits (under a unit low): off by at most (b (W + 1) + |S|) 2^-F units of
    2^-fix before the floor (which `integrals` counts), b being S's
    round-off bound.  Summed over all nodes, that is the round-off term of
    the series error; its truncation term sums w u^-p times the envelope
    tail, which falls in u (see `_cut_sum`).

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
        raise PackboundError("u-side kernel must decay at the cusp and "
                             "carry a tail envelope")
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
            breaks.append(breaks[-1] * 3)
        breaks[-1] = u_max
        panels = list(zip(breaks, breaks[1:]))

        # sum_{E >= trunc} |c_E| y^E by the envelope, per series
        y = cache(lambda u: mp.exp(-mp.pi * u / 4))
        tails = [lambda u, s=s: s.envelope.tail_bound(s.trunc, y(u))
                 for s in series_list]
        # per series, |Phi(iz)| for Re z >= u at u = a/8, ..., 7a/8 of each
        # panel [a, b] and at u_max
        sigmas = [a * j / 8 for a, _ in panels for j in range(1, 8)] + [u_max]
        bounds = [[mp.ldexp(s + b, -prec) + tail(u)
                   for (s, b), tail in zip(sums, tails)]
                  for u, sums in zip(sigmas, majorant.at(sigmas))]
        xs, ws = legendre_nodes(_ORDER, dps)
        us, wus = [], []
        quad_err = [mp.mpf(0)] * len(series_list)
        for i, (a, b) in enumerate(panels):
            half = (b - a) / 2
            mid = (b + a) / 2
            us += [mid + half * x for x in xs]
            wus += [w * half * u ** (-p) for w, u in zip(ws, us[-_ORDER:])]
            panel = [mp.inf] * len(series_list)
            for sigma, phi in zip(sigmas[7 * i:7 * i + 7], bounds[7 * i:]):
                c = (mid - sigma) / half
                rho = c + mp.sqrt(c * c - 1)
                scale = half * 64 / (15 * (rho * rho - 1) * sigma ** p
                                     * rho ** (2 * _ORDER - 2))
                panel = [min(e, scale * m) for e, m in zip(panel, phi)]
            quad_err = [q + e for q, e in zip(quad_err, panel)]
        vals = [[] for _ in series_list]
        roundoff = [0] * len(series_list)
        for wu, sums in zip(wus, fixed.at(us)):
            weight = _fixed(wu, fix)
            for k, (s, bound) in enumerate(sums):
                vals[k].append(s * weight >> prec)
                roundoff[k] += (bound * (weight + 1) + abs(s) >> prec) + 1
        # contour tail beyond u_max: |Phi(iu)| <= A_U e^(-pi e1 (u-U)/4)
        return _Uside(fix, [1 / u for u in us], vals, [
            (_cut_sum(map(tails[k], us), wus, fix)
             + mp.ldexp(roundoff[k], -fix),
             phi * u_max ** (-p) * 4 / (mp.pi * e1s[k]),
             quad_err[k] * (1 + mp.mpf(2) ** -20))
            for k, phi in enumerate(bounds[-1])])


def _cpus(most):
    """Up to `most` CPUs this process may run on, first the one it runs on
    (which a forked child starts on) where /proc tells it; [None], one
    process, for most < 2 or where processes cannot be forked and bound."""
    if most < 2 or not hasattr(os, "sched_setaffinity") or \
            not hasattr(os, "fork"):
        return [None]
    cpus = sorted(os.sched_getaffinity(0))
    with suppress(OSError, ValueError, IndexError):
        with open("/proc/self/stat") as stat:  # field 39, "processor"
            here = int(stat.read().rsplit(")", 1)[1].split()[36])
        cpus.sort(key=lambda cpu: cpu != here)
    return cpus[:most]


def _spread(block, cpus):
    """[block(w, len(cpus)) for each w]: w = 0 here, on cpus[0], and each
    other w in a child forked and bound to cpus[w] (a cpuset without load
    balancing keeps a child on its parent's CPU), which sends its result by
    `marshal`, leaves by `os._exit` and is reaped here.  A block not sent
    whole (its child failed, or was not forked) is run here again, as a
    serial run would."""
    children = []
    try:
        for w in range(1, len(cpus)):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the pipe stays empty
                pid = None
            if pid == 0:
                try:
                    os.sched_setaffinity(0, {cpus[w]})
                    with os.fdopen(write, "wb") as sink:
                        marshal.dump(block(w, len(cpus)), sink)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((os.fdopen(read, "rb"), pid))
        out = [block(0, len(cpus))]
        for w, (pipe, _) in enumerate(children, 1):
            try:
                out.append(marshal.loads(pipe.read()))
            except (EOFError, ValueError, TypeError):
                out.append(block(w, len(cpus)))
        return out
    finally:
        for pipe, pid in children:
            pipe.close()
            if pid:
                os.waitpid(pid, 0)


class MagicFunctionSpec:
    """Precomputed evaluation pipeline for one dimension."""

    def __init__(self, n, trunc=DEFAULT_TRUNC, dps=DEFAULT_DPS):
        self.n = n
        self.r1_sq = 2 if n == 8 else 4
        self.trunc = trunc
        self.dps = dps
        self._cache = {}

        terms = s_transform_terms(n, trunc)
        psis = psi_forms(n, trunc)

        # t-side decomposition of t^(n/2-2) psi_plus(i/t):
        #   coefficient * t^m * series(it), coefficient = rat pi^p (exact)
        plus_terms = terms["psi_plus"]
        minus_terms = ((0, SymbolicVolume.of(1), psis["psi_minus"]),)
        for m, _, series in plus_terms + minus_terms:
            if any(e < 0 and e % GRID for e in series.coeffs):
                raise PackboundError(
                    "pole exponent off the integer-power grid")
            if m == 2 and series.min_exp < 1:
                raise PackboundError("quadratic-weight series must "
                                     "vanish at the cusp")
        self._terms = (plus_terms, minus_terms)

        # u-side (t = 1/u) kernels: u^(-n/2) times psi_plus(iu) and times
        # the conjugate minus kernel at iu, both with coefficient 1
        self.uside = _uside_kernels(
            [psis["psi_plus"], terms["psi_minus"][0][2]], n // 2, dps)

        # combination constants
        kappa1 = plus_terms[1][1]
        gamma1 = plus_terms[1][2].coeffs.get(0, 0)
        if gamma1 == 0:
            raise PackboundError(
                "middle S-transform series has no constant term")
        self.A = SymbolicVolume.of(4) / (kappa1 * gamma1)
        if abs(self.A) != _TABLE_ALPHA[n] * 4:
            raise PackboundError(
                f"derived plus constant {self.A!r} does not match the table")
        kappa0 = plus_terms[2][1]
        e1 = -self.r1_sq * 4  # grid exponent of the r1 pole
        g2_res = plus_terms[2][2].coeffs.get(e1, 0)
        psi_minus_res = psis["psi_minus"].coeffs.get(e1, 0)
        g1_res = plus_terms[1][2].coeffs.get(e1, 0)
        if psi_minus_res == 0:
            raise PackboundError(
                "minus kernel has no pole at the minimal length")
        if g1_res != 0:
            raise PackboundError("value constraint at r1 violated")
        self.B = self.A * kappa0 * Fraction(g2_res, psi_minus_res)

        with mp.workdps(dps + 10):
            self._base = mp.exp(-mp.pi / 4)
            self._A = self.A.mpf()
            self._B = self.B.mpf()
        self._tside = _TsideTable([plus_terms, minus_terms], self._base, dps,
                                  self.uside.fix)

    # -- public evaluation ----------------------------------------------------

    def pair(self, r):
        """Certified (P, M) = (W*I_plus, W*I_minus) at radius r >= 0: a
        one-radius sweep, so read from the pair cache when there."""
        return self.sweep(r, 0, 1)[0]

    def sweep(self, r0, step, count):
        """Certified (P, M) at r_k = r0 + k*step for k < count, for finite
        r0 >= 0 and step >= 0, which the error bars of `_decays` need: the CLI
        checks the radii it reads, and the program's own are constants.
        Every pair is also put in the pair cache.  The radii not cached yet
        are split across processes (see `_block`): no value depends on
        how."""
        with mp.workdps(self.dps + 10):
            r0, step = mp.mpf(r0), mp.mpf(step)
            keys = [(r0 + k * step)._mpf_ for k in range(count)]
            todo = [k for k, key in enumerate(keys) if key not in self._cache]
            # a process per usable CPU, at most one per 64 radii and per 32
            # nodes
            cpus = _cpus(min(count // 64, len(self.uside.inv_u) // 32))
            parts = todo and _spread(partial(self._block, r0, step, count,
                                             todo), cpus)
            sums = zip(*(part[0] for part in parts))
            tside = (t for part in parts for t in part[1])
            # backwards, so a radius met twice keeps its first, tighter pair
            for k, rows, t in reversed(list(zip(todo, sums, tside))):
                w_r, p_t, p_err, m_t, m_err = (
                    mp.make_mpf((sign, MPZ(man), exp, bc))
                    for sign, man, exp, bc in t)
                p_u, m_u = map(self.uside.value, map(sum, zip(*rows)))
                self._cache[keys[k]] = (
                    CertifiedValue(p_t + w_r * p_u, p_err),
                    CertifiedValue(m_t + w_r * m_u, m_err))
            return [self._cache[key] for key in keys]

    def _block(self, r0, step, count, todo, w, workers):
        """Part w of `workers` of a sweep over the radii `todo`: per radius,
        both kernels' u-side dot products on node block w, and per radius
        r_k of block w, W(r_k), each side's t-side value and its final error
        bar (the t-side error plus W(r_k) times the u-side one, which
        depends only on k), as `_mpf_` tuples with an int mantissa, which
        `marshal` sends."""
        size, share = len(self.uside.inv_u), len(todo)
        nodes = slice(w * size // workers, (w + 1) * size // workers)
        vals, wanted = [v[nodes] for v in self.uside.vals], set(todo)
        sums = [[sum(map(mul, v, decay)) for v in vals] for k, decay
                in enumerate(self._decays(r0, step, count, nodes))
                if k in wanted]
        tside = []
        for k in todo[w * share // workers:(w + 1) * share // workers]:
            rv = r0 + k * step
            pi_r2 = mp.pi * (rv * rv)
            w_r = mp.sin(pi_r2 / 2) ** 2
            (p_t, p_terr, _), (m_t, m_terr, _) = self._tside.evaluate(
                pi_r2, w_r, mp.exp(-pi_r2))
            p_uerr, m_uerr = self.uside.error(2 * (k + 2) ** 2)
            values = (w_r, p_t, p_terr + w_r * p_uerr,
                      m_t, m_terr + w_r * m_uerr)
            tside.append([(sign, int(man), exp, bc)
                          for sign, man, exp, bc in (v._mpf_ for v in values)])
        return sums, tside

    def _anchor(self, scale, nodes=slice(None)):
        """e^(-scale / u) at every node, scaled by 2^fix, for an mpf scale
        s >= 0: one `_exp_fixed` over `_Uside.inv_u` in P = fix + G bits,
        within 1.04 units.  In units of 2^-P, a = floor(S w), S the
        truncated s and w = 1/u, is below s w by at most s + 2, which moves
        e^(-s w) by at most 1.01 (2^L/e + 2) (s w >= s 2^-L); so the last
        floor leaves 1 + (13 + 2^(L+1)) 2^-G < 1.04 units of 2^-fix.
        """
        side = self.uside
        return _exp_fixed(scale, side.inv_u[nodes], side.fix + side.guard,
                          side.guard)

    def _decays(self, r0, h, count, nodes=slice(None)):
        """e^(-pi r_k^2 / u) at the nodes of the spec's `_Uside` (or at the
        slice `nodes` of them) for r_k = r0 + k*h, k < count, as integers
        scaled by 2^fix, its fix.

        One `_anchor` e^(-s/u) per sweep: E_0 (s = pi r0^2) and, for more
        radii, R_0 (s = pi (2 r0 h + h^2)) and Q (s = 2 pi h^2).  Then
        E_(k+1) = E_k R_k and R_(k+1) = R_k Q, each product truncated to fix
        bits.  With r0, h >= 0 every factor is at most 1, so with anchors
        within 3 units a product adds the errors of its factors plus one:
        E_k is within 2k^2 + 2k + 3 units of the decay at the exact r0 + k h,
        and rounding r_k moves that decay by under two more, so E_k is within
        2 (k + 2)^2 units of the decay at r_k.  Iterated at the spec's
        working precision, dps + 10.
        """
        fix = self.uside.fix
        decay = self._anchor(mp.pi * (r0 * r0), nodes)
        if count > 1:
            ratio = self._anchor(mp.pi * h * (2 * r0 + h), nodes)
        if count > 2:
            q = self._anchor(2 * mp.pi * h * h, nodes)
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
        """f (side "f") or fhat ("f_hat") at radius r."""
        return self.combine(*self.pair(r))[side == "f_hat"]

    def combine(self, p, m):
        """(f, fhat) from a certified pair (P, M): A P + B M and A P - B M,
        both within |A| P.error + |B| M.error."""
        with mp.workdps(self.dps + 10):
            ap, bm = self._A * p.value, self._B * m.value
            e = abs(self._A) * p.error + abs(self._B) * m.error
            return CertifiedValue(ap + bm, e), CertifiedValue(ap - bm, e)

    def jet(self, side, r_sq):
        """Exact (f, d f/d(r^2)) of side "f" or "f_hat" at an even squared
        radius r_sq >= 0, as Fractions, from the t-side pole at E = -4 r_sq
        (see the module docstring)."""
        q = frac(r_sq)
        if q < 0 or q.denominator != 1 or q.numerator % 2:
            raise PackboundError(
                f"the jet needs an even squared radius >= 0, not {r_sq}")
        if side not in ("f", "f_hat"):
            raise PackboundError(f"unknown side {side!r}")
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
                    raise PackboundError(f"jet term {part!r} is not rational")
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
        raise PackboundError(f"a dimension-{spec.n} spec is not of "
                             f"dimension {n}")
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
        raise PackboundError(f"feasibility in dimension {n} is not certified")
    with mp.workdps(spec.dps + 10):
        bound = ball_volume(n, Fraction(spec.r1_sq, 4)) * spec.jet("f", 0)[0]
        return CertifiedValue(bound.mpf(), 0)
