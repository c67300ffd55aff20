import functools
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest

import packbound
from packbound.certify import Certificate
from packbound.exact import (
    PackboundError, fraction_free_solve, integer_scaled, poly_deriv,
    poly_divmod, poly_eval, poly_primitive, real_roots, root_points,
)
from packbound.lattices import ball_volume, standard_lattice, vectors_by_norm
from packbound.lpbound import (
    PI_LO, LpCertificate, RadialAnsatz, default_samples, forced_bound,
    laguerre_all, profile_polynomial, sampled_lp, verify_lp,
)
from packbound import lpbound
from packbound.simplex import Infeasible, solve_min
from series_terms import radial_fourier_oracle

try:
    from hypothesis import assume, given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

# a proven bound pi < PI_HI: a certificate with y0 = PI_HI is refuted
PI_HI = Fraction(314159265358980, 10 ** 14)
OPT8 = math.pi ** 4 / 384


# -- Laguerre -----------------------------------------------------------------

def test_laguerre_base_cases():
    assert laguerre_all(0, Fraction(3), Fraction(7))[0] == 1
    x = Fraction(2, 3)
    assert laguerre_all(1, Fraction(1, 2), x)[1] == 1 + Fraction(1, 2) - x


def test_laguerre_at_zero():
    # L_2^3(0) = C(5, 2) = 10
    assert laguerre_all(2, Fraction(3), Fraction(0))[2] == 10


def laguerre_polynomials(n, d):
    """[L_0, ..., L_d] of L_k = L_k^(n/2-1) as exact coefficient lists, a
    reference independent of lpbound's flip: the integer polynomials
    N_k = k! 2^k L_k of the three-term recurrence,

        N_(j+1) = (4j + 2 + 2 alpha - 2y) N_j - 2j (2j + 2 alpha) N_(j-1)."""
    two_alpha = n - 2
    polys = [[1], [2 + two_alpha, -2]]
    for j in range(1, d):
        prev, cur = polys[-2:]
        polys.append([(4 * j + 2 + two_alpha) * c - 2 * c_lo
                      - 2 * j * (2 * j + two_alpha) * c_prev
                      for c, c_lo, c_prev
                      in zip(cur + [0], [0] + cur, prev + [0, 0])])
    return [[Fraction(c, math.factorial(k) * 2 ** k) for c in poly]
            for k, poly in enumerate(polys[:d + 1])]


def laguerre_combination(n, c):
    """sum_k c_k L_k^(n/2-1) as a coefficient list, from the reference."""
    out = [Fraction(0)] * len(c)
    for c_k, l_k in zip(c, laguerre_polynomials(n, len(c) - 1)):
        for i, v in enumerate(l_k):
            out[i] += c_k * v
    return out


@pytest.mark.parametrize("n", [1, 3, 8, 24])
@pytest.mark.parametrize("d", [1, 5, 30, 60])
def test_profile_polynomial_matches_laguerre_values(n, d):
    # p, built by the flip, against the reference's coefficient lists and
    # against the Fraction three-term recurrence at rational points, for
    # dense b of both signs; alpha is a half-integer for n = 1 and 3
    rng = random.Random(1000 * n + d)
    b = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
         for _ in range(d)]
    poly = profile_polynomial(n, b)
    assert poly == laguerre_combination(n, [1] + b)
    for y in (Fraction(0), Fraction(7, 11), PI_LO, Fraction(200),
              Fraction(-3, 2)):
        lag = laguerre_all(d, Fraction(n, 2) - 1, y)
        assert poly_eval(poly, y) == 1 + sum(
            b_k * l_k for b_k, l_k in zip(b, lag[1:])), (n, d, y)


def test_pow2_scale_brackets_the_value():
    # 2^e <= |value| < 2^(e+1), exactly, at and beside powers of two and
    # far outside the range of a float
    for v in (Fraction(1), Fraction(3), Fraction(-1, 3), Fraction(1, 4),
              Fraction(2 ** 2000 - 1), Fraction(2 ** 2000),
              Fraction(1, 2 ** 2000 + 1), Fraction(10 ** 700, 3)):
        s = lpbound._pow2_scale(v)
        assert s.numerator == 1 or s.denominator == 1
        assert s <= abs(v) < 2 * s, v
    assert lpbound._pow2_scale(Fraction(0)) == 1


# -- ansatz -------------------------------------------------------------------

def fhat_value(b, u):
    """The transform of RadialAnsatz's f with profile coefficients b at u:
    q(z) e^(-z) at z = pi u^2, q(z) = 1 + sum_k b_k z^k / k!.  b >= 0 keeps
    it positive, the half of verify_lp's claim that no root test checks."""
    z = mp.pi * mp.mpf(u) ** 2
    return (1 + sum(b_k * z ** k / math.factorial(k)
                    for k, b_k in enumerate(b, 1))) * mp.exp(-z)


def test_zero_ansatz_is_gaussian():
    ans = RadialAnsatz(8, 3)
    with mp.workdps(30):
        for r in (0, mp.mpf("0.7"), 2):
            g = mp.exp(-mp.pi * mp.mpf(r) ** 2)
            assert abs(ans.f_value([0, 0, 0], r) - g) < 1e-25
            assert abs(fhat_value([0, 0, 0], r) - g) < 1e-25


def test_ansatz_value_at_zero():
    # f(0) = p(0) = 1 + sum_k b_k L_k^3(0), with L_1^3(0) = 4, L_2^3(0) = 10
    with mp.workdps(30):
        b = [mp.mpf("0.3"), mp.mpf("0.1")]
        expected = 1 + 4 * b[0] + 10 * b[1]
        assert abs(RadialAnsatz(8, 2).f_value(b, 0) - expected) < 1e-25


@pytest.mark.parametrize("d", [4, 6])
def test_ansatz_is_the_certified_profile(d):
    # the mpmath rows of RadialAnsatz evaluate the same p as the exact
    # certificate of the sampled LP
    cert = sampled_lp(1, d)["certificate"]
    ans = RadialAnsatz(cert.n, cert.d)
    with mp.workdps(40):
        poly = [mp.mpf(c.numerator) / c.denominator
                for c in cert.polynomial()]
        for r in (0, mp.mpf("0.5"), 1, mp.mpf("1.5"), 3):
            y = mp.pi * mp.mpf(r) ** 2
            value = ans.f_value(cert.b, r)
            assert abs(value - poly_eval(poly, y) * mp.exp(-y)) < 1e-25, r


def test_fourier_pairing_oracle():
    # q(z) e^(-z) at z = pi u^2 is the transform of p(y) e^(-y)
    with mp.workdps(25):
        b = [mp.mpf("0.004"), mp.mpf("-0.0016"), mp.mpf("0.0008")]
        for n in (1, 8):
            ans = RadialAnsatz(n, 3)
            f = lambda r: ans.f_value(b, r)
            for u in (0, mp.mpf("0.5"), 1, 2):
                oracle = radial_fourier_oracle(n, f, u, dps=20, order=10)
                direct = fhat_value(b, u)
                assert abs(oracle - direct) < 1e-6, (n, u)


def test_laguerre_gaussians_are_fourier_eigenfunctions():
    # for alpha = n/2 - 1, L_k^alpha(2 pi r^2) e^(-pi r^2) has the transform
    # (-1)^k times itself; alpha + 1 in place of alpha breaks the pairing
    def worst_gap(n, alpha):
        gap = 0
        for k in (1, 2, 5):
            def f(r):
                return (laguerre_all(k, alpha, 2 * mp.pi * r * r)[k]
                        * mp.exp(-mp.pi * r * r))
            for u in (0, mp.mpf("0.5"), 1, 2):
                oracle = radial_fourier_oracle(n, f, u, dps=20, order=10)
                gap = max(gap, abs(oracle - (-1) ** k * f(mp.mpf(u))))
        return gap

    with mp.workdps(30):
        for n in (8, 24):
            alpha = mp.mpf(n) / 2 - 1
            assert worst_gap(n, alpha) < 1e-15, n
            assert worst_gap(n, alpha + 1) > 1, n


@pytest.mark.parametrize("n", [8, 24])
def test_laguerre_derivative_is_the_next_family(n):
    # d/dx L_k^alpha = -L_(k-1)^(alpha+1), exactly: the left side from the
    # reference's coefficient lists, the right side from the integer
    # recurrence of dimension n + 2
    d = 27
    for x in (Fraction(0), Fraction(7, 11),
              Fraction(round(2 * math.pi * 50 * 2 ** 8), 2 ** 8)):
        lower = lpbound._laguerre_ratios(n + 2, d - 1, x)
        for k, lk in enumerate(laguerre_polynomials(n, d)[1:], 1):
            want = -Fraction(*lower[k - 2]) if k > 1 else -1
            assert poly_eval(poly_deriv(lk), x) == want, (x, k)


@pytest.mark.parametrize("n", [8, 24])
def test_flip_negates_the_odd_laguerre_polynomials(n):
    # _flip takes P = sum c_k L_k to Q = sum (-1)^k c_k L_k on monomials, so
    # L_k, from the reference, goes to (-1)^k L_k
    for k, lk in enumerate(laguerre_polynomials(n, 59)):
        assert lpbound._flip(n, lk) == [(-1) ** k * c for c in lk], k


@pytest.mark.parametrize("n", [8, 24])
def test_flip_is_an_exact_involution(n):
    # every coefficient stays a Fraction, int zeros included: a float
    # coefficient would make the forced solve inexact
    for p in ([0], [0, 0, 0, 1], [Fraction(3, 7), -2, 0, Fraction(-5, 11), 1],
              [1] + [0] * 20 + [Fraction(1, 3)]):
        q = lpbound._flip(n, p)
        assert all(type(c) is Fraction for c in q)
        assert lpbound._flip(n, q) == p


# -- forced roots (ROADMAP P) on the exact primitives ---------------------------
#
# P(x) = sum c_k L_k(x) and Q(x) = sum (-1)^k c_k L_k(x), with L_k = L_k^alpha
# and x = 2 pi r^2, give f(r) = P(x) e^(-x/2) and its transform
# fhat(r) = Q(x) e^(-x/2).  At degree d = 4m + 3 the d + 1 conditions
# P(x_1) = 0, P = P' = 0 at x_2..x_(m+1), Q = Q' = 0 at x_1..x_(m+1) and
# Q(0) = 1 fix c; the bound P(0) / Q(0) * vol(B_n(r_1 / 2)) holds once
# P <= 0 beyond x_1 and Q >= 0 are proved.

FORCED_BOUNDS = {8: (2, 4, 384), 24: (4, 12, math.factorial(12))}


@functools.lru_cache(maxsize=None)
def _forced_solution(n, d=27):
    """(x, c): the forced roots x_j = 2 pi s_j rounded to 8 fractional bits,
    s_j = s_1 + 2 (j - 1) for j = 1..m + 1, and the exact c_0..c_d.  Only
    Q(0) = 1, the last condition, has a nonzero right-hand side, so c is the
    last column of the inverse."""
    s1 = FORCED_BOUNDS[n][0]
    x = tuple(Fraction(round(2 * math.pi * (s1 + 2 * j) * 2 ** 8), 2 ** 8)
              for j in range((d + 1) // 4))

    def value(y):
        return [1] + [Fraction(*v) for v in lpbound._laguerre_ratios(n, d, y)]

    def slope(y):
        # d/dx L_k^alpha = -L_(k-1)^(alpha+1)
        return [0, -1] + [-Fraction(*v)
                          for v in lpbound._laguerre_ratios(n + 2, d - 1, y)]

    def flip(row):
        return [(-1) ** k * v for k, v in enumerate(row)]

    rows = ([value(x[0])] + [f(y) for y in x[1:] for f in (value, slope)]
            + [flip(f(y)) for y in x for f in (value, slope)]
            + [flip(value(Fraction(0)))])
    return x, tuple(row[-1] for row in mat_inverse(rows))


def _divide_out(poly, roots):
    """poly divided by x - y for each y of roots in turn: (the quotient,
    whether every remainder was zero)."""
    exact = True
    for y in roots:
        poly, rem = poly_divmod(poly, [-y, 1])
        exact = exact and not rem
    return poly, exact


def _forced_quotients(n, x, c):
    """P, Q and their quotients by the forced factors: P by (x - x_1) and
    (x - x_j)^2 for j >= 2, Q by (x - x_j)^2 for every j, as
    (P, Q, (R_P, exact), (R_Q, exact))."""
    sides = [laguerre_combination(n, [sign ** k * v for k, v in enumerate(c)])
             for sign in (1, -1)]
    doubles = [y for y in x for _ in (0, 1)]
    return (*sides, _divide_out(sides[0], doubles[1:]),
            _divide_out(sides[1], doubles))


@pytest.mark.parametrize("n, ratio", [(8, 8.806579e-4), (24, 0.9300219)])
def test_forced_roots_prove_a_bound(n, ratio):
    x, c = _forced_solution(n)
    p, q, (r_p, p_exact), (r_q, q_exact) = _forced_quotients(n, x, c)
    assert p_exact and q_exact
    assert (len(r_p) - 1, len(r_q) - 1) == (14, 13)
    # R_P < 0 on [x_1, inf), so f <= 0 for r >= r_1, and R_Q > 0 on
    # [0, inf), so fhat >= 0
    assert poly_eval(r_p, x[0]) < 0
    assert real_roots(r_p, x[0])[:2] == ([], [])
    assert poly_eval(r_q, 0) > 0
    assert real_roots(r_q, Fraction(0))[:2] == ([], [])
    assert p[0] > 0 and q[0] == 1
    # r_1^2 = x_1 / (2 pi): vol(B_n(r_1 / 2)) = (x_1 / 8)^(n/2) / (n/2)!,
    # an exact rational with no pi
    h = n // 2
    bound = p[0] / q[0] * (x[0] / 8) ** h / math.factorial(h)
    _, k, den = FORCED_BOUNDS[n]
    assert float(bound) / (math.pi ** k / den) - 1 == pytest.approx(
        ratio, rel=1e-6)
    # the truth check: no bound lies below the E8 or Leech density
    assert bound > PI_LO ** k / den


@pytest.mark.parametrize("n", [8, 24])
@pytest.mark.parametrize("tamper", ["move-x1", "move-x4", "flip-c5"])
def test_forced_roots_refuse_a_moved_root_or_sign(n, tamper):
    # a root moved by 2^-8 after the solve, or one coefficient of the other
    # sign, leaves a remainder on both P and Q
    x, c = map(list, _forced_solution(n))
    if tamper == "flip-c5":
        c[5] = -c[5]
    else:
        x[int(tamper[-1]) - 1] += Fraction(1, 2 ** 8)
    _, _, (_, p_exact), (_, q_exact) = _forced_quotients(n, x, c)
    assert not p_exact and not q_exact


@pytest.mark.parametrize("n", [8, 24])
def test_forced_bound_matches_the_oracle(n, monkeypatch):
    # the program's solve in R_P against the test's own inverse of the full
    # system of value and slope rows in c, at d = 27: the same R_P, so
    # Q(0) = 1, the same bound, and R_Q of the same degree from the one
    # division the program makes
    x, c = _forced_solution(n)
    p, q, (r_p, _), (r_q, _) = _forced_quotients(n, x, c)
    h = n // 2
    solves = []

    def spy(block, rhs):
        sol, det = fraction_free_solve(block, rhs)
        solves.append([Fraction(v, det) for v, in sol])
        return sol, det

    monkeypatch.setattr(lpbound, "fraction_free_solve", spy)
    res = forced_bound(n, 27)
    assert solves == [r_p]
    assert res["proof"].status == "verified"
    assert res["bound"] == float(p[0] / q[0] * (x[0] / 8) ** h
                                 / math.factorial(h))
    assert [s["bound"] for s in res["proof"].log
            if s["statement"].endswith("forced roots")] == [
        f"quotient of degree {len(r_q) - 1}"] == ["quotient of degree 13"]


def test_poisson_pairing_on_e8():
    # sum over the lattice of f equals the dual sum for a unimodular
    # lattice, up to Gaussian-tail truncation at squared length 50
    ans = RadialAnsatz(8, 3)
    with mp.workdps(40):
        b = [mp.mpf("0.3"), mp.mpf("-0.2"), mp.mpf("0.1")]
        table = vectors_by_norm(standard_lattice("e8"), 50, budget=Fraction(50))
        s_f = mp.mpf(0)
        s_h = mp.mpf(0)
        for v, cnt in table.counts:
            if cnt == 0:
                continue
            r = mp.sqrt(mp.mpf(v.numerator) / v.denominator)
            s_f += cnt * ans.f_value(b, r)
            s_h += cnt * fhat_value(b, r)
        assert abs(s_f - s_h) < 1e-10


# -- sampled LP ----------------------------------------------------------------

def test_sampled_lp_dimension_one():
    res = sampled_lp(1, 6)
    assert res["bound"] >= 1  # density of the integer packing
    assert res["feasible_report"]["feasible"]


def test_sampled_lp_monotone_in_samples(monkeypatch):
    full = default_samples()
    monkeypatch.setattr(lpbound, "REFINE_ROUNDS", 0)
    monkeypatch.setattr(lpbound, "default_samples", lambda: full[::4])
    small = sampled_lp(1, 4)
    monkeypatch.setattr(lpbound, "default_samples", lambda: full)
    big = sampled_lp(1, 4)
    assert small["feasible_report"]["samples_used"] == len(full[::4])
    assert big["feasible_report"]["samples_used"] == len(full)
    # supersets of constraints cannot lower the minimum
    assert big["p0"] >= small["p0"] - Fraction(1, 10 ** 9)


@pytest.mark.parametrize("poly", [
    [Fraction(-1), 0, Fraction(1, 10 ** 400)],  # roots +-10^200
    [Fraction(-1), 1],                          # no root beyond PI_LO
], ids=["tiny-leading", "no-root-beyond"])
def test_positive_maxima_stay_in_float_range(poly):
    # a growing p gets a point past its largest root, not at the Cauchy
    # bound 1 + max |c_i / c_d| (1 + 10^400 for the first), so every point
    # becomes a sample: a finite float where p > 0
    points = lpbound._positive_maxima(poly, PI_LO)
    assert points
    for y in points:
        assert math.isfinite(float(y))
        assert poly_eval(poly, y) > 0


def test_positive_maxima_sample_an_unresolved_interval():
    # 15 p = 15000 - 3 y^5 + 200 y^3 + (15 e^2 - 6000) y, so p' = -((y^2 -
    # 20)^2 - e^2): with e = 2^-3000 its two roots near sqrt(20), where p >
    # 0, are too close to part within the node cap, and the refinement
    # samples the unresolved interval's midpoint in their place; with e = 0
    # the double root sqrt(20) is found on the square-free part of p'
    for e, tol in ((Fraction(1, 2 ** 3000), 1e-12), (0, 1e-8)):
        poly = [Fraction(c, 15) for c in (15000, 15 * e * e - 6000, 0, 200,
                                          0, -3)]
        points = lpbound._positive_maxima(poly, PI_LO)
        assert points[-1] == PI_LO and len(points) == 2
        assert abs(points[0] - Fraction(math.sqrt(20))) < tol
        assert poly_eval(poly, points[0]) > 0
        assert bool(real_roots(poly_deriv(poly), PI_LO)[1]) == (e != 0)


# the exact p(0) of sampled_lp(8, 30)
E8_WINDOW_P0 = Fraction(
    "817053911842746279665810160759595827320278061380104251653354"
    "380754138896524701/"
    "353849491334292739406915888858279012726323532883473729496584"
    "60989648402900381")


@pytest.mark.slow
def test_sampled_lp_e8_window(monkeypatch):
    calls = []

    def recorded(c, a_rows, b, basis=None):
        calls.append((c, a_rows, b, basis))
        return solve_min(c, a_rows, b, basis)

    monkeypatch.setattr(lpbound, "solve_min", recorded)
    res = sampled_lp(8, 30)
    report = res["feasible_report"]
    assert report["feasible"], report
    assert res["certificate_status"] == "certified"
    # the proof itself: b >= 0, p(PI_LO) < 0 and no root of p beyond PI_LO
    cert = res["certificate"]
    poly = cert.polynomial()
    assert cert.y0 == PI_LO and all(x >= 0 for x in cert.b)
    assert poly_eval(poly, PI_LO) < 0 and real_roots(poly, PI_LO)[:2] == (
        [], [])
    # vol(B_8(1/2)) = pi^4/6144, so bound/optimum is p(0)/16 exactly
    assert res["p0"] == poly_eval(poly, 0)
    assert res["bound"] == pytest.approx(float(res["p0"] / 16) * OPT8,
                                         rel=1e-15)
    assert OPT8 <= res["bound"] <= 1.5 * OPT8
    # the pivoting rules and the refinement fix the walk: eight solves,
    # the first from the all-slack basis and each later one from the
    # previous optimum, 95 pivots in all, 13 samples added to the 96
    # defaults
    assert report["iterations"] == 95
    assert report["rounds"] == 8
    assert report["samples_used"] == 109
    assert len(report["added"]) == 13
    assert len(calls) == 8
    assert calls[0][3] is None and all(call[3][1] for call in calls[1:])
    # the warm start reaches the optimum of a cold solve of the last LP
    c, a_rows, b, _ = calls[-1]
    assert res["p0"] == 1 + solve_min(c, a_rows, b)["objective"]
    # a pivoting rule can move the walk, not the optimum
    assert res["p0"] == E8_WINDOW_P0


@pytest.mark.slow
def test_sampled_lp_walk_at_the_free_root(monkeypatch):
    # dimension 24 with the root at y0 = 5/2 PI_LO, the default radii
    # scaled by sqrt(5/2) to match: certified at 4.22 times the optimum
    # once the density is rescaled by (5/2)^12, after ten solves, 104
    # pivots and 23 samples added to the 96 defaults
    lam = Fraction(5, 2)
    samples = [r * math.sqrt(lam) for r in default_samples()]
    monkeypatch.setattr(lpbound, "PI_LO", lam * PI_LO)
    monkeypatch.setattr(lpbound, "default_samples", lambda: samples)
    res = sampled_lp(24, 30)
    report = res["feasible_report"]
    assert res["certificate_status"] == "certified"
    assert verify_lp(res["certificate"]).status == "verified"
    assert report["rounds"] == 10
    assert report["iterations"] == 104
    assert report["samples_used"] == 119
    opt24 = math.pi ** 12 / math.factorial(12)
    assert round(res["bound"] * float(lam) ** 12 / opt24, 2) == 4.22

def test_sampled_lp_certified_from_the_plain_grid():
    # the geometric grid has no sample near the vector lengths; the
    # refinement alone places them, over eight rounds for n = 6, d = 16
    assert default_samples() == sorted(set(default_samples()))
    assert len(default_samples()) == 96
    res = sampled_lp(6, 16)
    assert res["certificate_status"] == "certified"
    assert verify_lp(res["certificate"]).status == "verified"
    assert res["feasible_report"]["rounds"] == 8


def test_sampled_lp_proves_once(monkeypatch):
    # the refinement stops at the first round that adds no sample, and the
    # root proof runs once, on the final certificate
    calls = []
    verify = lpbound.verify_lp
    monkeypatch.setattr(lpbound, "verify_lp",
                        lambda cert: (calls.append(cert), verify(cert))[1])
    res = sampled_lp(8, 30)
    assert res["certificate_status"] == "certified"
    assert res["feasible_report"]["rounds"] == 8
    assert calls == [res["certificate"]]
    # a run stopped by the round cap is decided by that one proof too
    calls.clear()
    capped = sampled_lp(12, 20)
    assert capped["feasible_report"]["rounds"] == lpbound.REFINE_ROUNDS + 1
    assert capped["certificate_status"] == "uncertified"
    assert "bound" not in capped and capped["estimate"] > 0
    assert calls == [capped["certificate"]]


def test_sampled_lp_round_without_samples_is_not_a_proof(monkeypatch):
    # a round that adds no sample ends the loop but proves nothing: with no
    # maxima reported, the first solve, positive between samples (see the
    # test below), stays uncertified
    monkeypatch.setattr(lpbound, "_positive_maxima", lambda poly, lo: [])
    res = sampled_lp(8, 30)
    assert res["feasible_report"]["rounds"] == 1
    assert res["certificate_status"] == "uncertified" and "bound" not in res


def test_sampled_lp_one_round_bump_refuted(monkeypatch):
    # the first solve's f is positive between samples: on r in
    # (1.5157, 1.5493), where a check on a grid of step 1/256 once passed a
    # bound with f(1.5215) = +3.6e-8 between two grid points, and on
    # (2.1514, 2.1990)
    monkeypatch.setattr(lpbound, "REFINE_ROUNDS", 0)
    res = sampled_lp(8, 30)
    assert "bound" not in res and res["estimate"] > 0
    assert res["feasible_report"]["feasible"] is False
    assert res["certificate_status"] == "uncertified"
    poly = res["certificate"].polynomial()
    roots = [math.sqrt(y / math.pi) for y in root_points(poly, PI_LO)]
    assert [round(r, 4) for r in roots] == [1.5157, 1.5493, 2.1514, 2.199]
    assert poly_eval(poly, Fraction(math.pi * 1.5215 ** 2)) > 0
    failed = [s["statement"] for s in verify_lp(res["certificate"]).log
              if not s["passed"]]
    assert failed == ["no root of p in (y0, inf)"]


def _fraction_rows(n, d):
    """The reference for the LP's column scales, cost row and rows: exact
    Fraction Laguerre values, rounded to floats only by _dyadic_row."""
    alpha = Fraction(n, 2) - 1
    probes = [laguerre_all(d, alpha, Fraction(math.pi * r * r))
              for r in (2, 4, 8)]
    scales = [1 / lpbound._pow2_scale(max(abs(p[k]) for p in probes))
              for k in range(1, d + 1)]
    at_zero = laguerre_all(d, alpha, Fraction(0))

    def row(y):
        lag = laguerre_all(d, alpha, y)
        return lpbound._dyadic_row([lag[k] * scales[k - 1]
                                    for k in range(1, d + 1)])

    return scales, [at_zero[k] * scales[k - 1] for k in range(1, d + 1)], row


@pytest.mark.parametrize("n, d", [
    pytest.param(8, 30, marks=pytest.mark.slow), (1, 6), (3, 10),
])
def test_sampled_lp_rows_match_fraction_rows(n, d, monkeypatch):
    # every row of every solve, the defaults and each refinement sample,
    # is bit for bit the row of the exact values; alpha is a half-integer
    # for n = 1 and 3
    calls, maxima = [], []
    positive_maxima = lpbound._positive_maxima

    def solve(c, a_rows, b, basis=None):
        calls.append((c, a_rows))
        return solve_min(c, a_rows, b, basis)

    def maxima_recorded(poly, lo):
        maxima.append(positive_maxima(poly, lo))
        return maxima[-1]

    monkeypatch.setattr(lpbound, "solve_min", solve)
    monkeypatch.setattr(lpbound, "_positive_maxima", maxima_recorded)
    res = sampled_lp(n, d)
    scales, cvec, row = _fraction_rows(n, d)
    # rows in arrival order: the defaults, then each round's new samples
    keys = list(dict.fromkeys(Fraction(math.pi * r * r)
                              for r in default_samples()))
    round_keys = [keys]
    for found in maxima[:len(calls) - 1]:
        keys = list(dict.fromkeys(keys + [Fraction(float(y))
                                          for y in found]))
        round_keys.append(keys)
    expected = {y: row(y) for y in keys}
    assert len(keys) == res["feasible_report"]["samples_used"]
    for (c, a_rows), ys in zip(calls, round_keys, strict=True):
        assert c == cvec
        assert a_rows == [expected[y] for y in ys]


def test_lp_row_matches_fraction_row_at_random_dyadics():
    rng = random.Random(22)
    for n, d in [(8, 30), (1, 6), (3, 10)]:
        scales, _, row = _fraction_rows(n, d)
        for _ in range(200):
            y = Fraction(rng.randrange(1, 250 * 2 ** 52 + 1), 2 ** 52)
            assert lpbound._lp_row(n, y, scales) == row(y), (n, d, y)


def test_sampled_lp_builds_no_fraction_laguerre(monkeypatch):
    # the rows, probes and cost row come from the integer recurrence; the
    # Fraction one is for the tests and the mpmath ansatz only
    def refuse(*args):
        raise AssertionError("sampled_lp called laguerre_all")

    monkeypatch.setattr(lpbound, "laguerre_all", refuse)
    assert sampled_lp(1, 4)["certificate_status"] == "certified"
    assert sampled_lp(6, 16)["certificate_status"] == "certified"


def test_lp_path_imports_no_numpy_or_scipy():
    # the whole lp8 benchmark peaks near 28 MB RSS; importing numpy alone
    # takes a process to 27-31 MB and scipy.optimize to 76-80 MB
    code = ("import sys\n"
            "import packbound.cli\n"
            "from packbound import lpbound\n"
            "lpbound.REFINE_ROUNDS = 0\n"
            "lpbound.sampled_lp(1, 4)\n"
            "print([m for m in ('numpy', 'scipy') if m in sys.modules])\n")
    src = str(pathlib.Path(packbound.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.strip() == "[]"


# -- simplex ---------------------------------------------------------------------

def int_rows(rows):
    """Rational rows in solve_min's form, (ints, den) pairs."""
    return [integer_scaled([Fraction(v) for v in row]) for row in rows]


def test_simplex_small():
    r = solve_min([1], int_rows([[-1]]), [-3])
    assert r["x"] == [Fraction(3)] and r["objective"] == 3


def test_simplex_infeasible():
    with pytest.raises(Infeasible):
        solve_min([1], int_rows([[1]]), [-1])  # x <= -1 with x >= 0


def test_simplex_zero_row_with_negative_rhs_is_infeasible():
    # 0 <= -1 has no entering column, whatever its norm counts as
    with pytest.raises(Infeasible):
        solve_min([1, 1], int_rows([[0, 0], [-1, 0]]), [-1, -2])
    res = solve_min([1, 1], int_rows([[0, 0], [-1, 0]]), [1, -2])
    assert res["x"] == [2, 0]


def test_simplex_leaves_on_the_farthest_row():
    # min x1 + x2 s.t. x1 >= 2 and 10 x1 + 10 x2 >= 10: from the all-slack
    # start the second slack is the most negative value (-10), but the
    # first row is farther from the start (2 against 10 / sqrt(200)); it
    # leaves, x1 = 2 enters and satisfies both rows in one pivot, where
    # leaving on -10 first takes two
    res = solve_min([1, 1], int_rows([[-1, 0], [-10, -10]]), [-2, -10])
    assert res["x"] == [2, 0] and res["objective"] == 2
    assert res["iterations"] == 1 and res["basis"] == ((0,), (0,))


# min x1 + 2 x2 s.t. x1 >= 1, x2 >= 1, x1 + x2 >= 3: optimum 4 at (2, 1),
# with both columns basic and rows 1 and 2 tight
TOY_LP = ([1, 2], int_rows([[-1, 0], [0, -1], [-1, -1]]), [-1, -1, -3])


def test_simplex_returns_its_optimal_basis():
    res = solve_min(*TOY_LP)
    assert res["x"] == [2, 1] and res["objective"] == 4
    cols, tight = res["basis"]
    assert sorted(cols) == [0, 1] and sorted(tight) == [1, 2]
    # started from its own optimum, the walk makes no pivot
    again = solve_min(*TOY_LP, basis=res["basis"])
    assert again["iterations"] == 0
    assert again["x"] == res["x"] and again["basis"] == res["basis"]


def test_simplex_warm_start_after_added_row():
    first = solve_min(*TOY_LP)
    c, rows, b = TOY_LP
    # x2 >= 3/2 cuts off (2, 1); the new optimum is (3/2, 3/2)
    rows = rows + int_rows([[0, -2]])
    res = solve_min(c, rows, b + [-3], basis=first["basis"])
    assert res["x"] == [Fraction(3, 2), Fraction(3, 2)]
    assert res["objective"] == solve_min(c, rows, b + [-3])["objective"]
    assert res["iterations"] == 1


def mat_inverse(a):
    """Exact inverse over Q by Gauss-Jordan elimination, the reference for
    exact.fraction_free_solve; raises ValueError if singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def test_adjugate_is_det_times_inverse():
    # zero pivots force row swaps; 60-bit entries check that every
    # fraction-free division is exact.  Against the identity the solve is
    # the adjugate; against one integer column it is det times inv . rhs
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        k = rng.randint(1, 7)
        block = [[rng.choice([0, 0, rng.randint(-9, 9),
                              rng.randint(-2 ** 60, 2 ** 60)])
                  for _ in range(k)] for _ in range(k)]
        try:
            inv = mat_inverse(block)
        except ValueError:
            continue
        identity = [[int(i == j) for j in range(k)] for i in range(k)]
        adj, det = fraction_free_solve(block, identity)
        assert det > 0
        assert [[Fraction(v, det) for v in row] for row in adj] == inv
        rhs = [rng.choice([0, rng.randint(-2 ** 60, 2 ** 60)])
               for _ in range(k)]
        x, det_x = fraction_free_solve(block, [[v] for v in rhs])
        assert det_x == det
        assert [Fraction(v, det) for v, in x] == [
            sum(a * b for a, b in zip(row, rhs)) for row in inv]
        checked += 1
    assert checked > 100


def _vertex_minimum(c, rows, b):
    """min c.x over {rows x <= b, x >= 0} by enumerating vertices, or None
    when the set is empty.  The set lies in x >= 0, so it has a vertex
    whenever it is nonempty, and c >= 0 bounds c.x below, so the minimum is
    attained at a vertex: a point of the set where n of the m + n
    constraints hold with equality and are linearly independent."""
    n = len(c)
    cons = list(zip(rows, b)) + [([-int(i == j) for j in range(n)], 0)
                                 for i in range(n)]
    best = None
    for pick in itertools.combinations(cons, n):
        try:
            inv = mat_inverse([r for r, _ in pick])
        except ValueError:
            continue
        x = [sum(v * bi for v, (_, bi) in zip(inv_row, pick))
             for inv_row in inv]
        if all(v >= 0 for v in x) and all(
                sum(a * v for a, v in zip(r, x)) <= bi
                for r, bi in zip(rows, b)):
            val = sum(ci * v for ci, v in zip(c, x))
            best = val if best is None else min(best, val)
    return best


if HAVE_HYPOTHESIS:
    small_q = st.fractions(min_value=-4, max_value=4, max_denominator=4)

    @st.composite
    def small_lps(draw):
        n = draw(st.integers(1, 4))
        m = draw(st.integers(1, 6))
        c = draw(st.lists(st.fractions(min_value=0, max_value=3,
                                       max_denominator=3),
                          min_size=n, max_size=n))
        rows = draw(st.lists(st.lists(small_q, min_size=n, max_size=n),
                             min_size=m, max_size=m))
        for src, dst in draw(st.lists(st.tuples(
                st.integers(0, m - 1), st.integers(0, m - 1)), max_size=2)):
            rows[dst] = list(rows[src])  # repeated rows
        b = draw(st.lists(small_q, min_size=m, max_size=m))
        return c, rows, b

    @given(small_lps())
    @settings(max_examples=200, deadline=None)
    def test_simplex_matches_vertex_enumeration(lp):
        c, rows, b = lp
        best = _vertex_minimum(c, rows, b)
        if best is None:
            with pytest.raises(Infeasible):
                solve_min(c, int_rows(rows), b)
            return
        res = solve_min(c, int_rows(rows), b)
        x = res["x"]
        assert res["objective"] == best
        assert res["objective"] == sum(ci * v for ci, v in zip(c, x))
        assert all(v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(r, x)) <= bi
                   for r, bi in zip(rows, b))


    @given(small_lps(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_simplex_warm_start_matches_cold_solve(lp, data):
        # an optimal basis stays dual feasible when rows are appended, so
        # the warm start must reach the cold optimum, or find the same LP
        # infeasible
        c, rows, b = lp
        assume(_vertex_minimum(c, rows, b) is not None)
        first = solve_min(c, int_rows(rows), b)
        extra = data.draw(st.lists(
            st.tuples(st.lists(small_q, min_size=len(c), max_size=len(c)),
                      small_q), min_size=1, max_size=3))
        rows = rows + [r for r, _ in extra]
        b = b + [v for _, v in extra]
        best = _vertex_minimum(c, rows, b)
        if best is None:
            with pytest.raises(Infeasible):
                solve_min(c, int_rows(rows), b)
            with pytest.raises(Infeasible):
                solve_min(c, int_rows(rows), b, basis=first["basis"])
            return
        warm = solve_min(c, int_rows(rows), b, basis=first["basis"])
        x = warm["x"]
        assert warm["objective"] == best == solve_min(
            c, int_rows(rows), b)["objective"]
        assert warm["objective"] == sum(ci * v for ci, v in zip(c, x))
        assert all(v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(r, x)) <= bi
                   for r, bi in zip(rows, b))


    @given(small_lps(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_simplex_walk_ignores_a_common_row_factor(lp, data):
        # solve_min reads a row as ints / den, so multiplying both by the
        # same positive integer changes neither the optimum nor a pivot
        c, rows, b = lp
        pairs = int_rows(rows)
        factors = data.draw(st.lists(st.integers(1, 10 ** 6),
                                     min_size=len(rows), max_size=len(rows)))
        scaled = [([v * t for v in ints], den * t)
                  for (ints, den), t in zip(pairs, factors)]
        try:
            expected = solve_min(c, pairs, b)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_min(c, scaled, b)
            return
        res = solve_min(c, scaled, b)
        for key in ("x", "objective", "iterations", "basis"):
            assert res[key] == expected[key], key


# -- Sign certificates -----------------------------------------------------------

@pytest.mark.parametrize("poly, lo, sign, passed, status, found", [
    ([-1, 0, -1], 0, -1, [True, True], "verified", "0 roots, 0 unresolved"),
    ([-5, 1], 6, 1, [True, True], "verified", "0 roots, 0 unresolved"),
    ([1, 0, 1], 0, -1, [False, True], "refuted", "0 roots, 0 unresolved"),
    ([-5, 1], 0, -1, [True, False], "refuted", "1 roots, 0 unresolved"),
    ([-1, 6, -9], 0, -1, [True, False], "refuted", "1 roots, 0 unresolved"),
    # -(3y - 1)^2 + 2^-3000: two roots 2^-1500 / 3 from 1/3, off every
    # bisection grid, which the node cap leaves unresolved
    ([-1 + Fraction(1, 2 ** 3000), 6, -9], 0, -1, [True, False],
     "inconclusive", "0 roots, 1 unresolved"),
], ids=["right-sign", "root-below-lo", "wrong-sign", "simple-root",
        "double-root", "roots-too-close"])
def test_sign_steps(poly, lo, sign, passed, status, found):
    # the sign at lo fails definitely; the root step definitely only on a
    # root found, repeated or not, and not on roots too close to part
    proof = Certificate(claim="sign of q")
    lpbound._sign_steps(proof, "q", "a", poly, Fraction(lo), sign)
    assert [s["statement"] for s in proof.log] == [
        "q(a) < 0" if sign < 0 else "q(a) > 0", "no root of q in (a, inf)"]
    assert [s["passed"] for s in proof.log] == passed
    assert proof.status == status
    assert proof.log[0]["bound"] == str(float(poly_eval(poly, Fraction(lo))))
    assert proof.log[1]["bound"].startswith(found + " intervals (")


@pytest.fixture(scope="module")
def toy_cert():
    """The proved certificate of a small LP: dimension 1, degree 4."""
    return sampled_lp(1, 4)["certificate"]


def _failed_steps(cert):
    result = verify_lp(cert)
    assert result.status == "refuted"
    return [s["statement"] for s in result.log if not s["passed"]]


def _with_b(cert, k, value):
    b = list(cert.b)
    b[k - 1] = value
    return LpCertificate(cert.n, cert.d, tuple(b), cert.y0)


def test_toy_certificate_accepted(toy_cert):
    assert verify_lp(toy_cert).status == "verified"


def test_toy_certificate_bound(toy_cert):
    p0 = poly_eval(toy_cert.polynomial(), 0)
    assert p0 * ball_volume(1, Fraction(1, 4)).to_float() >= 1  # Z packs
    assert toy_cert.y0 == PI_LO


def test_tampering_rejected(toy_cert):
    # each tampering breaks exactly one hypothesis
    d = toy_cert.d  # even: L_d has a positive leading coefficient
    tiny = Fraction(1, 10 ** 12)
    assert _failed_steps(_with_b(toy_cert, d, -tiny)) == [
        "profile coefficients b >= 0"]
    # p grows without bound, so it has a root far beyond y0
    assert _failed_steps(_with_b(toy_cert, d, tiny)) == [
        "no root of p in (y0, inf)"]
    # y0 at the only root of the linear profile: p(y0) = 0
    b1 = toy_cert.b[0]
    root = LpCertificate(1, d, toy_cert.b, Fraction(1, 2) + 1 / b1)
    assert _failed_steps(root) == ["p(y0) < 0"]


def test_bad_endpoint_rejected(toy_cert):
    cert = LpCertificate(toy_cert.n, toy_cert.d, toy_cert.b, PI_HI)
    assert _failed_steps(cert) == ["y0 lies below pi"]


def test_accepted_certificate_implies_grid_signs(toy_cert):
    # certificate soundness, checked empirically: the certified profile is
    # negative on a dense grid of [y0, 40]
    poly = toy_cert.polynomial()
    y = toy_cert.y0
    while y <= 40:
        assert poly_eval(poly, y) < 0
        y += Fraction(1, 8)


def test_certificate_json_roundtrip(toy_cert):
    again = LpCertificate.from_dict(json.loads(json.dumps(toy_cert.to_dict())))
    assert again == toy_cert
    assert verify_lp(again).status == "verified"


def test_from_dict_enforces_the_verification_budget(monkeypatch):
    # seeded d = 40 with 30-bit b: p has about 1,200-bit coefficients, the
    # size of the n = 24, d = 40 certificate with a free root position
    rng = random.Random(40)
    obj = {"n": 8, "d": 40, "y0": "3", "b": [
        f"{rng.getrandbits(30) | 1}/{rng.getrandbits(30) | 1}"
        for _ in range(40)]}
    p = poly_primitive(LpCertificate.from_dict(obj).polynomial())
    bits = max(abs(c).bit_length() for c in p)
    assert len(p) == 41 and 1100 <= bits <= 1300
    monkeypatch.setattr(lpbound, "VERIFY_BUDGET", 40 ** 2 * (bits + 40))
    assert LpCertificate.from_dict(obj).d == 40
    monkeypatch.setattr(lpbound, "VERIFY_BUDGET", 40 ** 2 * (bits + 40) - 1)
    with pytest.raises(PackboundError, match="verification budget"):
        LpCertificate.from_dict(obj)
