"""The numerical pipeline for the linear-programming density bound:
Laguerre-parametrized test functions, a sampled LP solved by exact dual
simplex, forced-root linear solves and the least-squares projection of the
optimal function onto the family (both uncertified, so they give estimates,
not bounds), and exact sum-of-squares certificates with SDPA export.

Normalization: throughout this module the minimal root is scaled to r1 = 1,
so a feasible function certifies density <= f(0) * vol(B_n(1/2)).

Parametrization: f_a(x) = (1 + sum a_k k! pi^-k L_k^(n/2-1)(pi|x|^2)) e^(-pi|x|^2)
has transform (1 + sum a_k |u|^(2k)) e^(-pi|u|^2), so a >= 0 keeps the
transform nonnegative.  Certificates use the equivalent rational
parametrization p(y) = 1 + sum alpha_k L_k^(n/2-1)(y) in y = pi r^2 (the
Laguerre coefficients absorb the powers of pi), since exact identities need
rational data; the sign condition r >= 1 becomes y >= pi and is imposed on
[y0, inf) for a rational y0 slightly below pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .certify import Certificate
from .exact import (
    frac, ldlt_psd, poly_add, poly_eval, poly_mul, poly_trim, sturm_count,
)
from .lattices import ball_volume
from .simplex import solve_min

# proven bounds pi > PI_LO, pi < PI_HI
PI_LO = Fraction(314159265358979, 10 ** 14)
PI_HI = Fraction(314159265358980, 10 ** 14)


class LpError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Laguerre polynomials
# ---------------------------------------------------------------------------

def laguerre_coeffs(k: int, alpha) -> list:
    """Exact coefficient list of L_k^alpha: sum_j (-1)^j C(k+a, k-j) x^j / j!."""
    alpha = frac(alpha)
    coeffs = []
    for j in range(k + 1):
        binom = Fraction(1)
        for t in range(k - j):
            binom *= (alpha + j + 1 + t) / (t + 1)
        coeffs.append((-1) ** j * binom / math.factorial(j))
    return coeffs


def laguerre_all(kmax: int, alpha, x):
    """[L_0^alpha(x), ..., L_kmax^alpha(x)] in one pass of the three-term
    recurrence, over exact rationals or mpmath floats following the input
    types."""
    out = [x * 0 + 1]
    if kmax == 0:
        return out
    out.append(1 + alpha - x)
    for j in range(1, kmax):
        out.append(((2 * j + 1 + alpha - x) * out[-1]
                    - (j + alpha) * out[-2]) / (j + 1))
    return out


def profile_polynomial(n: int, alpha) -> list:
    """Exact coefficients of p(y) = 1 + sum_k alpha_k L_k^(n/2-1)(y)."""
    poly = [Fraction(1)] + [Fraction(0)] * len(alpha)
    for k, a_k in enumerate(alpha, start=1):
        lk = laguerre_coeffs(k, Fraction(n, 2) - 1)
        poly = poly_add(poly, [a_k * c for c in lk])
    return poly_trim(poly)


# ---------------------------------------------------------------------------
# The radial ansatz
# ---------------------------------------------------------------------------

class RadialAnsatz:
    """Evaluation helpers for the degree-d family in dimension n."""

    def __init__(self, n: int, d: int):
        if d < 1:
            raise LpError("degree must be >= 1")
        self.n = n
        self.d = d
        self.alpha = Fraction(n, 2) - 1
        self._scale_cache = {}

    def _alpha_mpf(self):
        return mp.mpf(self.alpha.numerator) / self.alpha.denominator

    def _scales(self):
        """k! pi^-k for k = 0..d at the working precision, computed once
        per precision (the sign sweep asks at every radius)."""
        out = self._scale_cache.get(mp.mp.prec)
        if out is None:
            out = [mp.mpf(1)]
            for k in range(1, self.d + 1):
                out.append(out[-1] * k / mp.pi)
            out = self._scale_cache[mp.mp.prec] = tuple(out)
        return out

    def f_basis_scaled(self, r):
        """k! pi^-k L_k(pi r^2), k = 1..d (the Gaussian factor scaled away)."""
        s = mp.pi * mp.mpf(r) ** 2
        lag = laguerre_all(self.d, self._alpha_mpf(), s)
        scales = self._scales()
        return [scales[k] * lag[k] for k in range(1, self.d + 1)]

    def f0_coeffs(self):
        """Coefficients of a in f_a(0) (all positive)."""
        lag = laguerre_all(self.d, self._alpha_mpf(), mp.mpf(0))
        scales = self._scales()
        return [scales[k] * lag[k] for k in range(1, self.d + 1)]

    def f_rows(self, r, order=0):
        """Basis row of f_a (order 0) or f_a' (1) at radius r, including the
        constant member at index 0."""
        rv = mp.mpf(r)
        s = mp.pi * rv * rv
        a = self._alpha_mpf()
        es = mp.exp(-s)
        scales = self._scales()
        lag = laguerre_all(self.d, a, s)
        if order == 0:
            return [scales[k] * lag[k] * es for k in range(self.d + 1)]
        # d/ds L_k^a(s) = -L_(k-1)^(a+1)(s)
        lag1 = laguerre_all(self.d - 1, a + 1, s)
        return [scales[k] * 2 * mp.pi * rv
                * ((-lag1[k - 1] if k >= 1 else mp.mpf(0)) - lag[k]) * es
                for k in range(self.d + 1)]

    def fhat_rows(self, u, order=0):
        """Transform-side basis row (1, u^2, u^4, ...) times the Gaussian
        (order 0), or its u-derivative (order 1)."""
        uv = mp.mpf(u)
        eu = mp.exp(-mp.pi * uv * uv)
        if order == 0:
            return [uv ** (2 * k) * eu for k in range(self.d + 1)]
        return [(2 * k * uv ** max(2 * k - 1, 0)
                 - 2 * mp.pi * uv ** (2 * k + 1)) * eu
                for k in range(self.d + 1)]

    def f_value(self, a_vec, r):
        row = self.f_rows(r, 0)
        return row[0] + sum(ak * rk for ak, rk in zip(a_vec, row[1:]))

    def f_deriv(self, a_vec, r):
        row = self.f_rows(r, 1)
        return row[0] + sum(ak * rk for ak, rk in zip(a_vec, row[1:]))

    def fhat_value(self, a_vec, u):
        row = self.fhat_rows(u, 0)
        return row[0] + sum(ak * rk for ak, rk in zip(a_vec, row[1:]))


def ansatz_eval(side, n, d, a_vec, r):
    """f_a or its transform at radius r (a may be floats or Fractions)."""
    ans = RadialAnsatz(n, d)
    av = [mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction)
          else mp.mpf(x) for x in a_vec]
    if side == "f":
        return ans.f_value(av, r)
    if side == "f_hat":
        return ans.fhat_value(av, r)
    raise LpError(f"unknown side {side!r}")


# ---------------------------------------------------------------------------
# Sampled LP
# ---------------------------------------------------------------------------

def default_samples(n: int, d: int, r_max=8.0, count=96, cluster_roots=12):
    """Geometric grid on [1, r_max] plus clusters at the first expected root
    locations (the normalized vector lengths sqrt(2j)/r1), where the
    optimal profile nearly touches zero and naive grids sample poorly."""
    pts = set()
    for i in range(count):
        pts.add(round(r_max ** (i / (count - 1)), 9))
    r1_sq = 2 if n == 8 else (4 if n == 24 else 2)
    for j in range(1, cluster_roots + 1):
        root = math.sqrt(2 * j / r1_sq)
        if root > r_max:
            break
        for eps in (-0.012, -0.004, 0.0, 0.004, 0.012):
            if 1 <= root + eps <= r_max:
                pts.add(round(root + eps, 9))
    return sorted(pts)


def _rationalize(x, bits=24):
    return Fraction(float(x)).limit_denominator(2 ** bits)


def _dyadic_row(values, rel_floor_bits=50):
    """Exact dyadic rationalization of a row, flushing entries below the
    row's relative floor to zero (keeps the exact LP's integers small)."""
    floats = [float(v) for v in values]
    top = max(abs(v) for v in floats) if floats else 0.0
    floor = top * 2.0 ** (-rel_floor_bits)
    return [Fraction(v) if abs(v) >= floor else Fraction(0) for v in floats]


def _pow2_scale(value) -> Fraction:
    """Power of two near |value|, for exact column equilibration."""
    v = abs(float(value))
    if v == 0:
        return Fraction(1)
    e = int(math.floor(math.log2(v)))
    return Fraction(2) ** e


def sampled_lp(n: int, d: int, samples=None, dps=30, refine_rounds=4,
               grid_slack=1e-9, r_check=10.0):
    """Minimize f_a(0) over a >= 0 with f_a <= 0 at the samples, then verify
    on a dense grid and re-solve with the violations appended until the
    grid is clean (or rounds run out)."""
    ans = RadialAnsatz(n, d)
    samples = list(samples) if samples is not None else default_samples(n, d)
    with mp.workdps(dps):
        # column equilibration: the basis entries grow like r^(2k), so the
        # variables are rescaled by powers of two to keep the exact LP's
        # entries small (recovered after the solve)
        probes = [ans.f_basis_scaled(mp.mpf(r)) for r in (2, 4, 8)]
        scales = [Fraction(1) / _pow2_scale(max(abs(p[k]) for p in probes))
                  for k in range(d)]
        cvec = [Fraction(float(v * mp.mpf(s.numerator) / s.denominator))
                for v, s in zip(ans.f0_coeffs(), scales)]
        rows = {}

        def add_sample(r):
            key = round(float(r), 12)
            if key not in rows:
                vals = [v * mp.mpf(s.numerator) / s.denominator for v, s in
                        zip(ans.f_basis_scaled(r), scales)]
                rows[key] = _dyadic_row(vals)

        for r in samples:
            add_sample(r)

        report = {"rounds": 0, "added": [], "iterations": 0}
        sol = None
        for round_no in range(refine_rounds + 1):
            keys = sorted(rows)
            a_mat = [rows[k] for k in keys]
            # distinct tiny right-hand sides break the massive degeneracy of
            # the uniform constraint scaling
            b = [Fraction(-1) - Fraction(i + 1, 2 ** 24)
                 for i in range(len(keys))]
            sol = solve_min(cvec, a_mat, b)
            report["iterations"] += sol["iterations"]
            report["rounds"] = round_no + 1
            # dense sign sweep (solution mapped back to unscaled variables)
            a_vec = [x * s for x, s in zip(sol["x"], scales)]
            av = [mp.mpf(x.numerator) / x.denominator for x in a_vec]
            worst = []
            r = mp.mpf(1)
            step = mp.mpf(1) / 256
            while r <= r_check:
                v = ans.f_value(av, r)
                if v > grid_slack:
                    worst.append((float(v), float(r)))
                r += step
            if not worst:
                break
            worst.sort(reverse=True)
            for _, rbad in worst[:8]:
                add_sample(rbad)
                report["added"].append(rbad)
        # far tail: the radial profile is a polynomial in y = pi r^2 times a
        # Gaussian; check by Sturm that the (rationalized) profile stays
        # negative beyond the swept range
        poly = profile_polynomial(n, [Fraction(float(
            av[k - 1] * mp.factorial(k) * mp.pi ** (-k)))
            for k in range(1, d + 1)])
        y_far = PI_HI * frac(r_check) ** 2
        far_ok = poly_eval(poly, y_far) < 0 and sturm_count(poly, y_far) == 0
        max_grid_violation = max([w for w, _ in worst], default=0.0)
        feasible = (not worst) and far_ok
        f0_true = 1 + sum(av_k * ck
                          for av_k, ck in zip(av, ans.f0_coeffs()))
        vol = ball_volume(n, Fraction(1, 4))
        bound = float(f0_true) * vol.to_float()
        report.update({
            "grid_max_violation": float(max_grid_violation),
            "far_tail_ok": far_ok,
            "feasible": feasible,
            "samples_used": len(rows),
        })
        return {
            "ansatz": a_vec,
            "f0": float(f0_true),
            "f0_lp_exact": 1 + sol["objective"],
            "bound": bound,
            "feasible_report": report,
            "method": "sampled",
        }


# ---------------------------------------------------------------------------
# Forced roots and the collocation projection
# ---------------------------------------------------------------------------

def _root_system(ans: RadialAnsatz, simple_root, droots_f, droots_fhat):
    rows = []
    rhs = []

    def push(row):
        rows.append(row[1:])
        rhs.append(-row[0])

    push(ans.f_rows(simple_root, 0))
    for z in droots_f:
        push(ans.f_rows(z, 0))
        push(ans.f_rows(z, 1))
    for w in droots_fhat:
        push(ans.fhat_rows(w, 0))
        push(ans.fhat_rows(w, 1))
    return rows, rhs


def forced_roots_solve(n: int, d: int, simple_root=1.0, double_roots_f=(),
                       double_roots_fhat=(), dps=50):
    """Square linear solve forcing f_a(r1) = 0 and double roots at the given
    radii of f_a and of the transform."""
    count = 1 + 2 * len(double_roots_f) + 2 * len(double_roots_fhat)
    if count != d:
        raise LpError(f"constraint count {count} != degree {d}")
    ans = RadialAnsatz(n, d)
    with mp.workdps(dps):
        rows, rhs = _root_system(ans, simple_root, double_roots_f,
                                 double_roots_fhat)
        m = mp.matrix(rows)
        v = mp.matrix(rhs)
        try:
            a = mp.lu_solve(m, v)
        except ZeroDivisionError as exc:
            raise LpError(f"singular root system: {exc}")
        residual = max(abs(x) for x in (m * a - v))
        try:
            cond = mp.mnorm(m, 1) * mp.mnorm(m ** -1, 1)
        except ZeroDivisionError:
            cond = mp.inf
        a_list = [a[i] for i in range(d)]
        f0 = 1 + sum(ak * ck for ak, ck in zip(a_list, ans.f0_coeffs()))
        return {"a": a_list, "residual": residual, "condition": cond,
                "f0": f0}


def sign_sweep(ans, a_list):
    """Worst sign violations of the pair on a grid of step 1/64 up to r = 8
    (f beyond 1, transform everywhere), and whether both stay within
    1e-9."""
    av = list(a_list)
    worst_f = mp.mpf(0)
    r = mp.mpf(1)
    step = mp.mpf(1) / 64
    while r <= 8:
        worst_f = max(worst_f, ans.f_value(av, r))
        r += step
    worst_h = mp.mpf(0)
    r = mp.mpf(0)
    while r <= 8:
        worst_h = max(worst_h, -ans.fhat_value(av, r))
        r += step
    return {"violations": (float(worst_f), float(worst_h)),
            "feasible": bool(worst_f <= 1e-9 and worst_h <= 1e-9)}

def _collocation_seed(ans, n, dps, points=200, r_max=5, u_max=8,
                      transform_points=0):
    """Least-squares projection of the certified optimal function onto the
    degree-d family: collocation of the function on a radial grid,
    optionally augmented with transform-side rows (these pin the top
    coefficients when the pure fit leaves them at noise level, at the cost
    of function-side accuracy).

    Normalization maps the minimal vector length to 1: the target pair is
    g(r) = r1^n f(r1 r), ghat(u) = fhat(u / r1).  Rows are equilibrated.
    """
    from .magic import magic_spec
    spec = magic_spec(n)
    d = ans.d
    with mp.workdps(dps):
        s = mp.sqrt(spec.r1_sq)
        scale = s ** n
        rows = []
        targets = []
        for j in range(1, points + 1):
            r = mp.mpf(j) * r_max / points
            row = ans.f_rows(r, 0)
            rows.append(row[1:])
            targets.append(scale * spec.eval("f", s * r).value - row[0])
        for j in range(1, transform_points + 1):
            u = mp.mpf(j) * u_max / transform_points
            row = ans.fhat_rows(u, 0)
            rows.append(row[1:])
            targets.append(spec.eval("f_hat", u / s).value - row[0])
        amat = mp.zeros(len(rows), d)
        rhs = mp.zeros(len(rows), 1)
        for i, (row, t) in enumerate(zip(rows, targets)):
            for kk in range(d):
                amat[i, kk] = row[kk]
            rhs[i] = t
        a = mp.qr_solve(amat, rhs)[0]
        return [a[i] for i in range(d)]


def newton_refine(n: int, d: int, double_roots_f, double_roots_fhat,
                  simple_root=1.0, dps=60):
    """One degree-d member of the family near the optimal function, with
    its sign sweep.

    For n = 8, 24 the member is the collocation seed (least-squares
    projection of the certified optimal function; no roots are enforced);
    otherwise it is the forced-root solve at the given schedule.  Nothing on
    this path certifies the sign conditions, so f_a(0) * vol(B_n(1/2)) is
    reported as an `estimate`, never as a bound.  `violations` holds the
    worst grid violations of f <= 0 beyond the root and of fhat >= 0;
    `feasible` records whether both stay within 1e-9.
    """
    ans = RadialAnsatz(n, d)
    with mp.workdps(dps):
        if n in (8, 24):
            roots_f, roots_fhat = [], []
            a_list = _collocation_seed(
                ans, n, dps, transform_points=0 if n == 8 else 80)
        else:
            roots_f, roots_fhat = double_roots_f, double_roots_fhat
            a_list = forced_roots_solve(n, d, simple_root, roots_f,
                                        roots_fhat, dps=dps)["a"]
        f0 = 1 + sum(ak * ck for ak, ck in zip(a_list, ans.f0_coeffs()))
        return {
            "roots_f": [float(t) for t in roots_f],
            "roots_fhat": [float(t) for t in roots_fhat],
            "ansatz": a_list,
            "f0": f0,
            "estimate": float(f0) * ball_volume(n, Fraction(1, 4)).to_float(),
            **sign_sweep(ans, a_list),
        }


# ---------------------------------------------------------------------------
# Sum-of-squares certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SosCertificate:
    """Exact witness that p(y) = 1 + sum a_k L_k^(n/2-1)(y) is <= 0 on
    [y0, inf):  -p(y) = b(y)^T Q1 b(y) + (y - y0) b(y)^T Q2 b(y) with
    Q1, Q2 positive semidefinite and y0 <= pi, plus a >= 0 entrywise for
    the transform side."""

    n: int
    d: int
    a: tuple          # Fractions, length d
    y0: Fraction
    q1: tuple         # (d//2+1) x (d//2+1) symmetric Fractions
    q2: tuple

    def polynomial(self) -> list:
        return profile_polynomial(self.n, self.a)

    def bound(self):
        p0 = poly_eval(self.polynomial(), 0)
        return p0 * ball_volume(self.n, Fraction(1, 4)).to_float(), p0


def _gram_poly(q, shift=None):
    """Coefficients of b(y)^T Q b(y), optionally multiplied by (y - shift)."""
    m = len(q)
    out = [Fraction(0)] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            out[i + j] += frac(q[i][j])
    if shift is not None:
        out = poly_add(poly_mul(out, [Fraction(0), Fraction(1)]),
                       [-frac(shift) * c for c in out])
    return poly_trim(out)


def verify_sos(cert: SosCertificate) -> Certificate:
    """Exact rational verification of every hypothesis of the claim: a >= 0
    entrywise (the transform side), the interval endpoint sits below pi,
    the polynomial identity holds coefficientwise, and both Gram matrices
    admit nonnegative-pivot LDL^T factorizations.

    A certificate of the wrong shape (len(a) != d, Q1 not a symmetric
    (d//2+1)-square matrix, Q2 not a symmetric ((d+1)//2)-square matrix)
    is malformed rather than refuted and raises LpError.
    """
    if len(cert.a) != cert.d:
        raise LpError(f"malformed certificate: {len(cert.a)} coefficients "
                      f"for degree {cert.d}")
    for name, q, m in (("Q1", cert.q1, cert.d // 2 + 1),
                       ("Q2", cert.q2, (cert.d + 1) // 2)):
        if len(q) != m or any(len(row) != m for row in q) or any(
                q[i][j] != q[j][i] for i in range(m) for j in range(i)):
            raise LpError(f"malformed certificate: {name} must be a "
                          f"symmetric {m}x{m} matrix")
    out = Certificate(claim=f"SOS sign certificate n={cert.n} d={cert.d}")
    out.add_step("transform coefficients a >= 0", "exact",
                 min(cert.a, default=0), all(x >= 0 for x in cert.a))
    out.add_step("y0 lies below pi", "exact",
                 str(cert.y0), cert.y0 <= PI_LO)
    # coefficientwise identity
    target = [-c for c in cert.polynomial()]
    got = poly_add(_gram_poly(cert.q1), _gram_poly(cert.q2, shift=cert.y0))
    diff = poly_trim(poly_add(got, [-c for c in target]))
    if diff:
        bad = next(i for i, c in enumerate(diff) if c != 0)
        out.add_step("polynomial identity", "exact",
                     f"coefficient mismatch at degree {bad}", False,
                     f"difference {diff[bad]}")
    else:
        out.add_step("polynomial identity", "exact", 0, True)
    for name, q in (("Q1", cert.q1), ("Q2", cert.q2)):
        ok, detail = ldlt_psd([list(r) for r in q])
        out.add_step(f"{name} positive semidefinite (rational LDL^T)",
                     "exact",
                     "pivots ok" if ok else f"negative leading minor {detail}",
                     ok)
    if all(s["passed"] for s in out.log):
        out.status = "verified"
    else:
        out.status = "refuted"
    return out


def _fejer_riesz(gcoeffs, dps=40):
    """Split G(w) >= 0 on [0, inf) as s1(w) + w s2(w), two squares each.

    Works through G(t^2) = |h(t)|^2 with h built from the upper-half-plane
    roots; requires G strictly positive on the reals (no real roots of
    G(t^2)).
    """
    with mp.workdps(dps):
        g = [mp.mpf(c.numerator) / c.denominator for c in gcoeffs]
        # G(t^2): interleave zeros
        gt = []
        for c in g:
            gt.append(c)
            gt.append(mp.mpf(0))
        gt = gt[:-1]
        roots = mp.polyroots([x for x in reversed(gt)], maxsteps=200,
                             extraprec=120)
        upper = [r for r in roots if mp.im(r) > 0]
        if 2 * len(upper) != len(roots):
            raise LpError("real roots obstruct the square split")
        lead = g[-1]
        if lead <= 0:
            raise LpError("leading coefficient must be positive")
        h = [mp.mpc(1)]
        for r in upper:
            h = [mp.mpc(0)] + h
            h = [h[i] - (r * h[i + 1] if i + 1 < len(h) else 0)
                 for i in range(len(h))]
        scale = mp.sqrt(lead)
        h = [scale * c for c in h]
        re = [mp.re(c) for c in h]
        im = [mp.im(c) for c in h]
        e1, o1 = re[0::2], re[1::2]
        e2, o2 = im[0::2], im[1::2]
        return (e1, e2), (o1, o2)


def _outer(vecs, size):
    q = [[Fraction(0)] * size for _ in range(size)]
    for v in vecs:
        vv = [frac(x) for x in v] + [Fraction(0)] * (size - len(v))
        for i in range(size):
            for j in range(size):
                q[i][j] += vv[i] * vv[j]
    return q


def _pad(q, size):
    m = len(q)
    return tuple(tuple(q[i][j] if i < m and j < m else Fraction(0)
                       for j in range(size)) for i in range(size))


def _shift_gram(q, y0):
    """Rewrite b(w)^T Q b(w) with w = y - y0 in the y-monomial basis."""
    m = len(q)
    t = [[Fraction(0)] * m for _ in range(m)]
    for j in range(m):
        # w^j = sum_i C(j, i) (-y0)^(j-i) y^i
        for i in range(j + 1):
            t[j][i] = Fraction(math.comb(j, i)) * (-frac(y0)) ** (j - i)
    out = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if q[i][j] == 0:
                continue
            for bi in range(m):
                for bj in range(m):
                    out[bi][bj] += q[i][j] * t[i][bi] * t[j][bj]
    return out


def build_toy_certificate(n: int = 1, d: int = 4, y0=Fraction(157, 50),
                          dps=40, denom=10 ** 10) -> SosCertificate:
    """Round-then-repair: run a slightly tightened sampled LP, round the
    rational profile, split it by Fejer-Riesz, round the Gram matrices, and
    repair the identity exactly through Q1's antidiagonals."""
    ans = RadialAnsatz(n, d)
    with mp.workdps(dps):
        samples = [0.97 + i * 0.01 for i in range(9)] + \
            [1.05 + 0.05 * i for i in range(120)]
        cvec = [_rationalize(v) for v in ans.f0_coeffs()]
        rows = [[_rationalize(v) for v in ans.f_basis_scaled(r)]
                for r in samples]
        b = [Fraction(-21, 20)] * len(rows)  # margin below zero
        sol = solve_min(cvec, rows, b)
        # rational profile coefficients alpha_k = a_k k! / pi^k
        alpha = [Fraction(float(
            sol["x"][k - 1] * mp.factorial(k) * mp.pi ** (-k)
        )).limit_denominator(denom) for k in range(1, d + 1)]
        if any(x < 0 for x in alpha):
            raise LpError("toy LP produced negative coefficients")
        poly = profile_polynomial(n, alpha)
        # the nonnegativity constraint on the family zeroes top coefficients
        # whose Laguerre lead has the wrong sign, so work with the effective
        # degree of the rounded profile
        deg_eff = len(poly) - 1
        if deg_eff < 1:
            raise LpError("degenerate toy profile")
        # G(w) = -p(y0 + w)
        shifted = [Fraction(0)] * len(poly)
        for j, c in enumerate(poly):
            for i in range(j + 1):
                shifted[i] += c * math.comb(j, i) * frac(y0) ** (j - i)
        g = [-c for c in shifted]
        (e_pair, o_pair) = _fejer_riesz(g, dps=dps)
        m1 = deg_eff // 2 + 1
        m2 = (deg_eff + 1) // 2
        q1w = _outer([[Fraction(float(x)).limit_denominator(denom)
                       for x in v] for v in e_pair], m1)
        q2w = _outer([[Fraction(float(x)).limit_denominator(denom)
                       for x in v] for v in o_pair], m2)
        q1 = _shift_gram(q1w, y0)
        q2 = _shift_gram(q2w, y0)
        # exact repair.  Coefficients above Q1's degree range are reachable
        # only through the (y - y0) Q2 part: fix those antidiagonals of Q2
        # from the top down, then close the rest through Q1.
        target = [-c for c in poly] + [Fraction(0)] * max(
            0, 2 * m2 - len(poly))
        for cdeg in range(2 * m2 - 1, 2 * m1 - 2, -1):
            got = _gram_poly(q2, shift=y0)
            got = got + [Fraction(0)] * (cdeg + 1 - len(got))
            positions = [(i, cdeg - 1 - i) for i in range(m2)
                         if 0 <= cdeg - 1 - i < m2]
            delta = (target[cdeg] - got[cdeg]) / len(positions)
            for i, j in positions:
                q2[i][j] += delta
        rem = poly_add(target, [-c for c in _gram_poly(q2, shift=y0)])
        rem = rem + [Fraction(0)] * (2 * m1 - 1 - len(rem))
        if poly_trim(rem[2 * m1 - 1:]):
            raise LpError("repair left residue beyond the Gram range")
        for cdeg in range(2 * m1 - 1):
            cur = sum(q1[i][cdeg - i] for i in range(m1)
                      if 0 <= cdeg - i < m1)
            positions = [(i, cdeg - i) for i in range(m1)
                         if 0 <= cdeg - i < m1]
            delta = (rem[cdeg] - cur) / len(positions)
            for i, j in positions:
                q1[i][j] += delta
        # zero rows and columns pad the Grams to the full degree-d shape
        cert = SosCertificate(n, d, tuple(alpha), frac(y0),
                              _pad(q1, d // 2 + 1), _pad(q2, (d + 1) // 2))
        result = verify_sos(cert)
        if result.status != "verified":
            raise LpError(f"toy certificate failed repair: {result.to_json()}")
        return cert


# ---------------------------------------------------------------------------
# SDPA export
# ---------------------------------------------------------------------------

def export_sos_sdp(n: int, d: int, y0=Fraction(157, 50)) -> str:
    """Write the SOS formulation in SDPA sparse format (.dat-s).

    Problem: min sum_k C(k+n/2-1, k) alpha_k (the affine part of f(0));
    variables x = (alpha_1..alpha_d, vech Q1, vech Q2); constraints
    Q1 >= 0, Q2 >= 0 as matrix blocks plus the coefficientwise identity
    p_alpha(y) + b^T Q1 b + (y - y0) b^T Q2 b = 0 as paired diagonal
    inequalities.  Layout: comment, m, nblock, blocksizes, objective row,
    then "matno block i j value" entries with matno 0 the constant F0.
    """
    m1 = d // 2 + 1
    m2 = (d + 1) // 2
    alpha = Fraction(n, 2) - 1
    nvar = d + m1 * (m1 + 1) // 2 + m2 * (m2 + 1) // 2
    ncoef = 2 * m1  # identity degrees 0 .. 2*m1-1
    lines = [f'"SOS sign certificate export: n={n} d={d} y0={y0}"',
             f"{nvar} = mDIM",
             "3 = nBLOCK",
             f"({m1}, {m2}, -{2 * ncoef}) = bLOCKsTRUCT"]
    obj = []
    for k in range(1, d + 1):
        obj.append(repr(float(laguerre_coeffs(k, alpha)[0])))
    obj += ["0.0"] * (nvar - d)
    lines.append("{" + ", ".join(obj) + "}")
    entries = []

    def var_q1(i, j):
        i, j = min(i, j), max(i, j)
        return d + i * m1 - i * (i - 1) // 2 + (j - i) + 1

    base_q2 = d + m1 * (m1 + 1) // 2

    def var_q2(i, j):
        i, j = min(i, j), max(i, j)
        return base_q2 + i * m2 - i * (i - 1) // 2 + (j - i) + 1

    # PSD blocks tie the matrix variables to blocks 1 and 2
    for i in range(m1):
        for j in range(i, m1):
            entries.append((var_q1(i, j), 1, i + 1, j + 1, 1.0))
    for i in range(m2):
        for j in range(i, m2):
            entries.append((var_q2(i, j), 2, i + 1, j + 1, 1.0))

    # identity rows: for each coefficient c, h_c(x) = -1_{c=0} twice (>= / <=)
    def emit(var, cdeg, coef):
        if coef == 0:
            return
        entries.append((var, 3, 2 * cdeg + 1, 2 * cdeg + 1, float(coef)))
        entries.append((var, 3, 2 * cdeg + 2, 2 * cdeg + 2, -float(coef)))

    for k in range(1, d + 1):
        for cdeg, coef in enumerate(laguerre_coeffs(k, alpha)):
            emit(k, cdeg, coef)
    for i in range(m1):
        for j in range(i, m1):
            mult = 1 if i == j else 2
            emit(var_q1(i, j), i + j, mult)
    for i in range(m2):
        for j in range(i, m2):
            mult = 1 if i == j else 2
            emit(var_q2(i, j), i + j + 1, mult)
            emit(var_q2(i, j), i + j, -mult * float(frac(y0)))
    # F0 diagonal: rhs -1 at degree 0 (the constant of the profile)
    entries.append((0, 3, 1, 1, 1.0))
    entries.append((0, 3, 2, 2, -1.0))
    for matno, blk, i, j, val in entries:
        lines.append(f"{matno} {blk} {i} {j} {val!r}")
    return "\n".join(lines) + "\n"
