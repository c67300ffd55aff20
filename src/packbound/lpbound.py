"""The numerical pipeline for the linear-programming density bound:
Laguerre-parametrized test functions; a sampled LP, solved by exact dual
simplex, whose solution an exact root test proves feasible; and, in
dimensions 8 and 24, the function with roots forced at the vector
lengths, the forced factors times an exactly solved R_P, proved likewise.

Normalization: the sampled LP scales the minimal root to r1 = 1, so a
feasible function certifies density <= f(0) * vol(B_n(1/2)); the forced
roots keep the lattice's scale (see forced_bound).

Parametrization: the sampled LP works on the profile coefficients
b_1..b_d.  With y = pi r^2 and z = pi u^2,

    f(r) = p(y) e^(-y),      p(y) = 1 + sum_k b_k L_k^(n/2-1)(y),
    fhat(u) = q(z) e^(-z),   q(z) = 1 + sum_k b_k z^k / k!,

so f(0) = p(0), b >= 0 keeps the transform positive, and f <= 0 for r >= 1
is p <= 0 on y >= pi.  The sampled LP solves for exact rational b, so p and
p(0) are exact, and it proves the sign condition on [PI_LO, inf) for the
rational PI_LO just below pi: p(PI_LO) < 0 and a Descartes bisection that
finds no root of p beyond PI_LO.  Each entry of an LP row is the exact
L_k(y) at a sample, scaled by a power of two per column and rounded once
to a float: a fraction-free integer recurrence gives it as N_k / D_k.  p
itself comes from _flip, the Laguerre-Fourier map of the forced roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .certify import Certificate
from .exact import (
    PackboundError, frac, fraction_free_solve, integer_scaled, poly_deriv,
    poly_divmod, poly_eval, poly_primitive, poly_trim, rational, real_roots,
    root_points,
)
from .lattices import ball_volume
from .simplex import Infeasible, IterationLimit, solve_min

# a proven bound pi > PI_LO
PI_LO = Fraction(314159265358979, 10 ** 14)


# the largest degree accepted: the LP's rows grow about as d^2 in time and
# in the size of their integers; an outside certificate is also held to
# VERIFY_BUDGET (see LpCertificate.from_dict)
MAX_DEGREE = 200
VERIFY_BUDGET = 2_000_000


def _check_family(n: int, d: int):
    """The family is defined for dimension n >= 1 and degree d >= 1; degrees
    beyond MAX_DEGREE are refused."""
    if n < 1:
        raise PackboundError("dimension must be >= 1")
    if not 1 <= d <= MAX_DEGREE:
        raise PackboundError(f"degree must be between 1 and {MAX_DEGREE}")


# ---------------------------------------------------------------------------
# Laguerre polynomials
# ---------------------------------------------------------------------------

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


def _times_x(n: int, q) -> list:
    """_flip(n, x p) from q = _flip(n, p), with no division: r^2 f has the
    transform -Laplacian(fhat) / (4 pi^2), in x = 2 pi r^2 the map
    q -> (n - x) q + (4x - 2n) q' - 4x q''."""
    return [(n + 4 * k) * c - c_lo - 2 * (k + 1) * (n + 2 * k) * c_hi
            for k, (c, c_lo, c_hi)
            in enumerate(zip(q + [0], [0] + q, q[1:] + [0, 0]))]


def _flip(n: int, p) -> list:
    """Q = sum (-1)^k c_k L_k from P = sum c_k L_k, L_k = L_k^(n/2-1), on
    monomials: Horner's rule on _times_x, exact and its own inverse."""
    ints, den = integer_scaled(p)
    q = []
    for c in reversed(ints):
        q = _times_x(n, q)
        q[0] += c
    return [Fraction(c, den) for c in q]


def profile_polynomial(n: int, b) -> list:
    """Exact coefficients of p(y) = 1 + sum_k b_k L_k^(n/2-1)(y): p(y) =
    P(2y) for P = _flip(n, 1 + sum_k b_k x^k / (k! 2^k)), as the flip of
    x^k / (k! 2^k) is L_k(x/2) = 2^(-k) sum_j C(k + alpha, k - j) L_j(x)."""
    weights = [frac(b_k) / (math.factorial(k) * 2 ** k)
               for k, b_k in enumerate(poly_trim([1] + list(b)))]
    return [c * 2 ** i for i, c in enumerate(_flip(n, weights))]


# ---------------------------------------------------------------------------
# The radial ansatz
# ---------------------------------------------------------------------------

class RadialAnsatz:
    """f of the degree-d family in dimension n at the mpmath working
    precision: member k of f(r) is L_k^(n/2-1)(y) e^(-y) at y = pi r^2,
    with the constant member first, evaluated by the three-term recurrence.
    The profile coefficients b weight members 1..d."""

    def __init__(self, n: int, d: int):
        _check_family(n, d)
        self.d = d
        self.alpha = mp.mpf(n) / 2 - 1  # a half-integer: exact

    def f_value(self, b, r):
        rv = mp.mpf(r)
        y = mp.pi * rv * rv
        ey = mp.exp(-y)
        row = [lk * ey for lk in laguerre_all(self.d, self.alpha, y)]
        return row[0] + sum(bk * rk for bk, rk in zip(b, row[1:]))


# ---------------------------------------------------------------------------
# Sampled LP
# ---------------------------------------------------------------------------

# the default sample set: a geometric grid of SAMPLE_COUNT radii on
# [1, SAMPLE_R_MAX]
SAMPLE_R_MAX = 8.0
SAMPLE_COUNT = 96
# entries of an LP row below 2^-ROW_FLOOR_BITS of its largest are dropped
ROW_FLOOR_BITS = 50
# the rounds of sampled_lp after the first, each adding samples at the
# maxima of p where p > 0
REFINE_ROUNDS = 12


def default_samples():
    """Geometric grid of SAMPLE_COUNT radii on [1, SAMPLE_R_MAX].  No sample
    is placed by hand near the vector lengths, where the optimal profile
    nearly touches zero: the refinement of sampled_lp adds one near every
    maximum of p where p > 0."""
    return [round(SAMPLE_R_MAX ** (i / (SAMPLE_COUNT - 1)), 9)
            for i in range(SAMPLE_COUNT)]


def _dyadic_row(values):
    """Exact dyadic rationalization of a row, flushing entries below the
    row's relative floor to zero (keeps the exact LP's integers small), as
    the (ints, den) pair of exact.integer_scaled that solve_min takes.  Each
    float's denominator is a power of two, so the largest is their lcm."""
    floats = [float(v) for v in values]
    top = max(abs(v) for v in floats) if floats else 0.0
    floor = top * 2.0 ** -ROW_FLOOR_BITS
    ratios = [v.as_integer_ratio() if abs(v) >= floor else (0, 1)
              for v in floats]
    den = max((d for _, d in ratios), default=1)
    return [p * (den // d) for p, d in ratios], den


def _laguerre_ratios(n: int, d: int, y: Fraction) -> list:
    """[(N_k, D_k) for k = 1..d] with L_k^(n/2-1)(y) = N_k / D_k, for
    y = a/q: the three-term recurrence multiplied through by
    D_k = k! 2^k q^k, which leaves integers and needs no gcd,

        N_(j+1) = (q (4j + 2 + 2 alpha) - 2a) N_j
                  - 2j (2j + 2 alpha) q^2 N_(j-1),

    from N_0 = 1 and N_1 = q (2 + 2 alpha) - 2a, where 2 alpha = n - 2."""
    a, q = y.numerator, y.denominator
    two_alpha = n - 2
    prev, num, den = 1, q * (2 + two_alpha) - 2 * a, 2 * q
    out = [(num, den)]
    for j in range(1, d):
        prev, num = num, ((q * (4 * j + 2 + two_alpha) - 2 * a) * num
                          - 2 * j * (2 * j + two_alpha) * q * q * prev)
        den *= 2 * (j + 1) * q
        out.append((num, den))
    return out


def _lp_row(n: int, y: Fraction, scales) -> list:
    """The LP row at the sample y: L_k^(n/2-1)(y) * scales[k-1] for
    k = 1..len(scales), through _dyadic_row, so as integers over one
    denominator.  Each entry is one int / int true division, correctly
    rounded as Fraction.__float__ is, so the row equals the one built from
    exact Fraction values bit for bit."""
    return _dyadic_row([num * s.numerator / (den * s.denominator)
                        for (num, den), s
                        in zip(_laguerre_ratios(n, len(scales), y), scales)])


def _pow2_scale(value: Fraction) -> Fraction:
    """2^e with 2^e <= |value| < 2^(e+1) (1 for value 0), for exact column
    equilibration, from the bit lengths of value's numerator and
    denominator."""
    a, q = abs(value.numerator), value.denominator
    if a == 0:
        return Fraction(1)
    e = a.bit_length() - q.bit_length()
    if a << max(-e, 0) < q << max(e, 0):
        e -= 1
    return Fraction(2) ** e


@dataclass(frozen=True)
class LpCertificate:
    """Exact witness for a density bound: profile coefficients b (length d)
    and a rational y0 with b >= 0 (so the transform is nonnegative) and
    p < 0 on [y0, inf) for y0 <= pi (so f <= 0 for r >= 1), where
    p(y) = 1 + sum_k b_k L_k^(n/2-1)(y).  The bound is
    p(0) * vol(B_n(1/2)).  from_dict refuses a b of another length and d
    beyond MAX_DEGREE."""

    n: int
    d: int
    b: tuple          # Fractions, length d
    y0: Fraction

    def polynomial(self) -> list:
        return profile_polynomial(self.n, self.b)

    def to_dict(self) -> dict:
        return {"n": self.n, "d": self.d, "b": [str(x) for x in self.b],
                "y0": str(self.y0)}

    @classmethod
    def from_dict(cls, obj) -> "LpCertificate":
        """Inverse of to_dict: n, d positive integers, d at most
        MAX_DEGREE, b (d of them) and y0 exact rational strings, and p
        within budget: D^2 (B + D) <= VERIFY_BUDGET for D the degree and B
        the largest coefficient bit length of p's primitive integer form
        (so D <= 125).  Anything else raises PackboundError.  At the
        budget's edge, D = 30 to 125, `verify lp` took at most 2.5 s with
        two roots too close to part, which run the bisection to its node
        cap, and under 0.2 s with a double root, a random p or b, or D
        simple roots: <= 20 s at the budget."""
        try:
            n, d, b, y0 = obj["n"], obj["d"], obj["b"], obj["y0"]
            if not (all(type(v) is int and v >= 1 for v in (n, d))
                    and all(isinstance(x, str) for x in b + [y0])):
                raise TypeError("n, d must be positive integers and b, y0 "
                                "rational strings")
            # before any parsing, so a long b is refused unread
            if not len(b) == d <= MAX_DEGREE:
                raise ValueError(f"{len(b)} coefficients for degree {d} "
                                 f"(at most {MAX_DEGREE})")
            cert = cls(n, d, tuple(rational(x) for x in b), rational(y0))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise PackboundError(f"malformed certificate: {exc!r}") from exc
        p = poly_primitive(cert.polynomial())
        deg, bits = len(p) - 1, max(abs(c).bit_length() for c in p)
        if deg * deg * (bits + deg) > VERIFY_BUDGET:
            raise PackboundError(
                f"certificate beyond the verification budget: "
                f"degree {deg} with {bits}-bit coefficients, "
                f"{deg}^2 * ({bits} + {deg}) > {VERIFY_BUDGET}")
        return cert


def _float_str(x) -> str:
    """str(float(x)), or +-inf, as float rounding gives, past its range."""
    try:
        return str(float(x))
    except OverflowError:
        return "inf" if x > 0 else "-inf"


def _sign_steps(proof: Certificate, name: str, at: str, poly, lo, sign):
    """Append the steps that prove sign * poly > 0 on [lo, inf), at naming
    lo: name(at) has the sign, whose failure is definite, and real_roots
    finds no root of name in (at, inf), a failure definite only on a root
    found, not on roots too close to part within the node cap."""
    value = poly_eval(poly, lo)
    roots, unresolved, nodes = real_roots(poly, lo)
    proof.add_step(f"{name}({at}) {'<>'[sign > 0]} 0", "exact",
                   _float_str(value), sign * value > 0)
    proof.add_step(f"no root of {name} in ({at}, inf)", "exact",
                   f"{len(roots)} roots, {len(unresolved)} unresolved "
                   f"intervals ({nodes} bisection nodes)",
                   not (roots or unresolved), definite=bool(roots))


def verify_lp(cert: LpCertificate) -> Certificate:
    """Exact check of every hypothesis of the certificate's claim: b >= 0,
    y0 <= PI_LO < pi, and p < 0 on [y0, inf) by _sign_steps."""
    out = Certificate(claim=f"sign certificate n={cert.n} d={cert.d}")
    out.add_step("profile coefficients b >= 0", "exact",
                 _float_str(min(cert.b, default=0)),
                 all(x >= 0 for x in cert.b))
    out.add_step("y0 lies below pi", "exact", str(cert.y0), cert.y0 <= PI_LO)
    _sign_steps(out, "p", "y0", cert.polynomial(), cert.y0, -1)
    return out


def _positive_maxima(poly, lo):
    """Points near the maxima of p on the stretches of [lo, inf) where
    p > 0, from root searches (only the final proof counts): the roots of
    p' beyond lo where p > 0, lo if p(lo) > 0, and, if p grows without end,
    2 rho + 1, where rho is the largest root of p beyond lo (lo if there is
    none), so p > 0 there.  Unlike the Cauchy bound 1 + max |c_i / c_d|,
    this point scales with the roots, so a tiny leading coefficient does
    not carry it past the float range."""
    points = [y for y in root_points(poly_deriv(poly), lo)
              if poly_eval(poly, y) > 0]
    if poly_eval(poly, lo) > 0:
        points.append(lo)
    if poly[-1] > 0:
        points.append(2 * max(root_points(poly, lo), default=lo) + 1)
    return points


def sampled_lp(n: int, d: int):
    """Minimize p(0) = f(0) over b >= 0 with p(pi r^2) < 0 at the radii of
    default_samples(), by exact dual simplex.  After each solve, add a
    sample near every maximum of p where p > 0 on [PI_LO, inf)
    (`_positive_maxima`) and solve again; stop at the first round that adds
    no sample, or after REFINE_ROUNDS more rounds.  Each round after the
    first starts the simplex from the previous optimal basis, which the
    added rows leave dual feasible, so it takes a pivot or two, not a cold
    solve.  verify_lp then checks the final solution once.  A round adds
    nothing whenever that check would pass: p < 0 on [PI_LO, inf) leaves
    no maximum with p > 0, no positive p(PI_LO) and a negative leading
    coefficient, so the proof needs no run in the rounds before.

    The result carries `bound` only when the check passed and `estimate`
    otherwise; an LP without solution carries neither, with
    certificate_status "infeasible", nor does a solve stopped at the
    simplex's iteration limit, with certificate_status "iteration-limit".
    All of it is exact or plain float arithmetic, independent of the
    mpmath working precision.
    """
    _check_family(n, d)
    # column equilibration: L_k grows like y^k, so the variables are
    # rescaled by powers of two to keep the exact LP's entries small
    # (b_k = scales[k-1] * x_k)
    probes = [_laguerre_ratios(n, d, Fraction(math.pi * r * r))
              for r in (2, 4, 8)]
    scales = [1 / _pow2_scale(max(abs(Fraction(num, den))
                                  for num, den in column))
              for column in zip(*probes)]
    # the costs L_k(0) * scale > 0 make the all-slack start dual feasible
    cvec = [Fraction(num, den) * s for (num, den), s
            in zip(_laguerre_ratios(n, d, Fraction(0)), scales)]
    rows = {}

    def add_sample(y):
        y = Fraction(float(y))
        if y not in rows:
            rows[y] = _lp_row(n, y, scales)
            return True
        return False

    for r in default_samples():
        add_sample(math.pi * r * r)
    report = {"rounds": 0, "added": [], "iterations": 0}
    # the rows stay in arrival order, so the last optimal basis (columns S,
    # tight rows T) indexes the same rows after new ones are appended
    basis = None
    for round_no in range(REFINE_ROUNDS + 1):
        rank = {y: i for i, y in enumerate(sorted(rows), 1)}
        # distinct tiny right-hand sides, by each sample's rank, break the
        # massive degeneracy of the uniform constraint scaling:
        # -1 - rank / 2^24
        rhs = [Fraction(-2 ** 24 - rank[y], 2 ** 24) for y in rows]
        report["rounds"] = round_no + 1
        try:
            sol = solve_min(cvec, list(rows.values()), rhs, basis)
        except (Infeasible, IterationLimit) as exc:
            report.update(feasible=False, samples_used=len(rows))
            status = ("infeasible" if isinstance(exc, Infeasible)
                      else "iteration-limit")
            return {"certificate_status": status, "feasible_report": report}
        report["iterations"] += sol["iterations"]
        basis = sol["basis"]
        cert = LpCertificate(n, d, tuple(x * s for x, s in
                                         zip(sol["x"], scales)), PI_LO)
        if round_no == REFINE_ROUNDS:
            break
        added = [y for y in _positive_maxima(cert.polynomial(), PI_LO)
                 if add_sample(y)]
        if not added:
            break
        report["added"] += [math.sqrt(y / math.pi) for y in added]
    proved = verify_lp(cert).status == "verified"
    p0 = 1 + sol["objective"]
    report.update(feasible=proved, samples_used=len(rows))
    return {
        "certificate": cert,
        "certificate_status": "certified" if proved else "uncertified",
        "p0": p0,
        "bound" if proved else "estimate":
            float(p0) * ball_volume(n, Fraction(1, 4)).to_float(),
        "feasible_report": report,
    }


# ---------------------------------------------------------------------------
# Forced roots
# ---------------------------------------------------------------------------

# the largest degree forced_bound takes: n = 24, d = 59 runs in 3.7-4.4 s on
# a 2-core host, inside the 20 s that VERIFY_BUDGET allows `verify lp`
MAX_FORCED_DEGREE = 59


def forced_bound(n: int, d: int) -> dict:
    """The Cohn-Elkies bound of the degree-d function whose roots are forced
    at the vector lengths of E8 (n = 8) or Leech (n = 24), proved exactly.
    With x = 2 pi r^2 and L_k = L_k^(n/2-1), f(r) = P(x) e^(-x/2) for
    P = sum c_k L_k has the transform Q(x) e^(-x/2), Q = _flip(n, P).  For
    d = 4m + 3 and x_j = 2 pi (s + 2j) to 8 fractional bits, s the minimal
    squared norm, P = F_P R_P for F_P = (x - x_0) prod_(j>=1) (x - x_j)^2,
    and one solve of side (d + 3) / 2 fixes R_P by Q(0) = 1 and F_Q =
    F_P (x - x_0) dividing Q.  The proof: R_P < 0 on [x_0, inf), F_Q
    divides Q exactly and R_Q = Q / F_Q > 0 on [0, inf), each sign by the
    two steps of _sign_steps, and the bound P(0) / Q(0) (x_0 / 8)^(n/2) /
    (n/2)! = f(0) / fhat(0) vol(B_n(r_0 / 2)) is at least the lattice's
    density with PI_LO for pi (the truth check).  `bound` if every step
    passed, `estimate` otherwise, beside the proof.  Any other n, or a d
    not 4m + 3 in 3..MAX_FORCED_DEGREE, raises PackboundError."""
    if n not in (8, 24) or d % 4 != 3 or not 0 < d <= MAX_FORCED_DEGREE:
        raise PackboundError(f"forced roots need n = 8 or 24 and d = 4m + 3 "
                             f"<= {MAX_FORCED_DEGREE}, not {n} and {d}")
    s = 2 if n == 8 else 4
    x = [Fraction(round(2 * math.pi * (s + 2 * j) * 2 ** 8), 2 ** 8)
         for j in range((d + 1) // 4)]
    # F_P = (x - x_0) prod_(j>=1) (x - x_j)^2 and F_Q = F_P (x - x_0)
    f_q = [Fraction(1)]
    for y in x[:1] + 2 * x[1:] + x[:1]:
        f_p, f_q = f_q, [a - y * b for a, b in zip([0] + f_q, f_q + [0])]
    # column i: Q of x^i F_P, one _times_x step from column i - 1.  Row
    # k < size - 1: coefficient k of Q mod F_Q; the last row: Q(0) = 1.
    # Every row is scaled to integers, its right-hand side with it
    size = (d + 3) // 2
    flips = [_flip(n, f_p)]
    while len(flips) < size:
        flips.append(_times_x(n, flips[-1]))
    rems = [poly_divmod(q_i, f_q)[1] + [0] * size for q_i in flips]
    rows = [integer_scaled([rem[k] for rem in rems]) for k in range(size - 1)]
    rows.append(integer_scaled([q_i[0] for q_i in flips]))
    sol, det = fraction_free_solve([ints for ints, _ in rows],
                                   [[0]] * (size - 1) + [[rows[-1][1]]])
    r_p = [Fraction(v, det) for v, in sol]
    q = _flip(n, [sum(r * f_p[k - i] for i, r in enumerate(r_p)
                      if 0 <= k - i < len(f_p)) for k in range(d + 1)])
    r_q, rem = poly_divmod(q, f_q)
    proof = Certificate(claim=f"forced-root bound n={n} d={d}")
    _sign_steps(proof, "R_P", "x_0", r_p, x[0], -1)
    proof.add_step("Q has its forced roots", "exact",
                   f"quotient of degree {len(r_q) - 1}", not rem)
    _sign_steps(proof, "R_Q", "0", r_q, Fraction(0), 1)
    h = n // 2
    bound = f_p[0] * r_p[0] / q[0] * (x[0] / 8) ** h / math.factorial(h)
    density = (PI_LO * s / 4) ** h / math.factorial(h)
    proof.add_step("bound >= the density of E8 or Leech, pi as PI_LO",
                   "exact", _float_str(bound / density), bound >= density)
    key = "bound" if proof.status == "verified" else "estimate"
    return {"proof": proof, key: float(bound)}
