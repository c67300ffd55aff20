"""Verification: the certificate, a claim with the log of the steps that
check it; Poisson summation residuals with explicit tails, each side one
theta polynomial in x = exp(-rate quantum) over the shell counts; and the
composite certificate for the optimal test functions.

Every certificate step is labeled ``exact`` (rational arithmetic all the
way) or ``numerical`` (high-precision evaluation with a posteriori error
bounds).  A certificate verifies only if every step passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .exact import PackboundError, frac
from .lattices import LatticeDescription, vectors_by_norm
from .magic import FEASIBILITY_CLAIM, grid_count, spec_for


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass
class Certificate:
    """A claim and the log of the steps that check it.

    The status follows from the log alone: ``verified`` when there is at
    least one step and every step passed, ``refuted`` when some failed step
    is definite (its failure goes beyond the step's error bar), and
    ``inconclusive`` otherwise.
    """

    claim: str
    log: list = field(default_factory=list)
    _definite_failures: int = field(default=0, init=False, repr=False)

    def add_step(self, statement, method, bound, passed, detail="",
                 definite=True):
        self.log.append({
            "statement": statement,
            "method": method,
            "bound": str(bound),
            "passed": bool(passed),
            "detail": detail,
        })
        if not passed and definite:
            self._definite_failures += 1

    @property
    def status(self) -> str:
        if self._definite_failures:
            return "refuted"
        if self.log and all(step["passed"] for step in self.log):
            return "verified"
        return "inconclusive"

    def to_json(self) -> str:
        return json.dumps({"claim": self.claim, "status": self.status,
                           "log": self.log}, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# Poisson summation residual
# ---------------------------------------------------------------------------

# digits of the Poisson sums
_POISSON_DPS = 40


# zeta(3) and zeta(11) from above: 16 terms and the integral of x^-s beyond
_ZETA3, _ZETA11 = (sum(Fraction(1, k ** s) for k in range(1, 17))
                   + Fraction(1, (s - 1) * 16 ** (s - 1)) for s in (3, 11))
_E12 = Fraction(65520, 691)  # E12 = 1 + _E12 sum sigma_11(k) q^k


def _shell_count_bound(lat: LatticeDescription, table):
    """Proven envelope n(k quantum) <= C k^p, with integer p, for k >= 1.

    Z^n (identity Gram matrix) has the crude ball bound 3^n k^ceil(n/2).
    An even unimodular lattice has quantum 2 and theta series E4 in
    dimension 8, so n(2k) = 240 sigma_3(k) <= 240 zeta(3) k^3, and
    E12 + (N2 - _E12) Delta in dimension 24, N2 = n(2), with
    sigma_11(k) <= zeta(11) k^11 and |tau(k)| <= d(k) k^(11/2) <= 2 k^6
    (Deligne).  Any other lattice raises PackboundError.
    """
    n = lat.dimension
    if all(lat.gram[i][j] == (i == j) for i in range(n) for j in range(n)):
        return Fraction(3) ** n, (n + 1) // 2
    if lat.unimodular and lat.quantum % 2 == 0 and n in (8, 24):
        return ((240 * _ZETA3, 3) if n == 8 else
                (_E12 * _ZETA11 + 2 * abs(table.counts[1][1] - _E12), 11))
    raise PackboundError(
        f"no proven shell-count bound for {lat.name or 'this lattice'}: only "
        f"Z^n and even unimodular lattices of dimension 8 and 24 have one")


def _poisson_side(table, quantum, c, p, rate):
    """(head, tail) of sum_v n(v) exp(-rate v) over the lattice, split at
    the table's cutoff K quantum.  The table has a row n(k quantum) for
    every k <= K, so the head is a polynomial in x = exp(-rate quantum),
    summed by Horner's rule.  The tail bounds the shells beyond K through
    the envelope n(k quantum) <= C k^p and k^p <= K^p e^(p (k - K) / K)
    for k >= K, a geometric series:

        C K^p x^(K+1) e^(p/K) / (1 - x e^(p/K)),

    infinite when x e^(p/K) >= 1."""
    x = mp.exp(-rate * mp.mpf(quantum.numerator) / quantum.denominator)
    head = mp.mpf(0)
    for _, cnt in reversed(table.counts):
        head = head * x + cnt
    top = len(table.counts) - 1
    growth = mp.exp(mp.mpf(p) / top)
    if x * growth >= 1:
        return head, mp.inf
    cf = mp.mpf(c.numerator) / c.denominator
    return head, (cf * top ** p * x ** (top + 1) * growth
                  / (1 - x * growth))


def poisson_check(lat: LatticeDescription, sigma, cutoff: int) -> dict:
    """Residual of Poisson summation for the Gaussian exp(-pi |x|^2/sigma^2)
    on a unimodular lattice, which is its own dual with covolume 1.

    ``cutoff`` counts in theta-series index r (squared length 2r); both the
    lattice sum and the dual sum are truncated there, and explicit Gaussian
    tail bounds are folded into the reported residual.  Both sides read one
    count table, each as its theta polynomial (`_poisson_side`).
    """
    try:
        sigma = frac(sigma)
    except (ValueError, ZeroDivisionError) as exc:
        raise PackboundError(f"sigma is not a rational number: {exc}") from exc
    if sigma <= 0 or cutoff < 1:
        raise PackboundError("sigma must be positive and cutoff at least 1")
    if not lat.unimodular:
        raise PackboundError(
            f"the Poisson check needs a unimodular lattice; "
            f"{lat.name or 'this one'} has Gram determinant {lat.gram_det}")
    with mp.workdps(_POISSON_DPS + 10):
        table = vectors_by_norm(lat, Fraction(2 * cutoff))
        c, p = _shell_count_bound(lat, table)
        s = mp.mpf(sigma.numerator) / sigma.denominator
        sig_n = s ** lat.dimension
        s_lat, tail_lat = _poisson_side(table, lat.quantum, c, p,
                                        mp.pi / s ** 2)
        s_dual, tail_dual = (sig_n * v for v in _poisson_side(
            table, lat.quantum, c, p, mp.pi * s ** 2))
        difference = abs(s_lat - s_dual)
        return {
            "residual": difference + tail_lat + tail_dual,
            "difference": difference,
            "tail_lattice": tail_lat,
            "tail_dual": tail_dual,
            "cutoff": cutoff,
            "sigma": str(sigma),
        }


# ---------------------------------------------------------------------------
# Composite certificate for the optimal test functions
# ---------------------------------------------------------------------------

_GRID_STEP = 0.02
_FAR_MARGIN = 10.0

_TAYLOR_TARGETS = {
    (8, "f"): Fraction(-27, 10), (8, "f_hat"): Fraction(-3, 2),
    (24, "f"): Fraction(-14347, 5460), (24, "f_hat"): Fraction(-205, 156),
}
_GRID_END = {8: 8.0, 24: 10.0}


def certify_magic(n: int, spec=None) -> Certificate:
    """Composite check: normalization, sign conditions with a far argument,
    forced roots with parities, and the quadratic coefficients.

    Every step at an even squared radius (normalization, the roots at the
    first four vector lengths, the transversal slope at r1, the double roots
    and the Taylor coefficients) compares the exact value and slope of
    `MagicFunctionSpec.jet` with its rational target, so it is ``exact``.

    Both sign conditions read one sweep of certified pairs (P, M), since
    f = A*P + B*M and fhat = A*P - B*M: fhat >= 0 at every grid point on
    [0, rmax] and f <= 0 at the grid points in [r1, rmax] (f(r1) = 0 is an
    exact step).
    A grid step compares a certified value against its threshold widened by
    the value's error, so its failure refutes; the far-decay margin refutes
    only when a sign fails beyond that error."""
    spec = spec_for(n, spec)
    cert = Certificate(claim=FEASIBILITY_CLAIM.format(n))

    def exact_step(statement, value, target, detail):
        cert.add_step(statement, "exact", value, value == target, detail)

    with mp.workdps(spec.dps + 10):
        r1 = mp.sqrt(spec.r1_sq)

        # (i) normalization at the origin
        for side in ("f", "f_hat"):
            exact_step(f"{side}(0) = 1", spec.jet(side, 0)[0], 1, "value")

        # (ii) sign conditions on one grid k*step <= rmax: fhat at every
        # point, f at the points beyond r1
        step = mp.mpf(_GRID_STEP)
        rmax = _GRID_END[n]
        values = [spec.combine(p, m)
                  for p, m in spec.sweep(0, step, grid_count(rmax, step))]
        worst_f = max(f.value - f.error for k, (f, _) in enumerate(values)
                      if k * step >= r1)
        cert.add_step(f"f <= 0 on [r1, {rmax}]", "numerical grid",
                      f"max lower bound {float(worst_f):.3e}",
                      worst_f <= 0)
        worst_h = min(h.value + h.error for _, h in values)
        cert.add_step(f"fhat >= 0 on [0, {rmax}]", "numerical grid",
                      f"min upper bound {float(worst_h):.3e}",
                      worst_h >= 0)

        # far tail: decaying kernel dominates all error terms by a margin;
        # sample just past the grid (the value decays toward the certified
        # error floor), away from even squared radii where both vanish
        far_ok = True
        far_wrong = False  # a sign certainly wrong
        margin = mp.inf
        for rr in (rmax + 0.21, rmax + 0.46, rmax + 0.71):
            vf, vh = spec.combine(*spec.pair(rr))
            if vf.value >= 0 or vh.value <= 0:
                far_ok = False
            if vf.value - vf.error >= 0 or vh.value + vh.error <= 0:
                far_wrong = True
            margin = min(margin,
                         abs(vf.value) / max(vf.error, mp.mpf("1e-300")),
                         abs(vh.value) / max(vh.error, mp.mpf("1e-300")))
        cert.add_step(
            f"far decay beyond {rmax}: signs with margin >= {_FAR_MARGIN}",
            "numerical", f"margin {float(margin):.1e}",
            far_ok and margin >= _FAR_MARGIN, definite=far_wrong)

        # (iii) roots and parities at the first four vector lengths; a
        # slope is d/d(r^2), which has the sign of d/dr at r > 0
        squares = [spec.r1_sq + 2 * j for j in range(4)]
        names = [mp.nstr(mp.sqrt(r_sq), 6) for r_sq in squares]
        for r_sq, name in zip(squares, names):
            for side in ("f", "f_hat"):
                exact_step(f"{side}({name}) = 0", spec.jet(side, r_sq)[0], 0,
                           "value")
        slope = spec.jet("f", spec.r1_sq)[1]
        cert.add_step("f has a transversal sign change at r1", "exact", slope,
                      slope != 0, "d/d(r^2)")
        for r_sq, name in zip(squares[1:3], names[1:3]):
            exact_step(f"double root of f at {name}", spec.jet("f", r_sq)[1],
                       0, "d/d(r^2)")
        exact_step("double root of fhat at r1",
                   spec.jet("f_hat", spec.r1_sq)[1], 0, "d/d(r^2)")

        # (iv) quadratic Taylor coefficients: d/d(r^2) at the origin
        for side in ("f", "f_hat"):
            target = _TAYLOR_TARGETS[(n, side)]
            exact_step(f"quadratic coefficient of {side} is {target}",
                       spec.jet(side, 0)[1], target, "d/d(r^2) at 0")
    return cert
