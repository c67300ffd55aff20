"""Exact truncated Laurent series in the nome and the named modular forms.

Series live on the exponent grid q^(1/8) (q = e^(2 pi i z)): a term with grid
exponent E is the monomial q^(E/8).  Coefficients are integers: every
series built here is integral (E2, E4 and E6 carry -24, 240 and -504, the
thetas +-2, and the discriminant form has leading coefficient 1, so dividing
by it stays integral).  A rational coefficient, a scaling that leaves a
fraction and the inverse of a series whose leading coefficient is not +-1
raise QSeriesError.  Products use Kronecker substitution (`_kronecker`).  A
series carries a truncation bound ``trunc``: coefficients are known exactly
for all grid exponents < trunc, and arithmetic propagates the correct
validity window (division by a series with leading exponent o costs 2o grid
units of validity).

The grid is the coarsest one housing both theta constants
(Theta01 has exponents 4n^2, Theta10 has (2n+1)^2) together with the
integer-exponent Eisenstein series and the discriminant form.

Each series whose tail on the imaginary axis z = it is summed carries a
coefficient envelope |c_E| <= C * exp(a * sqrt(E)) (eta-quotient
coefficients grow subexponentially, so a polynomial envelope would undershoot
the true tail).  E2, E4, E6 and the thetas have explicit ones; the kernel
series are fitted once, with margin, on their computed coefficients, so the
envelope holds there by construction.  Beyond trunc it is not proven; the
tests compare it with the coefficients up to 3 trunc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .exact import frac

GRID = 8  # grid exponents count eighths of a power of q
DEFAULT_TRUNC = 300


class QSeriesError(ValueError):
    pass


class Envelope:
    """Coefficient envelope |c_E| <= C * exp(a * sqrt(E)) for E >= 1."""

    def __init__(self, c: Fraction, a: Fraction):
        self.c = frac(c)
        self.a = frac(a)
        self._tail = {}  # (N, precision) -> the two factors of tail_bound

    def tail_bound(self, n_start: int, x):
        """Bound on sum_{E >= n_start} |c_E| x^E for 0 < x < 1.

        Uses sqrt(E) <= sqrt(N) + (E - N) / (2 sqrt(N)), so the tail is
        dominated by a geometric series with ratio x * exp(a / (2 sqrt(N))).
        """
        n = max(n_start, 1)
        key = (n, mp.mp.prec)
        if key not in self._tail:
            a = mp.mpf(self.a.numerator) / self.a.denominator
            c = mp.mpf(self.c.numerator) / self.c.denominator
            self._tail[key] = (c * mp.exp(a * mp.sqrt(n)),
                               mp.exp(a / (2 * mp.sqrt(n))))
        growth, rate = self._tail[key]
        ratio = x * rate
        if ratio >= 1:
            return mp.inf
        return growth * x ** n / (1 - ratio)


def _integer(c) -> int:
    """An integer coefficient; a Fraction must have denominator 1."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    raise QSeriesError(f"coefficient {c!r} is not an integer")


class QSeries:
    __slots__ = ("coeffs", "trunc", "envelope")

    def __init__(self, coeffs, trunc, envelope=None):
        cc = {}
        for e, c in coeffs.items():
            c = _integer(c)
            if c != 0 and e < trunc:
                cc[int(e)] = c
        self.coeffs = cc
        self.trunc = int(trunc)
        self.envelope = envelope

    # -- structure ---------------------------------------------------------

    @property
    def min_exp(self) -> int:
        return min(self.coeffs) if self.coeffs else self.trunc

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, e: int) -> int:
        if e >= self.trunc:
            raise QSeriesError(f"grid exponent {e} beyond validity {self.trunc}")
        return self.coeffs.get(e, 0)

    def q_coeff(self, p) -> int:
        """Coefficient of q^p (p rational with denominator dividing 8)."""
        e = frac(p) * GRID
        if e.denominator != 1:
            raise QSeriesError("exponent not on the 1/8 grid")
        return self.coeff(int(e))

    def items(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        return (isinstance(other, QSeries) and self.coeffs == other.coeffs
                and self.trunc == other.trunc)

    def __repr__(self):
        head = ", ".join(f"q^({e}/8):{c}" for e, c in self.items()[:6])
        return f"QSeries({head}{'...' if len(self.coeffs) > 6 else ''}; trunc={self.trunc})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.trunc)
        t = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return QSeries(out, t)

    __radd__ = __add__

    def __neg__(self):
        return QSeries({e: -c for e, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        return self + (-_coerce(other, self.trunc))

    def __rsub__(self, other):
        return _coerce(other, self.trunc) - self

    def __mul__(self, other):
        """Product by Kronecker substitution: both operands are packed on
        their common exponent subgrid into one integer each, multiplied
        once and unpacked (see `_kronecker`)."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self, other
        t = min(a.trunc + b.min_exp, b.trunc + a.min_exp)
        if a.is_zero() or b.is_zero():
            return QSeries({}, t)
        a0, b0 = a.min_exp, b.min_exp
        step = math.gcd(*(e - a0 for e in a.coeffs),
                        *(e - b0 for e in b.coeffs)) or 1
        # only exponents below t contribute to the kept window
        prod = _kronecker(a.dense(a0, t - b0, step),
                          b.dense(b0, t - a0, step), -((a0 + b0 - t) // step))
        return QSeries({a0 + b0 + step * k: c for k, c in enumerate(prod)}, t)

    __rmul__ = __mul__

    def dense(self, start, stop, step):
        """Coefficients at start, start + step, ... below stop; every
        exponent of the series below stop must lie on that grid."""
        out = [0] * -((start - stop) // step)
        for e, c in self.coeffs.items():
            if e < stop:
                out[(e - start) // step] = c
        return out

    def scale(self, s):
        """Multiply by a rational s; the result must stay integral."""
        s = frac(s)
        num, den = s.numerator, s.denominator
        out = {}
        for e, c in self.coeffs.items():
            v, rem = divmod(c * num, den)
            if rem:
                raise QSeriesError(f"scaling by {s} leaves a fraction at "
                                   f"grid exponent {e}")
            out[e] = v
        return QSeries(out, self.trunc)

    def shift(self, de: int):
        """Multiply by q^(de/8)."""
        return QSeries({e + de: c for e, c in self.coeffs.items()},
                       self.trunc + de)

    def inverse(self):
        """1 / self for a leading coefficient of +-1, by the power-series
        recurrence on the exponent subgrid of self."""
        if self.is_zero():
            raise QSeriesError("division by zero series")
        o = self.min_exp
        c0 = self.coeffs[o]
        if c0 not in (1, -1):
            raise QSeriesError(
                f"inverse needs a leading coefficient of +-1, not {c0}")
        window = self.trunc - o
        step = math.gcd(*(e - o for e in self.coeffs)) or 1
        u = self.dense(o, self.trunc, step)
        nonzero = [j for j in range(1, len(u)) if u[j]]
        v = [0] * len(u)
        v[0] = c0
        for k in range(1, len(u)):
            s = 0
            for j in nonzero:
                if j > k:
                    break
                s += u[j] * v[k - j]
            v[k] = -s * c0
        return QSeries({step * k - o: c for k, c in enumerate(v)}, window - o)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(1 / frac(other))
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        # binary powering; validity handled by the multiplications
        out = None
        b = self
        kk = k
        while kk:
            if kk & 1:
                out = b if out is None else out * b
            kk >>= 1
            if kk:
                b = b * b
        if out is None:
            return QSeries({0: 1}, self.trunc - self.min_exp
                           if not self.is_zero() else self.trunc)
        return out

    def dump_csv(self) -> str:
        lines = ["exponent_in_eighths,numerator,denominator"]
        for e, c in self.items():
            lines.append(f"{e},{c.numerator},{c.denominator}")
        return "\n".join(lines) + "\n"


def _kronecker(xs, ys, count):
    """The first `count` coefficients of the product of the integer
    polynomials xs and ys (coefficient lists), by one big-integer product.

    Every product coefficient is a sum of at most min(len) terms, so its
    absolute value is below 2^(bits of max|x| + bits of max|y| + bits of
    min(len)) <= 2^(8 width - 1).  Each list is packed into width-byte slots
    (positive and negative parts separately, so each packing is one
    `from_bytes`); after the product, adding 2^(8 width - 1) to each of the
    low `count` slots makes every slot nonnegative and below 2^(8 width), so
    the slots read off without carries.
    """
    count = min(count, len(xs) + len(ys) - 1)
    width = (max(map(abs, xs)).bit_length() + max(map(abs, ys)).bit_length()
             + min(len(xs), len(ys)).bit_length() + 8) // 8
    prod = _pack(xs, width) * _pack(ys, width)
    half = 1 << (8 * width - 1)
    size = width * count
    bias = int.from_bytes(half.to_bytes(width, "little") * count, "little")
    raw = ((prod + bias) & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, size, width)]


def _pack(cs, width):
    """sum c_k 2^(8 width k) for integers |c_k| < 2^(8 width)."""
    zero = bytes(width)
    pos = b"".join(c.to_bytes(width, "little") if c > 0 else zero for c in cs)
    neg = b"".join((-c).to_bytes(width, "little") if c < 0 else zero
                   for c in cs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _coerce(x, trunc):
    if isinstance(x, QSeries):
        return x
    return QSeries({0: x}, trunc)


def one(trunc=DEFAULT_TRUNC):
    return QSeries({0: 1}, trunc)


def q_power(p, trunc=DEFAULT_TRUNC):
    e = frac(p) * GRID
    if e.denominator != 1:
        raise QSeriesError("exponent not on the 1/8 grid")
    return QSeries({int(e): 1}, trunc)


# ---------------------------------------------------------------------------
# Eisenstein series
# ---------------------------------------------------------------------------

# 2 / zeta(1 - k) = -2k / B_k for the three Eisenstein series in use
_EISENSTEIN_FACTOR = {2: -24, 4: 240, 6: -504}


@lru_cache(maxsize=None)
def _divisor_sums(power: int, count: int):
    sums = [0] * (count + 1)
    for d in range(1, count + 1):
        dp = d ** power
        for n in range(d, count + 1, d):
            sums[n] += dp
    return tuple(sums)


@lru_cache(maxsize=None)
def eisenstein(k: int, trunc: int = DEFAULT_TRUNC) -> QSeries:
    """E_k = 1 + (2 / zeta(1-k)) sum sigma_{k-1}(n) q^n for k = 2, 4, 6.

    k = 2 is the quasi-modular series 1 - 24 sum sigma_1(n) q^n; k = 4 and
    6 are modular.
    """
    if k not in _EISENSTEIN_FACTOR:
        raise QSeriesError(f"Eisenstein index must be 2, 4 or 6, not {k}")
    factor = _EISENSTEIN_FACTOR[k]
    nmax = (trunc - 1) // GRID
    sums = _divisor_sums(k - 1, nmax)
    coeffs = {0: 1}
    for n in range(1, nmax + 1):
        coeffs[GRID * n] = factor * sums[n]
    env = Envelope(Fraction(2 * abs(factor)), Fraction(k, 4))
    return QSeries(coeffs, trunc, env)


@lru_cache(maxsize=None)
def delta(trunc: int = DEFAULT_TRUNC) -> QSeries:
    """The discriminant form (E4^3 - E6^2) / 1728 = q - 24 q^2 + ..."""
    e4 = eisenstein(4, trunc)
    e6 = eisenstein(6, trunc)
    return (e4 ** 3 - e6 ** 2) / 1728


@lru_cache(maxsize=None)
def theta01(trunc: int = DEFAULT_TRUNC) -> QSeries:
    """Theta01 = sum_n (-1)^n q^(n^2/2): alternating-sign theta constant."""
    coeffs = {0: 1}
    n = 1
    while 4 * n * n < trunc:
        coeffs[4 * n * n] = 2 if n % 2 == 0 else -2
        n += 1
    return QSeries(coeffs, trunc, Envelope(Fraction(2), Fraction(1, 2)))


@lru_cache(maxsize=None)
def theta10(trunc: int = DEFAULT_TRUNC) -> QSeries:
    """Theta10 = sum_n q^((n+1/2)^2/2): exponents (2n+1)^2 on the grid."""
    coeffs = {}
    n = 0
    while (2 * n + 1) ** 2 < trunc:
        coeffs[(2 * n + 1) ** 2] = 2
        n += 1
    return QSeries(coeffs, trunc, Envelope(Fraction(2), Fraction(1, 2)))


@lru_cache(maxsize=None)
def leech_theta(trunc: int = DEFAULT_TRUNC) -> QSeries:
    """E4^3 - 720 * Delta."""
    return eisenstein(4, trunc) ** 3 - delta(trunc) * 720


def named_form(name: str, trunc: int = DEFAULT_TRUNC) -> QSeries:
    table = {
        "delta": lambda: delta(trunc),
        "theta01": lambda: theta01(trunc),
        "theta10": lambda: theta10(trunc),
        "leech_theta": lambda: leech_theta(trunc),
        "e2": lambda: eisenstein(2, trunc),
        "e4": lambda: eisenstein(4, trunc),
        "e6": lambda: eisenstein(6, trunc),
        "psi8_plus": lambda: psi_forms(8, trunc)["psi_plus"],
        "psi8_minus": lambda: psi_forms(8, trunc)["psi_minus"],
        "psi24_plus": lambda: psi_forms(24, trunc)["psi_plus"],
        "psi24_minus": lambda: psi_forms(24, trunc)["psi_minus"],
    }
    key = name.lower()
    if key not in table:
        raise QSeriesError(f"unknown form {name!r}")
    return table[key]()


def _fit_envelope(series: QSeries, a: Fraction) -> QSeries:
    """The series with the envelope |c_E| <= C exp(a sqrt(E)), where C is
    3/2 times the largest |c_E| e^(-a sqrt(E)) over its coefficients with
    E >= 1.  The bound holds on each of them by construction: the maximum
    is taken at 30 digits and rounded to a float, an error near 2^-53
    relative, far inside the margin 3/2."""
    a = frac(a)
    best = mp.mpf(0)
    with mp.workdps(30):
        for e, c in series.coeffs.items():
            if e < 1:
                continue
            v = (abs(mp.mpf(c))
                 * mp.exp(-mp.mpf(a.numerator) / a.denominator * mp.sqrt(e)))
            best = max(best, v)
    c = Fraction(3, 2) * Fraction(float(best)) if best else Fraction(1)
    return QSeries(series.coeffs, series.trunc, Envelope(c, a))


# ---------------------------------------------------------------------------
# The eigenfunction kernels
# ---------------------------------------------------------------------------

def _psi_envelope_scale(n: int) -> Fraction:
    # eta-quotient growth: 1/Delta^k coefficients grow ~ exp(sqrt(2k) pi sqrt(E/8))
    return Fraction(6) if n == 8 else Fraction(8)


@lru_cache(maxsize=None)
def psi_forms(n: int, trunc: int = DEFAULT_TRUNC) -> dict:
    """The plus/minus integral kernels for dimension n in {8, 24}.

    psi_plus is quasi-modular (it involves E2); psi_minus is modular for the
    theta group.  Both are Laurent series with finitely many negative
    exponents coming from the 1/Delta^k factor.
    """
    if n not in (8, 24):
        raise QSeriesError("dimension must be 8 or 24")
    e2, e4, e6 = (eisenstein(k, trunc) for k in (2, 4, 6))
    dlt = delta(trunc)
    a = _psi_envelope_scale(n)
    if n == 8:
        plus = (e2 * e4 - e6) ** 2 / dlt
    else:
        num_plus = (e4 ** 4 * 25 - e6 ** 2 * e4 * 49 + e6 * e4 ** 2 * e2 * 48
                    + e6 ** 2 * e2 ** 2 * 25 - e4 ** 3 * e2 ** 2 * 49)
        plus = num_plus / dlt ** 2
    return {
        "psi_plus": _fit_envelope(plus, a),
        "psi_minus": _minus_kernel(n, theta01(trunc), theta10(trunc)),
    }


def _minus_kernel(n: int, ta: QSeries, tb: QSeries) -> QSeries:
    """psi_minus for n in {8, 24} in ta = Theta01 and tb = Theta10, with its
    envelope; swapping the two thetas gives the S-transform partner."""
    dlt = delta(ta.trunc)
    if n == 8:
        s = ((ta ** 12) * (tb ** 8) * 5
             + (ta ** 16) * (tb ** 4) * 5
             + (ta ** 20) * 2) / dlt
    elif n == 24:
        s = ((ta ** 20) * (tb ** 8) * 7
             + (ta ** 24) * (tb ** 4) * 7
             + (ta ** 28) * 2) / dlt ** 2
    else:
        raise QSeriesError("dimension must be 8 or 24")
    return _fit_envelope(s, _psi_envelope_scale(n))


@lru_cache(maxsize=None)
def conjugate_psi_minus(n: int, trunc: int = DEFAULT_TRUNC) -> QSeries:
    """psi_minus with the theta constants swapped (its S-transform partner)."""
    return _minus_kernel(n, theta10(trunc), theta01(trunc))


@dataclass(frozen=True)
class IntegrandTerm:
    """The real term rat * pi^pi_pow * t^m * series(it) on z = it, t > 0."""

    series: QSeries
    m: int
    rat: Fraction
    pi_pow: int = 0


@lru_cache(maxsize=None)
def s_transform_terms(n: int, trunc: int = DEFAULT_TRUNC) -> dict:
    """The transformed kernels on the imaginary axis as finite sums of
    `IntegrandTerm`s: "psi_plus" sums to t^(n/2-2) psi_plus(i/t) and
    "psi_minus" to psi_minus(i/t), for t > 0.

    They follow from the laws on the axis
    E2(i/t) = -t^2 E2(it) + 6t/pi, E4(i/t) = t^4 E4(it),
    E6(i/t) = -t^6 E6(it), Delta(i/t) = t^12 Delta(it) and
    Theta01(i/t) = sqrt(t) Theta10(it), and the same with Theta01 and
    Theta10 swapped.
    """
    if n not in (8, 24):
        raise QSeriesError("dimension must be 8 or 24")
    e2, e4, e6 = (eisenstein(k, trunc) for k in (2, 4, 6))
    dlt = delta(trunc)
    psi = psi_forms(n, trunc)
    a = _psi_envelope_scale(n)
    if n == 8:
        g1 = e4 * (e2 * e4 - e6) / dlt
        g2 = e4 ** 2 / dlt
        k1 = -12
    else:
        g1 = (e6 * e4 ** 2 * 48 + e6 ** 2 * e2 * 50 - e4 ** 3 * e2 * 98) / dlt ** 2
        g2 = (e6 ** 2 * 25 - e4 ** 3 * 49) / dlt ** 2
        k1 = -6
    # the 6t/pi of the E2 law gives g1 (once) and g2 (squared)
    plus_terms = (
        IntegrandTerm(psi["psi_plus"], 2, Fraction(1)),
        IntegrandTerm(_fit_envelope(g1, a), 1, Fraction(k1), -1),
        IntegrandTerm(_fit_envelope(g2, a), 0, Fraction(36), -2),
    )
    minus_terms = (
        IntegrandTerm(conjugate_psi_minus(n, trunc), 2 - n // 2, Fraction(1)),
    )
    return {"psi_plus": plus_terms, "psi_minus": minus_terms}


# ---------------------------------------------------------------------------
# Certified values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedValue:
    value: object  # mpf
    error: object  # mpf, bound on |true - value|

    def __float__(self):
        return float(self.value)
