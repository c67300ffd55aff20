"""Independent oracles the tests compare the package against: direct
evaluation of a q-series and of an S-transform decomposition on the
imaginary axis, the real-normalized eigenfunctions of a spec, and the radial
Fourier transform by Bessel-kernel quadrature."""

from fractions import Fraction

import mpmath as mp

from packbound.exact import PackboundError, frac
from packbound.magic import legendre_nodes
from packbound.qseries import CertifiedValue, QSeries

DEFAULT_T_MIN = Fraction(1, 2)


def evaluate_at_it(series: QSeries, t, dps: int = 30,
                   t_min=DEFAULT_T_MIN) -> CertifiedValue:
    """Evaluate the series at z = it (t > 0 real): sum c_E exp(-pi t E / 4).

    The reported error covers the truncation tail (from the series envelope)
    plus a crude working-precision guard.  Fails if t is below the validity
    floor or if the envelope cannot close the tail.
    """
    if frac(t) < frac(t_min):
        raise PackboundError(f"t={t} below validity floor {t_min}")
    with mp.workdps(dps + 10):
        tv = mp.mpf(t.numerator) / t.denominator if isinstance(t, Fraction) \
            else mp.mpf(t)
        x = mp.exp(-mp.pi * tv / 4)
        total = mp.mpf(0)
        abs_total = mp.mpf(0)
        for e, c in series.items():
            term = mp.mpf(c.numerator) / c.denominator * x ** e
            total += term
            abs_total += abs(term)
        if series.envelope is not None:
            tail = series.envelope.tail_bound(series.trunc, x)
        else:
            tail = mp.inf
        if not mp.isfinite(tail):
            raise PackboundError("tail bound does not close at this t")
        guard = (abs_total + 1) * mp.mpf(10) ** (-dps - 5)
        return CertifiedValue(+total, +(tail + guard))


def evaluate_terms_at_it(terms, t, dps: int = 30):
    """Evaluate the real sum of const * t^m * series(it) over the terms
    (m, const, series) of `s_transform_terms`, with an error bound."""
    with mp.workdps(dps + 10):
        tv = mp.mpf(t.numerator) / t.denominator if isinstance(t, Fraction) \
            else mp.mpf(t)
        total = mp.mpf(0)
        err = mp.mpf(0)
        for m, const, series in terms:
            ev = evaluate_at_it(series, t, dps=dps)
            coeff = const.mpf() * tv ** m
            total += coeff * ev.value
            err += abs(coeff) * ev.error
        return total, err


def eigenfunction(spec, sign, r) -> CertifiedValue:
    """Real-normalized eigenfunctions of a spec: -4 W(r) I_sign(r)."""
    p, m = spec.pair(r)
    base = p if sign == "+" else m
    return CertifiedValue(-4 * base.value, 4 * base.error)


def radial_fourier_oracle(n, sampler, u, dps=30, rmax=None, order=14):
    """n-dimensional radial Fourier transform of a rapidly decaying radial
    sampler, by direct Bessel-kernel quadrature.  Convention:
    fhat(y) = int f(x) e^(-2 pi i x.y) dx.
    """
    with mp.workdps(dps + 10):
        uv = mp.mpf(u)
        if rmax is None:
            rmax = mp.sqrt((dps + 10) * mp.log(10) / mp.pi) + 1
        # panel width resolves the Bessel oscillation
        width = mp.mpf(1) / (4 * (uv + 1))
        xs, ws = legendre_nodes(order, dps)
        nu = mp.mpf(n) / 2 - 1

        def transform_integrand(r):
            fr = sampler(r)
            if uv == 0:
                return fr * r ** (n - 1)
            return fr * mp.besselj(nu, 2 * mp.pi * r * uv) \
                * r ** (mp.mpf(n) / 2)

        total = mp.mpf(0)
        a = mp.mpf(0)
        while a < rmax:
            b = min(a + width, rmax)
            half = (b - a) / 2
            mid = (b + a) / 2
            for x, w in zip(xs, ws):
                total += w * half * transform_integrand(mid + half * x)
            a = b
        if uv == 0:
            surface = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
            return surface * total
        return 2 * mp.pi * uv ** (-(mp.mpf(n) / 2 - 1)) * total
