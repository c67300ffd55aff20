"""Direct evaluation of an S-transform decomposition on the imaginary axis:
the oracle the transformation-law tests compare `psi_forms` against."""

from fractions import Fraction

import mpmath as mp

from packbound.qseries import evaluate_at_it


def term_coefficient(term):
    """rat * pi^pi_pow * i^i_pow of an `IntegrandTerm`, as an mpc."""
    c = mp.mpc(term.rat.numerator) / term.rat.denominator
    c *= mp.pi ** term.pi_pow
    c *= mp.mpc(0, 1) ** (term.i_pow % 4)
    return c


def evaluate_terms_at_it(terms, t, dps: int = 30):
    """Evaluate sum coeff * (it)^m * series(it) as a complex number."""
    with mp.workdps(dps + 10):
        z = mp.mpc(0, 1) * (mp.mpf(t.numerator) / t.denominator
                            if isinstance(t, Fraction) else mp.mpf(t))
        total = mp.mpc(0)
        err = mp.mpf(0)
        for term in terms:
            ev = evaluate_at_it(term.series, t, dps=dps)
            total += term_coefficient(term) * z ** term.z_power * ev.value
            err += abs(term_coefficient(term) * z ** term.z_power) * ev.error
        return total, err
