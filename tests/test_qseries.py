import hashlib
from fractions import Fraction

import mpmath as mp
import pytest

from packbound.qseries import (
    GRID, QSeries, QSeriesError, conjugate_psi_minus,
    delta, eisenstein, leech_theta,
    named_form, one, psi_forms, q_power, s_transform_terms, theta01, theta10,
)
from series_terms import evaluate_at_it, evaluate_terms_at_it

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


# -- arithmetic -------------------------------------------------------------

def test_mul_basic():
    a = one(100) + q_power(1, 100)
    b = one(100) - q_power(1, 100)
    prod = a * b
    assert prod.q_coeff(0) == 1
    assert prod.q_coeff(1) == 0
    assert prod.q_coeff(2) == -1


def test_laurent_inverse_roundtrip():
    d = delta(200)
    prod = d * d.inverse()
    assert prod.q_coeff(0) == 1
    for e in range(1, prod.trunc):
        assert prod.coeffs.get(e, 0) == 0


def test_division_validity_shrinks():
    d = delta(200)
    inv = d.inverse()
    assert inv.min_exp == -GRID
    assert inv.trunc == 200 - 2 * GRID


def test_zero_division_raises():
    with pytest.raises(QSeriesError):
        QSeries({}, 50).inverse()


# -- Eisenstein -------------------------------------------------------------

def test_normalization_constant_240():
    # 2 / zeta(1 - k) is pinned: -24, 240, -504 for k = 2, 4, 6; no other k
    # is built
    assert [eisenstein(k).q_coeff(1) for k in (2, 4, 6)] == [-24, 240, -504]
    for k in (0, 8, 12):
        with pytest.raises(QSeriesError):
            eisenstein(k)


def test_e4_coefficients():
    e4 = eisenstein(4)
    assert [e4.q_coeff(n) for n in range(4)] == [1, 240, 2160, 6720]


def test_e2_coefficient():
    assert eisenstein(2).q_coeff(1) == -24


def test_e6_coefficient():
    assert eisenstein(6).q_coeff(1) == -504


def test_eisenstein_rejects_odd():
    with pytest.raises(QSeriesError):
        eisenstein(3)


# -- named forms --------------------------------------------------------------

def test_delta_expansion():
    d = delta()
    assert [d.q_coeff(n) for n in range(1, 7)] == [1, -24, 252, -1472, 4830, -6048]


def test_delta_against_eta_product():
    # independent oracle: Delta = q * prod_{n>=1} (1 - q^n)^24
    trunc = 200
    prod = one(trunc)
    n = 1
    while GRID * n < trunc:
        prod = prod * (one(trunc) - q_power(n, trunc))**24
        n += 1
    eta24 = prod.shift(GRID)
    d = delta(trunc)
    for e in range(0, min(eta24.trunc, d.trunc)):
        assert eta24.coeffs.get(e, 0) == d.coeffs.get(e, 0)


def test_theta01_leading():
    t = theta01()
    # 1 - 2h + 2h^4 - 2h^9 in h = q^(1/2)
    assert t.q_coeff(Fraction(0)) == 1
    assert t.q_coeff(Fraction(1, 2)) == -2
    assert t.q_coeff(Fraction(2)) == 2
    assert t.q_coeff(Fraction(9, 2)) == -2


def test_theta10_leading():
    t = theta10()
    assert t.coeff(1) == 2       # 2 q^(1/8)
    assert t.coeff(9) == 2
    assert t.coeff(2) == 0


def test_leech_theta_coefficients():
    lt = leech_theta()
    assert lt.q_coeff(0) == 1
    assert lt.q_coeff(1) == 0
    assert lt.q_coeff(2) == 196560
    assert lt.q_coeff(3) == 16773120


def test_named_form_lookup():
    assert named_form("E4").q_coeff(1) == 240
    with pytest.raises(QSeriesError):
        named_form("nope")


# -- kernels ------------------------------------------------------------------

def test_psi8_plus_leading():
    plus = psi_forms(8)["psi_plus"]
    assert plus.min_exp == GRID  # leading term is O(q)
    assert plus.q_coeff(1) == 518400


def test_psi8_minus_laurent():
    minus = psi_forms(8)["psi_minus"]
    assert minus.min_exp == -GRID
    assert minus.q_coeff(-1) == 2
    # no q^(-1/2) term: the theta contributions cancel exactly
    assert minus.coeff(-4) == 0
    assert minus.q_coeff(0) == 288


def test_psi24_minus_pole_order_two():
    minus = psi_forms(24)["psi_minus"]
    assert minus.min_exp == -2 * GRID
    assert minus.q_coeff(-2) == 2


def test_psi24_plus_has_no_pole_or_constant():
    # required for the transformed integral to stay finite at r = 0
    plus = psi_forms(24)["psi_plus"]
    assert plus.min_exp >= 1


def test_negative_exponents_land_on_integer_powers():
    for n in (8, 24):
        forms = psi_forms(n)
        terms = s_transform_terms(n)
        for s in [forms["psi_plus"], forms["psi_minus"],
                  conjugate_psi_minus(n)] + [t.series for t in terms["psi_plus"]]:
            for e in s.coeffs:
                if e < 0:
                    assert e % GRID == 0


def test_conjugate_psi_minus_decays():
    # both start at q^(1/2): 2^20 Theta10-powers over the Delta poles
    assert conjugate_psi_minus(8).min_exp == 4
    assert conjugate_psi_minus(24).min_exp == 4


# -- envelopes ----------------------------------------------------------------

def _enveloped_series(trunc):
    """Every series with an envelope whose tail some sum reads, by name."""
    out = {f"e{k}": eisenstein(k, trunc) for k in (2, 4, 6)}
    out.update(theta01=theta01(trunc), theta10=theta10(trunc))
    for n in (8, 24):
        psi = psi_forms(n, trunc)
        plus = s_transform_terms(n, trunc)["psi_plus"]
        out.update({f"psi{n}_plus": psi["psi_plus"],
                    f"psi{n}_minus": psi["psi_minus"],
                    f"conjugate_psi{n}_minus": conjugate_psi_minus(n, trunc),
                    f"g1_{n}": plus[1].series, f"g2_{n}": plus[2].series})
    return out


def test_envelopes_bound_coefficients_to_three_times_trunc():
    # each envelope is set or fitted at trunc 300; it must also bound every
    # coefficient of the same series built at 900, beyond the fitted range
    wide = _enveloped_series(900)
    with mp.workdps(30):
        for name, series in _enveloped_series(300).items():
            env = series.envelope
            c = mp.mpf(env.c.numerator) / env.c.denominator
            a = mp.mpf(env.a.numerator) / env.a.denominator
            worst = max(abs(mp.mpf(v)) / (c * mp.exp(a * mp.sqrt(e)))
                        for e, v in wide[name].items() if e >= 1)
            assert worst <= 1, (name, worst)


# -- evaluation ---------------------------------------------------------------

def test_evaluate_cusp_limit():
    r = evaluate_at_it(eisenstein(4), 30)
    assert abs(r.value - 1) < 1e-30


def test_e6_vanishes_at_i():
    r = evaluate_at_it(eisenstein(6), 1, dps=40)
    assert abs(r.value) < 1e-10
    assert r.error < 1e-20


def test_e2_at_i_is_3_over_pi():
    r = evaluate_at_it(eisenstein(2), 1, dps=40)
    with mp.workdps(40):
        assert abs(r.value - 3 / mp.pi) < 1e-10


def test_quasi_modular_law_on_axis():
    # E2(i/t) = -t^2 E2(it) + 6t/pi at t in {1/2, 1, 2}
    e2 = eisenstein(2)
    with mp.workdps(40):
        for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
            lhs = evaluate_at_it(e2, Fraction(1) / t, dps=40).value
            rhs = (-mp.mpf(t.numerator) ** 2 / t.denominator ** 2
                   * evaluate_at_it(e2, t, dps=40).value
                   + 6 * mp.mpf(t.numerator) / t.denominator / mp.pi)
            assert abs(lhs - rhs) < 1e-10


def test_evaluate_below_floor_raises():
    with pytest.raises(QSeriesError):
        evaluate_at_it(eisenstein(4), Fraction(1, 4))


@pytest.mark.parametrize("t", [Fraction(1), Fraction(5, 4)],
                         ids=["t=1", "t=1.25"])
def test_s_transform_two_way_plus(t):
    # t^(n/2-2) psi_plus(i/t) equals the decomposition at it; at t = 1 every
    # t^m is 1, so only t != 1 tests the powers of t
    with mp.workdps(50):
        for n in (8, 24):
            plus = psi_forms(n)["psi_plus"]
            direct = evaluate_at_it(plus, 1 / t, dps=40)
            weight = (mp.mpf(t.numerator) / t.denominator) ** (n // 2 - 2)
            lhs = direct.value * weight
            rhs, err = evaluate_terms_at_it(s_transform_terms(n)["psi_plus"], t,
                                            dps=40)
            scale = 1 + abs(lhs)
            assert abs(lhs - rhs) < 1e-12 * scale + err + direct.error * weight


@pytest.mark.parametrize("t", [Fraction(1), Fraction(5, 4)],
                         ids=["t=1", "t=1.25"])
def test_s_transform_two_way_minus(t):
    # psi_minus(i/t) equals the decomposition at it
    for n in (8, 24):
        minus = psi_forms(n)["psi_minus"]
        direct = evaluate_at_it(minus, 1 / t, dps=40)
        rhs, err = evaluate_terms_at_it(s_transform_terms(n)["psi_minus"], t,
                                        dps=40)
        assert abs(direct.value - rhs) < 1e-12 + err + direct.error


def test_theta_swap_at_i():
    a = evaluate_at_it(theta01(), 1, dps=40)
    b = evaluate_at_it(theta10(), 1, dps=40)
    assert abs(a.value - b.value) < 1e-12


def test_csv_dump():
    text = theta10(30).dump_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "exponent_in_eighths,numerator,denominator"
    assert lines[1] == "1,2,1"


# sha256 of dump_csv() as the rational-coefficient implementation wrote it
DUMP_SHA256 = {
    ("delta", 300):
        "f9e81a2d57fd37e7c75373f8b1f4a10c6deeec0f58641025beb5ebc8de8b4f4a",
    ("theta01", 300):
        "dc09e8d0a94ec03e0a02c67dc3eb688254631d338fcaeea63ca0aa581301dfd5",
    ("theta10", 300):
        "04c8f55174658447b3e700d2c18e3312b654f65d9b58be14f651f4eb45653b3c",
    ("leech_theta", 300):
        "a33fb423c163b58ee6b4999d857a63f8759c92c48efd8b71ea11a916c676915b",
    ("e2", 300):
        "56d21bdb7f06a36f9692bd401235f1f94ad8ab821977028e3344e8506eb4426a",
    ("e4", 300):
        "cb6475bfcf0ca2915bc0eb2190b29ece37f0f3a446e0e50ec87b520f2c09a9de",
    ("e6", 300):
        "a37fb6b5ab25855b9ebbf1ae88dc937e7de05a751c90614db4e427ff337677e6",
    ("psi8_plus", 300):
        "46f5a58a9658a550552e270d427ca179be629e50f6e4b6c5eefa6794a1aaf32e",
    ("psi8_minus", 300):
        "6cdb883a6f8c051931bca11060360078340ff10017f248c816a292da2dfda3d4",
    ("psi24_plus", 300):
        "48bd94ee53d4e83e71df25a56036eee468d884dfc65a9a52bdb072c92c3e720d",
    ("psi24_minus", 300):
        "18aac60edf41bbfed3d7f128e8453593167c00e872542bd000ae2ea2b8d9963c",
    ("psi8_plus", 900):
        "27a73f55a69362513bf4ac9662ef835013cfc32c9733c203a082f6e373ba4beb",
    ("psi24_plus", 900):
        "bff11c199534f83f47355979aff7a6790ba8207d26a10696d51fd7b2b4324228",
}


@pytest.mark.parametrize("name, trunc", sorted(DUMP_SHA256))
def test_dump_csv_pinned(name, trunc):
    text = named_form(name, trunc).dump_csv().encode()
    assert hashlib.sha256(text).hexdigest() == DUMP_SHA256[name, trunc]


# -- the integer ring ---------------------------------------------------------

def schoolbook(a, b):
    """The product by the direct integer convolution, on the same validity
    window as QSeries.__mul__."""
    t = min(a.trunc + b.min_exp, b.trunc + a.min_exp)
    out = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            if ea + eb < t:
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return QSeries(out, t)


def test_mixed_subgrid_product():
    # Theta01 lives on multiples of 4, Theta10 on the odd squares; unequal
    # truncations cut the product at the shorter window
    for a, b in ((theta01(300), theta10(300)), (theta01(200), theta10(120)),
                 (theta01(120) ** 3, theta10(200) ** 5)):
        assert a * b == schoolbook(a, b)
        assert (a * b).trunc == min(a.trunc + b.min_exp, b.trunc + a.min_exp)


def test_laurent_product():
    inv = delta(200).inverse()
    assert inv.min_exp < 0
    for b in (eisenstein(4, 150), theta10(90), inv):
        assert inv * b == schoolbook(inv, b)


def test_zero_product_keeps_window():
    z = QSeries({}, 50)
    assert z * theta10(80) == QSeries({}, 51)


def test_rational_coefficient_raises():
    with pytest.raises(QSeriesError):
        QSeries({0: Fraction(1, 7)}, 10)


def test_inexact_division_raises():
    s = one(40) * 14 + q_power(1, 40) * 7
    assert s / 7 == one(40) * 2 + q_power(1, 40)
    with pytest.raises(QSeriesError):
        (s + 1) / 7
    with pytest.raises(QSeriesError):
        s.scale(Fraction(1, 3))


def test_non_unit_inverse_raises():
    with pytest.raises(QSeriesError):
        (one(40) * 2 + q_power(1, 40)).inverse()
    assert (q_power(1, 40) - 1).inverse().q_coeff(0) == -1


if HAVE_HYPOTHESIS:
    small_series = st.builds(
        lambda d: QSeries(d, 40),
        st.dictionaries(st.integers(min_value=0, max_value=12),
                        st.integers(min_value=-20, max_value=20), max_size=6))

    # Laurent series on a subgrid: exponents offset + step * k, coefficients
    # wide enough to need multi-byte slots, truncations of their own
    laurent_series = st.builds(
        lambda offset, step, d, trunc: QSeries(
            {offset + step * k: c for k, c in d.items()}, offset + trunc),
        st.integers(min_value=-16, max_value=8), st.sampled_from((1, 2, 4, 8)),
        st.dictionaries(st.integers(min_value=0, max_value=30),
                        st.integers(min_value=-2 ** 90, max_value=2 ** 90),
                        min_size=1, max_size=12),
        st.integers(min_value=1, max_value=120))

    @given(laurent_series, laurent_series)
    @settings(max_examples=200, deadline=None)
    def test_kronecker_equals_schoolbook(a, b):
        assert a * b == schoolbook(a, b)

    @given(small_series, small_series)
    @settings(max_examples=50, deadline=None)
    def test_mul_commutes(a, b):
        assert a * b == b * a

    @given(small_series, st.sampled_from((1, -1)))
    @settings(max_examples=50, deadline=None)
    def test_inverse_roundtrip_property(a, unit):
        a = QSeries({**a.coeffs, 0: unit}, a.trunc)  # a unit constant term
        prod = a * a.inverse()
        assert prod.q_coeff(0) == 1
        assert all(c == 0 for e, c in prod.coeffs.items() if e != 0)
