import copy
import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from operator import mul

import mpmath as mp
import pytest
from mpmath.libmp.libelefun import ln2_fixed

from packbound import magic
from packbound.certify import Certificate, certify_magic
from packbound.exact import PackboundError
from packbound.lattices import SymbolicVolume
from packbound.magic import (
    FEASIBILITY_CLAIM, _NodeSeries, ce_bound_from_function,
    grid_count, legendre_nodes, magic_spec, taylor_quadratic,
)
from packbound.qseries import (Envelope, QSeries, conjugate_psi_minus,
                               psi_forms, s_transform_terms)
from series_terms import eigenfunction, radial_fourier_oracle


def test_legendre_nodes_integrate_polynomial():
    for order in (4, 64):
        xs, ws = legendre_nodes(order, 30)
        with mp.workdps(30):
            val = sum(w * x ** 6 for x, w in zip(xs, ws))
            assert abs(val - mp.mpf(2) / 7) < 1e-25
    # the highest degree the order-64 rule is exact for
    xs, ws = legendre_nodes(64, 60)
    with mp.workdps(80):
        val = sum(w * x ** 126 for x, w in zip(xs, ws))
        assert abs(val - mp.mpf(2) / 127) < 1e-70


@pytest.mark.parametrize("order", [4, 14, 64])
@pytest.mark.parametrize("dps", [30, 60, 200])
def test_legendre_nodes_within_two_units(order, dps):
    with mp.workdps(dps + 20):
        prec = mp.mp.prec
    xs, ws = legendre_nodes(order, dps)
    ref_xs, ref_ws = legendre_nodes(order, dps + 100)
    with mp.workdps(dps + 120):
        unit = 2 * mp.mpf(2) ** -prec
        for got, ref in zip(xs + ws, ref_xs + ref_ws):
            assert abs(got - ref) <= unit * abs(ref), (got, ref)


def test_legendre_nodes_refuses_a_newton_that_does_not_converge(monkeypatch):
    # a step of one whole unit every time never falls under 2^16 units
    monkeypatch.setattr(magic, "_legendre",
                        lambda order, x, prec: (1 << prec, 1 << prec))
    with pytest.raises(PackboundError, match="did not converge"):
        legendre_nodes(6, 17)
    assert (6, 17) not in magic._GL_CACHE


def test_grid_count_slack_is_a_fraction_of_a_step():
    # a binary step just above its decimal value still reaches rmax
    assert grid_count(11, mp.mpf(0.05)) == 221
    assert grid_count(8.0, mp.mpf(0.02)) == 401
    # an absolute slack of 1e-12 would give 1010 points, up to 1.009e-12
    assert grid_count(1e-14, mp.mpf(1e-15)) == 11
    # ... and about 1e288 points here
    assert grid_count(0, mp.mpf(1e-300)) == 1


def test_combination_constants_8(spec8):
    assert spec8.A == SymbolicVolume(Fraction(-1, 2160), 1)
    # only the product of B with the minus kernel enters the function, and
    # the Taylor/root tests below pin the product
    assert spec8.B == SymbolicVolume(Fraction(-1, 120), -1)
    # every constant is rat * pi^k with an integer k
    assert type(spec8.A.pi_power) is int and type(spec8.B.pi_power) is int


def test_combination_constants_24(spec24):
    assert spec24.A == SymbolicVolume(Fraction(1, 28304640), 1)
    assert spec24.B == SymbolicVolume(Fraction(-1, 65520), -1)


def test_normalization_at_zero_8(spec8):
    for side in ("f", "f_hat"):
        v = spec8.eval(side, 0)
        assert abs(v.value - 1) < 1e-30
        assert v.error < 1e-30


def test_normalization_at_zero_24(spec24):
    for side in ("f", "f_hat"):
        v = spec24.eval(side, 0)
        assert abs(v.value - 1) < 1e-30


def test_roots_at_vector_lengths_8(spec8):
    with mp.workdps(70):
        for r in (mp.sqrt(2), mp.mpf(2), mp.sqrt(6), mp.sqrt(8)):
            for side in ("f", "f_hat"):
                v = spec8.eval(side, r)
                assert abs(v.value) < 1e-12


def test_roots_at_vector_lengths_24(spec24):
    with mp.workdps(70):
        for r in (mp.mpf(2), mp.sqrt(6), mp.sqrt(8), mp.sqrt(10)):
            for side in ("f", "f_hat"):
                v = spec24.eval(side, r)
                assert abs(v.value) < 1e-12


def _central_difference(spec, side, r, h=mp.mpf("1e-6")):
    """d/dr of a side at r from certified values, and an error bar: the
    values' errors over 2h plus the change to a step twice as coarse."""
    hi, lo = spec.eval(side, r + h), spec.eval(side, r - h)
    hi2, lo2 = spec.eval(side, r + 2 * h), spec.eval(side, r - 2 * h)
    v = (hi.value - lo.value) / (2 * h)
    v2 = (hi2.value - lo2.value) / (4 * h)
    return v, (hi.error + lo.error) / (2 * h) + abs(v - v2)


def _richardson(spec, side, levels=5):
    """The r^2 coefficient at the origin by Richardson extrapolation of
    certified values, and an error bar: four times the largest error of a
    difference quotient plus the last change of the table."""
    f0 = spec.eval(side, 0)
    table, errs = [], []
    for j in range(levels):
        h = mp.mpf(2) / 5 / 2 ** j
        fj = spec.eval(side, h)
        table.append((fj.value - f0.value) / h ** 2)
        errs.append((fj.error + f0.error) / h ** 2)
    for k in range(1, levels):
        last = table[-1]
        table = [(4 ** k * table[j + 1] - table[j]) / (4 ** k - 1)
                 for j in range(levels - k)]
    return table[-1], 4 * max(errs) + abs(table[-1] - last)


def _slope_against_difference(spec, side, r_sq, slope, bar):
    """The exact d/d(r^2) is `slope`, and 2 r times it lies within the
    central difference's error bar, which is below `bar`."""
    assert spec.jet(side, r_sq) == (0, slope)
    with mp.workdps(spec.dps + 10):
        r = mp.sqrt(r_sq)
        d, err = _central_difference(spec, side, r)
        assert err < bar
        assert abs(d - 2 * r * mp.mpf(slope.numerator) / slope.denominator) \
            <= err


def test_simple_root_slope_8(spec8):
    # f'(r1) = 2 sqrt(2) (-1/120) = -sqrt(2)/60
    _slope_against_difference(spec8, "f", 2, Fraction(-1, 120), 1.2e-12)
    _slope_against_difference(spec8, "f", 4, Fraction(0), 3e-14)


def test_simple_root_slope_24(spec24):
    # f'(r1) = 4 (-1/65520) = -1/16380
    _slope_against_difference(spec24, "f", 4, Fraction(-1, 65520), 1.3e-14)
    _slope_against_difference(spec24, "f", 6, Fraction(0), 4e-17)


def test_fhat_double_root_at_r1(spec8):
    _slope_against_difference(spec8, "f_hat", 2, Fraction(0), 1e-12)


def _taylor_against_richardson(spec, side, n, target):
    assert taylor_quadratic(side, n, spec) == target
    with mp.workdps(spec.dps + 10):
        est, err = _richardson(spec, side)
        assert err < 1e-8
        assert abs(est - mp.mpf(target.numerator) / target.denominator) <= err


def test_taylor_quadratic_8(spec8):
    _taylor_against_richardson(spec8, "f", 8, Fraction(-27, 10))
    _taylor_against_richardson(spec8, "f_hat", 8, Fraction(-3, 2))


def test_taylor_quadratic_24(spec24):
    _taylor_against_richardson(spec24, "f", 24, Fraction(-14347, 5460))
    _taylor_against_richardson(spec24, "f_hat", 24, Fraction(-205, 156))


@pytest.mark.parametrize("n", [8, 24])
def test_jet_value_matches_certified_eval(n, request):
    spec = request.getfixturevalue(f"spec{n}")
    with mp.workdps(spec.dps + 10):
        for j in range(5):
            for side in ("f", "f_hat"):
                exact = spec.jet(side, 2 * j)[0]
                v = spec.eval(side, mp.sqrt(2 * j))
                assert abs(v.value - mp.mpf(exact.numerator)
                           / exact.denominator) <= v.error


def test_jet_rejects_other_radii(spec8):
    for r_sq in (1, -2, 2.5):
        with pytest.raises(PackboundError, match="even squared radius"):
            spec8.jet("f", r_sq)
    with pytest.raises(PackboundError, match="unknown side 'g'"):
        spec8.jet("g", 2)


def test_jet_reads_the_constants_at_call_time(spec8):
    # f and fhat trade places when the minus constant flips sign
    flipped = spec8.flipped_minus_copy()
    for r_sq in (0, 2):
        assert flipped.jet("f", r_sq) == spec8.jet("f_hat", r_sq)
        assert flipped.jet("f_hat", r_sq) == spec8.jet("f", r_sq)


@pytest.mark.parametrize("n", [8, 24])
def test_eval_far_out_stays_out_of_the_pole_band(n, request, monkeypatch):
    # far out, 2^(2 fix) // s underflows to 0 for every exponent; only a
    # small s may reach the band's sinc(s/2)
    spec = request.getfixturevalue(f"spec{n}")
    spec = copy.copy(spec)
    spec._cache = {}
    sinc = mp.sinc

    def in_band_only(x):
        assert abs(x) <= magic.POLE_BAND
        return sinc(x)

    monkeypatch.setattr(mp, "sinc", in_band_only)
    for r in (mp.mpf("1e36"), mp.mpf("1e300")):
        for side in ("f", "f_hat"):
            v = spec.eval(side, r)
            assert mp.isfinite(v.value) and mp.isfinite(v.error)
            assert abs(v.value) <= v.error < 1e-40


def test_value_at_sqrt2_24(spec24):
    # below the minimal length both sides equal A kappa1 G1[-8] / 4 = 1/156
    with mp.workdps(70):
        v = spec24.eval("f", mp.sqrt(2))
        w = spec24.eval("f_hat", mp.sqrt(2))
        assert abs(v.value - Fraction(1, 156)) < 1e-12
        assert abs(w.value - Fraction(1, 156)) < 1e-12


def test_sign_conditions_coarse_grid(spec8):
    with mp.workdps(70):
        r = mp.sqrt(2)
        while r <= 8:
            v = spec8.eval("f", r)
            assert v.value <= v.error
            r += mp.mpf(1) / 4
        r = mp.mpf(0)
        while r <= 8:
            v = spec8.eval("f_hat", r)
            assert v.value >= -v.error
            r += mp.mpf(1) / 4


def test_minus_eigenfunction_at_sqrt2(spec8):
    # the pole of the transform meets the double zero of the sine factor:
    # the limit is finite (zero value, transversal slope)
    with mp.workdps(70):
        v = eigenfunction(spec8, "-", mp.sqrt(2))
        assert mp.isfinite(v.value)
        assert abs(v.value) < 1e-12
        h = mp.mpf("1e-4")
        lo = eigenfunction(spec8, "-", mp.sqrt(2) - h).value
        hi = eigenfunction(spec8, "-", mp.sqrt(2) + h).value
        extrapolated = (lo + hi) / 2
        assert abs(extrapolated - v.value) < 1e-6
        slope = (hi - lo) / (2 * h)
        assert abs(slope) > 1


def _uside_reference(series, p, r, dps):
    """int_1^inf u^-p Phi(iu) e^(-pi r^2/u) du by mp.quad at dps digits,
    with Phi the truncated series summed as powers of one exp per point."""
    exps = [e for e, _ in series.items()]
    g = math.gcd(*(e - exps[0] for e in exps))
    coeffs = dict(series.items())
    with mp.workdps(dps):
        b = mp.pi * r * r

        def integrand(u):
            base = mp.exp(-mp.pi * u / 4)
            step, y, phi = base ** g, base ** exps[0], 0
            for e in range(exps[0], exps[-1] + 1, g):
                phi += coeffs.get(e, 0) * y
                y *= step
            return u ** -p * phi * mp.exp(-b / u)
        breaks = [mp.mpf(1)]
        while breaks[-1] < 100:
            breaks.append(2 * breaks[-1] + 1)
        return mp.quad(integrand, breaks + [mp.inf])


@pytest.mark.parametrize("n", [8, 24])
def test_uside_integral_within_bound_against_mp_quad(n, request):
    # each kernel's certified integral against mp.quad at 90 digits: the
    # reported error holds, and the order-64 rule's bound is far below the
    # order-32 rule's error (5.4e-23 at r = 0 for n = 8)
    spec = request.getfixturevalue(f"spec{n}")
    kernels = (psi_forms(n)["psi_plus"], conjugate_psi_minus(n))
    for r in ("0", "0.7"):
        with mp.workdps(spec.dps + 10):
            r = mp.mpf(r)
            decay = next(spec._decays(r, 0, 1))
        sums = [sum(map(mul, vals, decay)) for vals in spec.uside.vals]
        for total, err, series in zip(sums, spec.uside.error(8), kernels):
            q = spec.uside.value(total)
            ref = _uside_reference(series, n // 2, r, 90)
            with mp.workdps(90):
                assert abs(q - ref) <= err, (r, series.min_exp)
            assert err <= (1e-48 if n == 8 else 1e-37)


def test_gaussian_is_fourier_fixed_point():
    with mp.workdps(30):
        v = radial_fourier_oracle(8, lambda r: mp.exp(-mp.pi * r * r), 1,
                                  dps=20, order=10)
        assert abs(v - mp.exp(-mp.pi)) < 1e-12
        v0 = radial_fourier_oracle(8, lambda r: mp.exp(-mp.pi * r * r), 0,
                                   dps=20, order=10)
        assert abs(v0 - 1) < 1e-12


@pytest.mark.slow
def test_eigenfunction_identities_sampled(spec8):
    # transform of the plus kernel is itself; of the minus kernel, its negative
    with mp.workdps(30):
        for u in (mp.mpf(1), mp.sqrt(2), mp.mpf(2)):
            for sign, eig in (("+", 1), ("-", -1)):
                direct = eigenfunction(spec8, sign, u).value
                oracle = radial_fourier_oracle(
                    8, lambda r: eigenfunction(spec8, sign, r).value, u,
                    dps=20, order=10)
                assert abs(oracle - eig * direct) < 1e-4


def test_tside_table_refuses_series_without_envelope():
    # its truncation tail comes from the envelope, so a series without one
    # would silently get a zero tail
    series = QSeries({-8: 1, 8: 1}, 100)
    with pytest.raises(PackboundError, match="tail envelope"):
        magic._TsideTable([[(0, SymbolicVolume.of(1), series)]],
                          mp.exp(-mp.pi / 4), 30, 100)


def test_ce_bound_requires_certificate(spec8):
    with pytest.raises(PackboundError, match="is not certified"):
        ce_bound_from_function(8, spec8)
    # no step yet: inconclusive
    with pytest.raises(PackboundError, match="is not certified"):
        ce_bound_from_function(8, spec8, certificate=Certificate("claim"))


def _verified(n):
    cert = Certificate(claim=FEASIBILITY_CLAIM.format(n))
    cert.add_step("one passed step", "exact", 0, True)
    assert cert.status == "verified"
    return cert


def test_ce_bound_refuses_a_spec_of_another_dimension(spec8):
    # the n = 8 function in the n = 24 ball volume gives 4.7e-7, below the
    # Leech lattice's density 1.9e-3: a false bound
    with pytest.raises(PackboundError, match="not of dimension 24"):
        ce_bound_from_function(24, spec8, certificate=_verified(8))
    with pytest.raises(PackboundError, match="not of dimension 24"):
        ce_bound_from_function(24, spec8, certificate=_verified(24))


def test_ce_bound_refuses_a_certificate_of_another_claim(spec8, spec24):
    with pytest.raises(PackboundError, match="is not certified"):
        ce_bound_from_function(24, spec24, certificate=_verified(8))
    other = Certificate(claim="series positive on interval")
    other.add_step("one passed step", "exact", 0, True)
    with pytest.raises(PackboundError, match="is not certified"):
        ce_bound_from_function(8, spec8, certificate=other)


def test_taylor_quadratic_refuses_a_spec_of_another_dimension(spec8):
    with pytest.raises(PackboundError, match="not of dimension 24"):
        taylor_quadratic("f", 24, spec8)


def test_ce_bound_8(spec8):
    with mp.workdps(70):
        b = ce_bound_from_function(8, spec8, certificate=_verified(8))
        target = mp.pi ** 4 / 384
        assert abs(b.value - target) / target < 1e-9
        assert b.error == 0


def test_ce_bound_24(spec24):
    with mp.workdps(70):
        b = ce_bound_from_function(24, spec24, certificate=_verified(24))
        target = mp.pi ** 12 / mp.factorial(12)
        assert abs(b.value - target) / target < 1e-9
        assert b.error == 0


# Values and errors of (P, M).  The values agree, within the old error bars,
# with the per-term t-side loop and the separate u-side quadratures that the
# exponent table and the shared nodes replaced; the errors carry the
# Bernstein-ellipse bound of the u-side rule.
# Radii are sqrt(r2 + edge * 1.01e-3 / pi): r2 in {0, 2, 4, 6} meets a pole
# of the t-side sums (the pole band), edge = -1/+1 lands just outside the
# band, and the last four are ordinary grid radii (0.5, 1.3, 2.9, 7.9).
PINNED_PAIRS = {
    8: {
        ("0", 0): (
            "-6.8754935415698785052157785776926204398886566959877185859e+2",
            "6.88584e-50",
            "0",
            "1.18288e-52",
        ),
        ("2", 0): (
            "-6.61e-71",
            "1.03483e-52",
            "-3.62e-71",
            "1.18288e-52",
        ),
        ("4", 0): (
            "7.78e-145",
            "1.03483e-52",
            "2.47e-144",
            "1.18288e-52",
        ),
        ("6", 0): (
            "4.15e-145",
            "1.03483e-52",
            "4.33e-144",
            "1.18288e-52",
        ),
        ("2", -1): (
            "-9.2194183384400868808964914320072364236779214580973186e-4",
            "1.03579e-52",
            "-5.0530870830318645721293048104555748226414896581056086e-4",
            "1.18345e-52",
        ),
        ("2", 1): (
            "9.2007814005201435693398326479847204276748653397272747e-4",
            "1.03579e-52",
            "5.0469139465119129828397634833790446909670049004157058e-4",
            "1.18345e-52",
        ),
        ("4", -1): (
            "7.4530901833847423790556821938672100600680977364e-10",
            "1.03487e-52",
            "2.36058036803462211824391215922976271807324714674e-9",
            "1.18294e-52",
        ),
        ("4", 1): (
            "7.4397483409381285797422335549150473314888122073e-10",
            "1.03487e-52",
            "2.35738373360461070205086093808196845325168376056e-9",
            "1.18294e-52",
        ),
        ("0.25", 0): (
            "-3.9011501557312623578002236332649210081660091424901242891e+2",
            "7.66984e-50",
            "1.6871742200855639561952832577389007709762794374350719475e+1",
            "8.70841e-51",
        ),
        ("1.69", 0): (
            "-2.25954331994197745031726791280877294253477178692210674",
            "3.51485e-51",
            "-8.077554531943649446338807596557627826154921350856419376e-1",
            "5.86685e-51",
        ),
        ("8.41", 0): (
            "8.16438137853002160982143808575786595638747693503e-8",
            "5.13852e-51",
            "2.742449848885611002526680926299024329484666302363e-6",
            "9.36231e-51",
        ),
        ("62.41", 0): (
            "1.11335221986128668593219650909e-28",
            "5.13852e-51",
            "1.611718539236693353651750768142245054e-21",
            "9.36231e-51",
        ),
    },
    24: {
        ("0", 0): (
            "9.00964673687316879323475624820840982443009573442e+6",
            "4.36804e-36",
            "0",
            "4.47007e-36",
        ),
        ("2", 0): (
            "5.775414574918697944381254005261801169506471625e+4",
            "4.36804e-36",
            "8.4e-69",
            "4.47007e-36",
        ),
        ("4", 0): (
            "3.61e-141",
            "4.36804e-36",
            "4.86e-143",
            "4.47007e-36",
        ),
        ("6", 0): (
            "-5.28e-142",
            "4.36804e-36",
            "4.12e-143",
            "4.47007e-36",
        ),
        ("2", -1): (
            "5.78109354390789032689074960833432599214892406e+4",
            "4.36804e-36",
            "1.17262061665310136122025798469532928087e-1",
            "4.47007e-36",
        ),
        ("2", 1): (
            "5.76974081019639682003644869708680379464956931e+4",
            "4.36804e-36",
            "-1.17058018287347535984352862568579409862e-1",
            "4.47007e-36",
        ),
        ("4", -1): (
            "2.2130025965297335543853557507289599955e-2",
            "4.36804e-36",
            "-5.054637136351341802211242883214550579e-4",
            "4.47007e-36",
        ),
        ("4", 1): (
            "-2.2078461018160264324774526264314096634e-2",
            "4.36804e-36",
            "5.045366540467951729554828603967588349e-4",
            "4.47007e-36",
        ),
        ("0.25", 0): (
            "5.3856830383643770856779705298932910072536553618e+6",
            "4.36881e-36",
            "1.4163959185855575861296119073764458292723244e+4",
            "4.47023e-36",
        ),
        ("1.69", 0): (
            "1.44769404277810643699088233306420358535251063e+5",
            "4.3692e-36",
            "2.52658000107211398401563620771101837648979e+2",
            "4.47031e-36",
        ),
        ("8.41", 0): (
            "-1.5682760115654679776229000403973113e-5",
            "4.36994e-36",
            "3.689639262484798621815285892991054e-6",
            "4.47046e-36",
        ),
        ("62.41", 0): (
            "-1.8264022044e-30",
            "4.36994e-36",
            "1.158166405200268e-25",
            "4.47046e-36",
        ),
    },
}


def _pinned_radius(r2, edge):
    with mp.workdps(70):
        return mp.sqrt(mp.mpf(r2) + edge * mp.mpf("1.01e-3") / mp.pi)


@pytest.mark.parametrize("n", [8, 24])
def test_pair_matches_pinned_values(n, request):
    spec = request.getfixturevalue(f"spec{n}")
    with mp.workdps(80):
        for (r2, edge), pinned in PINNED_PAIRS[n].items():
            p, m = spec.pair(_pinned_radius(r2, edge))
            for got, value, err in ((p, pinned[0], pinned[1]),
                                    (m, pinned[2], pinned[3])):
                value, err = mp.mpf(value), mp.mpf(err)
                assert abs(got.value - value) <= got.error + err, (r2, edge)
                assert abs(got.error / err - 1) <= 0.01, (r2, edge)


# sha256 of the default spec's u-side fixed-point data: a change to the
# Gauss-Legendre rule or the node sums that moves one bit of it shows here
USIDE_DIGESTS = {
    8: "f249860a65552af48a1ded37ed6bb75128c3c182325ec14b9d0b59ed716b318b",
    24: "367141b7bfa3a917fd036ec6a17bbf40ba1bf2c31a4119898fc46e19f04a0324",
}


def _spec_nodes(spec):
    """-1/u at every shared node, rebuilt exactly from the fixed-point 1/u
    table: each entry has at most fix significant bits."""
    side = spec.uside
    with mp.workprec(side.fix):
        return [-mp.ldexp(w, -(side.fix + side.guard)) for w in side.inv_u]


@pytest.mark.parametrize("n", [8, 24])
def test_uside_data_fingerprint(n, request):
    spec = request.getfixturevalue(f"spec{n}")
    digest = hashlib.sha256()
    for vals in spec.uside.vals:
        digest.update(repr(vals).encode())
    # _mpf_ tuples, since repr depends on the ambient mp.dps
    digest.update(repr([u._mpf_ for u in _spec_nodes(spec)]).encode())
    assert digest.hexdigest() == USIDE_DIGESTS[n]


def test_pair_cache_keys_on_working_precision(spec8):
    # at the default 15 digits both radii print as 1.7, but f differs
    # between them by about 1e-30, far beyond the certified errors
    with mp.workdps(70):
        a = mp.mpf("1.7")
        b = a + mp.mpf("1e-30")
    with mp.workdps(15):
        pb, mb = spec8.pair(b)
        pa, ma = spec8.pair(a)
    with mp.workdps(70):
        assert abs(pa.value - pb.value) > pa.error + pb.error
        assert abs(ma.value - mb.value) > ma.error + mb.error


def test_pair_shares_uside_nodes(spec8, monkeypatch):
    # the panel breaks 1, 3, 9, ... grow by 3 up to u_max, the cut of the
    # more slowly decaying kernel: four 64-point panels at dps 60
    e1 = min(psi_forms(8)["psi_plus"].min_exp, conjugate_psi_minus(8).min_exp)
    with mp.workdps(spec8.dps + 10):
        u_max = 1 + (spec8.dps + 12) * mp.log(10) * 4 / (mp.pi * e1)
    panels = 1
    while 3 ** panels < u_max:
        panels += 1
    shared = len(spec8.uside.inv_u)
    assert shared == panels * magic._ORDER == 4 * 64
    assert [len(vals) for vals in spec8.uside.vals] == [shared, shared]
    spec = _fresh_copy(spec8)
    spec.pair(mp.mpf("1.2345677"))  # builds the anchors' tables
    calls = []
    exp = mp.exp

    def counting_exp(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(mp, "exp", counting_exp)
    spec.pair(mp.mpf("1.2345678"))
    # no exp per node: only the t-side's e^(-pi r^2)
    assert len(calls) == 1


def test_anchor_at_scale_zero_is_one(spec8):
    side = spec8.uside
    assert spec8._anchor(mp.mpf(0)) == [1 << side.fix] * len(side.inv_u)


# each kernel's rule error at the default precision, which the first panel
# [1, 3] sets: a layout that loosens the printed error bars fails here
RULE_ERRORS = {8: ("1.39666528e-50", "2.56418953e-50"),
               24: ("5.23582075e-39", "1.07202169e-39")}


@pytest.mark.parametrize("n", [8, 24])
def test_uside_rule_error_budget(n, request):
    spec = request.getfixturevalue(f"spec{n}")
    for (_, _, rule), pinned in zip(spec.uside.errors, RULE_ERRORS[n]):
        assert abs(rule / mp.mpf(pinned) - 1) < 1e-8, (rule, pinned)


def _fresh_copy(spec):
    """The spec with an empty pair cache of its own."""
    clone = copy.copy(spec)
    clone._cache = {}
    return clone


@pytest.mark.parametrize("n", [8, 24])
@pytest.mark.parametrize("start", ["0", "sqrt2"])
def test_sweep_matches_pair(n, start, request):
    spec = _fresh_copy(request.getfixturevalue(f"spec{n}"))
    single = _fresh_copy(spec)
    with mp.workdps(spec.dps + 10):
        r0 = mp.sqrt(2) if start == "sqrt2" else mp.mpf(0)
        step = mp.mpf("0.02")
        swept = spec.sweep(r0, step, 400)
        for k in (0, 1, 2, 71, 200, 399):
            for got, want in zip(swept[k], single.pair(r0 + k * step)):
                assert abs(got.value - want.value) <= got.error + want.error
            assert spec.pair(r0 + k * step) is swept[k]


def test_sweep_decays_within_stated_units(spec8):
    # the fixed-point recurrence against exp at 30 more digits, every node
    fix = spec8.uside.fix
    nodes = _spec_nodes(spec8)
    with mp.workdps(spec8.dps + 10):
        r0, step = mp.sqrt(2), mp.mpf("0.02")
        decays = list(spec8._decays(r0, step, 401))
        radii = [r0 + k * step for k in range(401)]
    worst = 0
    with mp.workdps(spec8.dps + 40):
        for k, (r, decay) in enumerate(zip(radii, decays)):
            units = 2 * (k + 2) ** 2
            for v, e in zip(nodes, decay):
                exact = mp.ldexp(mp.exp(mp.pi * r * r * v), fix)
                assert abs(e - exact) <= units, (k, v)
                worst = max(worst, abs(e - exact))
    assert worst > 1  # the products do round


@pytest.mark.parametrize("n", [8, 24])
def test_uside_series_within_stated_roundoff(n, request):
    # the fixed-point series values at the nodes of the first panel, where
    # the round-off is largest, against the exact coefficients at 300 more
    # bits
    spec = request.getfixturevalue(f"spec{n}")
    series = [psi_forms(n)["psi_plus"], conjugate_psi_minus(n)]
    fixed = _NodeSeries(series, spec.uside.fix)
    worst = 0
    for v in _spec_nodes(spec)[:magic._ORDER:2]:
        with mp.workdps(spec.dps + 10):
            u = -1 / v
        values, = fixed.at([u])
        with mp.workprec(fixed.prec + 300):
            y = mp.exp(-mp.pi * u / 4)
            for s, (got, bound) in zip(series, values):
                exact = mp.ldexp(mp.fsum(c * y ** e for e, c in s.items()),
                                 fixed.prec)
                assert abs(got - exact) <= bound, (u, s.min_exp)
                worst = max(worst, abs(got - exact) / bound)
    # the bound is sharp enough that one understated 2^8-fold fails
    assert worst > mp.mpf(2) ** -6


def _tside_reference(table, pi_r2, dps):
    """Both t-side sums at pi r^2 = pi_r2 from the table's exponents and C_m,
    term by term in mpf: W(r) * C_m * int_1^inf t^m e^(-st) dt in closed
    form.  Where 8 | E, W = sin(s/2)^2 cancels the pole at s = 0."""
    with mp.workdps(dps):
        w = mp.sin(pi_r2 / 2) ** 2
        out = []
        for side in table.sides:
            total = 0
            for e, cm in zip(table.exps, side[3]):
                s = pi_r2 + mp.pi * e / 4
                decay = mp.exp(-s)
                for m, c in enumerate(cm):
                    for j in range(m + 1):
                        if not c:
                            continue
                        if e % 8 == 0 and j < 2:
                            ws = mp.sinc(s / 2) ** 2 / 4 * s ** (1 - j)
                        else:
                            ws = w / s ** (j + 1)
                        total += c * math.perm(m, j) * decay * ws
            out.append(total)
        return out


@pytest.mark.parametrize("n", [8, 24])
def test_tside_fixed_point_matches_mpf(n, request):
    spec = request.getfixturevalue(f"spec{n}")
    table = spec._tside
    with mp.workdps(spec.dps + 10):
        grid = [k * mp.mpf("0.02") for k in range(0, 400, 7)]
        # just outside the band around each pole, r^2 = -E/4
        edges = [mp.sqrt(-e / mp.mpf(4) + sign * mp.mpf("1.01e-3") / mp.pi)
                 for e in table.exps if e < 0 for sign in (-1, 1)]
    for r in grid + edges + [mp.mpf("7.9")]:
        with mp.workdps(spec.dps + 10):
            pi_r2 = mp.pi * (r * r)
            got = table.evaluate(pi_r2, mp.sin(pi_r2 / 2) ** 2,
                                 mp.exp(-pi_r2))
        # the same pi r^2: its rounding is an mpf input, which the guard covers
        want = _tside_reference(table, pi_r2, spec.dps + 40)
        with mp.workdps(spec.dps + 40):
            for (value, error, trunc), exact in zip(got, want):
                assert abs(value - exact) <= error, r
                if r in edges:
                    # there the fixed-point truncation dominates
                    assert 0 < abs(value - exact) <= trunc, r


def test_sweep_and_pair_take_no_exp_per_node(spec8, monkeypatch):
    shared = len(spec8.uside.inv_u)
    calls = []
    exp = mp.exp

    def counting_exp(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(mp, "exp", counting_exp)
    # radii no other test evaluates; each call builds the anchor tables
    # afresh, with one exp per table
    monkeypatch.setattr(magic, "_EXP_TABLES", {})
    assert len(spec8.sweep(mp.mpf("2.3456789"), mp.mpf("0.01"), 50)) == 50
    assert 4 <= len(calls) <= 2 * 50 + 4 < shared
    calls.clear()
    monkeypatch.setattr(magic, "_EXP_TABLES", {})
    spec8.pair(mp.mpf("3.4567891"))
    assert 4 <= len(calls) <= 2 + 4


def _pair_bits(pair):
    return [(v.value._mpf_, v.error._mpf_) for v in pair]


@pytest.mark.parametrize("n, count", [(8, 401), (24, 501)])
def test_split_sweep_is_bit_identical(n, count, request, cpus, forks,
                                      monkeypatch):
    # the certificate grid on 1, 2 and 3 processes: every value and error
    # bar is the same, and a radius already cached is read, not recomputed
    spec = request.getfixturevalue(f"spec{n}")
    blocks, block = [], magic.MagicFunctionSpec._block

    def recording(self, *args):
        blocks.append(args[-2:])  # in a child the record is lost
        return block(self, *args)

    monkeypatch.setattr(magic.MagicFunctionSpec, "_block", recording)
    runs = []
    for workers in (1, 2, 3):
        cpus(workers)
        clone = _fresh_copy(spec)
        with mp.workdps(spec.dps + 10):
            step = mp.mpf(0.02)
            cached = clone.pair(57 * step)
        forks.clear()
        blocks.clear()
        swept = clone.sweep(0, 0.02, count)
        # each child sent its block: the parent ran only block 0
        assert len(forks) == workers - 1
        assert blocks == [(0, workers)]
        assert swept[57] is cached
        runs.append([_pair_bits(pair) for pair in swept])
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][57] != runs[0][56]


@pytest.mark.parametrize("n", [8, 24])
def test_certificate_is_the_same_on_any_number_of_processes(n, request,
                                                             cpus, forks):
    # certify_magic's grid split across 1, 2 and 3 processes: the JSON is
    # the same, and only the grid sweep forks
    spec = request.getfixturevalue(f"spec{n}")
    runs = []
    for workers in (1, 2, 3):
        cpus(workers)
        forks.clear()
        runs.append(certify_magic(n, _fresh_copy(spec)).to_dict())
        assert len(forks) == workers - 1
    assert runs[0] == runs[1] == runs[2]
    assert runs[0]["status"] == "verified"


@pytest.mark.parametrize("n", [8, 24])
def test_uside_error_per_radius_index(n, request):
    # the u-side error bar of radius k depends on k alone, through the
    # decays' 2 (k + 2)^2 units: the same bits as the whole-kernel formula
    # it was split from, at the first, a middle and the last grid radius,
    # and the grid's error bars are the t-side ones plus W(r) times it
    spec = request.getfixturevalue(f"spec{n}")
    side = spec.uside
    fix, count = side.fix, len(side.inv_u)
    swept = _fresh_copy(spec).sweep(0, 0.02, 401)
    with mp.workdps(spec.dps + 10):
        for k in (0, 57, 400):
            units = 2 * (k + 2) ** 2
            old = [sum(errors, mp.ldexp((count << fix) + (units + 2)
                                        * (sum(map(abs, vals)) + count),
                                        -2 * fix))
                   for vals, errors in zip(side.vals, side.errors)]
            assert [e._mpf_ for e in side.error(units)] == [
                e._mpf_ for e in old]
            rv = k * mp.mpf(0.02)
            pi_r2 = mp.pi * (rv * rv)
            w_r = mp.sin(pi_r2 / 2) ** 2
            tside = spec._tside.evaluate(pi_r2, w_r, mp.exp(-pi_r2))
            assert [v.error._mpf_ for v in swept[k]] == [
                (t_err + w_r * u_err)._mpf_
                for (_, t_err, _), u_err in zip(tside, old)]


@pytest.mark.parametrize("n", [8, 24])
def test_combine_matches_the_per_side_formula(n, request):
    # (f, fhat) from one call: the same bits as each side formed alone
    spec = request.getfixturevalue(f"spec{n}")
    with mp.workdps(spec.dps + 10):
        radii = [mp.mpf(r) for r in ("0", "0.61", "1.4142", "3.3", "7.9")]
    for r in radii:
        p, m = spec.pair(r)
        got = spec.combine(p, m)
        with mp.workdps(spec.dps + 10):
            error = abs(spec._A) * p.error + abs(spec._B) * m.error
            want = (spec._A * p.value + spec._B * m.value,
                    spec._A * p.value - spec._B * m.value)
        assert [(v.value._mpf_, v.error._mpf_) for v in got] == [
            (w._mpf_, error._mpf_) for w in want]
        assert [spec.eval(side, r) for side in ("f", "f_hat")] == list(got)


def test_sweep_keeps_the_first_pair_of_a_repeated_radius(spec8):
    # with step 0 every k is the same radius: each gets the k = 0 pair, the
    # one with the tightest decay error
    swept = _fresh_copy(spec8).sweep(mp.mpf("0.8642"), 0, 3)
    single = _fresh_copy(spec8).pair(mp.mpf("0.8642"))
    assert swept[0] is swept[1] is swept[2]
    assert _pair_bits(swept[0]) == _pair_bits(single)


def test_pair_and_short_sweeps_never_fork(spec8, cpus, monkeypatch):
    cpus(16)
    monkeypatch.setattr(magic.os, "fork", lambda: pytest.fail("forked"))
    spec = _fresh_copy(spec8)
    spec.pair(mp.mpf("1.3579"))
    assert len(spec.sweep(mp.mpf("1.2468"), mp.mpf("0.02"), 50)) == 50


needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")),
    reason="no fork or CPU affinity here")


def _one_cpu(k):
    """k processes' CPUs, all the first one this process may run on."""
    return [min(os.sched_getaffinity(0))] * k


@needs_fork
def test_spread_runs_every_block_once_in_order(forks):
    assert magic._spread(lambda w, k: [w, (k, -w)], _one_cpu(3)) == \
        [[0, (3, 0)], [1, (3, -1)], [2, (3, -2)]]
    assert len(forks) == 2


@needs_fork
def test_spread_reruns_a_block_its_child_did_not_send(monkeypatch):
    # a child that dies, a result marshal cannot send and a failed fork
    # each leave their block to the parent
    parent = os.getpid()

    def block(w, _):
        if w == 1 and os.getpid() != parent:
            os._exit(1)
        return mp.mpf(w) if w == 2 else w

    assert magic._spread(block, _one_cpu(3)) == [0, 1, mp.mpf(2)]

    def no_fork():
        raise OSError("no processes left")

    monkeypatch.setattr(magic.os, "fork", no_fork)
    assert magic._spread(lambda w, _: w, _one_cpu(3)) == [0, 1, 2]


@needs_fork
def test_spread_raises_what_a_serial_run_raises():
    def block(w, _):
        return 1 // (w - 1)

    with pytest.raises(ZeroDivisionError):
        magic._spread(block, _one_cpu(2))


@needs_fork
def test_split_sweep_imports_no_pickle():
    # the children send their sums by marshal: a sweep that forks imports
    # no serializer
    code = """if 1:
        import os, sys
        import packbound.magic as magic
        cpu = min(os.sched_getaffinity(0))
        os.sched_getaffinity = lambda _: [cpu, cpu]
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(1) or fork()
        magic.magic_spec(8).sweep(0, 0.02, 401)
        print(len(forks), "pickle" in sys.modules)
    """
    src = os.path.dirname(os.path.dirname(magic.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.stdout.split() == ["1", "False"], proc.stderr[-500:]


def _boundary_scales(spec, node):
    """Scales s, exact mpfs, at which the fixed-point argument s/u at the
    node lands on a multiple of ln 2, on a table-index boundary of its
    remainder, or one unit below either."""
    guard, inv_u = spec.uside.guard, spec.uside.inv_u
    prec = spec.uside.fix + guard
    ln2 = ln2_fixed(prec)
    w = inv_u[node]
    rems = [0, 1, ln2 - 1]
    for l in range(1, 5):
        step = 1 << prec - 8 * l
        rems += [step, step - 1, 0x5A * step, 0x5A * step - 1]
    # the lower table indices at 0xFF, below ln 2
    rems.append((0xB0 << prec - 8) + sum(0xFF << prec - 8 * l
                                         for l in range(2, 5)))
    scales = []
    for k in (0, 1, 7, spec.uside.fix):
        for rem in rems:
            arg = k * ln2 + rem
            big = -(-(arg << prec) // w)
            assert divmod(big * w >> prec, ln2) == (k, rem)
            with mp.workprec(big.bit_length() + 8):
                scales.append(mp.ldexp(big, -prec))
    return scales


@pytest.mark.parametrize("dps", [10, 60, 200])
def test_anchors_within_three_units(dps):
    # e^(-s/u) at every node against exp at 30 more digits; dps 200 has the
    # largest u_max, so the widest argument error for G to absorb
    spec = magic_spec(8, dps=dps)
    fix = spec.uside.fix
    nodes = _spec_nodes(spec)
    scales = _boundary_scales(spec, len(nodes) // 2)
    with mp.workdps(dps + 10):
        h = mp.mpf("0.01")
        for r in map(mp.mpf, ("0", "1e-20", "0.7", "8.71", "40", "1e3")):
            # the scales of E_0, R_0 and Q of a sweep from r
            scales += [mp.pi * (r * r), mp.pi * h * (2 * r + h),
                       2 * mp.pi * h * h]
    worst = 0
    for scale in scales:
        got = spec._anchor(scale)
        with mp.workdps(dps + 40):
            for v, e in zip(nodes, got):
                exact = mp.ldexp(mp.exp(scale * v), fix)
                assert abs(e - exact) <= 3, (scale, v)
                worst = max(worst, abs(e - exact))
    assert worst > 0.5  # the final floor does truncate


def _spec_node_points(spec):
    """u at every shared node, at the spec's working precision."""
    with mp.workdps(spec.dps + 10):
        return [-1 / v for v in _spec_nodes(spec)]


@pytest.mark.parametrize("dps", [10, 60, 200])
def test_node_exponentials_within_stated_units(dps):
    # y^E = e^(-pi E u/4) at every node, the first power of a one-term
    # series (E = g = 1, and E0 = 4 with g = 1), against exp at 30 more
    # digits
    spec = magic_spec(8, dps=dps)
    us = _spec_node_points(spec)
    worst = 0
    for e in (1, 4):
        fixed = _NodeSeries([QSeries({e: 1}, e + 1)], spec.uside.fix)
        assert (fixed.e0, fixed.g) == (e, 1)
        got = fixed.at(us)
        with mp.workdps(dps + 40):
            for u, [(value, bound)] in zip(us, got):
                exact = mp.ldexp(mp.exp(-mp.pi * e * u / 4), fixed.prec)
                assert abs(value - exact) <= 1.04, (e, u)
                assert bound >= 2
                worst = max(worst, abs(value - exact))
    assert worst > 0.5  # the final floor does truncate


def _boundary_remainders(prec):
    """Remainders below ln 2 in units of 2^-prec: 0, one unit above it or
    below ln 2, and table-index boundaries and one unit below each."""
    rems = [0, 1, ln2_fixed(prec) - 1]
    for l in range(1, 5):
        step = 1 << prec - 8 * l
        rems += [step, step - 1, 0x5A * step, 0x5A * step - 1]
    return rems


@pytest.mark.parametrize("prec", [95, 127, 287])
def test_shared_exponential_within_13_units_before_the_last_floor(prec):
    # at u = 1 with no guard the argument is the exact scale, so each value
    # is within the 13 units of the tables and the Taylor sum plus the
    # final floor; prec = 32 m + 31 makes the Taylor tail its largest
    ln2 = ln2_fixed(prec)
    for k in (0, 1, 7):
        for rem in _boundary_remainders(prec):
            with mp.workprec(prec + 64):
                scale = mp.ldexp(k * ln2 + rem, -prec)
            [got] = magic._exp_fixed(scale, [1 << prec], prec, 0)
            with mp.workprec(prec + 100):
                exact = mp.ldexp(mp.exp(-scale), prec)
                assert abs(got - exact) <= 14, (k, rem)


@pytest.mark.parametrize("dps", [10, 60, 200])
def test_shared_exponential_at_boundary_arguments(dps):
    # _exp_fixed with w = u at every 16th node, the last one (the largest
    # u) and u = 1, in the precision and guard of _NodeSeries, at scales
    # that put the argument at u = 1 on a multiple of ln 2, on a
    # table-index boundary of its remainder, or one unit below either, each
    # also with 0.99 units of the scale cut off by the truncation
    spec = magic_spec(8, dps=dps)
    us = _spec_node_points(spec)
    us = us[::16] + [us[-1], mp.mpf(1)]
    series = [psi_forms(8)["psi_plus"], conjugate_psi_minus(8)]
    guard = mp.mag(max(us)) + 8
    prec = _NodeSeries(series, spec.uside.fix).prec + guard
    ws = [magic._fixed(u, prec) for u in us]
    ln2 = ln2_fixed(prec)
    worst = 0
    for k in (0, 1, 7, spec.uside.fix):
        for rem in _boundary_remainders(prec):
            for extra in (0, mp.mpf("0.99")):
                with mp.workprec(prec + 64):
                    scale = mp.ldexp(k * ln2 + rem + extra, -prec)
                got = magic._exp_fixed(scale, ws, prec, guard)
                with mp.workprec(prec + 100):
                    for u, e in zip(us, got):
                        exact = mp.ldexp(mp.exp(-scale * u), prec - guard)
                        assert abs(e - exact) <= 1.04, (k, rem, extra, u)
                        worst = max(worst, abs(e - exact))
    assert worst > 0.5


@pytest.mark.parametrize("dps", [10, 60, 200])
def test_inverse_node_table_is_exact(dps, monkeypatch):
    # each fixed-point 1/u, times 2^-(fix + guard), is exactly 1/u at the
    # working precision, for the u at which the node series are summed
    points = []
    at = _NodeSeries.at

    def recording(self, us):
        points.append(list(us))
        return at(self, us)

    monkeypatch.setattr(_NodeSeries, "at", recording)
    series = [psi_forms(8)["psi_plus"],
              s_transform_terms(8)["psi_minus"][0][2]]
    side = magic._uside_kernels(series, 4, dps)
    us = next(p for p in points if len(p) == len(side.inv_u))
    assert max(us) <= 2 ** (side.guard - 8)
    with mp.workdps(dps + 10):
        assert mp.mp.prec == side.fix
        for u, w in zip(us, side.inv_u):
            man, exp = (1 / u).man_exp
            assert exp + side.fix + side.guard >= 0
            assert w == man << exp + side.fix + side.guard, u


def test_cut_sum_adds_a_bound_on_the_rest():
    # after the first two terms the tails drop 2^-100-fold and stay; the
    # later weights sum to 3, each 1/3 cut off at 64 bits, so the rest
    # bound needs both the weight factor and the rounding up
    with mp.workprec(300):
        weights = [mp.mpf(1)] + [1 / mp.mpf(3)] * 10
        tails = [mp.mpf(1)] + [mp.ldexp(1, -100)] * 10
        full = mp.fsum(w * t for w, t in zip(weights, tails))
        drawn = []

        def terms():
            for t in tails:
                drawn.append(t)
                yield t

        got = magic._cut_sum(terms(), weights, 64)
        assert len(drawn) == 2  # the cut draws no later tail
        assert full <= got <= full * (1 + mp.ldexp(1, -90))
        # without a cut every term is summed
        flat = [mp.mpf(1)] * 11
        assert magic._cut_sum(iter(flat), weights, 64) == sum(weights)


@pytest.mark.parametrize("dps", [10, 60, 200])
@pytest.mark.parametrize("n", [8, 24])
def test_cut_series_error_bounds_the_full_sum(n, dps, monkeypatch):
    # each cut tail sum of a u-side build against the sum over every node
    # of the same tails, taken at 30 more digits
    records = []
    cut_sum = magic._cut_sum

    def recording(terms, weights, fix):
        terms = list(terms)
        got = cut_sum(iter(terms), weights, fix)
        with mp.workdps(dps + 40):
            full = mp.fsum(w * t for w, t in zip(weights, terms))
        records.append((got, full, mp.mpf(2) ** (8 - fix)))
        return got

    monkeypatch.setattr(magic, "_cut_sum", recording)
    series = [psi_forms(n)["psi_plus"],
              s_transform_terms(n)["psi_minus"][0][2]]
    magic._uside_kernels(series, n // 2, dps)
    assert len(records) == 2
    with mp.workdps(dps + 40):
        for got, full, rounding in records:
            # the working-precision sum may round below by a few ulps
            assert got >= full * (1 - rounding)
            assert got <= full * (1 + mp.mpf(2) ** -50)


def test_cold_spec_build_counts(monkeypatch):
    # with the q-series built, a cold MagicFunctionSpec(8) takes under 100
    # exps (369 with one per node) and 120 tail bounds (716)
    psi_forms(8, magic.DEFAULT_TRUNC)
    s_transform_terms(8, magic.DEFAULT_TRUNC)
    calls = {"exp": 0, "tail": 0}
    exp, tail_bound = mp.exp, Envelope.tail_bound

    def counting_exp(x):
        calls["exp"] += 1
        return exp(x)

    def counting_tail(self, n_start, x):
        calls["tail"] += 1
        return tail_bound(self, n_start, x)

    monkeypatch.setattr(mp, "exp", counting_exp)
    monkeypatch.setattr(Envelope, "tail_bound", counting_tail)
    monkeypatch.setattr(magic, "_EXP_TABLES", {})
    magic.MagicFunctionSpec(8)
    assert 0 < calls["exp"] <= 100
    assert 0 < calls["tail"] <= 120


@pytest.mark.parametrize("count", [1, 2, 3])
def test_short_sweeps_within_stated_units(spec8, count):
    fix = spec8.uside.fix
    nodes = _spec_nodes(spec8)
    for r in ("0", "1e-20", "0.7", "8.71", "40", "1e3"):
        with mp.workdps(spec8.dps + 10):
            r0, h = mp.mpf(r), mp.mpf("0.3")
            decays = list(spec8._decays(r0, h, count))
            radii = [r0 + k * h for k in range(count)]
        with mp.workdps(spec8.dps + 40):
            for k, (rk, decay) in enumerate(zip(radii, decays)):
                for v, e in zip(nodes, decay):
                    exact = mp.ldexp(mp.exp(mp.pi * rk * rk * v), fix)
                    assert abs(e - exact) <= 2 * (k + 2) ** 2, (r, k, v)
