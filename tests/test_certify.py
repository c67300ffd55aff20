import copy
import random
from fractions import Fraction

import mpmath as mp
import pytest

from packbound import certify as certify_mod
from packbound.certify import (
    Certificate, CertifyError, RationalInterval, certify_magic,
    certify_positive_tail, exp_interval, nth_root_bounds, poisson_check,
)
from packbound.exact import poly_eval, sturm_count, sturm_roots
from packbound.codes import zero_code
from packbound.lattices import construction_a, standard_lattice
from packbound.magic import MagicError
from packbound.qseries import CertifiedValue, QSeries, conjugate_psi_minus


# -- rational intervals -------------------------------------------------------

def test_interval_arithmetic_encloses():
    a = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    b = RationalInterval(Fraction(-2), Fraction(3))
    s = a + b
    assert s.lo == Fraction(1, 3) - 2 and s.hi == Fraction(7, 2)
    p = a * b
    assert p.contains(Fraction(1, 3) * 3) and p.contains(Fraction(-1))


def test_interval_order_enforced():
    with pytest.raises(CertifyError):
        RationalInterval(1, 0)


def test_exp_interval():
    e = exp_interval(Fraction(1))
    with mp.workdps(60):
        ref = Fraction(mp.nstr(mp.e, 50))
    assert e.lo <= ref <= e.hi
    assert e.width() < Fraction(1, 10 ** 15)
    em = exp_interval(Fraction(-7, 2))
    with mp.workdps(60):
        true = Fraction(mp.nstr(mp.exp(mp.mpf("-3.5")), 50))
        assert em.lo <= true <= em.hi
        assert em.hi - em.lo < Fraction(1, 10 ** 30)


def test_nth_root_bounds():
    r = nth_root_bounds(Fraction(2), 2)
    assert r.lo ** 2 <= 2 <= r.hi ** 2
    assert r.width() < Fraction(1, 10 ** 15)


# -- Sturm --------------------------------------------------------------------

def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_sturm_simple():
    p = [Fraction(-2), Fraction(0), Fraction(1)]  # x^2 - 2
    assert sturm_count(p, 1, 2) == 1
    assert sturm_count(p, -2, 2) == 2


def test_sturm_cubic():
    # (x-1)(x-2)(x-3) on (0, 5/2) -> 2
    p = poly_mul(poly_mul([Fraction(-1), Fraction(1)],
                          [Fraction(-2), Fraction(1)]),
                 [Fraction(-3), Fraction(1)])
    assert sturm_count(p, 0, Fraction(5, 2)) == 2


def test_sturm_roots_isolates_each_root_once():
    # (x-1)(x-2)(x-3)^2: the double root is one root
    p = [Fraction(1)]
    for r in (1, 2, 3, 3):
        p = poly_mul(p, [Fraction(-r), Fraction(1)])
    roots = sturm_roots(p, 0)
    assert len(roots) == 3
    assert all(abs(y - r) <= Fraction(r, 2 ** 30)
               for y, r in zip(roots, (1, 2, 3)))
    # a root at lo is outside (lo, inf)
    assert len(sturm_roots(p, 1)) == 2


def test_sturm_endpoint_root_deflated():
    p = [Fraction(-2), Fraction(0), Fraction(1)]
    # sqrt(2) is interior; endpoint root at 2 of (x-2)(x^2-2)
    q = poly_mul(p, [Fraction(-2), Fraction(1)])
    assert sturm_count(q, 1, 2) == 1
    # without hi the count runs to +inf; a root at lo is divided out
    r = poly_mul(q, [Fraction(1), Fraction(1)])  # roots -sqrt2, -1, sqrt2, 2
    assert sturm_count(r, -1) == 2
    assert sturm_count(q, 2) == 0


def test_sturm_agrees_with_bisection():
    # oracle: isolate roots of the squarefree part by sign-change bisection
    # down to width 1e-6, scanning in floats (coefficients are small ints)
    from packbound.exact import poly_deriv, poly_divmod, poly_trim

    def poly_gcd(a, b):
        a, b = poly_trim(list(a)), poly_trim(list(b))
        while b:
            _, r = poly_divmod(a, b)
            a, b = b, poly_trim(r)
        return a

    def bisection_count(p, lo, hi):
        pf = [float(c) for c in p]

        def ev(x):
            acc = 0.0
            for c in reversed(pf):
                acc = acc * x + c
            return acc

        count = 0
        # prime cell count keeps small rational roots off cell boundaries
        cells = 257
        stack = [(float(lo) + (float(hi) - float(lo)) * i / cells,
                  float(lo) + (float(hi) - float(lo)) * (i + 1) / cells)
                 for i in range(cells)]
        for a, b in stack:
            fa, fb = ev(a), ev(b)
            while b - a > 1e-6:
                m = (a + b) / 2
                fm = ev(m)
                if fa * fm <= 0:
                    b, fb = m, fm
                else:
                    a, fa = m, fm
            # fb == 0 means the drill landed exactly on a root interior to
            # the original cell (fa == 0 is the mirrored case of the
            # neighbouring cell and must not double-count)
            if fa * fb < 0 or (fb == 0 and fa != 0):
                count += 1
        return count

    rng = random.Random(20160314)
    for _ in range(100):
        deg = rng.randint(1, 10)
        p = [Fraction(rng.randint(-9, 9)) for _ in range(deg + 1)]
        while not any(p):
            p = [Fraction(rng.randint(-9, 9)) for _ in range(deg + 1)]
        lo, hi = Fraction(-4), Fraction(4)
        if poly_eval(p, lo) == 0 or poly_eval(p, hi) == 0:
            lo -= Fraction(1, 7)
            hi += Fraction(1, 7)
        sf, _ = poly_divmod(p, poly_gcd(p, poly_deriv(p)))
        count = bisection_count(sf, lo, hi)
        got = sturm_count(p, lo, hi)
        assert got == count
        assert len([y for y in sturm_roots(p, lo) if y <= hi]) == count


# -- positivity ---------------------------------------------------------------

def test_positive_tail_trivial():
    s = QSeries({0: 1, 8: 1}, 300)  # 1 + q
    cert = certify_positive_tail(s, RationalInterval(0, Fraction(1, 2)),
                                 head_terms=5)
    assert cert.status == "verified"


def test_positive_tail_refuted():
    s = QSeries({0: 1, 8: -3}, 300)  # 1 - 3q, negative from q = 1/3
    cert = certify_positive_tail(
        s, RationalInterval(Fraction(1, 2), Fraction(3, 4)), head_terms=5)
    assert cert.status == "refuted"


def test_positive_tail_kernel_instance():
    # the conjugate minus kernel is positive where the contour integral runs
    # (q <= e^(-2 pi) ~ 1/535 corresponds to u >= 1)
    s = conjugate_psi_minus(8)
    cert = certify_positive_tail(
        s, RationalInterval(Fraction(1, 10 ** 9), Fraction(1, 500)),
        head_terms=12)
    assert cert.status == "verified"
    assert any("Sturm" in step["statement"] for step in cert.log)


def test_positive_tail_monotone_in_head_terms():
    s = conjugate_psi_minus(8)
    iv = RationalInterval(Fraction(1, 10 ** 9), Fraction(1, 500))
    a = certify_positive_tail(s, iv, head_terms=12)
    b = certify_positive_tail(s, iv, head_terms=13)
    assert a.status == "verified" and b.status == "verified"


# -- Poisson ------------------------------------------------------------------

def test_poisson_zn8():
    res = poisson_check(standard_lattice("zn", 8), Fraction(1), 25)
    assert res["residual"] <= 1e-10


def test_poisson_refuses_non_unimodular():
    # sqrt(2) Z has determinant 2: its dual is not the lattice itself
    with pytest.raises(CertifyError, match="unimodular"):
        poisson_check(construction_a(zero_code(1)), Fraction(1), 5)


def test_poisson_e8():
    res = poisson_check(standard_lattice("e8"), Fraction(1), 25)
    assert res["residual"] <= 1e-10


def test_poisson_e8_off_symmetric_width():
    # sigma != 1 exercises the two different sums for real
    res = poisson_check(standard_lattice("e8"), Fraction(4, 5), 25)
    assert res["difference"] <= 1e-12
    assert res["residual"] <= 1e-8


@pytest.mark.slow
def test_poisson_leech():
    res = poisson_check(standard_lattice("leech"), Fraction(1), 12)
    assert res["residual"] <= 1e-8


def test_poisson_residual_decreases_with_cutoff():
    z8 = standard_lattice("zn", 8)
    r1 = poisson_check(z8, Fraction(1), 10)["residual"]
    r2 = poisson_check(z8, Fraction(1), 20)["residual"]
    assert r2 < r1


# -- composite certificate ------------------------------------------------------

@pytest.mark.slow
def test_certify_magic_8(spec8):
    cert = certify_magic(8, spec8)
    assert cert.status == "verified", cert.to_json()


def test_certify_magic_margin_shortfall_is_inconclusive(spec8, monkeypatch):
    # every sign is right, but no margin reaches 1e300: not a refutation
    monkeypatch.setattr(certify_mod, "_FAR_MARGIN", 1e300)
    cert = certify_magic(8, spec8)
    assert cert.status == "inconclusive"
    failing = [s["statement"] for s in cert.log if not s["passed"]]
    assert failing == ["far decay beyond 8.0: signs with margin >= 1e+300"]


def test_certify_magic_sweeps_one_grid(spec8):
    # both sign steps read one sweep from r = 0; besides it only the three
    # far samples are single-radius pair() calls, since every step at an
    # even squared radius, f(r1) = 0 among them, reads the exact jet
    spec = copy.copy(spec8)
    spec._cache = {}
    grids = []
    sweep = spec.sweep

    def counting(r0, step, count):
        if count > 1:
            grids.append((r0, count))
        return sweep(r0, step, count)

    spec.sweep = counting
    assert certify_magic(8, spec).status == "verified"
    assert grids == [(0, 401)]
    assert len(spec._cache) <= 404


@pytest.mark.parametrize("n", [8, 24])
def test_certify_magic_grid_reaches_rmax(n, request):
    # the binary 0.02 lies above the decimal one, so floor(rmax / step)
    # alone would stop one point short of the rmax the steps name
    spec = copy.copy(request.getfixturevalue(f"spec{n}"))
    grids = []
    sweep = spec.sweep

    def recording(r0, step, count):
        if count > 1:
            grids.append((r0, step, count))
        return sweep(r0, step, count)

    spec.sweep = recording
    certify_magic(n, spec)
    [(r0, step, count)] = grids
    rmax = certify_mod._GRID_END[n]
    with mp.workdps(spec.dps + 10):
        assert abs(r0 + (count - 1) * step - rmax) < 1e-12


def test_certify_magic_refuses_a_spec_of_another_dimension(spec8):
    with pytest.raises(MagicError):
        certify_magic(24, spec8)


def test_certify_magic_f_step_reads_the_grid_beyond_r1(spec8):
    # a planted pair at the grid point r = 4 with f = fhat = |A| > 0 breaks
    # f <= 0 there and no other step
    spec = copy.copy(spec8)
    spec._cache = {}
    with mp.workdps(spec.dps + 10):
        key = (200 * mp.mpf(certify_mod._GRID_STEP))._mpf_
        spec._cache[key] = (CertifiedValue(mp.sign(spec._A), 0),
                            CertifiedValue(0, 0))
    cert = certify_magic(8, spec)
    assert cert.status == "refuted"
    assert [s["statement"] for s in cert.log if not s["passed"]] == [
        "f <= 0 on [r1, 8.0]"]


@pytest.mark.slow
def test_certify_magic_sabotage(spec8):
    bad = spec8.flipped_minus_copy()
    cert = certify_magic(8, bad)
    assert cert.status == "refuted"
    # an exact step that fails is a definite failure
    failing = {s["statement"] for s in cert.log
               if not s["passed"] and s["method"] == "exact"}
    assert {"double root of fhat at r1", "quadratic coefficient of f is -27/10",
            "quadratic coefficient of f_hat is -3/2"} <= failing


def test_certificate_json_roundtrip():
    cert = Certificate(claim="demo")
    cert.add_step("trivial", "exact", 0, True)
    import json
    obj = json.loads(cert.to_json())
    assert obj["status"] == "verified"
    # the definite flag decides the status but is not part of the record
    assert set(obj["log"][0]) == {"statement", "method", "bound", "passed",
                                  "detail"}


def test_certificate_status_follows_the_steps():
    cert = Certificate(claim="demo")
    assert cert.status == "inconclusive"  # nothing checked, nothing proved
    with pytest.raises(AttributeError):
        cert.status = "verified"
    cert.add_step("within its error bar", "numerical", 0, False,
                  definite=False)
    assert cert.status == "inconclusive"
    cert.add_step("passes", "exact", 0, True)
    assert cert.status == "inconclusive"
    cert.add_step("beyond its error bar", "numerical", 0, False)
    assert cert.status == "refuted"
    with pytest.raises(AttributeError):
        cert.status = "verified"
    assert cert.status == "refuted"
