import dataclasses
import itertools
import math
from fractions import Fraction

import mpmath as mp
import pytest

from packbound import codes, exact, lattices
from packbound.certify import poisson_check
from packbound.codes import BinaryCode, golay24, hamming8, zero_code
from packbound.exact import PackboundError, fraction_free_solve, integer_scaled
from packbound.lattices import (
    SymbolicVolume, _build_leech_from_shift, _count_cosets, _make_lattice,
    ball_volume, construction_a, covolume, lattice_properties,
    standard_lattice, vectors_by_norm,
)
from packbound.qseries import QSeries, eisenstein, theta01

def test_ball_volume_unit_disc():
    v = ball_volume(2, 1)
    assert v.coefficient == 1 and v.pi_power == 1


def test_ball_volume_interval():
    v = ball_volume(1, Fraction(1, 4))
    assert v.is_rational() and v.rational_value() == 1


def test_ball_volume_dim8():
    v = ball_volume(8, 1)
    assert v.coefficient == Fraction(1, 24) and v.pi_power == 4


@pytest.mark.parametrize("sq_radius", [
    Fraction(1, 4), Fraction(1), Fraction(2), Fraction(3, 8), Fraction(7, 5),
    Fraction(50, 3), Fraction(1, 2)], ids=str)
def test_ball_volume_matches_the_gamma_formula(sq_radius):
    # oracle: pi^(n/2) r^n / Gamma(n/2 + 1) in mpmath, for every n <= 64;
    # an odd n needs a rational r, so the other radii are refused there
    rational_r = math.isqrt(sq_radius.numerator) ** 2 == sq_radius.numerator \
        and math.isqrt(sq_radius.denominator) ** 2 == sq_radius.denominator
    with mp.workdps(60):
        r = mp.sqrt(mp.mpf(sq_radius.numerator) / sq_radius.denominator)
        for n in range(1, 65):
            if n % 2 and not rational_r:
                with pytest.raises(PackboundError, match="not rational"):
                    ball_volume(n, sq_radius)
                continue
            expected = mp.pi ** (mp.mpf(n) / 2) * r ** n / mp.gamma(
                mp.mpf(n) / 2 + 1)
            assert abs(ball_volume(n, sq_radius).mpf() / expected - 1) < (
                mp.mpf(10) ** -50), n


def test_construction_a_e8_covolume_and_min():
    e8 = construction_a(hamming8())
    assert covolume(e8).is_rational()
    assert covolume(e8).rational_value() == 1
    props = lattice_properties(e8)
    assert props["min_sq_norm"] == 2


def test_construction_a_zero_code():
    # sqrt(2) Z: its covolume sqrt(2) is no rational times a power of pi
    lat = construction_a(zero_code(1))
    assert lat.gram_det == 2
    with pytest.raises(PackboundError, match=r"sqrt\(2\) is not rational"):
        covolume(lat)


def test_e8_properties():
    e8 = standard_lattice("e8")
    props = lattice_properties(e8)
    assert str(props.pop("density")) == "pi^4/384"
    assert props == {"even": True, "unimodular": True,
                     "min_sq_norm": 2, "kissing": 240}


def test_e8_theta_counts():
    e8 = standard_lattice("e8")
    t = vectors_by_norm(e8, 6)
    assert t.as_dict() == {Fraction(0): 1, Fraction(2): 240,
                           Fraction(4): 2160, Fraction(6): 6720}


def test_l24_covolume():
    l24 = standard_lattice("l24")
    assert covolume(l24).rational_value() == 1
    props = lattice_properties(l24)
    assert props["min_sq_norm"] == 2 and props["kissing"] == 48


def test_leech_lattice():
    leech = standard_lattice("leech")
    assert covolume(leech).rational_value() == 1
    props = lattice_properties(leech)
    assert str(props.pop("density")) == "pi^12/479001600"
    assert props == {"even": True, "unimodular": True,
                     "min_sq_norm": 4, "kissing": 196560}


def test_leech_has_no_norm2_vectors():
    leech = standard_lattice("leech")
    t = vectors_by_norm(leech, 6)
    assert t.as_dict() == {Fraction(0): 1, Fraction(2): 0,
                           Fraction(4): 196560, Fraction(6): 16773120}


def test_leech_accepted_shift_is_validated():
    # the pinned glue scale 1 is the Leech lattice (test_leech_lattice);
    # scale 2, the other shift integral in the frame, misses minimum 4 and
    # kissing number 196560
    leech = standard_lattice("leech")
    assert leech == _build_leech_from_shift(1)
    assert leech.counting.parts == ((0, 2, 0), (1, 2, 28))
    props = lattice_properties(_build_leech_from_shift(2))
    assert props["min_sq_norm"] == 2 and props["kissing"] == 48


def test_zn_density_is_one():
    z1 = standard_lattice("zn", 1)
    d = lattice_properties(z1)["density"]
    assert d.is_rational() and d.rational_value() == 1


def test_e8_density():
    d = lattice_properties(standard_lattice("e8"))["density"]
    assert d.coefficient == Fraction(1, 384) and d.pi_power == 4
    assert str(d) == "pi^4/384"
    assert abs(d.to_float() - 0.2536695079) < 1e-9


def test_leech_density():
    d = lattice_properties(standard_lattice("leech"))["density"]
    assert d.coefficient == Fraction(1, 479001600) and d.pi_power == 12


def test_scaled_z_covolume():
    # sqrt(2) Z and sqrt(2) Z^2, the non-unit covolumes among the tests:
    # sqrt(2) is refused, 2 is exact
    with pytest.raises(PackboundError, match="not rational"):
        covolume(construction_a(zero_code(1)))
    cv = covolume(construction_a(zero_code(2)))
    assert cv.is_rational() and cv.rational_value() == 2


def _bareiss_det(gram):
    """det(gram) by Bareiss elimination of the Gram matrix scaled to
    integers, independent of the Hermite reduction."""
    n = len(gram)
    ints, scale = integer_scaled([x for row in gram for x in row])
    _, det = fraction_free_solve(
        [ints[i * n:(i + 1) * n] for i in range(n)],
        [[int(i == j) for j in range(n)] for i in range(n)])
    return Fraction(det, scale ** n)


def test_stored_determinant_is_the_gram_determinant():
    for lat in (standard_lattice("zn", 3), standard_lattice("e8"),
                standard_lattice("l24"), standard_lattice("leech"),
                _build_leech_from_shift(2), construction_a(zero_code(2)),
                _make_lattice([[1, 1], [1, -1]], 0),
                _make_lattice([[2, 0], [0, 1]], 1),
                _make_lattice([[3, 1, 0], [1, -2, 5], [0, 4, 1]], 0)):
        assert lat.gram_det == _bareiss_det(lat.gram), lat.name


def test_generating_rows_are_reduced_once():
    # E8 from the Hamming code's 4 generating rows and 2 e_i: the 12 rows
    # span the same lattice construction_a builds
    gens = [[(row >> i) & 1 for i in range(8)] for row in hamming8().generator]
    gens += [[2 * int(i == j) for j in range(8)] for i in range(8)]
    assert len(gens) == 12
    lat, e8 = _make_lattice(gens, 1), standard_lattice("e8")
    assert (lat.gram, lat.gram_det) == (e8.gram, e8.gram_det)
    # a hand-given basis that is not triangular stores the Gram matrix of
    # its reduced basis [[1, 1], [0, 2]], which spans the same lattice
    rotated = _make_lattice([[1, 1], [1, -1]], 0)
    assert rotated.gram == ((2, 2), (2, 4)) and rotated.gram_det == 4


def test_built_lattice_runs_no_elimination_or_enumeration(monkeypatch):
    # the determinant and the weight enumerator are fixed at construction
    built = [standard_lattice("zn", 8), standard_lattice("e8"),
             standard_lattice("leech")]

    def fail(*args):
        raise AssertionError("recomputed after construction")

    for module in (exact, lattices):
        monkeypatch.setattr(module, "hermite_row_basis", fail)
    for module in (codes, lattices):
        monkeypatch.setattr(module, "weight_enumerator", fail)
    for lat in built:
        assert covolume(lat).rational_value() == 1
        assert lattice_properties(lat)["unimodular"]
        assert poisson_check(lat, 1, 6)["residual"] < 1e-3
    # the norm quantum and unimodularity are read, not derived again from
    # the Gram matrix: a copy of E8 that stores quantum 1 and unimodular
    # False gets a table on the integers and a refused Poisson check
    doctored = dataclasses.replace(built[1], quantum=Fraction(1),
                                   unimodular=False)
    assert vectors_by_norm(doctored, 4).as_dict() == {
        0: 1, 1: 0, 2: 240, 3: 0, 4: 2160}
    with pytest.raises(PackboundError, match="unimodular"):
        poisson_check(doctored, 1, 6)


def _count_by_weight_class(n, cosets, max_norm):
    """Reference counter: F1^w F0^(n-w) built from scratch for each weight
    class w of the code, times its multiplicity."""
    weights, modulus, denom, parts, sum_mod = cosets
    limit = int(denom * max_norm)
    counts = {}
    for offset, step, target in parts:
        factors = []
        for bit in (0, 1):
            residue = (offset + step * bit) % modulus
            factor = {}
            for m in range(-math.isqrt(limit), math.isqrt(limit) + 1):
                if m % modulus == residue:
                    key = (m * m, m % sum_mod)
                    factor[key] = factor.get(key, 0) + 1
            factors.append(factor)
        for w, mult in weights.counts:
            state = {(0, 0): 1}
            for factor in [factors[1]] * w + [factors[0]] * (n - w):
                nxt = {}
                for (e, s), cval in state.items():
                    for (de, dm), fcnt in factor.items():
                        if e + de <= limit:
                            key = (e + de, (s + dm) % sum_mod)
                            nxt[key] = nxt.get(key, 0) + cval * fcnt
                state = nxt
            for (e, s), cval in state.items():
                if s == target % sum_mod:
                    key = Fraction(e, denom)
                    counts[key] = counts.get(key, 0) + mult * cval
    return counts


@pytest.mark.parametrize("lat, top", [
    *((standard_lattice("zn", n), 24) for n in (*range(1, 9), 24)),
    (standard_lattice("e8"), 64), (standard_lattice("l24"), 24),
    (standard_lattice("leech"), 24), (_build_leech_from_shift(2), 24),
], ids=[*(f"z{n}" for n in (*range(1, 9), 24)), "e8", "l24", "leech",
        "leech-scale-2"])
def test_horner_counts_match_the_weight_class_counts(lat, top):
    for cutoff in range(0, top + 1, 2):
        assert _count_cosets(lat.dimension, lat.counting, Fraction(cutoff)) \
            == _count_by_weight_class(lat.dimension, lat.counting,
                                      Fraction(cutoff)), cutoff


@pytest.mark.parametrize("code", [
    BinaryCode(4, 1, (0b1111,)), BinaryCode(3, 2, (0b011, 0b110)),
], ids=["repetition-4", "even-weight-3"])
def test_gapped_enumerators_match_a_box_enumeration(code):
    # a_1 = a_2 = a_3 = 0 below the top weight 4, and a top weight 2 below
    # the length 3: Construction A holds x / sqrt(2) with x mod 2 in the
    # code, so squared length 6 bounds |x_i| by 3
    n, words = code.length, set(code.codewords())
    expected = {}
    for x in itertools.product(range(-3, 4), repeat=n):
        norm = Fraction(sum(v * v for v in x), 2)
        if norm <= 6 and sum((v % 2) << i for i, v in enumerate(x)) in words:
            expected[norm] = expected.get(norm, 0) + 1
    table = vectors_by_norm(construction_a(code), 6).as_dict()
    assert {v: c for v, c in table.items() if c} == expected


def test_counts_are_centrally_symmetric():
    for lat in (standard_lattice("e8"), standard_lattice("zn", 3)):
        t = vectors_by_norm(lat, 5)
        for v, c in t.counts:
            if v > 0:
                assert c % 2 == 0


def test_zn2_properties():
    props = lattice_properties(standard_lattice("zn", 2))
    assert str(props.pop("density")) == "pi/4"
    assert props == {"even": False, "unimodular": True,
                     "min_sq_norm": 1, "kissing": 4}
    # determinant 1 but not integral, so not unimodular
    lat = _make_lattice([[2, 0], [0, 1]], 1)
    assert lat.gram == ((2, 0), (0, Fraction(1, 2)))
    assert lat.gram_det == 1
    assert lat.unimodular is False


def test_coset_counts_match_theta_series():
    # the counts of Z^4, sqrt(2) Z^8 and E8 up to squared norm 12 are the
    # coefficients of Theta00^4, Theta00^8 and E4; a vector of squared norm
    # v sits at grid exponent 4 v / scale, scale 2 for sqrt(2) Z^8
    theta00 = theta01()
    theta00 = QSeries({e: abs(c) for e, c in theta00.coeffs.items()},
                      theta00.trunc)
    for lat, form, scale in ((standard_lattice("zn", 4), theta00 ** 4, 1),
                             (construction_a(zero_code(8)), theta00 ** 8, 2),
                             (standard_lattice("e8"), eisenstein(4), 1)):
        counts = vectors_by_norm(lat, 12).as_dict()
        assert {v: c for v, c in counts.items() if c} == {
            Fraction(e * scale, 4): c for e, c in form.items()
            if e * scale <= 48}, lat.name


@pytest.mark.parametrize("lat, quantum", [
    (standard_lattice("zn", 2), 1), (standard_lattice("zn", 24), 1),
    (standard_lattice("e8"), 2), (standard_lattice("l24"), 2),
    (standard_lattice("leech"), 2), (construction_a(zero_code(1)), 2),
    (_make_lattice([[1, 1], [1, -1]], 0), 2),
    (_make_lattice([[2, 0], [0, 1]], 1), Fraction(1, 2)),
], ids=["z2", "z24", "e8", "l24", "leech", "sqrt2-z", "rotated-z2",
        "non-integral"])
def test_norm_quantum(lat, quantum):
    assert lat.quantum == quantum


def test_enumeration_budget():
    with pytest.raises(PackboundError, match="exceeds enumeration budget"):
        vectors_by_norm(standard_lattice("e8"), 1000)


def test_doubly_even_self_dual_gives_even_unimodular():
    # cross-module property: Construction A on both named codes
    for code in (hamming8(), golay24()):
        lat = construction_a(code)
        props = lattice_properties(lat)
        assert props["even"] and props["unimodular"]


def test_theta_coefficients_e8():
    e8 = standard_lattice("e8")
    table = vectors_by_norm(e8, 10, budget=Fraction(10))
    assert [table.count(Fraction(2 * r)) for r in range(6)] == [
        1, 240, 2160, 6720, 17520, 30240]


def test_norm_table_csv():
    t = vectors_by_norm(standard_lattice("zn", 2), 2)
    assert t.to_csv() == "sq_norm,count\n0,1\n1,4\n2,4\n"


def test_symbolic_volume_str():
    assert str(SymbolicVolume(Fraction(3, 4), 2)) == "3*pi^2/4"
    assert str(SymbolicVolume(Fraction(2))) == "2"
