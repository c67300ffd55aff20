import pytest

from packbound.codes import (
    BinaryCode, code_properties, golay24, hamming8,
    weight_enumerator, zero_code,
)

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def test_hamming8_shape():
    c = hamming8()
    assert c.length == 8
    assert c.dimension == 4
    assert c.generator_strings()[0] == "10000111"


def test_hamming8_codeword_count():
    assert sum(1 for _ in hamming8().codewords()) == 16


@pytest.mark.parametrize("code", [hamming8(), golay24(), zero_code(5)],
                         ids=["hamming8", "golay24", "zero5"])
def test_codewords_are_distinct(code):
    # 2^k distinct XOR combinations: the Gray-code walk misses none
    assert len(set(code.codewords())) == 2 ** code.dimension


def test_hamming8_weight_enumerator():
    we = weight_enumerator(hamming8()).as_dict()
    assert we == {0: 1, 4: 14, 8: 1}


def test_golay24_shape():
    c = golay24()
    assert c.dimension == 12
    assert c.generator_strings()[0] == "100000000000" + "100000111111"


def test_golay24_weight_enumerator():
    # Full enumeration of all 2^12 codewords.  The support is
    # {0, 8, 12, 16, 24}; in particular there are weight-12 words and no
    # weight-20 words.
    we = weight_enumerator(golay24()).as_dict()
    assert we == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def test_golay24_min_weight():
    we = weight_enumerator(golay24()).as_dict()
    assert min(w for w in we if w > 0) == 8


def test_zero_code_weights():
    assert weight_enumerator(zero_code(5)).as_dict() == {0: 1}


def test_self_duality():
    # 2k = n and every pair of generator rows overlaps evenly
    assert code_properties(hamming8())["self_dual"]
    assert code_properties(golay24())["self_dual"]
    # k = 0 < n/2; 2k < n with an even row; 2k = n with an odd row; 2k = n
    # with even rows of odd overlap
    for code in (zero_code(2), BinaryCode(4, 1, (0b1111,)),
                 BinaryCode(2, 1, (0b01,)),
                 BinaryCode(4, 2, (0b0011, 0b0110))):
        assert not code_properties(code)["self_dual"], code


def test_code_properties():
    assert code_properties(hamming8()) == {"self_dual": True, "doubly_even": True}
    assert code_properties(golay24()) == {"self_dual": True, "doubly_even": True}


def test_repetition_code_length2():
    # generated by 11: self-dual but not doubly even
    c = BinaryCode(2, 1, (0b11,))
    assert code_properties(c) == {"self_dual": True, "doubly_even": False}


def test_weight_four_rows_with_an_odd_overlap_are_not_doubly_even():
    # 0001111 + 1111000 = 1110111 has weight 6
    c = BinaryCode(7, 2, (0b0001111, 0b1111000))
    assert code_properties(c) == {"self_dual": False, "doubly_even": False}


def test_generator_self_orthogonality():
    # G G^T = 0 mod 2 for both named codes
    for c in (hamming8(), golay24()):
        for r1 in c.generator:
            for r2 in c.generator:
                assert bin(r1 & r2).count("1") % 2 == 0


def test_weight_counts_sum_to_size():
    for c in (hamming8(), golay24(), zero_code(4)):
        assert (sum(weight_enumerator(c).as_dict().values())
                == 2 ** c.dimension)


if HAVE_HYPOTHESIS:
    @st.composite
    def small_codes(draw):
        n = draw(st.integers(min_value=2, max_value=10))
        nrows = draw(st.integers(min_value=1, max_value=min(5, n)))
        rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                             min_size=nrows, max_size=nrows))
        # keep an independent subset: a row is kept when the 2^k words of
        # the code with it are distinct
        kept = []
        for r in rows:
            code = BinaryCode(n, len(kept) + 1, tuple(kept + [r]))
            if len(set(code.codewords())) == 2 ** code.dimension:
                kept.append(r)
        if not kept:
            kept = [1]
        return BinaryCode(n, len(kept), tuple(kept))

    @st.composite
    def self_dual_codes(draw):
        # coordinate pairs {11} on a random permutation, optionally with the
        # Hamming code on the first eight, then random row additions (the
        # same code on another generator)
        half = draw(st.integers(min_value=1, max_value=5))
        perm = draw(st.permutations(range(2 * half)))
        rows = [1 << perm[2 * i] | 1 << perm[2 * i + 1] for i in range(half)]
        if half >= 4 and draw(st.booleans()):
            rows[:4] = [sum((h >> j & 1) << perm[j] for j in range(8))
                        for h in hamming8().generator]
        index = st.integers(min_value=0, max_value=half - 1)
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            i, j = draw(index), draw(index)
            if i != j:
                rows[i] ^= rows[j]
        return BinaryCode(2 * half, half, tuple(rows))

    @given(st.one_of(small_codes(), self_dual_codes()))
    @settings(max_examples=80, deadline=None)
    def test_self_duality_matches_brute_force(code):
        # self-dual: the code is the set of words orthogonal to all its
        # codewords
        words = set(code.codewords())
        orthogonal = {y for y in range(1 << code.length)
                      if all(bin(x & y).count("1") % 2 == 0 for x in words)}
        assert code_properties(code)["self_dual"] == (words == orthogonal)

    @given(st.one_of(small_codes(), self_dual_codes()))
    @settings(max_examples=80, deadline=None)
    def test_doubly_even_matches_brute_force(code):
        assert code_properties(code)["doubly_even"] == all(
            bin(x).count("1") % 4 == 0 for x in code.codewords())
