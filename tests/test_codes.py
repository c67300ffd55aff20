import pytest

from packbound.codes import (
    BinaryCode, CodeError, code_properties, dual_code, golay24, hamming8,
    same_code, weight_enumerator, zero_code,
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
    assert same_code(dual_code(hamming8()), hamming8())
    assert same_code(dual_code(golay24()), golay24())


def test_dual_of_zero_code_is_full_space():
    d = dual_code(zero_code(3))
    assert d.dimension == 3
    assert sum(1 for _ in d.codewords()) == 8


def test_code_properties():
    assert code_properties(hamming8()) == {"self_dual": True, "doubly_even": True}
    assert code_properties(golay24()) == {"self_dual": True, "doubly_even": True}


def test_repetition_code_length2():
    # generated by 11: self-dual but not doubly even
    c = BinaryCode(2, 1, (0b11,))
    assert code_properties(c) == {"self_dual": True, "doubly_even": False}


def test_generator_self_orthogonality():
    # G G^T = 0 mod 2 for both named codes
    for c in (hamming8(), golay24()):
        for r1 in c.generator:
            for r2 in c.generator:
                assert bin(r1 & r2).count("1") % 2 == 0


def test_weight_counts_sum_to_size():
    for c in (hamming8(), golay24(), zero_code(4)):
        assert weight_enumerator(c).total() == 2 ** c.dimension


def test_contains_codewords_only():
    c = hamming8()
    assert all(c.contains(w) for w in c.codewords())
    # minimum weight 4: no word of weight 1 or 2 is in the code
    assert not any(c.contains(1 << i) for i in range(8))
    assert not c.contains(0b11)


def test_dependent_rows_rejected():
    with pytest.raises(CodeError):
        BinaryCode(4, 2, (0b0011, 0b0011))


def test_json_roundtrip():
    c = golay24()
    c2 = BinaryCode.from_json(c.to_json())
    assert c2 == c


if HAVE_HYPOTHESIS:
    @st.composite
    def small_codes(draw):
        n = draw(st.integers(min_value=2, max_value=10))
        nrows = draw(st.integers(min_value=1, max_value=min(5, n)))
        rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                             min_size=nrows, max_size=nrows))
        # keep an independent subset
        kept = []
        for r in rows:
            try:
                BinaryCode(n, len(kept) + 1, tuple(kept + [r]))
                kept.append(r)
            except CodeError:
                pass
        if not kept:
            kept = [1]
        return BinaryCode(n, len(kept), tuple(kept))

    @given(small_codes())
    @settings(max_examples=40, deadline=None)
    def test_double_dual_is_identity(code):
        assert same_code(dual_code(dual_code(code)), code)

    @given(small_codes())
    @settings(max_examples=40, deadline=None)
    def test_dual_dimension(code):
        assert dual_code(code).dimension == code.length - code.dimension
