"""Binary linear codes: the length-8 Hamming code, the extended binary Golay
code, weight enumeration, self-duality and double evenness read off the
generator.

Codewords are stored as machine integers (bit i = coordinate i, i < length),
and full enumeration of a dimension-k code walks its 2^k words in Gray-code
order, one XOR per word.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


def _bits_from_string(s: str) -> int:
    word = 0
    for i, ch in enumerate(s):
        if ch == "1":
            word |= 1 << i
    return word


def _string_from_bits(word: int, n: int) -> str:
    return "".join("1" if word >> i & 1 else "0" for i in range(n))


@dataclass(frozen=True)
class BinaryCode:
    """A binary linear [n, k] code given by k independent generator rows."""

    length: int
    dimension: int
    generator: tuple

    def codewords(self):
        """Yield all 2^k codewords in Gray-code order: word m is word m - 1
        XOR the generator row at the lowest set bit of m."""
        word = 0
        yield word
        for m in range(1, 1 << self.dimension):
            word ^= self.generator[(m & -m).bit_length() - 1]
            yield word

    def generator_strings(self):
        return [_string_from_bits(row, self.length) for row in self.generator]


@dataclass(frozen=True)
class WeightEnumerator:
    counts: tuple  # sorted tuple of (weight, count)

    def as_dict(self):
        return dict(self.counts)


# Generator matrices in (I | A) block form.  The right blocks come from the
# vertex adjacency of the tetrahedron (Hamming) and the complemented
# adjacency J - A of the icosahedron (Golay).

_HAMMING8_ROWS = [
    "1000" "0111",
    "0100" "1011",
    "0010" "1101",
    "0001" "1110",
]

_GOLAY24_ROWS = [
    "100000000000" "100000111111",
    "010000000000" "010110001111",
    "001000000000" "001011100111",
    "000100000000" "010101110011",
    "000010000000" "011010111001",
    "000001000000" "001101011101",
    "000000100000" "101110101100",
    "000000010000" "100111010110",
    "000000001000" "110011101010",
    "000000000100" "111001110100",
    "000000000010" "111100011010",
    "000000000001" "111111000001",
]


def hamming8() -> BinaryCode:
    rows = tuple(_bits_from_string(s) for s in _HAMMING8_ROWS)
    return BinaryCode(8, 4, rows)


def golay24() -> BinaryCode:
    rows = tuple(_bits_from_string(s) for s in _GOLAY24_ROWS)
    return BinaryCode(24, 12, rows)


def zero_code(n: int) -> BinaryCode:
    """The trivial code {0} of length n."""
    return BinaryCode(n, 0, ())


def weight_enumerator(code: BinaryCode) -> WeightEnumerator:
    """Exact weight census by full enumeration of the 2^k codewords."""
    counts = Counter(w.bit_count() for w in code.codewords())
    return WeightEnumerator(tuple(sorted(counts.items())))


def code_properties(code: BinaryCode) -> dict:
    """self_dual: equals its dual; doubly_even: 4 | every weight.  Both are
    read off the generator, without enumerating the code.

    The code lies in its dual exactly when every pair of generator rows has
    an even overlap, and the dual has dimension n - k, so the code is
    self-dual exactly when, in addition, 2k = n.  Since
    wt(a + b) = wt(a) + wt(b) - 2 wt(a & b), the code is doubly even exactly
    when it lies in its dual and 4 divides the weight of every row.
    """
    rows = code.generator
    in_dual = all((a & b).bit_count() % 2 == 0 for a in rows for b in rows)
    return {"self_dual": in_dual and 2 * code.dimension == code.length,
            "doubly_even": in_dual and all(
                a.bit_count() % 4 == 0 for a in rows)}
