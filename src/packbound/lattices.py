"""Exact lattice constructions: Z^n, the Construction-A lifts of the Hamming
and Golay codes (E8 and L24), and the Leech lattice, together with
covolume/density bookkeeping and exact vector counts by squared length.

Conventions
-----------
A lattice is its exact rational Gram matrix, the Gram determinant and the
coset data that counts its vectors.  It is given by integer generating rows
that, scaled by ``2**(-scale_exp/2)``, span the true lattice.  The rows are
reduced once, by Hermite reduction, to an upper triangular basis B with a
positive diagonal, so the Gram matrix is ``B @ B.T / 2**scale_exp`` and its
determinant the squared product of B's diagonal over 2^(scale_exp * n).
Both, with the norm quantum and unimodularity, are fixed at build time.

Vector counting never lists vectors.  Z^n, the Construction-A lifts and the
Leech lattice are each a union of code cosets
{w : w = offset + step*c mod M for a codeword c, sum(w) = target mod S} with
squared length w.w/D, and one counter (``_count_cosets``) extracts their
counts by squared length from per-coordinate generating polynomials, as the
Horner form of the code's weight enumerator.  Z^n is the zero code with
M = D = 1, Construction A has M = D = 2, and the Leech glue has M = 4, D = 8
and S = 8, the sum condition encoding the two glue conditions.  The coset
data, the code's weight enumerator included, is fixed when the lattice is
built (``Cosets``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp

from .codes import (
    BinaryCode, WeightEnumerator, golay24, hamming8, weight_enumerator,
    zero_code,
)
from .exact import PackboundError, frac, hermite_row_basis


# ---------------------------------------------------------------------------
# Symbolic volumes: rational * pi^k
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolicVolume:
    """Exact constant of the form coefficient * pi^pi_power, with a rational
    coefficient and an integer power: every ball volume, covolume, density
    and magic-function constant packbound forms."""

    coefficient: Fraction
    pi_power: int = 0

    @staticmethod
    def of(value) -> "SymbolicVolume":
        return SymbolicVolume(frac(value))

    def __mul__(self, other):
        if not isinstance(other, SymbolicVolume):
            other = SymbolicVolume.of(other)
        return SymbolicVolume(self.coefficient * other.coefficient,
                              self.pi_power + other.pi_power)

    def __truediv__(self, other):
        if not isinstance(other, SymbolicVolume):
            other = SymbolicVolume.of(other)
        return SymbolicVolume(self.coefficient / other.coefficient,
                              self.pi_power - other.pi_power)

    def __neg__(self):
        return SymbolicVolume(-self.coefficient, self.pi_power)

    def __abs__(self):
        return SymbolicVolume(abs(self.coefficient), self.pi_power)

    def is_rational(self) -> bool:
        return self.pi_power == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise PackboundError(f"{self} is not rational")
        return self.coefficient

    def mpf(self):
        """The value at the mpmath working precision."""
        c = self.coefficient
        return mp.mpf(c.numerator) / c.denominator * mp.pi ** self.pi_power

    def to_float(self) -> float:
        return float(self.coefficient) * math.pi ** self.pi_power

    def __str__(self):
        c, p = self.coefficient, self.pi_power
        if p == 0:
            return str(c)
        body = "pi" if p == 1 else f"pi^{p}"
        if c == 1:
            return body
        if c.denominator == 1:
            return f"{c.numerator}*{body}"
        if c.numerator == 1:
            return f"{body}/{c.denominator}"
        return f"{c.numerator}*{body}/{c.denominator}"


def _rational_sqrt(x: Fraction) -> Fraction:
    """Exact square root of a rational square; PackboundError otherwise."""
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        raise PackboundError(f"sqrt({x}) is not rational")
    return Fraction(num, den)


def ball_volume(n: int, sq_radius) -> SymbolicVolume:
    """Exact volume of the n-ball with squared radius r^2 = sq_radius, by
    V_0 = 1, V_1 = 2r and V_k = V_(k-2) * 2 pi r^2 / k.  For odd n, r must
    be rational (PackboundError otherwise)."""
    sq_radius = frac(sq_radius)
    v = SymbolicVolume.of(_rational_sqrt(4 * sq_radius) if n % 2 else 1)
    for k in range(2 + n % 2, n + 1, 2):
        v = v * SymbolicVolume(2 * sq_radius / k, 1)
    return v


# ---------------------------------------------------------------------------
# Lattice descriptions
# ---------------------------------------------------------------------------

class Cosets(NamedTuple):
    """A lattice as the union over ``parts`` (offset, step, target) of
    {w in Z^n : w = offset + step*c mod modulus for some codeword c,
    sum(w) = target mod sum_mod}, with squared length w.w/denom; ``weights``
    is the code's weight enumerator."""

    weights: WeightEnumerator
    modulus: int
    denom: int
    parts: tuple
    sum_mod: int = 1


@dataclass(frozen=True)
class LatticeDescription:
    dimension: int
    gram: tuple          # rows of Fractions
    gram_det: Fraction   # det(gram), fixed when the lattice is built
    # rational g with every squared vector length in g*Z: the gcd of the
    # diagonal and of twice the off-diagonal Gram entries
    quantum: Fraction
    unimodular: bool     # integral with determinant 1: its own dual
    name: str = ""
    counting: Cosets = None  # every named lattice's; vectors_by_norm reads it


def _make_lattice(rows, scale_exp, name="", counting=None):
    """The lattice the integer generating rows span, scaled by
    2^(-scale_exp/2), built as the module docstring says.  The rows must
    have full rank, as the rows of every construction here do."""
    n = len(rows[0])
    basis = hermite_row_basis(rows)
    two_s = 2 ** scale_exp
    ints = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    gram = tuple(tuple(Fraction(x, two_s) for x in row) for row in ints)
    det = Fraction(math.prod(u[i] for i, u in enumerate(basis)) ** 2,
                   two_s ** n)
    # with g the gcd of B B^T, the quantum is gcd(diagonal, 2 g) / 2^s
    g = math.gcd(*(x for row in ints for x in row))
    quantum = Fraction(math.gcd(2 * g, *(u[i] for i, u in enumerate(ints))),
                       two_s)
    unimodular = det == 1 and g % two_s == 0
    return LatticeDescription(n, gram, det, quantum, unimodular, name=name,
                              counting=counting)


@dataclass(frozen=True)
class NormCountTable:
    counts: tuple  # sorted tuple of (Fraction sq_norm, int count)

    def as_dict(self):
        return dict(self.counts)

    def count(self, sq_norm) -> int:
        return self.as_dict().get(frac(sq_norm), 0)

    def to_csv(self) -> str:
        lines = ["sq_norm,count"]
        for v, c in self.counts:
            lines.append(f"{v},{c}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def construction_a(code: BinaryCode, name="") -> LatticeDescription:
    """Lift a binary code: {x / sqrt(2) : x in Z^n, x mod 2 in code}."""
    n = code.length
    gens = [[(row >> i) & 1 for i in range(n)] for row in code.generator]
    gens += [[2 * (i == j) for j in range(n)] for i in range(n)]
    return _make_lattice(gens, 1, name=name, counting=Cosets(
        weight_enumerator(code), 2, 2, ((0, 1, 0),)))


def _build_leech_from_shift(shift_scale: int) -> LatticeDescription:
    """Z-span of the even-sum sublattice of L24 and the glued vector
    u = shift_scale*(1,...,1) + 4*e1, in the w = 2*sqrt(2)*x frame.

    The span is the even part {w = 2c mod 4, sum(w) = 0 mod 8} glued with
    u (index 2: 2u lands back in the even part for every integer scale),
    so it is counted as that part and its coset u + 2c mod 4 with
    sum(w) = sum(u) mod 8.
    """
    code = golay24()
    n = 24
    gens = [[2 * ((row >> i) & 1) for i in range(n)]
            for row in code.generator]
    # 4 (e1 - ej) for j > 1, 8 e1 and the glue vector u
    gens += [[4 * (i == 0) - 4 * (i == j) for i in range(n)]
             for j in range(1, n)]
    u = [shift_scale + 4] + [shift_scale] * (n - 1)
    gens += [[8] + [0] * (n - 1), u]
    return _make_lattice(gens, 3, name="leech", counting=Cosets(
        weight_enumerator(code), 4, 8,
        ((0, 2, 0), (shift_scale, 2, sum(u))), sum_mod=8))


_LATTICE_CACHE = {}


def standard_lattice(name: str, n: int = None) -> LatticeDescription:
    """Named lattices: zn(n) for n from 1 to 24, e8, l24, leech; only zn
    takes a dimension."""
    if n is not None and name != "zn":
        raise PackboundError(f"{name} takes no dimension")
    if name == "zn" and n not in range(1, 25):
        raise PackboundError("zn takes a dimension from 1 to 24")
    key = (name, n)
    if key in _LATTICE_CACHE:
        return _LATTICE_CACHE[key]
    if name == "zn":
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        lat = _make_lattice(eye, 0, name=f"z{n}", counting=Cosets(
            weight_enumerator(zero_code(n)), 1, 1, ((0, 0, 0),)))
    elif name == "e8":
        lat = construction_a(hamming8(), name="e8")
    elif name == "l24":
        lat = construction_a(golay24(), name="l24")
    elif name == "leech":
        # glue scale 1: the shift (1,...,1) / (2 sqrt 2).  Scale 2, the other
        # shift integral in this frame, gives an even unimodular lattice with
        # 48 vectors of norm 2 (Niemeier A1^24); the tests pin both.
        lat = _build_leech_from_shift(1)
    else:
        raise PackboundError(f"unknown lattice {name!r}")
    _LATTICE_CACHE[key] = lat
    return lat


# ---------------------------------------------------------------------------
# Covolume
# ---------------------------------------------------------------------------

def covolume(lat: LatticeDescription) -> SymbolicVolume:
    """sqrt(det(gram)), exact; PackboundError when it is not rational."""
    return SymbolicVolume(_rational_sqrt(lat.gram_det))


# ---------------------------------------------------------------------------
# Vector counting
# ---------------------------------------------------------------------------

def _count_cosets(n: int, cosets: Cosets, max_norm: Fraction):
    """Counts by squared length of the length-n union of code cosets
    ``cosets`` describes.  A coordinate's factor, F0 or F1 by its codeword
    bit, is the multiset of (m^2, m mod sum_mod) over m in its residue
    class.  Each part is the weight enumerator sum_k a_k F1^k F0^(n-k) at
    its target residue, in Horner form: P_0 = a_0, P_k = P_(k-1) F0 +
    a_k F1^k with F1^k built one step at a time up to the top weight, 2n
    products that each drop the squared lengths beyond the cutoff."""
    weights, modulus, denom, parts, sum_mod = cosets
    limit = int(denom * max_norm)
    root = math.isqrt(limit)
    a = weights.as_dict()
    top = max(a)

    def times(x, factor):
        out = {}
        for (e, s), cx in x.items():
            for (de, dm), cf in factor:  # sorted by de
                if e + de > limit:
                    break
                key = (e + de, (s + dm) % sum_mod)
                out[key] = out.get(key, 0) + cx * cf
        return out

    counts = Counter()
    for offset, step, target in parts:
        f0, f1 = (sorted(Counter(
            (m * m, m % sum_mod) for m in range(-root, root + 1)
            if (m - offset - step * bit) % modulus == 0).items())
            for bit in (0, 1))
        state, power = {(0, 0): a[0]}, {(0, 0): 1}
        for k in range(1, n + 1):
            state = times(state, f0)
            if k <= top:
                power = times(power, f1)
                for key, c in power.items() if a.get(k) else ():
                    state[key] = state.get(key, 0) + a[k] * c
        for (e, s), c in state.items():
            if s == target % sum_mod:
                counts[Fraction(e, denom)] += c
    return counts


def vectors_by_norm(lat: LatticeDescription, max_sq_norm,
                    budget=Fraction(64)) -> NormCountTable:
    """Exact counts of lattice vectors with squared length <= max_sq_norm.

    The table carries a row for every multiple of the norm quantum up to the
    cutoff, including zero counts.
    """
    max_norm = frac(max_sq_norm)
    if max_norm < 0:
        raise PackboundError(f"negative squared-norm cutoff {max_norm}")
    if max_norm > budget:
        raise PackboundError(
            f"cutoff {max_norm} exceeds enumeration budget {budget}")
    raw = _count_cosets(lat.dimension, lat.counting, max_norm)
    quantum = lat.quantum
    counts = [(k * quantum, raw.get(k * quantum, 0))
              for k in range(int(max_norm / quantum) + 1)]
    extra = {k: c for k, c in raw.items() if c and k % quantum != 0}
    if extra:
        raise PackboundError(f"counts off the norm grid: {extra}")
    return NormCountTable(tuple(counts))


def lattice_properties(lat: LatticeDescription) -> dict:
    """even (every squared length in 2Z) / unimodular flags plus minimum
    squared norm, kissing number and density, from one count of the
    shortest vectors."""
    n = lat.dimension
    # some basis vector realizes the smallest diagonal entry, so the minimum
    # is found within that cutoff
    cutoff = min(frac(lat.gram[i][i]) for i in range(n))
    table = vectors_by_norm(lat, cutoff)
    nonzero = [(v, c) for v, c in table.counts if v > 0 and c > 0]
    min_norm, kissing = nonzero[0]
    return {"even": lat.quantum % 2 == 0, "unimodular": lat.unimodular,
            "min_sq_norm": min_norm, "kissing": kissing,
            "density": ball_volume(n, frac(min_norm) / 4) / covolume(lat)}
