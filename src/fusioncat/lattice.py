"""Lattices, their cosets, and exact short-vector search.

Cosets carry canonical representatives with all coordinates reduced into
[0,1), so equality and hashing are plain tuple comparisons.  Short vectors
of a coset are enumerated in integers: the representative and the Gram
matrix are scaled to a common denominator, so every norm is an int over one
scale, and each coordinate is searched over |x_i| <= sqrt(t (G^-1)_ii), the
exact maximum of |x_i| on the ellipsoid <x,x> <= t.  The box is complete
for every positive-definite Gram matrix and needs no eigensolver.

The module also states the split of the rank-3 lattice A = Z alpha^3,
(alpha_i, alpha_j) = 2 delta_ij, once, as the integer basis b1, b2, b3 of
`_BETA`: the Grams of Z b1 and of L = Z b2 + Z b3 (sqrt(2)A2) are blocks of
its Gram.  It names the twelve dual cosets of L and the order-3 isometry
of L; `coset_pieces` splits each coset of A into three (rank-1 coset) x
(rank-2 coset) pairs, which the 20-object catalog's modules read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

__all__ = [
    "Lattice",
    "Coset",
    "min_norm",
    "min_vectors",
    "coset_pieces",
    "full_coset_pieces",
    "orbifold_decomposition",
    "coset_L",
    "coset_Zbeta1",
    "TWO_PART_REPS",
    "THREE_PART_REPS",
]


# -- exact linear algebra helpers -------------------------------------------

def _gauss_jordan(m: Sequence[Sequence[Fraction]]
                  ) -> tuple[list[Fraction], list[list[Fraction]] | None]:
    """(pivots, inverse) of m from one Gauss-Jordan pass without row swaps:
    pivot k is the ratio of the leading minors of sizes k + 1 and k, so the
    pivots multiply to det m.  A zero pivot ends the pass, with no inverse."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    pivots = []
    for c in range(n):
        pv = aug[c][c]
        pivots.append(pv)
        if not pv:
            return pivots, None
        aug[c] = [x / pv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return pivots, [row[n:] for row in aug]


@dataclass(frozen=True)
class Lattice:
    """Positive-definite lattice given by a symmetric Gram matrix; its
    determinant and inverse Gram are computed once, at construction."""

    gram: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fraction | int]]) -> "Lattice":
        return Lattice(tuple(tuple(Fraction(x) for x in row) for row in rows))

    def __post_init__(self):
        g = self.gram
        r = len(g)
        if any(len(row) != r for row in g):
            raise ValueError("Gram matrix must be square")
        if any(g[i][j] != g[j][i] for i in range(r) for j in range(r)):
            raise ValueError("Gram matrix must be symmetric")
        # All pivots are > 0 exactly when g is positive definite (Sylvester).
        pivots, inverse = _gauss_jordan(g)
        det = Fraction(1)
        for p in pivots:
            if p <= 0:
                raise ValueError("Gram matrix must be positive definite")
            det *= p
        object.__setattr__(self, "_determinant", det)
        object.__setattr__(self, "_inverse", inverse)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def determinant(self) -> Fraction:
        return self._determinant

    def norm(self, coords: Sequence[Fraction]) -> Fraction:
        """<x,x> for x given in lattice-basis coordinates."""
        g = self.gram
        return sum(coords[i] * g[i][j] * coords[j]
                   for i in range(self.rank) for j in range(self.rank))


@dataclass(frozen=True)
class Coset:
    """Coset rep in lattice-basis coordinates, canonicalized into [0,1)."""

    lattice: Lattice
    rep: tuple[Fraction, ...]

    @staticmethod
    def of(lattice: Lattice, rep: Sequence[Fraction | int]) -> "Coset":
        return Coset(lattice, tuple(Fraction(x) for x in rep))

    def __post_init__(self):
        if len(self.rep) != self.lattice.rank:
            raise ValueError("representative has wrong length")
        object.__setattr__(self, "rep",
                           tuple(x - math.floor(x) for x in self.rep))

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.rep)


def _coset_points(c: Coset, cap: Fraction
                  ) -> tuple[int, int, list[tuple[tuple[int, ...], int]]]:
    """(d, s, points): every coset vector x with <x,x> <= cap, as (d*x, s*<x,x>).

    d is the common denominator of the representative and s = d^2 g, where g
    is the common denominator of the Gram matrix, so both parts of a point are
    ints.  Coordinate i ranges over the integers congruent to d*rep_i mod d
    with |d*x_i| <= sqrt(d^2 cap (G^-1)_ii), in ascending order.
    """
    lat = c.lattice
    d = math.lcm(*(x.denominator for x in c.rep))
    g = math.lcm(*(x.denominator for row in lat.gram for x in row))
    s = d * d * g
    rep = [x.numerator * (d // x.denominator) for x in c.rep]
    gram = [[x.numerator * (g // x.denominator) for x in row] for row in lat.gram]
    ranges = []
    for i, r in enumerate(rep):
        bound = math.isqrt(math.floor(d * d * cap * lat._inverse[i][i]))
        ranges.append(range(r - d * ((bound + r) // d), bound + 1, d))
    # <x,x> = sum_i x_i (G_ii x_i + 2 sum_{j<i} G_ij x_j): coordinate i adds
    # a term whose linear part the coordinates before it fix.  Extending
    # every prefix by each x_i in turn gives itertools.product's order; the
    # later coordinates can still lower a prefix's norm, so only the full
    # norm is held against the limit.
    limit = math.floor(cap * s)
    points: list[tuple[tuple[int, ...], int]] = [((), 0)] if limit >= 0 else []
    for i, r in enumerate(ranges):
        diag, twice = gram[i][i], [2 * gij for gij in gram[i][:i]]
        most = limit if i == len(ranges) - 1 else math.inf
        points = [(x + (xi,), m) for x, n in points
                  for lin in (sum(map(operator.mul, twice, x)),)
                  for xi in r if (m := n + xi * (diag * xi + lin)) <= most]
    return d, s, points


def _coset_vectors(c: Coset, norm_cap: Fraction
                   ) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """All (x, <x,x>) over coset vectors with <x,x> <= norm_cap."""
    d, s, points = _coset_points(c, norm_cap)
    return [(tuple(Fraction(xi, d) for xi in x), Fraction(n, s))
            for x, n in points]


def min_norm(c: Coset) -> Fraction:
    """Exact minimum of <x,x> over the coset."""
    if c.is_zero:
        return Fraction(0)
    _, s, points = _coset_points(c, c.lattice.norm(c.rep))
    return Fraction(min(n for _, n in points), s)


def min_vectors(c: Coset) -> list[tuple[Fraction, ...]]:
    """All coset vectors achieving the minimal norm (nonzero for c = 0+L).

    One search, capped by the norm of a vector it must find: for c = 0 a
    basis vector, at most the largest diagonal entry; else the representative.
    """
    lat = c.lattice
    cap = (max(lat.gram[i][i] for i in range(lat.rank)) if c.is_zero
           else lat.norm(c.rep))
    vecs = [(x, n) for x, n in _coset_vectors(c, cap) if any(x)]
    best = min(n for _, n in vecs)
    return [x for x, n in vecs if n == best]


# ---------------------------------------------------------------------------
# The concrete catalog lattices
# ---------------------------------------------------------------------------

_BETA = ((1, 1, 1), (1, -1, 0), (0, 1, -1))    # b1, b2, b3 over the alpha_i


def _gram(basis) -> list[list[int]]:
    """2 B B^T: the Gram matrix of the rows B of `basis`."""
    return [[2 * sum(map(operator.mul, u, v)) for v in basis] for u in basis]


_ZB1 = Lattice.from_rows(_gram(_BETA[:1]))
_L = Lattice.from_rows(_gram(_BETA[1:]))

# Two-part coset representatives of L (order-2 classes), keyed by letter,
# and three-part representatives (order-3 classes), keyed by 0,1,2.
TWO_PART_REPS: dict[str, tuple[Fraction, Fraction]] = {
    "0": (Fraction(0), Fraction(0)),
    "a": (Fraction(0), Fraction(1, 2)),
    "b": (Fraction(1, 2), Fraction(1, 2)),   # -(b2+b3)/2 reduced mod L
    "c": (Fraction(1, 2), Fraction(0)),
}
THREE_PART_REPS: dict[int, tuple[Fraction, Fraction]] = {
    0: (Fraction(0), Fraction(0)),
    1: (Fraction(2, 3), Fraction(1, 3)),
    2: (Fraction(1, 3), Fraction(2, 3)),
}


def coset_L(two_part: str, three_part: int) -> Coset:
    """The coset labelled (i,j) with i in {0,a,b,c} and j in {0,1,2}."""
    a = TWO_PART_REPS[two_part]
    b = THREE_PART_REPS[three_part % 3]
    return Coset.of(_L, (a[0] + b[0], a[1] + b[1]))


def coset_Zbeta1(sixths: Fraction | int) -> Coset:
    """Coset t + Z b1 of the rank-1 lattice, t in units of b1."""
    return Coset.of(_ZB1, (Fraction(sixths),))


def tau_vector(x: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """The order-3 isometry tau of L in (b2, b3) coordinates: b2 -> -b2 - b3
    and b3 -> b2, so b3 -> b2 -> -b2 - b3 -> b3."""
    u, v = x
    return (v - u, -u)


class DecompositionPiece(NamedTuple):
    """A (rank-1 coset, rank-2 coset) pair, as `qseries.character` takes it."""

    rank1: Coset
    rank2: Coset


def coset_pieces(i: int, two_part: str) -> list[DecompositionPiece]:
    """The three pieces (i/2 + j/3) b1 + Z b1 times the L-coset (two_part, j),
    j = 0, 1, 2, of one coset of the alpha-lattice.

    Z b1 + L has index 3 in the alpha-lattice (det 6 * 12 = 72 against 8), so
    each coset of the alpha-lattice is three cosets of Z b1 + L.  i = 0 with
    two_part "0" is the alpha-lattice itself; i = 0, 1 with two_part "0" are
    the cosets under the untwisted eigenspaces of the 20-object catalog, and
    with two_part "c" the full-coset modules M^i.
    """
    return [DecompositionPiece(coset_Zbeta1(Fraction(i, 2) + Fraction(j, 3)),
                               coset_L(two_part, j)) for j in range(3)]


def full_coset_pieces(i: int) -> list[DecompositionPiece]:
    """The pieces of the full-coset module M^i (i = 0, 1)."""
    return coset_pieces(i, "c")


def orbifold_decomposition() -> list[DecompositionPiece]:
    """Three-piece split of the alpha-lattice A as (rank-1 coset) x (rank-2 coset).

    Certified exactly from `_BETA` alone: its rows are integer by
    construction, so B = Z b1 + L lies in A; b1 is orthogonal to L, so B is
    their orthogonal sum, and det B = 72 = 3^2 det A (det A = 2^3) gives
    index 3 in A; and the three piece offsets lie in A with distinct b1
    parts, so they are three distinct cosets of B in A, hence all of them.
    """
    pieces = coset_pieces(0, "0")
    offsets = [piece.rank1.rep + piece.rank2.rep for piece in pieces]
    gram = _gram(_BETA)
    if any(gram[0][1:]):
        raise AssertionError("b1 is not orthogonal to L")
    if Lattice.from_rows(gram).determinant() != 3 ** 2 * 2 ** 3:
        raise AssertionError("Z b1 + L does not have index 3 in the alpha lattice")
    if any(sum(x * row[j] for x, row in zip(v, _BETA)).denominator != 1
           for v in offsets for j in range(3)):
        raise AssertionError("a piece offset leaves the alpha lattice")
    if len({v[0] for v in offsets}) != 3:
        raise AssertionError("two pieces are one coset of Z b1 + L")
    return pieces
