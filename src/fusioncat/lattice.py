"""Integral lattices, dual-lattice cosets, and exact short-vector search.

Cosets carry canonical representatives with all coordinates reduced into
[0,1), so equality and hashing are plain tuple comparisons.  Short vectors
of a coset are enumerated in integers: the representative and the Gram
matrix are scaled to a common denominator, so every norm is an int over one
scale, and each coordinate is searched over |x_i| <= sqrt(t (G^-1)_ii), the
exact maximum of |x_i| on the ellipsoid <x,x> <= t.  The box is complete
for every positive-definite Gram matrix and needs no eigensolver.

The module also hard-codes the concrete rank-2 lattice (Gram
[[4,-2],[-2,4]], isometric to sqrt(2)A2) with its twelve dual cosets, the
order-3 isometry acting on them, and the three-piece decomposition of the
rank-3 lattice Z alpha^3 into (rank-1 coset) x (rank-2 coset) pairs.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "Lattice",
    "Coset",
    "dual_coset_reps",
    "coset_add",
    "coset_neg",
    "min_norm",
    "min_vectors",
    "tau_action",
    "orbifold_decomposition",
    "lattice_L",
    "lattice_Zbeta1",
    "coset_L",
    "coset_Zbeta1",
    "TWO_PART_REPS",
    "THREE_PART_REPS",
]


# -- exact linear algebra helpers -------------------------------------------

def _det(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _mat_inv(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


@dataclass(frozen=True)
class Lattice:
    """Positive-definite lattice given by a symmetric Gram matrix."""

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
        for k in range(1, r + 1):
            if _det([row[:k] for row in g[:k]]) <= 0:
                raise ValueError("Gram matrix must be positive definite")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.gram for x in row)

    def determinant(self) -> Fraction:
        return _det([list(row) for row in self.gram])

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

    def __add__(self, other: "Coset") -> "Coset":
        if self.lattice != other.lattice:
            raise ValueError("cosets of different lattices")
        return Coset(self.lattice,
                     tuple(a + b for a, b in zip(self.rep, other.rep)))

    def __neg__(self) -> "Coset":
        return Coset(self.lattice, tuple(-x for x in self.rep))


def coset_add(a: Coset, b: Coset) -> Coset:
    return a + b


def coset_neg(a: Coset) -> Coset:
    return -a


def dual_coset_reps(lat: Lattice) -> list[Coset]:
    """Complete irredundant list of (dual lattice)/lattice representatives.

    Generated by the columns of gram^{-1} (the dual basis in lattice
    coordinates) under addition mod 1; the count must equal det(gram).
    """
    if not lat.is_integral:
        raise ValueError("dual coset enumeration needs an integral Gram matrix")
    det = lat.determinant()
    inv = _mat_inv([list(row) for row in lat.gram])
    generators = [Coset.of(lat, [inv[i][j] for i in range(lat.rank)])
                  for j in range(lat.rank)]
    zero = Coset.of(lat, [0] * lat.rank)
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = cur + g
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    reps = sorted(seen, key=lambda c: c.rep)
    if len(reps) != det:
        raise AssertionError("coset count does not match det(gram)")
    return reps


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
    inv = _mat_inv([list(row) for row in lat.gram])
    ranges = []
    for i, r in enumerate(rep):
        bound = math.isqrt(math.floor(d * d * cap * inv[i][i]))
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
    """All coset vectors achieving the minimal norm (nonzero for c = 0+L)."""
    if c.is_zero:
        # Minimal *nonzero* vectors: a basis vector has norm at most the
        # largest diagonal entry.
        cap = max(c.lattice.gram[i][i] for i in range(c.lattice.rank))
        vecs = [(x, n) for x, n in _coset_vectors(c, cap) if any(x)]
        best = min(n for _, n in vecs)
    else:
        best = min_norm(c)
        vecs = _coset_vectors(c, best)
    return [x for x, n in vecs if n == best]


# ---------------------------------------------------------------------------
# The concrete catalog lattices
# ---------------------------------------------------------------------------

_L = Lattice.from_rows([[4, -2], [-2, 4]])
_ZB1 = Lattice.from_rows([[6]])

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


def lattice_L() -> Lattice:
    """The rank-2 lattice with Gram [[4,-2],[-2,4]] (sqrt(2)A2 type)."""
    return _L


def lattice_Zbeta1() -> Lattice:
    """The rank-1 lattice with Gram [[6]]."""
    return _ZB1


def coset_L(two_part: str, three_part: int) -> Coset:
    """The coset labelled (i,j) with i in {0,a,b,c} and j in {0,1,2}."""
    a = TWO_PART_REPS[two_part]
    b = THREE_PART_REPS[three_part % 3]
    return Coset.of(_L, (a[0] + b[0], a[1] + b[1]))


def coset_Zbeta1(sixths: Fraction | int) -> Coset:
    """Coset t + Z b1 of the rank-1 lattice, t in units of b1."""
    return Coset.of(_ZB1, (Fraction(sixths),))


def tau_action(c: Coset) -> Coset:
    """Order-3 isometry of the rank-2 lattice acting on dual cosets.

    This is the action induced on module labels by composing with the
    isometry (i.e. the inverse of the raw basis map b2 -> b3,
    b3 -> -(b2+b3)); it sends the a-class to the c-class.
    """
    if c.lattice != _L:
        raise ValueError("tau acts only on cosets of the rank-2 catalog lattice")
    u, v = c.rep
    return Coset.of(_L, (v - u, -u))


def tau_vector(x: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """The same order-3 isometry on explicit vectors in (b2, b3) coordinates."""
    u, v = x
    return (v - u, -u)


# Change of basis: the rank-3 lattice Z a^1 + Z a^2 + Z a^3 expressed in the
# orthogonal split (b1) + (b2, b3), where a^1 = (b1 + 2 b2 + b3)/3,
# a^2 = (b1 - b2 + b3)/3, a^3 = (b1 - b2 - 2 b3)/3.
_ALPHA_IN_BETA = (
    (Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(-1, 3), Fraction(-2, 3)),
)


def alpha_to_beta(coords: Sequence[Fraction | int]
                  ) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """Map integer alpha-coordinates to (b1-part, (b2,b3)-part)."""
    a = [Fraction(x) for x in coords]
    b1 = sum(a[i] * _ALPHA_IN_BETA[i][0] for i in range(3))
    b2 = sum(a[i] * _ALPHA_IN_BETA[i][1] for i in range(3))
    b3 = sum(a[i] * _ALPHA_IN_BETA[i][2] for i in range(3))
    return b1, (b2, b3)


@dataclass(frozen=True)
class DecompositionPiece:
    rank1: Coset
    rank2: Coset


def orbifold_decomposition(*, verify_samples: int = 2) -> list[DecompositionPiece]:
    """Three-piece split of the alpha-lattice as (rank-1 coset) x (rank-2 coset).

    Membership is verified by sampling: every alpha-lattice vector within the
    sample box lands in exactly one piece.
    """
    pieces = [
        DecompositionPiece(coset_Zbeta1(0), coset_L("0", 0)),
        DecompositionPiece(coset_Zbeta1(Fraction(1, 3)), coset_L("0", 1)),
        DecompositionPiece(coset_Zbeta1(Fraction(2, 3)), coset_L("0", 2)),
    ]
    r = verify_samples
    for coords in itertools.product(range(-r, r + 1), repeat=3):
        b1, (b2, b3) = alpha_to_beta(coords)
        hits = 0
        for piece in pieces:
            in_rank1 = (b1 - piece.rank1.rep[0]).denominator == 1
            in_rank2 = ((b2 - piece.rank2.rep[0]).denominator == 1
                        and (b3 - piece.rank2.rep[1]).denominator == 1)
            if in_rank1 and in_rank2:
                hits += 1
        if hits != 1:
            raise AssertionError(
                f"alpha vector {coords} lies in {hits} pieces")
    return pieces


def decomposition_piece_of(coords: Sequence[int]) -> DecompositionPiece:
    """The unique piece containing the given alpha-lattice vector."""
    b1, (b2, b3) = alpha_to_beta(coords)
    for piece in orbifold_decomposition(verify_samples=0):
        if ((b1 - piece.rank1.rep[0]).denominator == 1
                and (b2 - piece.rank2.rep[0]).denominator == 1
                and (b3 - piece.rank2.rep[1]).denominator == 1):
            return piece
    raise ValueError(f"vector {coords} is not in the alpha lattice")


