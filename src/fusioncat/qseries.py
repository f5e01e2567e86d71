"""Truncated q-series with exact rational exponents.

A series keeps its exponents as integer numerators over one denominator,
the lcm of their reduced denominators, so sums, products and shifts run on
Python ints and a Fraction is built only where an exponent is read out.
Provides eta-power inverses (partition generating functions), lattice-coset
theta functions, characters of lattice-coset modules assembled from
(rank-1 coset, rank-2 coset) decomposition pieces, and the exact limit
lim_{y -> 0+} of a ratio of such piece sums at q = e^{-2 pi y}, from which
quantum dimensions are read (`qdim_limit`).

Products run through one exact kernel, `_convolve`: Kronecker substitution
packs each coefficient list into one int with byte-aligned slots, so a whole
convolution is one big-int multiplication.  The slot width comes from the
bound min(len a, len b) * max|a| * max|b| on every product coefficient, so
no slot overflows into the next.  `QSeries.__mul__` takes this path when the
operands, laid out densely on their common exponent grid, hold no more slots
than the pair loop visits pairs (|left| * |right|); sparser series, such as
1 + q + q^(10^9), keep the pair loop and never get a dense layout.  The
layout stops at the full product's length, however far the cutoff lies.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import Coset, _coset_points

__all__ = [
    "QSeries",
    "eta_inverse_power",
    "theta_coset",
    "character",
    "qdim_limit",
]


@dataclass(frozen=True)
class QSeries:
    """Finite sum of c * q^(n/den) with exponents n/den < truncation_order.

    `terms` holds the (n, c) pairs sorted by n, with no zero c, and `den` is
    the lcm of the reduced exponent denominators (1 for the zero series), so
    equal series have equal fields.  Build series with `from_dict`, `one`
    and `zero`.
    """

    den: int
    terms: tuple[tuple[int, int], ...]
    truncation_order: Fraction

    @staticmethod
    def _of(den: int, data: dict[int, int], cutoff: Fraction) -> "QSeries":
        """Series of c * q^(n/den) over data, cut below cutoff, canonical den."""
        limit = _ceil(den * cutoff)
        terms = sorted((n, c) for n, c in data.items() if c and n < limit)
        g = math.gcd(den, *(n for n, _ in terms))
        if g > 1:
            terms = [(n // g, c) for n, c in terms]
        return QSeries(den // g, tuple(terms), cutoff)

    @staticmethod
    def from_dict(data: dict[Fraction, int], cutoff: Fraction) -> "QSeries":
        items = [(Fraction(e), c) for e, c in data.items()]
        den = math.lcm(*(e.denominator for e, _ in items))
        return QSeries._of(den, {e.numerator * (den // e.denominator): c
                                 for e, c in items}, Fraction(cutoff))

    @staticmethod
    def one(cutoff: Fraction) -> "QSeries":
        return QSeries._of(1, {0: 1}, Fraction(cutoff))

    @staticmethod
    def zero(cutoff: Fraction) -> "QSeries":
        return QSeries(1, (), Fraction(cutoff))

    @property
    def coeffs(self) -> tuple[tuple[Fraction, int], ...]:
        """(exponent, coefficient) pairs, ascending exponents."""
        return tuple((Fraction(n, self.den), c) for n, c in self.terms)

    def _over(self, den: int) -> list[tuple[int, int]]:
        """The terms with numerators over den, a multiple of self.den."""
        k = den // self.den
        return [(n * k, c) for n, c in self.terms]

    def coefficient(self, exponent: Fraction | int) -> int:
        target = Fraction(exponent)
        if self.den % target.denominator:
            return 0
        return dict(self.terms).get(
            target.numerator * (self.den // target.denominator), 0)

    def leading_exponent(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero series has no leading exponent")
        return Fraction(self.terms[0][0], self.den)

    def shift(self, delta: Fraction) -> "QSeries":
        delta = Fraction(delta)
        den = math.lcm(self.den, delta.denominator)
        step = delta.numerator * (den // delta.denominator)
        return QSeries._of(den, {n + step: c for n, c in self._over(den)},
                           self.truncation_order + delta)

    def __add__(self, other: "QSeries") -> "QSeries":
        den = math.lcm(self.den, other.den)
        data = dict(self._over(den))
        for n, c in other._over(den):
            data[n] = data.get(n, 0) + c
        return QSeries._of(den, data,
                           min(self.truncation_order, other.truncation_order))

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Product, exact below min(T_self + lead_other, T_other + lead_self).

        The lead of the zero series counts as 0.  Dense operands go through
        `_convolve`, sparse ones through the pair loop (see the module doc).
        """
        den = math.lcm(self.den, other.den)
        left, right = self._over(den), other._over(den)
        lead_left = left[0][0] if left else 0
        lead_right = right[0][0] if right else 0
        cutoff = min(self.truncation_order + Fraction(lead_right, den),
                     other.truncation_order + Fraction(lead_left, den))
        limit = _ceil(den * cutoff)
        if not left or not right:
            return QSeries._of(den, {}, cutoff)
        # Both operands lie on lead + g*Z; the product is dense on that grid.
        g = math.gcd(*(n - lead_left for n, _ in left),
                     *(n - lead_right for n, _ in right)) or 1
        span_left = (left[-1][0] - lead_left) // g + 1
        span_right = (right[-1][0] - lead_right) // g + 1
        # Never lay out past the full product, whatever the cutoff.
        size = max(0, min(-(-(limit - lead_left - lead_right) // g),
                          span_left + span_right - 1))
        span_left, span_right = min(size, span_left), min(size, span_right)
        if span_left + span_right <= len(left) * len(right):
            product = _convolve(_dense(left, lead_left, g, span_left),
                                _dense(right, lead_right, g, span_right), size)
            base = lead_left + lead_right
            data = {base + g * k: c for k, c in enumerate(product)}
        else:
            data = {}
            for n1, c1 in left:
                room = limit - n1
                for n2, c2 in right:
                    if n2 >= room:
                        break
                    n = n1 + n2
                    data[n] = data.get(n, 0) + c1 * c2
        return QSeries._of(den, data, cutoff)

    def dump_lines(self) -> list[str]:
        """CLI-facing `exponent coefficient` pairs, ascending exponents."""
        out = []
        for n, c in self.terms:
            g = math.gcd(n, self.den)
            d = self.den // g
            out.append(f"{n // g}/{d} {c}" if d != 1 else f"{n // g} {c}")
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.coeffs[:8]:
            parts.append(f"{c}*q^({e})")
        tail = " + ..." if len(self.terms) > 8 else ""
        return " + ".join(parts) + tail


def _ceil(x: Fraction) -> int:
    """Least integer >= x, so an integer n is < x exactly when n < _ceil(x)."""
    return -(-x.numerator // x.denominator)


def _dense(terms: list[tuple[int, int]], lead: int, g: int,
           span: int) -> list[int]:
    """Coefficients of the terms at lead + g*k for k < span, as a list."""
    out = [0] * span
    for n, c in terms:
        k = (n - lead) // g
        if k >= span:
            break
        out[k] = c
    return out


def _convolve(a: Sequence[int], b: Sequence[int], size: int) -> list[int]:
    """The first `size` coefficients of the product of the polynomials a, b.

    Kronecker substitution: each list is packed into one int, one slot of w
    bytes per coefficient, and one big-int product does the convolution.  No
    product coefficient exceeds B = min(len a, len b) * max|a| * max|b| in
    size, and w bytes hold B (and so, for B > 0, every input), so no slot
    carries into the next.  Signed lists are split as a = a+ - a-, b = b+ - b-;
    a+ b+ + a- b- and a+ b- + a- b+ obey the same bound, since a+ and a-
    never share an index.
    """
    a, b = a[:size], b[:size]
    if not a or not b:
        return [0] * size
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    if not bound:
        return [0] * size
    w = (bound.bit_length() + 7) // 8
    if min(a) >= 0 and min(b) >= 0:
        return _unpack(_pack(a, w) * _pack(b, w), w, size)
    a_pos, a_neg, b_pos, b_neg = (_pack([max(sign * c, 0) for c in xs], w)
                                  for xs in (a, b) for sign in (1, -1))
    plus = _unpack(a_pos * b_pos + a_neg * b_neg, w, size)
    minus = _unpack(a_pos * b_neg + a_neg * b_pos, w, size)
    return [x - y for x, y in zip(plus, minus)]


def _pack(coeffs: Sequence[int], w: int) -> int:
    """sum of c_k * 256^(w*k) over non-negative c_k < 256^w."""
    return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in coeffs),
                          "little")


def _unpack(value: int, w: int, size: int) -> list[int]:
    """The first `size` w-byte slots of a non-negative int, low slot first."""
    raw = value.to_bytes(-(-value.bit_length() // 8), "little")
    out = [int.from_bytes(raw[i:i + w], "little")
           for i in range(0, min(len(raw), w * size), w)]
    return out + [0] * (size - len(out))


def _partitions_upto(n: int) -> list[int]:
    """p(0..n) via Euler's pentagonal-number recurrence."""
    p = [0] * (n + 1)
    p[0] = 1
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def eta_inverse_power(r: int, cutoff: Fraction | int) -> QSeries:
    """q^{-r/24} * prod_{n>=1} (1 - q^n)^{-r}, truncated.

    The product part for r = 1 has partition-number coefficients; higher r
    takes r - 1 truncated products with it, each one `_convolve` call.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    cutoff = Fraction(cutoff)
    if r == 0:
        return QSeries.one(cutoff)
    n_max = max(0, math.ceil(cutoff + Fraction(r, 24)) + 1)
    base = _partitions_upto(n_max)
    coeffs = base
    for _ in range(r - 1):
        coeffs = _convolve(coeffs, base, n_max + 1)
    return QSeries._of(24, {24 * n - r: coeffs[n] for n in range(n_max + 1)},
                       cutoff)


def theta_coset(c: Coset, cutoff: Fraction | int) -> QSeries:
    """sum over coset vectors x with <x,x>/2 < cutoff of q^{<x,x>/2}."""
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        return QSeries.zero(cutoff)
    _, s, points = _coset_points(c, 2 * cutoff)
    # <x,x>/2 = n/(2s); _of drops the points on the cap itself.
    return QSeries._of(2 * s, Counter(n for _, n in points), cutoff)


def character(pieces: Sequence[tuple[Coset, Coset]],
              c: Fraction | int,
              cutoff: Fraction | int) -> QSeries:
    """Character of a module decomposed into (rank-1, rank-2) coset pieces:
    q^{-c/24} * sum over pieces of theta_rank1 * theta_rank2 / eta^3.

    The theta products are summed first and multiplied by eta^-3 once.  For
    c <= 3 the truncation order is the per-piece form's, min over pieces of
    min(T_i + lead_eta, T_eta + lead_i) and the cutoff: theta coefficients
    are positive counts, so leading terms never cancel in the sum.
    """
    cutoff = Fraction(cutoff)
    c = Fraction(c)
    eta3 = eta_inverse_power(3, cutoff)
    # eta_inverse_power already carries q^{-3/24}; adjust to q^{-c/24}.
    eta3 = eta3.shift(Fraction(3, 24) - c / 24)
    total = QSeries.zero(cutoff)
    thetas = [theta_coset(rank1, cutoff) * theta_coset(rank2, cutoff)
              for rank1, rank2 in pieces]
    if thetas:
        total = total + sum(thetas[1:], thetas[0]) * eta3
    return total


def qdim_limit(numerator: Sequence[Sequence[Coset]],
               denominator: Sequence[Sequence[Coset]]) -> Fraction:
    """The exact limit as y -> 0+ of sum_num / sum_den at q = e^{-2 pi y}.

    Each sum runs over pieces, and a piece, a tuple of cosets as `character`
    takes them, stands for the product of their theta series.  By Poisson
    summation a coset theta of a positive-definite lattice K of rank r is
    y^{-r/2} det(K)^{-1/2} (1 + O(e^{-pi m/y})) as y -> 0, with m the least
    nonzero norm on the dual lattice of K: the leading term does not depend
    on the coset.  So pieces of one total rank and one product of
    determinants share their leading term, and the limit is the ratio of the
    piece counts.  Two characters of one central charge, over the same eta
    power, have the limit ratio of their pieces.
    """
    shapes = {(sum(c.lattice.rank for c in piece),
               math.prod(c.lattice.determinant() for c in piece))
              for piece in (*numerator, *denominator)}
    if len(shapes) > 1:
        raise ValueError("pieces differ in total rank or in the product of "
                         "their determinants")
    return Fraction(len(numerator), len(denominator))
