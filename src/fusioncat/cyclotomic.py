"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every number here is a Q-linear combination of powers of a primitive N-th
root of unity, stored in canonical reduced form modulo the N-th cyclotomic
polynomial.  Canonical form makes equality a coefficient comparison, so all
downstream matrix identities (S^2 = C, Verlinde integrality, ...) are exact.

Internally a value keeps an integer coefficient vector over the canonical
power basis zeta^0 .. zeta^{phi(N)-1} plus a common positive denominator.
Multiplication is a numpy convolution reduced through the power rows, in
int64 under an explicit overflow bound and in Python ints past it.

Matrices of such numbers are promoted once to one conductor and held as
integer arrays over one denominator (`_CycArray`); their entrywise and
matrix products are numpy contractions through the cached multiplication
tensor of the field, under the same kind of certified int64 bound.
`_CycArray.canonical` gives each entry at its minimal order, the one form
a value has whatever order it was computed at; `hash` uses that form.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CycNum",
    "CycError",
    "OrderCapExceeded",
    "cyc_root_of_unity",
    "cyc_rational",
    "cyc_inv",
    "cyc_sqrt_rational",
    "parse_cyc",
    "format_cyc",
    "DEFAULT_ORDER_CAP",
]

DEFAULT_ORDER_CAP = 720

_INT64_SAFE = 2**62


class CycError(ArithmeticError):
    """Base error for cyclotomic arithmetic."""


class OrderCapExceeded(CycError):
    """A common-order promotion would exceed the configured order cap."""


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dense, lowest degree first)
# ---------------------------------------------------------------------------

def _poly_trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_divexact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials (remainder must vanish)."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        q, r = divmod(a[i], lead)
        if r:
            raise CycError("non-exact polynomial division")
        out[i - db] = q
        if q:
            for j in range(db + 1):
                a[i - db + j] -= q * b[j]
    if any(a[:db]):
        raise CycError("non-exact polynomial division (remainder)")
    return _poly_trim(out)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _order_context(n: int) -> "_OrderContext":
    return _OrderContext(n)


class _OrderContext:
    """Cached reduction data for one cyclotomic order."""

    def __init__(self, n: int):
        self.order = n
        phi_poly = cyclotomic_polynomial(n)
        self.phi = len(phi_poly) - 1
        # Rows: canonical coefficients of x^k mod Phi_n for k up to the
        # largest exponent needed by multiplication (2*phi-2) and
        # conjugation/promotion (n-1).
        kmax = max(2 * self.phi - 1, n)
        rows: list[list[int]] = []
        cur = [0] * self.phi
        cur[0] = 1
        rows.append(list(cur))
        for _ in range(1, kmax):
            shifted = [0] + cur[:]
            lead = shifted.pop()
            if lead:
                # x^phi = -(phi_poly[:-1]) since Phi is monic
                for j in range(self.phi):
                    shifted[j] -= lead * phi_poly[j]
            cur = shifted
            rows.append(list(cur))
        self.pow_rows = rows
        self.pow_matrix = np.array(rows, dtype=np.int64)
        self.pow_max = int(np.abs(self.pow_matrix).max()) if rows else 1
        self.roots = np.exp(2j * np.pi * np.arange(self.phi) / n)

    @functools.cached_property
    def mul_tensor(self) -> np.ndarray:
        """M[p, q, :] = canonical coefficients of x^(p+q) mod Phi_n."""
        k = np.arange(self.phi)
        return self.pow_matrix[k[:, None] + k[None, :]]

    @functools.cached_property
    def conj_matrix(self) -> np.ndarray:
        """Row j = canonical coefficients of x^(-j) mod Phi_n."""
        return self.pow_matrix[-np.arange(self.phi) % self.order]


# ---------------------------------------------------------------------------
# Core value type
# ---------------------------------------------------------------------------

def _normalize(num: Iterable[int], den: int) -> tuple[tuple[int, ...], int]:
    num = tuple(int(x) for x in num)
    den = int(den)
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num, den = tuple(-x for x in num), -den
    g = math.gcd(den, *(abs(x) for x in num)) if any(num) else den
    if g > 1:
        num, den = tuple(x // g for x in num), den // g
    if not any(num):
        den = 1
    return num, den


class CycNum:
    """Element of Q(zeta_N) in canonical reduced form; immutable."""

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs: Sequence[Fraction | int] | None = None,
                 *, _num: tuple[int, ...] | None = None, _den: int = 1):
        ctx = _order_context(order)
        self.order = order
        if _num is not None:
            if len(_num) != ctx.phi:
                raise ValueError("wrong canonical length")
            self._num, self._den = _normalize(_num, _den)
            return
        if coeffs is None:
            coeffs = ()
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) > ctx.phi:
            # Reduce higher powers through the precomputed rows.
            acc = [Fraction(0)] * ctx.phi
            for k, c in enumerate(fracs):
                if c:
                    row = ctx.pow_rows[k] if k < len(ctx.pow_rows) else None
                    if row is None:
                        raise ValueError("coefficient index out of range")
                    for j, r in enumerate(row):
                        if r:
                            acc[j] += c * r
            fracs = acc
        else:
            fracs = fracs + [Fraction(0)] * (ctx.phi - len(fracs))
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        num = tuple(int(f * den) for f in fracs)
        self._num, self._den = _normalize(num, den)

    # -- basic views --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise CycError("value is not rational")
        return Fraction(self._num[0], self._den)

    # -- order handling -----------------------------------------------------

    def promote(self, order: int) -> "CycNum":
        """Re-express at a larger compatible order (order multiple of self.order)."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("target order must be a multiple of current order")
        ctx = _order_context(order)
        step = order // self.order
        acc = [0] * ctx.phi
        for j, c in enumerate(self._num):
            if c:
                row = ctx.pow_rows[j * step]
                for t, r in enumerate(row):
                    if r:
                        acc[t] += c * r
        return CycNum(order, _num=tuple(acc), _den=self._den)

    # -- arithmetic ---------------------------------------------------------

    def _common(self, other: "CycNum", cap: int) -> tuple["CycNum", "CycNum"]:
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        if m > cap:
            raise OrderCapExceeded(
                f"promotion to order {m} exceeds cap {cap}")
        return self.promote(m), other.promote(m)

    def __add__(self, other):
        other = _coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other, DEFAULT_ORDER_CAP)
        den = math.lcm(a._den, b._den)
        fa, fb = den // a._den, den // b._den
        num = tuple(x * fa + y * fb for x, y in zip(a._num, b._num))
        return CycNum(a.order, _num=num, _den=den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return CycNum(self.order, _num=tuple(-x for x in self._num), _den=self._den)

    def __sub__(self, other):
        other = _coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CycNum(self.order,
                          _num=tuple(x * f.numerator for x in self._num),
                          _den=self._den * f.denominator)
        other = _coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other, DEFAULT_ORDER_CAP)
        ctx = _order_context(a.order)
        num = _mul_canonical(a._num, b._num, ctx)
        return CycNum(a.order, _num=num, _den=a._den * b._den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / f)
        other = _coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return self * cyc_inv(other)

    def __rtruediv__(self, other):
        return _coerce(other, self.order) * cyc_inv(self)

    def conj(self) -> "CycNum":
        """Complex conjugation, the automorphism zeta -> zeta^{-1}."""
        return self._galois(-1)

    def _galois(self, k: int) -> "CycNum":
        """The automorphism zeta -> zeta^k, for k prime to the order."""
        ctx = _order_context(self.order)
        rows = ctx.pow_matrix[np.arange(ctx.phi) * k % self.order]
        num, rows = _exact(ctx.phi, np.array(self._num, dtype=object), rows)
        return CycNum(self.order, _num=tuple(int(x) for x in num @ rows),
                      _den=self._den)

    def embed(self) -> complex:
        """Double-precision complex embedding sum c_k e^{2 pi i k / N}."""
        ctx = _order_context(self.order)
        num = np.array(self._num, dtype=float)
        return complex(np.dot(num, ctx.roots) / self._den)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        if not isinstance(other, CycNum):
            return NotImplemented
        try:
            a, b = self._common(other, max(DEFAULT_ORDER_CAP,
                                           self.order * other.order))
        except OrderCapExceeded:  # pragma: no cover
            return False
        return a._num == b._num and a._den == b._den

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_rational())
        # Hash the canonical form, so equal values hash equally.
        v = self.canonical()
        return hash((v.order, v._num, v._den))

    def canonical(self) -> "CycNum":
        """The same value at its minimal order (`_CycArray.canonical`)."""
        one = _CycArray(np.array([self._num], dtype=object), self._den,
                        self.order)
        return one.canonical()[0]

    def __repr__(self):
        return f"CycNum({self.order}, {format_cyc(self)!r})"

    def __str__(self):
        return format_cyc(self)


def _coerce(x, order: int):
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum(order, [Fraction(x)])
    return NotImplemented


def _mul_canonical(a: tuple[int, ...], b: tuple[int, ...],
                   ctx: _OrderContext) -> tuple[int, ...]:
    """The convolution of a and b reduced through the power rows; in int64
    under the certified bound, else in Python ints."""
    phi = ctx.phi
    conv_bound = phi * max(1, *map(abs, a)) * max(1, *map(abs, b))
    dtype = (np.int64 if conv_bound * (2 * phi) * ctx.pow_max < _INT64_SAFE
             else object)
    conv = np.convolve(np.array(a, dtype=dtype), np.array(b, dtype=dtype))
    res = conv @ ctx.pow_matrix[: len(conv)].astype(dtype, copy=False)
    return tuple(int(x) for x in res)


# ---------------------------------------------------------------------------
# Exact arrays over one conductor (the matrix layers)
# ---------------------------------------------------------------------------

def _exact(terms: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """The operands of a contraction, as int64 or as object arrays.

    Each output coefficient is a sum of at most `terms` products of one
    entry from each array; int64 is used only while that many products of
    the largest entries stay below _INT64_SAFE, else Python ints.
    """
    bound = terms
    for x in arrays:
        bound *= max(1, int(np.abs(x).max(initial=0)))
    dtype = np.int64 if bound < _INT64_SAFE else object
    return [x.astype(dtype, copy=False) for x in arrays]


class _CycArray:
    """Array of elements of Q(zeta_N) at one conductor N.

    ``num[..., :]`` holds each entry's canonical coefficients over
    zeta^0 .. zeta^{phi(N)-1}; all entries share the denominator ``den``.
    Products run through the order context's multiplication tensor, in
    int64 when _exact certifies the bound, else in Python ints.
    """

    __slots__ = ("num", "den", "order")

    def __init__(self, num: np.ndarray, den: int, order: int):
        self.num, self.den, self.order = num, den, order

    def __getitem__(self, key) -> "_CycArray":
        """Slice the leading (entry) axes."""
        return _CycArray(self.num[key], self.den, self.order)

    @property
    def T(self) -> "_CycArray":
        return _CycArray(self.num.swapaxes(0, 1), self.den, self.order)

    def conj(self) -> "_CycArray":
        ctx = _order_context(self.order)
        num, conj = _exact(ctx.phi, self.num, ctx.conj_matrix)
        return _CycArray(num @ conj, self.den, self.order)

    # Both products take one power zeta^q of the right factor at a time,
    # so no temporary carries a (phi, phi) pair of axes.

    def __mul__(self, other: "_CycArray") -> "_CycArray":
        """Entrywise field product, broadcasting the entry axes."""
        ctx = _order_context(self.order)
        a, b, m = _exact(ctx.phi ** 2, self.num, other.num, ctx.mul_tensor)
        out = sum((a @ m[:, q]) * b[..., q, None] for q in range(ctx.phi))
        return _CycArray(out, self.den * other.den, self.order)

    def __matmul__(self, other: "_CycArray") -> "_CycArray":
        """Matrix product: out[i, k] = sum_j self[i, j] * other[j, k]."""
        ctx = _order_context(self.order)
        a, b, m = _exact(self.num.shape[1] * ctx.phi ** 2,
                         self.num, other.num, ctx.mul_tensor)
        out = sum((a @ m[:, q]).transpose(0, 2, 1) @ b[..., q]  # (i, r, k)
                  for q in range(ctx.phi))
        return _CycArray(out.transpose(0, 2, 1), self.den * other.den,
                         self.order)

    def equals(self, other: "_CycArray") -> np.ndarray:
        """Boolean mask of the entries where both arrays hold one value."""
        a, b = (_exact(other.den, self.num)[0] * other.den,
                _exact(self.den, other.num)[0] * self.den)
        return (a == b).all(axis=-1)

    def times_root(self, expo: np.ndarray) -> "_CycArray":
        """Each entry times zeta^expo, for an int array of the entry shape.

        The coefficients move to the powers p + expo mod N, which are
        distinct for one entry, and reduce through the power rows.
        """
        ctx = _order_context(self.order)
        wide = np.zeros(self.num.shape[:-1] + (self.order,),
                        dtype=self.num.dtype)
        powers = (np.arange(ctx.phi) + np.asarray(expo)[..., None]) % ctx.order
        np.put_along_axis(wide, powers, self.num, axis=-1)
        wide, rows = _exact(ctx.phi, wide, ctx.pow_matrix[:self.order])
        return _CycArray(wide @ rows, self.den, self.order)

    def promote(self, order: int) -> "_CycArray":
        """The same entries at `order`, a multiple of the conductor."""
        if order == self.order:
            return self
        phi = _order_context(self.order).phi
        basis = _order_context(order).pow_matrix[
            np.arange(phi) * (order // self.order)]
        num, basis = _exact(phi, self.num, basis)
        return _CycArray(num @ basis, self.den, order)

    def canonical(self) -> np.ndarray:
        """Each entry as a CycNum at its minimal order, in an object array
        of the entry shape; equal values come out with equal coefficients.

        An entry lies in Q(zeta_d), d | N, exactly when sigma_k: zeta ->
        zeta^k fixes it for every unit k = 1 mod d, and its minimal order is
        the smallest such d.  Each sigma_k is one product with permuted
        power rows, taken one unit at a time; the entries of order d < N
        then move down through one cached rational matrix (`_demotion`).
        """
        n, ctx = self.order, _order_context(self.order)
        num = self.num.reshape(-1, ctx.phi)
        divisors = [d for d in range(1, n) if n % d == 0]
        fixed = {d: np.ones(len(num), dtype=bool) for d in divisors}
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                x, rows = _exact(ctx.phi, num,
                                 ctx.pow_matrix[np.arange(ctx.phi) * k % n])
                fixed_by_k = (x @ rows == x).all(axis=-1)
                for d in divisors:
                    if (k - 1) % d == 0:
                        fixed[d] &= fixed_by_k
        orders = np.full(len(num), n)
        for d in reversed(divisors):
            orders[fixed[d]] = d
        out = np.empty(len(num), dtype=object)
        for d in set(orders.tolist()):
            at = np.flatnonzero(orders == d)
            coeffs, den = num[at], self.den
            if d < n:
                demote, scale = _demotion(n, d)
                coeffs, demote = _exact(ctx.phi, coeffs, demote)
                coeffs, den = coeffs @ demote, den * scale
            for t, c in zip(at.tolist(), coeffs.tolist()):
                out[t] = CycNum(d, _num=tuple(c), _den=den)
        return out.reshape(self.num.shape[:-1])

    def sum(self) -> CycNum:
        """The sum of all entries."""
        num, = _exact(self.num[..., 0].size, self.num)
        total = num.reshape(-1, num.shape[-1]).sum(axis=0)
        return CycNum(self.order, _num=tuple(int(x) for x in total),
                      _den=self.den)

    def entry(self, *index: int) -> CycNum:
        return CycNum(self.order, _num=tuple(int(x) for x in self.num[index]),
                      _den=self.den)

    @classmethod
    def rational(cls, numerators: np.ndarray, den: int, order: int
                 ) -> "_CycArray":
        """Rational entries numerators/den, from an integer array."""
        num = np.zeros(np.shape(numerators) + (_order_context(order).phi,),
                       dtype=object)
        num[..., 0] = numerators
        return cls(_exact(1, num)[0], den, order)


@functools.lru_cache(maxsize=None)
def _demotion(n: int, d: int) -> tuple[np.ndarray, int]:
    """(R, r) such that y = x @ R / r for every element of Q(zeta_d), with x
    its coefficients at order n and y those at order d (d | n).

    Promotion is y -> y @ P, P the rows of zeta_d^j = zeta_n^(j n/d).
    Gauss-Jordan on [P | I] picks phi(d) pivot columns c of P and gives
    E = P[:, c]^-1, so y = x[c] @ E: R holds r E in the rows c.
    """
    phi_d = _order_context(d).phi
    promote = _order_context(n).pow_matrix[np.arange(phi_d) * (n // d)]
    aug = [[Fraction(int(v)) for v in row]
           + [Fraction(i == j) for j in range(phi_d)]
           for i, row in enumerate(promote)]
    pivots: list[int] = []
    for col in range(promote.shape[1]):
        r = len(pivots)
        p = next((i for i in range(r, phi_d) if aug[i][col]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        aug[r] = [v / aug[r][col] for v in aug[r]]
        for i in range(phi_d):
            if i != r and (f := aug[i][col]):
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        if len(pivots) == phi_d:
            break
    inverse = [row[-phi_d:] for row in aug]
    scale = math.lcm(*(v.denominator for row in inverse for v in row))
    demote = np.zeros((promote.shape[1], phi_d), dtype=object)
    demote[pivots] = [[int(v * scale) for v in row] for row in inverse]
    return _exact(1, demote)[0], scale


def _cyc_arrays(*blocks, order: int = 1) -> list[_CycArray]:
    """Nested sequences of CycNum as arrays over one conductor.

    The conductor is the lcm of `order` and all entries' orders, checked
    against DEFAULT_ORDER_CAP as it stands at call time; the denominator is
    the lcm of the entries' denominators.  Each entry is promoted once.
    """
    grids = [np.array(b, dtype=object) for b in blocks]
    entries = [x for g in grids for x in g.flat]
    order = math.lcm(order, *(x.order for x in entries))
    if order > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(
            f"promotion to order {order} exceeds cap {DEFAULT_ORDER_CAP}")
    den = math.lcm(*(x._den for x in entries))
    ctx = _order_context(order)
    out = []
    for g in grids:
        xs = list(g.flat)
        num = np.zeros((len(xs), ctx.phi), dtype=object)
        for o in {x.order for x in xs}:
            rows = [t for t, x in enumerate(xs) if x.order == o]
            coeffs = np.array([[c * (den // xs[t]._den) for c in xs[t]._num]
                               for t in rows], dtype=object)
            num[rows] = _CycArray(coeffs, den, o).promote(order).num
        out.append(_CycArray(_exact(1, num)[0].reshape(g.shape + (ctx.phi,)),
                             den, order))
    return out


# ---------------------------------------------------------------------------
# Public functional API
# ---------------------------------------------------------------------------

def cyc_root_of_unity(num: int, den: int) -> CycNum:
    """e^{2 pi i num/den} as an exact cyclotomic number."""
    if den < 1:
        raise ValueError("denominator must be positive")
    f = Fraction(num, den)
    f -= math.floor(f)
    q = f.denominator
    p = f.numerator
    ctx = _order_context(q)
    acc = [0] * ctx.phi
    for t, r in enumerate(ctx.pow_rows[p % q]):
        acc[t] += r
    return CycNum(q, _num=tuple(acc), _den=1)


def cyc_rational(r: Fraction | int, order: int = 1) -> CycNum:
    return CycNum(order, [Fraction(r)])


def cyc_inv(a: CycNum) -> CycNum:
    """Multiplicative inverse: the product of the other Galois conjugates of
    a, over the norm of a (the product of all of them, a rational)."""
    if a.is_zero():
        raise ZeroDivisionError("division by zero in Q(zeta)")
    if a.is_rational():
        return cyc_rational(1 / a.as_rational()).promote(a.order)
    others = cyc_rational(1)
    for k in range(2, a.order):
        if math.gcd(k, a.order) == 1:
            others = others * a._galois(k)
    return others * (1 / (a * others).as_rational())


def cyc_sqrt_rational(r: Fraction | int, *, order_cap: int | None = None
                      ) -> CycNum:
    """Exact square root of a rational inside a cyclotomic field.

    sqrt(2) lives at order 8, sqrt(p) for odd prime p at order p or 4p
    (through quadratic Gauss sums), and products combine through lcm of
    orders; exceeding the cap (DEFAULT_ORDER_CAP as it stands at call time,
    unless given) raises OrderCapExceeded.
    """
    if order_cap is None:
        order_cap = DEFAULT_ORDER_CAP
    r = Fraction(r)
    if r == 0:
        return cyc_rational(0)
    if r < 0:
        i_unit = cyc_root_of_unity(1, 4)
        return i_unit * cyc_sqrt_rational(-r, order_cap=order_cap)
    m = r.numerator * r.denominator
    square, squarefree = 1, 1
    n, p = m, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        square *= p ** (e // 2)
        if e % 2:
            squarefree *= p
        p += 1
    if n > 1:
        squarefree *= n
    result: CycNum = cyc_rational(Fraction(square, r.denominator))
    rem = squarefree
    if rem % 2 == 0:
        rem //= 2
        root2 = cyc_root_of_unity(1, 8) + cyc_root_of_unity(-1, 8)
        result = _mul_capped(result, root2, order_cap)
    q = 3
    while rem > 1:
        if rem % q == 0:
            rem //= q
            result = _mul_capped(result, _sqrt_odd_prime(q), order_cap)
        q += 2
    return result


def _sqrt_odd_prime(p: int) -> CycNum:
    gauss = cyc_rational(0)
    for k in range(1, p):
        legendre = pow(k, (p - 1) // 2, p)
        sign = 1 if legendre == 1 else -1
        gauss = gauss + sign * cyc_root_of_unity(k, p)
    if p % 4 == 1:
        return gauss
    return gauss * cyc_root_of_unity(-1, 4)


def _mul_capped(a: CycNum, b: CycNum, cap: int) -> CycNum:
    m = math.lcm(a.order, b.order)
    if m > cap:
        raise OrderCapExceeded(f"promotion to order {m} exceeds cap {cap}")
    return a.promote(m) * b.promote(m)


# ---------------------------------------------------------------------------
# Textual form: `2*e(-2/9)+2*e(1/9)` (exponents are multiples of 2 pi i)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<sym>[-+*/()]|e))")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad character in expression at {text[pos:]!r}")
            break
        out.append(m.group("int") or m.group("sym"))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expect: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expect is not None and tok != expect):
            raise ValueError(f"expected {expect!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> CycNum:
        v = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input {self.peek()!r}")
        return v

    def expr(self) -> CycNum:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        acc = self.term() * sign
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            acc = acc + self.term() * sign
        return acc

    def term(self) -> CycNum:
        acc = self.factor()
        while self.peek() == "*":
            self.take("*")
            acc = acc * self.factor()
        return acc

    def factor(self) -> CycNum:
        tok = self.peek()
        if tok == "-":
            self.take("-")
            return -self.factor()
        if tok == "e":
            self.take("e")
            self.take("(")
            frac = self.signed_rational()
            self.take(")")
            return cyc_root_of_unity(frac.numerator, frac.denominator)
        if tok == "(":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner
        return cyc_rational(self.rational())

    def signed_rational(self) -> Fraction:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        return sign * self.rational()

    def rational(self) -> Fraction:
        num = int(self.take())
        if self.peek() == "/":
            self.take("/")
            return Fraction(num, int(self.take()))
        return Fraction(num)


def parse_cyc(text: str) -> CycNum:
    """Parse the textual form; exact round-trip partner of format_cyc."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty expression")
    return _Parser(tokens).parse()


def format_cyc(x: CycNum) -> str:
    """Canonical textual form `c*e(p/q)` terms joined by +/-."""
    parts: list[tuple[Fraction, Fraction]] = []  # (coeff, exponent fraction)
    phi = len(x._num)
    for j in range(phi):
        if x._num[j]:
            parts.append((Fraction(x._num[j], x._den), Fraction(j, x.order)))
    if not parts:
        return "0"
    chunks: list[str] = []
    for idx, (coeff, expo) in enumerate(parts):
        mag = abs(coeff)
        if expo == 0:
            body = _frac_str(mag)
        elif mag == 1:
            body = f"e({expo.numerator}/{expo.denominator})"
        else:
            body = f"{_frac_str(mag)}*e({expo.numerator}/{expo.denominator})"
        if idx == 0:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append(("+" if coeff > 0 else "-") + body)
    return "".join(chunks)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
