"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every number here is a Q-linear combination of powers of a primitive N-th
root of unity, stored in canonical reduced form modulo the N-th cyclotomic
polynomial.  Canonical form makes equality a coefficient comparison, so all
downstream matrix identities (S^2 = C, Verlinde integrality, ...) are exact.

There is one type, `_CycArray`: an integer array whose last axis holds
each entry's coefficients over the power basis zeta^0 .. zeta^{phi(N)-1}
of one conductor N, over one common positive denominator.  A number,
`CycNum`, is such an array with no entry axes, kept in lowest terms.  So
promotion, conjugation and the other Galois maps, +, -, the entrywise
product, equality and the canonical form are each written once, for
arrays, and a number broadcasts into an array operation.  A binary
operation first brings both operands to the lcm of their conductors; an
int or a Fraction counts as an element of Q.

An entrywise or matrix product builds the unreduced polynomial product,
contracted over the inner index, in 2 phi - 1 slots and reduces it once
through the power rows.  Every contraction runs in the narrowest of three
exact tiers that `_exact` certifies from a bound on its partial sums:
float64 on BLAS below 2^53, int64 below 2^62, Python ints past that; all
three run the same code.  `_CycArray.canonical` gives each entry at its
minimal order, the one form a value has whatever order it was computed
at; `hash` uses that form.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "CycNum",
    "CycError",
    "OrderCapExceeded",
    "cyc_root_of_unity",
    "cyc_rational",
    "cyc_inv",
    "parse_cyc",
    "format_cyc",
    "DEFAULT_ORDER_CAP",
]

DEFAULT_ORDER_CAP = 720


class CycError(ArithmeticError):
    """Base error for cyclotomic arithmetic."""


class OrderCapExceeded(CycError):
    """A cyclotomic field above the configured order cap was asked for."""


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dense, lowest degree first)
# ---------------------------------------------------------------------------

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
    return out


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


def _order_context(n: int) -> "_OrderContext":
    """The reduction data of Q(zeta_n), the one place a field is built.

    Every field comes through here, so this is the only check of the order
    cap: it reads DEFAULT_ORDER_CAP at call time, and before the cache, so a
    lowered cap also refuses a field that was built before.
    """
    if n > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(
            f"cyclotomic order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    return _cached_context(n)


class _OrderContext:
    """Cached reduction data for one cyclotomic order."""

    def __init__(self, n: int):
        self.order = n
        phi_poly = cyclotomic_polynomial(n)
        self.phi = len(phi_poly) - 1
        # Rows: canonical coefficients of x^k mod Phi_n for k up to the
        # largest exponent needed by multiplication (2*phi-2) and by
        # `_CycArray._substitute` and `times_root` (n-1).
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
        self.pow_matrix = np.array(rows, dtype=np.int64)
        self.pow_matrix.flags.writeable = False  # a root's CycNum is a row
        self.roots = np.exp(2j * np.pi * np.arange(self.phi) / n)


_cached_context = functools.lru_cache(maxsize=None)(_OrderContext)


# ---------------------------------------------------------------------------
# Exact arrays over one conductor; a number is an array with no entry axes
# ---------------------------------------------------------------------------

def _exact(terms: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """The operands of a contraction, in the narrowest exact tier.

    Each output coefficient is a sum of at most `terms` products of one
    entry from each array, so `terms` times the largest entries bounds
    every product and every partial sum.  Below 2^53 these are integers
    that float64 holds exactly, in any summation order and with FMA, so
    the contraction may run on BLAS; `_int` casts its result back.  Below
    2^62 the operands are int64, past that Python ints (object arrays).
    """
    bound = terms
    for x in arrays:
        bound *= max(1, int(x.max(initial=0)), -int(x.min(initial=0)))
    dtype = (np.float64 if bound < 2**53
             else np.int64 if bound < 2**62 else object)
    return [x.astype(dtype, copy=False) for x in arrays]


def _int(x: np.ndarray) -> np.ndarray:
    """A result of an `_exact` contraction as stored: float64 cast back to
    int64, which is exact under the bound; int64 and object unchanged."""
    return x.astype(np.int64) if x.dtype == np.float64 else x


def _binary(op):
    """`op` on both operands brought to the lcm of their conductors; an int
    or a Fraction counts as an element of Q."""
    @functools.wraps(op)
    def paired(self, other):
        if isinstance(other, (int, Fraction)):
            other = cyc_rational(other)
        elif not isinstance(other, _CycArray):
            return NotImplemented
        n = math.lcm(self.order, other.order)
        return op(self.promote(n), other.promote(n))
    return paired


class _CycArray:
    """Array of elements of Q(zeta_N) at one conductor N.

    ``num[..., :]`` holds each entry's canonical coefficients over
    zeta^0 .. zeta^{phi(N)-1}, as int64 or as Python ints, never floats;
    all entries share the denominator ``den``.  The leading axes are the
    entry axes; with none, the array is one number (`CycNum`).
    """

    __slots__ = ("num", "den", "order")

    def __init__(self, num: np.ndarray, den: int, order: int):
        self.num, self.den, self.order = num, den, order

    def __getitem__(self, key) -> "_CycArray":
        """Index the entry axes; down to one entry, a CycNum."""
        return _of(self.num[key], self.den, self.order)

    def entry(self, *index: int) -> "CycNum":
        return self[index]

    @property
    def T(self) -> "_CycArray":
        return _CycArray(self.num.swapaxes(0, 1), self.den, self.order)

    def _substitute(self, k: int, order: int) -> "_CycArray":
        """Each entry under zeta_N -> zeta_order^k, N the conductor: the
        automorphism zeta -> zeta^k for order = N and k prime to N, the
        embedding into Q(zeta_order) for k = order / N.  The power zeta_N^p
        becomes row p k mod order of the power rows at `order`."""
        phi = _order_context(self.order).phi
        rows = _order_context(order).pow_matrix[np.arange(phi) * k % order]
        num, rows = _exact(phi, self.num, rows)
        return _of(_int(num @ rows), self.den, order)

    def _galois(self, k: int) -> "_CycArray":
        """The automorphism zeta -> zeta^k, for k prime to the conductor."""
        return self._substitute(k, self.order)

    def conj(self) -> "_CycArray":
        """Complex conjugation, the automorphism zeta -> zeta^{-1}."""
        return self._galois(-1)

    def promote(self, order: int) -> "_CycArray":
        """The same entries at `order`, a multiple of the conductor."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("target order must be a multiple of current order")
        return self._substitute(order // self.order, order)

    @_binary
    def __add__(self, other: "_CycArray") -> "_CycArray":
        """Entrywise sum over the lcm of the denominators, broadcasting."""
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        a, b = _exact(fa + fb, self.num, other.num)
        return _of(_int(a * fa + b * fb), den, self.order)

    __radd__ = __add__

    def __neg__(self) -> "_CycArray":
        return _of(-self.num, self.den, self.order)

    @_binary
    def __sub__(self, other: "_CycArray") -> "_CycArray":
        return self + -other

    def __rsub__(self, other):
        return -self + other

    # Both products add up the unreduced product in 2 phi - 1 slots, one
    # power zeta^p of the left factor at a time, and reduce it once.  A
    # slot sums phi products (times the inner length for @), a reduced
    # coefficient 2 phi - 1 slots: the bound `_exact` certifies.

    @_binary
    def __mul__(self, other: "_CycArray") -> "_CycArray":
        """Entrywise field product, broadcasting the entry axes."""
        ctx = _order_context(self.order)
        phi = ctx.phi
        a, b, rows = _exact(phi * (2 * phi - 1), self.num, other.num,
                            ctx.pow_matrix[:2 * phi - 1])
        wide = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1]
                        + (2 * phi - 1,), dtype=a.dtype)
        # Only the powers some entry of the left factor uses add a slot.
        used = a.any(axis=tuple(range(a.ndim - 1)))
        for p in np.flatnonzero(used).tolist():
            wide[..., p:p + phi] += a[..., p, None] * b
        return _of(_int(wide @ rows), self.den * other.den, self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Each entry over one number."""
        if isinstance(other, (int, Fraction)):
            other = cyc_rational(other)
        elif not isinstance(other, CycNum):
            return NotImplemented
        return self * cyc_inv(other)

    def __matmul__(self, other: "_CycArray") -> "_CycArray":
        """Matrix product: out[i, k] = sum_j self[i, j] * other[j, k]."""
        ctx = _order_context(self.order)
        phi = ctx.phi
        (n, inner, _), k = self.num.shape, other.num.shape[1]
        a, b, rows = _exact(inner * phi * (2 * phi - 1), self.num, other.num,
                            ctx.pow_matrix[:2 * phi - 1])
        a = np.ascontiguousarray(np.moveaxis(a, -1, 0))  # a[p]: one dgemm
        b = b.reshape(inner, k * phi)
        wide = np.zeros((n, k, 2 * phi - 1), dtype=a.dtype)
        for p in range(phi):
            wide[..., p:p + phi] += (a[p] @ b).reshape(n, k, phi)
        return _CycArray(_int(wide @ rows), self.den * other.den, self.order)

    @_binary
    def equals(self, other: "_CycArray") -> np.ndarray:
        """Boolean mask of the entries where both arrays hold one value."""
        a, b = (_exact(other.den, self.num)[0] * other.den,
                _exact(self.den, other.num)[0] * self.den)
        return (a == b).all(axis=-1)

    def times_root(self, expo: np.ndarray) -> "_CycArray":
        """Each entry times zeta^expo, for an int array of the entry shape:
        the entrywise product with the power rows of expo mod N."""
        roots = _order_context(self.order).pow_matrix[np.asarray(expo)
                                                      % self.order]
        return self * _CycArray(roots, 1, self.order)

    def canonical(self):
        """Each entry as a CycNum at its minimal order, in an object array
        of the entry shape (one number: a CycNum); equal values come out
        with equal coefficients.

        An entry lies in Q(zeta_d), d | N, exactly when sigma_k: zeta ->
        zeta^k fixes it for every unit k = 1 mod d, and its minimal order is
        the smallest such d.  Each sigma_k is one product with permuted
        power rows (`_substitute`), taken one unit at a time; the entries of
        order d < N then move down through one cached rational matrix
        (`_demotion`).
        """
        n, ctx = self.order, _order_context(self.order)
        flat = _CycArray(self.num.reshape(-1, ctx.phi), self.den, n)
        num = flat.num
        divisors = [d for d in range(1, n) if n % d == 0]
        fixed = {d: np.ones(len(num), dtype=bool) for d in divisors}
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                fixed_by_k = (flat._galois(k).num == num).all(axis=-1)
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
                coeffs, den = _int(coeffs @ demote), den * scale
            for t, c in zip(at.tolist(), coeffs):
                out[t] = _of(c, den, d)
        return out.reshape(self.num.shape[:-1])[()]

    def sum(self) -> "CycNum":
        """The sum of all entries."""
        num, = _exact(self.num[..., 0].size, self.num)
        return _of(_int(num.reshape(-1, num.shape[-1]).sum(axis=0)),
                   self.den, self.order)


class CycNum(_CycArray):
    """Element of Q(zeta_N): a `_CycArray` with no entry axes, kept in lowest
    terms over a positive denominator; immutable."""

    __slots__ = ()

    def __init__(self, order: int, coeffs: Sequence[Fraction | int] = ()):
        phi = _order_context(order).phi
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) > phi:
            raise ValueError("more coefficients than the degree phi(N)")
        den = math.lcm(*(f.denominator for f in fracs))
        num = [int(f * den) for f in fracs] + [0] * (phi - len(fracs))
        # int64 below 2^62 as `_exact` would pick it, but without its call.
        wide = any(abs(x) >> 62 for x in num)
        num = np.array(num, dtype=object if wide else np.int64)
        super().__init__(*_lowest(num, den), order)

    def is_zero(self) -> bool:
        return not self.num.any()

    def is_rational(self) -> bool:
        return not self.num[1:].any()

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise CycError("value is not rational")
        return Fraction(int(self.num[0]), self.den)

    def __rtruediv__(self, other):
        return other * cyc_inv(self)

    def embed(self) -> complex:
        """Double-precision complex embedding sum c_k e^{2 pi i k / N}."""
        ctx = _order_context(self.order)
        # Not np.dot: its BLAS kernel alone adds about 0.1 MB of peak RSS.
        num = self.num.astype(float)
        return complex((num * ctx.roots).sum() / self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        if not isinstance(other, CycNum):
            return NotImplemented
        return bool(self.equals(other))

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_rational())
        # Hash the canonical form, so equal values hash equally.
        v = self.canonical()
        return hash((v.order, tuple(v.num.tolist()), v.den))

    def __repr__(self):
        return f"CycNum({self.order}, {format_cyc(self)!r})"

    def __str__(self):
        return format_cyc(self)


def _lowest(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """One number's coefficients and positive denominator in lowest terms."""
    g = math.gcd(den, *num.tolist())
    if g == 1:
        return num, den
    return (num // g if num.any() else num), den // g


def _of(num: np.ndarray, den: int, order: int) -> _CycArray:
    """An array, or with no entry axes a CycNum in lowest terms."""
    if num.ndim > 1:
        return _CycArray(num, den, order)
    x = CycNum.__new__(CycNum)
    _CycArray.__init__(x, *_lowest(num, den), order)
    return x


@functools.lru_cache(maxsize=None)
def _demotion(n: int, d: int) -> tuple[np.ndarray, int]:
    """(R, r) such that y = x @ R / r for every element of Q(zeta_d), with x
    its coefficients at order n and y those at order d (d | n).

    Promotion is y -> y @ P, P the rows of zeta_d^j = zeta_n^(j n/d).
    Gauss-Jordan on [P | I] picks phi(d) pivot columns c of P and gives
    E = P[:, c]^-1, so y = x[c] @ E: R holds r E in the rows c.
    """
    phi_d = _order_context(d).phi
    promote = _CycArray(np.eye(phi_d, dtype=np.int64), 1, d).promote(n).num
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
    return _int(*_exact(1, demote)), scale


def _cyc_arrays(*blocks, order: int = 1) -> list[_CycArray]:
    """Nested sequences of CycNum as arrays over one conductor.

    The conductor is the lcm of `order` and all entries' orders (a field
    above the cap is refused where it is built, by `_order_context`); the
    denominator is the lcm of the entries' denominators.  Each entry is
    promoted once.
    """
    grids = [np.array(b, dtype=object) for b in blocks]
    entries = [x for g in grids for x in g.flat]
    order = math.lcm(order, *(x.order for x in entries))
    den = math.lcm(*(x.den for x in entries))
    ctx = _order_context(order)
    out = []
    for g in grids:
        xs = list(g.flat)
        num = np.zeros((len(xs), ctx.phi), dtype=object)
        for o in {x.order for x in xs}:
            rows = [t for t, x in enumerate(xs) if x.order == o]
            coeffs = np.array([[c * (den // xs[t].den)
                                for c in xs[t].num.tolist()]
                               for t in rows], dtype=object)
            num[rows] = _CycArray(coeffs, den, o).promote(order).num
        num = _int(*_exact(1, num)).reshape(g.shape + (ctx.phi,))
        out.append(_CycArray(num, den, order))
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
    row = _order_context(f.denominator).pow_matrix[f.numerator]
    return _of(row, 1, f.denominator)


def cyc_rational(r: Fraction | int) -> CycNum:
    return CycNum(1, [Fraction(r)])


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
        negative = self.peek() in ("+", "-") and self.take() == "-"
        acc = -self.term() if negative else self.term()
        while self.peek() in ("+", "-"):
            minus = self.take() == "-"
            acc = acc - self.term() if minus else acc + self.term()
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
            den = int(self.take())
            if den == 0:
                raise ValueError(f"zero denominator in {num}/0")
            return Fraction(num, den)
        return Fraction(num)


def parse_cyc(text: str) -> CycNum:
    """Parse the textual form; exact round-trip partner of format_cyc."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty expression")
    try:
        return _Parser(tokens).parse()
    except RecursionError:
        raise ValueError("expression nested too deeply") from None


def format_cyc(x: CycNum) -> str:
    """Canonical textual form `c*e(p/q)` terms joined by +/-."""
    chunks: list[str] = []
    for j, c in enumerate(x.num.tolist()):
        if not c:
            continue
        g = math.gcd(c, x.den)
        mag, den = abs(c) // g, x.den // g
        body = str(mag) if den == 1 else f"{mag}/{den}"
        if j:
            g = math.gcd(j, x.order)
            root = f"e({j // g}/{x.order // g})"
            body = root if body == "1" else f"{body}*{root}"
        chunks.append(("-" if c < 0 else "+" if chunks else "") + body)
    return "".join(chunks) or "0"
