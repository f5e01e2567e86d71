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
operation, `@` too, first brings both operands to the lcm of their
conductors; an int or a Fraction counts as an element of Q.

An entrywise or matrix product builds the unreduced polynomial product,
contracted over the inner index, in 2 phi - 1 slots and reduces it once
through the power rows.  Every contraction runs in the narrowest of three
exact tiers that `_exact` certifies from a bound on its partial sums:
float64 on BLAS below 2^53, int64 below 2^62, Python ints past that; all
three run the same code.

`_CycArray.canonical` gives each entry at its minimal order, the one form
a value has whatever order it was computed at; `hash` uses that form.  It
reads the order and the coefficients there off the tensor (CRT) basis of
Q(zeta_N), in which every subfield is a coordinate subspace, the idea of
the Zumbroich basis (Breuer, AAECC 8 (1997) 279): no Galois map and no
linear solve.
"""

from __future__ import annotations

import functools
import math
import os
import re
import sys
from fractions import Fraction
from typing import Sequence

# numpy enters the package here (`fusion_ring` and `modular_data` import this
# module first), with OPENBLAS_THREAD_TIMEOUT=4 only while it loads, unless
# the environment gives a value: see the package docstring.
if "numpy" not in sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in os.environ:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]
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


def _memo(method):
    """A no-argument method whose result, None included, is kept in the
    instance's `_cache` under the method's name: computed once per object,
    a fusion ring or a modular datum.  The cache dies with the object."""
    name = method.__name__

    @functools.wraps(method)
    def cached(self):
        if name not in self._cache:
            self._cache[name] = method(self)
        return self._cache[name]
    return cached


# ---------------------------------------------------------------------------
# The field data of one order
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """(p, e) for each p^e || n, p ascending."""
    out = []
    for p in range(2, n + 1):
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first: the product of
    (x^(n/d) - 1)^mu(d) over the squarefree d | n.  The factors with
    mu(d) = 1 are multiplied first, so that each division by x^m - 1 after
    them is exact: q[i] = q[i - m] - a[i]."""
    if n < 1:
        raise ValueError("order must be positive")
    up, down = [n], []                      # n/d for mu(d) = 1 and -1
    for p, _ in _prime_powers(n):
        up, down = up + [m // p for m in down], down + [m // p for m in up]
    poly = [1]
    for m in up:
        poly = [0] * m + poly
        for i in range(len(poly) - m):
            poly[i] -= poly[i + m]
    for m in down:
        q = []
        for i in range(len(poly) - m):
            q.append((q[i - m] if i >= m else 0) - poly[i])
        poly = q
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
        # `_CycArray._substitute`, `times_root`, `_crt` and `canonical` (n-1).
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

    @property
    def T(self) -> "_CycArray":
        if self.num.ndim != 3:
            raise ValueError("only a matrix has a transpose")
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

    @_binary
    def __matmul__(self, other: "_CycArray") -> "_CycArray":
        """Matrix product: out[i, k] = sum_j self[i, j] * other[j, k]."""
        if self.num.ndim != 3 or other.num.ndim != 3:
            raise ValueError("only two matrices have a matrix product")
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

        Q(zeta_N) is the tensor product of the Q(zeta_q) over the q = p^e
        || N, and in the product of their power bases (`_crt`) each subfield
        Q(zeta_d), d | N, is a coordinate subspace: it is spanned by the
        basis elements whose order divides d.  So an entry's minimal order
        is the lcm of the orders of the basis elements it uses, and its
        coefficients at order d are the slice at the elements of Q(zeta_d),
        mapped back to the power basis of Q(zeta_d) by the power rows of
        those elements (`_tensor_powers`).  No d is 2 mod 4, for Q(zeta_2)
        = Q holds only the element 1.
        """
        n, ctx = self.order, _order_context(self.order)
        num = self.num.reshape(-1, ctx.phi)
        coords, crt = _exact(ctx.phi, num, _crt(n))
        coords = _int(coords @ crt)
        own = n // np.gcd(_tensor_powers(n), n)    # each basis element's order
        orders = np.lcm.reduce(np.where(coords != 0, own, 1), axis=1)
        out = np.empty(len(num), dtype=object)
        for d in set(orders.tolist()):
            at = np.flatnonzero(orders == d)
            coeffs = num[at]
            if d < n:
                rows = _order_context(d).pow_matrix[_tensor_powers(d) % d]
                coeffs, rows = _exact(len(rows), coords[at][:, d % own == 0],
                                      rows)
                coeffs = _int(coeffs @ rows)
            for t, c in zip(at.tolist(), coeffs):
                out[t] = _of(c, self.den, d)
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
        num = _int(*_exact(1, np.array(num, dtype=object)))
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
        """Double-precision complex embedding sum c_k e^{2 pi i k / N}; a
        part above the double range is +-inf, one below it 0."""
        z, exp = self.scaled_embed()
        return complex(_ldexp(z.real, exp), _ldexp(z.imag, exp))

    def scaled_embed(self) -> tuple[complex, int]:
        """(z, e) with the embedding z 2^e, z finite: the coefficients and the
        denominator are shifted right, exactly, to at most 1000 bits before
        they become floats, so phi(N) terms stay below the maximum 2^1024."""
        ctx = _order_context(self.order)
        shift = max(0, max(map(abs, self.num.tolist())).bit_length() - 1000)
        den_shift = max(0, int(self.den).bit_length() - 1000)
        # Not np.dot: its BLAS kernel alone adds about 0.1 MB of peak RSS.
        num = (self.num >> shift).astype(float)
        z = complex((num * ctx.roots).sum() / (self.den >> den_shift))
        return z, shift - den_shift

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


def _ldexp(x: float, exp: int) -> float:
    """x 2^exp; +-inf above the double range, 0 (not -0) below it."""
    try:
        return math.ldexp(x, exp) + 0.0
    except OverflowError:
        return math.copysign(math.inf, x)


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
def _tensor_powers(n: int) -> np.ndarray:
    """The tensor basis of Q(zeta_n): the products prod_p zeta_q^(j_p),
    0 <= j_p < phi(q), over the q = p^e || n, p ascending and the last j
    varying fastest, each as the power sum_p j_p n/q of zeta_n."""
    expo = np.zeros(1, dtype=np.int64)
    for p, e in _prime_powers(n):
        q = p ** e
        expo = np.add.outer(expo, np.arange(q - q // p) * (n // q)).ravel()
    expo.flags.writeable = False                  # cached: shared by callers
    return expo


@functools.lru_cache(maxsize=None)
def _crt(n: int) -> np.ndarray:
    """Coefficients over the power basis of Q(zeta_n) to those over the
    tensor basis (`_tensor_powers`).  zeta_n is prod_p zeta_q^(a_p) with
    a_p n/q = 1 mod q, so row k is the Kronecker product over p of the power
    rows k a_p mod q of order q; every entry is 0 or +-1."""
    phi = _order_context(n).phi
    k, out = np.arange(phi), np.ones((phi, 1), dtype=np.int64)
    for p, e in _prime_powers(n):
        q = p ** e
        rows = _order_context(q).pow_matrix[k * pow(n // q, -1, q) % q]
        out = (out[:, :, None] * rows[:, None, :]).reshape(phi, -1)
    out.flags.writeable = False                   # cached: shared by callers
    return out


def _cyc_arrays(entries, order: int = 1) -> _CycArray:
    """A nested sequence of CycNum as one array over one conductor.

    The conductor is the lcm of `order` and all entries' orders (a field
    above the cap is refused where it is built, by `_order_context`); the
    denominator is the lcm of the entries' denominators.  Each entry is
    promoted once.
    """
    grid = np.array(entries, dtype=object)
    xs = list(grid.flat)
    order = math.lcm(order, *(x.order for x in xs))
    den = math.lcm(*(x.den for x in xs))
    phi = _order_context(order).phi
    num = np.zeros((len(xs), phi), dtype=object)
    for o in {x.order for x in xs}:
        rows = [t for t, x in enumerate(xs) if x.order == o]
        coeffs = np.array([[c * (den // xs[t].den) for c in xs[t].num.tolist()]
                           for t in rows], dtype=object)
        num[rows] = _CycArray(coeffs, den, o).promote(order).num
    num = _int(*_exact(1, num)).reshape(grid.shape + (phi,))
    return _CycArray(num, den, order)


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
    a, over the norm of a (the product of all of them, a rational), formed
    at the minimal order of a and returned at the order of a."""
    if a.is_zero():
        raise ZeroDivisionError("division by zero in Q(zeta)")
    if a.is_rational():
        return cyc_rational(1 / a.as_rational()).promote(a.order)
    b = a.canonical()           # at the minimal order: the fewest conjugates
    others = cyc_rational(1)
    for k in range(2, b.order):
        if math.gcd(k, b.order) == 1:
            others = others * b._galois(k)
    return (others * (1 / (b * others).as_rational())).promote(a.order)


# ---------------------------------------------------------------------------
# Textual form: `2*e(-2/9)+2*e(1/9)` (exponents are multiples of 2 pi i)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<sym>[-+*/()]|e))")


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

    def fail(self, expected: str) -> ValueError:
        tok = self.peek()
        found = "end of input" if tok is None else repr(tok)
        return ValueError(f"expected {expected}, found {found}")

    def take(self, expect: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expect is not None and tok != expect):
            raise self.fail(repr(expect))
        self.pos += 1
        return tok

    def integer(self) -> int:
        if not (self.peek() or "").isdigit():
            raise self.fail("a number")
        return int(self.take())

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
        num = self.integer()
        if self.peek() == "/":
            self.take("/")
            den = self.integer()
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
