"""Twists, quantum dimensions, and exact S/T matrices for a fusion ring.

Everything is exact cyclotomic arithmetic.  s-tilde is built from the
balancing formula s~_{i,j} = sum_k N_{i*,j}^k theta_k d_k / (theta_i theta_j)
as one integer array of shape (n, n, phi(L)) over one common denominator,
where L, the lcm of the twist denominators and the dim orders, is the
conductor of the field Q(zeta_L) that holds all of s-tilde: the sum over k
is one contraction of the dual-permuted fusion tensor with the coefficients
of theta_k d_k, and theta_i^-1 theta_j^-1 is a power shift.  S = s~ D / D^2
with D the real root of the global dimension D^2 that the Gauss sum
p+ = D e(c/8) carries (`_gauss_root`); D^2 need not be rational.

The matrix layers -- the checks of `verify_modular`, the Verlinde structure
constants and (ST)^3 = S^2 -- take that array directly and never S,
so that only D^2 enters the first two; their products are numpy contractions
in Q(zeta_L) (`cyclotomic._CycArray`): the unreduced polynomial product,
reduced once through the power rows.  Each contraction runs in the narrowest
exact tier that a bound on its partial sums allows (`cyclotomic._exact`):
float64 on BLAS below 2^53, where every partial sum is an integer float64
holds exactly; int64 below 2^62; Python ints past that.  Every result is
exact: there is no modular shortcut, and no float without the bound.
A scalar such as D, D^2 or its inverse is a `CycNum`, an array with no
entry axes, so it broadcasts into these products as it is.

`stilde()` and `s_matrix()` give the same matrices as lists of `CycNum`:
S is one array at lcm(L, order of D), and each entry of either comes out at
its minimal order (`_CycArray.canonical`), so its printed text depends on
its value alone.

A datum that fails verification is still computable: verification failure
is diagnostic, not fatal.  Only S and the (ST)^3 relation need D, and a
datum whose Gauss sums give no D, which is then not modular, has neither.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .cyclotomic import (
    CycNum,
    _CycArray,
    _cyc_arrays,
    _exact,
    _int,
    cyc_inv,
    cyc_rational,
    cyc_root_of_unity,
)
from .fusion_ring import CheckReport, FusionRing, check, first_violation

__all__ = [
    "GlobalDimensionError",
    "ModularDatum",
    "ModularReport",
    "VerlindeError",
]


class VerlindeError(ArithmeticError):
    """The Verlinde formula gives no integer N: a non-integer value, or a
    quantum dimension of 0 to divide by (inconsistent input datum)."""


class GlobalDimensionError(ArithmeticError):
    """The global dimension is zero, or the Gauss sums give no real root of
    it, so S = s~/D is undefined."""


@dataclass(frozen=True)
class ModularReport(CheckReport):
    """Exact check results for one modular datum."""

    symmetric: bool = check("S symmetric")
    s_squared_is_charge_conjugation: bool = check("S^2 = charge conjugation")
    dual_invariance: bool = check("S dual-invariant")  # S_{i',j'} = S_{i,j}
    unitary: bool = check("S unitary")
    first_row_is_dims: bool = check("first row = dims/D")   # S_{0,i} = d_i/D
    gauss_product_ok: bool = check("Gauss sums p+p- = D^2")
    # p+/p- = e^{2 pi i c/4}; None if c is unknown
    gauss_ratio_ok: bool | None = check("Gauss ratio e^(2 pi i c/4)")
    failures: tuple[str, ...] = ()


def _memo(method):
    """A no-argument method whose result, None included, is kept in the
    instance's `_cache` under the method's name: computed once per datum.
    The cache dies with the datum."""
    name = method.__name__

    @functools.wraps(method)
    def cached(self):
        if name not in self._cache:
            self._cache[name] = method(self)
        return self._cache[name]
    return cached


class ModularDatum:
    """Fusion ring plus twists and exact quantum dimensions."""

    def __init__(self, ring: FusionRing, twists: Mapping[int, Fraction],
                 dims: Mapping[int, CycNum | int],
                 central_charge: Fraction | int | None = None):
        ring.require_valid()
        self.ring = ring
        n = ring.rank
        if sorted(twists) != list(range(n)):
            raise ValueError("a twist is required for every label")
        if sorted(dims) != list(range(n)):
            raise ValueError("a dim is required for every label")
        self.twists = tuple(Fraction(twists[i]) % 1 for i in range(n))
        self.dims = tuple(
            d if isinstance(d, CycNum) else cyc_rational(Fraction(d))
            for d in (dims[i] for i in range(n)))
        self.central_charge = (None if central_charge is None
                               else Fraction(central_charge))
        self._cache: dict[str, object] = {}

    # -- scalar data --------------------------------------------------------

    def theta(self, i: int) -> CycNum:
        t = self.twists[i]
        return cyc_root_of_unity(t.numerator, t.denominator)

    @_memo
    def global_dimension(self) -> CycNum:
        """Sum of squared quantum dimensions (exact), cached."""
        dims, = _cyc_arrays(self.dims)
        return (dims * dims).sum()

    def _nonzero_global_dimension(self) -> CycNum:
        """D^2, which S = s~/D and every check on s~ need nonzero."""
        glob = self.global_dimension()
        if glob.is_zero():
            raise GlobalDimensionError(
                "global dimension is 0; S = s~/D is undefined")
        return glob

    @property
    def D(self) -> CycNum:
        """The real root of the global dimension with p+ = D e(c/8)
        (`_gauss_root`); positive, as the phase of p+ picks it."""
        glob = self._nonzero_global_dimension()
        root = self._gauss_root()
        if root is None:
            raise GlobalDimensionError(
                f"no real D with D^2 = {glob} and p+ = D e(c/8); "
                "S = s~/D is undefined")
        return root[0]

    @_memo
    def gauss_sums(self) -> tuple[CycNum, CycNum]:
        """(p+, p-) with p± = sum d_i^2 theta_i^{±1}, at the conductor L;
        cached."""
        powers = self._twist_powers()
        dims = self._dims_array()
        squares = dims * dims
        return (squares.times_root(powers).sum(),
                squares.times_root(-powers).sum())

    @_memo
    def _gauss_root(self) -> tuple[CycNum, Fraction] | None:
        """(D, c mod 8) with p+ = D e(c/8), D real and D^2 the global
        dimension, or None when no such D exists; cached.

        For a modular datum p+ p- = D^2 and p+/p- = e(c/4), which lies in
        Q(zeta_L): so e(c/8) is one of the e(k/m), m = 2 lcm(2, L).  The
        phase of p+ names k, and D = p+ e(-k/m) is accepted only if it is
        real and squares to the global dimension, exactly; |D| >= 1 keeps the
        float far from a wrong k.  An e(k/m) of order 2 mod 4 is written as
        -e(k/m + 1/2), of odd order, so D and S stay in the field of s~.
        """
        glob = self.global_dimension()
        plus, _ = self.gauss_sums()
        m = 2 * math.lcm(2, self._conductor())
        z = plus.embed()
        k = round(math.atan2(z.imag, z.real) * m / (2 * math.pi)) % m
        turn = Fraction(k, m)
        flip = turn.denominator % 4 == 2      # e(t) = -e(t + 1/2)
        back = -turn - Fraction(flip, 2)
        D = plus * cyc_root_of_unity(*back.as_integer_ratio())
        D = -D if flip else D
        found = not glob.is_zero() and D == D.conj() and D * D == glob
        return (D, 8 * turn) if found else None

    def infer_central_charge_mod8(self) -> Fraction | None:
        """c mod 8 from the exact identity p+ = D e(c/8) (`_gauss_root`), or
        None when the Gauss sums give no D."""
        root = self._gauss_root()
        return None if root is None else root[1]

    # -- matrices -----------------------------------------------------------

    def _conductor(self) -> int:
        """L, the lcm of the twist denominators and the dim orders.

        Every entry of s~ lies in Q(zeta_L) (Ng-Schauenburg), and the unit
        row s~_{0,j} = d_j needs all of L.
        """
        return math.lcm(*(t.denominator for t in self.twists),
                        *(d.order for d in self.dims))

    def _twist_powers(self) -> np.ndarray:
        """a_k with theta_k = zeta_L^a_k."""
        order = self._conductor()
        return np.array([t.numerator * (order // t.denominator)
                         for t in self.twists])

    @_memo
    def _dims_array(self) -> _CycArray:
        """The dims at the conductor L; cached."""
        dims, = _cyc_arrays(self.dims, order=self._conductor())
        return dims

    @_memo
    def _stilde(self) -> _CycArray:
        """s~ at the conductor L from the balancing formula, cached; the
        input of every matrix layer.

        The sum over k of N_{i*,j}^k theta_k d_k is one integer contraction
        of the dual-permuted fusion tensor with the (n, phi) coefficients of
        theta_k d_k, and theta_i^-1 theta_j^-1 is a power shift.
        """
        n = self.ring.rank
        powers = self._twist_powers()
        theta_dims = self._dims_array().times_root(powers)
        dual_tensor = self.ring.tensor[list(self.ring.dual_vector())]
        tensor, coeffs = _exact(n, dual_tensor, theta_dims.num)
        total = _CycArray(_int(np.tensordot(tensor, coeffs, axes=1)),
                          theta_dims.den, theta_dims.order)
        return total.times_root(-np.add.outer(powers, powers))

    @_memo
    def stilde(self) -> list[list[CycNum]]:
        """Balancing matrix
        s~_{i,j} = sum_k N_{i',j}^k theta_k/(theta_i theta_j) d_k.

        The array of `_stilde`, each entry at its minimal order; cached.
        """
        return self._stilde().canonical().tolist()

    @_memo
    def s_matrix(self) -> list[list[CycNum]]:
        """S = s~ D / D^2, exact; the one inverse is that of the scalar D^2.

        Computed at lcm(L, order of D), each entry then at its minimal
        order; cached.
        """
        s = self._stilde() * (self.D / self.global_dimension())
        return s.canonical().tolist()

    def t_matrix(self) -> list[CycNum]:
        """Diagonal of T: e^{2 pi i (Delta_i - c/24)}."""
        if self.central_charge is None:
            raise ValueError("central charge not set")
        diag = []
        for i in range(self.ring.rank):
            phase = self.twists[i] - self.central_charge / 24
            diag.append(cyc_root_of_unity(phase.numerator, phase.denominator))
        return diag

    def st_relation_holds(self) -> bool:
        """Exact check of (ST)^3 = S^2, with T_ii = e^{2 pi i (h_i - c/24)}.

        The -c/24 in T cancels the phase p+/D = e^{2 pi i c/8} of the bare
        relation, so it holds exactly when c is right mod 8.  With S = s~/D
        it is checked as (s~ T)^3 = D s~^2: three matrix products on the
        array engine, O(n^3 phi(N)^2).
        """
        t, = _cyc_arrays(self.t_matrix(), order=self._conductor())
        st = self._stilde().promote(t.order)
        st_t = st * t
        return bool(((st_t @ st_t) @ st_t).equals((st @ st) * self.D).all())

    # -- verification -------------------------------------------------------

    @_memo
    def verify_modular(self) -> ModularReport:
        """Exact modular checks, computed once per datum and cached.

        The S checks run on s~ = D S over one conductor: symmetry and dual
        invariance compare entries, S^2 = C is s~^2 = D^2 C, unitarity is
        s~ s~* = D^2 I, and the first row is s~_{0,i} = d_i.  The two matrix
        products cost O(n^3 phi(N)^2) exact multiply-adds, phi(N) dgemm calls
        each in the float64 tier, and one reduction of O(n^2 phi(N)^2).  Each
        failure detail names the first failing entry in row-major order.
        """
        n = self.ring.rank
        dual = self.ring.dual_vector()
        glob = self._nonzero_global_dimension()
        s = self._stilde()
        d2 = glob.promote(s.order)

        def times_d2(cols: np.ndarray) -> _CycArray:
            """D^2 at each (i, cols[i]), 0 elsewhere."""
            num = np.zeros(s.num.shape, dtype=d2.num.dtype)
            num[np.arange(n), cols] = d2.num
            return _CycArray(num, d2.den, s.order)

        plus, minus = self.gauss_sums()
        ratio = None
        if self.central_charge is not None and not minus.is_zero():
            c4 = self.central_charge / 4
            ratio = (plus == cyc_root_of_unity(*c4.as_integer_ratio()) * minus
                     or "p+/p- != e^{2 pi i c/4}")
        return ModularReport.of(
            symmetric=first_violation(np.triu(~s.equals(s.T), 1),
                                      "S[{0}][{1}] != S[{1}][{0}]".format),
            s_squared_is_charge_conjugation=first_violation(
                ~(s @ s).equals(times_d2(dual)),
                "(S^2)[{0}][{1}] != C[{0}][{1}]".format),
            dual_invariance=(np.array_equal(s.num[np.ix_(dual, dual)], s.num)
                             or "S[i'][j'] != S[i][j] somewhere"),
            unitary=first_violation(
                np.triu(~(gram := s @ s.conj().T).equals(
                    times_d2(np.arange(n)))),
                lambda i, j: f"(S S*)[{i}][{j}] = "
                             f"{(gram[i, j] / glob).canonical()}"),
            first_row_is_dims=(
                bool(s[self.ring.unit].equals(self._dims_array()).all())
                or "first row of S is not dims/D"),
            gauss_product_ok=plus * minus == glob or "p+ p- != D^2",
            gauss_ratio_ok=ratio)

    # -- Verlinde -----------------------------------------------------------

    def verlinde(self, *, require_verified: bool = True) -> np.ndarray:
        """Exact integer structure constants recovered from S.

        N_{i,j}^k = sum_m S_{i,m} S_{j,m} conj(S_{k,m}) / S_{0,m}, evaluated
        as sum_m s~_{i,m} s~_{j,m} conj(s~_{k,m}) / (d_m D^2), so all values
        stay in the field of s~.  One row i at a time, the field products
        s~_{i,m} s~_{j,m} (j >= i) are contracted over m with
        conj(s~_{k,m}) / (d_m D^2) as one matrix product, and the whole
        (j, k) slice is checked for rational, non-negative integer values,
        in the stored int64, or in Python ints where the values or their
        denominator do not fit int64.
        Each (d_m D^2)^-1 is computed once.  The cost is O(n^4 phi(N)^2) exact
        multiply-adds in numpy, on BLAS in the float64 tier, and no temporary
        is larger than the n^2 (2 phi(N) - 1) slots of an unreduced product.
        The first failing value in (i, j >= i, k) order raises.
        """
        if require_verified and not self.verify_modular().passed:
            raise VerlindeError("datum fails verify_modular")
        n = self.ring.rank
        glob = self._nonzero_global_dimension()
        for label, d in zip(self.ring.labels, self.dims):
            if d.is_zero():
                raise VerlindeError(
                    "Verlinde divides by the quantum dimension of label "
                    f"{label!r}, which is 0")
        s = self._stilde()
        d_inv, = _cyc_arrays([cyc_inv(d) for d in self.dims], order=s.order)
        weights = (s.conj() * (d_inv / glob)).T  # conj(s~_{k,m}) / d_m D^2
        out = np.zeros((n, n, n), dtype=np.int64)
        for i in range(n):
            block = (s[i:i + 1] * s[i:]) @ weights    # [j - i, k]
            irrational = block.num[..., 1:].any(axis=-1)
            value = block.num[..., 0]                 # as stored
            scale = block.den                         # value/scale = N_ij^k
            if scale > 2**63 - 1:                     # past int64
                value = value.astype(object)
            bad = irrational | (value % scale != 0) | (value < 0)
            if bad.any():
                j, k = (int(x) for x in np.argwhere(bad)[0])
                if irrational[j, k]:
                    raise VerlindeError(
                        f"non-rational Verlinde value at ({i},{i + j},{k})")
                raise VerlindeError(
                    f"non-integer Verlinde value "
                    f"{Fraction(int(value[j, k]), scale)} at ({i},{i + j},{k})")
            out[i, i:] = out[i:, i] = value // scale
        return out

    def perturbed(self, index: int, delta: Fraction) -> "ModularDatum":
        """Copy with one twist shifted; used to exercise failure paths."""
        twists = {i: t for i, t in enumerate(self.twists)}
        twists[index] = twists[index] + delta
        return ModularDatum(self.ring, twists,
                            dict(enumerate(self.dims)), self.central_charge)

