"""Twists, quantum dimensions, and exact S/T matrices for a fusion ring.

Everything is exact cyclotomic arithmetic.  s-tilde is built from the
balancing formula s~_{i,j} = sum_k N_{i*,j}^k theta_k d_k / (theta_i theta_j)
as one integer array of shape (n, n, phi(L)) over one common denominator,
where L, the lcm of the twist denominators and the dim orders, is the
conductor of the field Q(zeta_L) that holds all of s-tilde: the sum over k
is one contraction of the dual-permuted fusion tensor with the coefficients
of theta_k d_k, and theta_i^-1 theta_j^-1 is a power shift.  S = s~ D / D^2
with D the positive square root of the global dimension D^2 (a rational).

The matrix layers -- the checks of `verify_modular`, the Verlinde structure
constants and the (ST)^3 relation -- take that array directly and never S,
so that no square root enters them; their products are numpy contractions
in Q(zeta_L) (`cyclotomic._CycArray`): the unreduced polynomial product,
reduced once through the power rows.  Each contraction runs in the narrowest
exact tier that a bound on its partial sums allows (`cyclotomic._exact`):
float64 on BLAS below 2^53, where every partial sum is an integer float64
holds exactly; int64 below 2^62; Python ints past that.  Every result is
exact: there is no modular shortcut, and no float without the bound.

`stilde()` and `s_matrix()` give the same matrices as lists of `CycNum`:
S is one array at lcm(L, order of D), and each entry of either comes out at
its minimal order (`_CycArray.canonical`), so its printed text depends on
its value alone.

A datum that fails verification is still fully computable; verification
failure is diagnostic, not fatal.
"""

from __future__ import annotations

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
    cyc_sqrt_rational,
)
from .fusion_ring import CheckReport, FusionRing, check

__all__ = [
    "GlobalDimensionError",
    "ModularDatum",
    "ModularReport",
    "VerlindeError",
]


class VerlindeError(ArithmeticError):
    """Verlinde formula produced a non-integer (inconsistent input datum)."""


class GlobalDimensionError(ArithmeticError):
    """The global dimension is irrational or zero, so S = s~/D is undefined."""


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

    def global_dimension(self) -> CycNum:
        """Sum of squared quantum dimensions (exact), cached."""
        if "glob" not in self._cache:
            dims, = _cyc_arrays(self.dims)
            self._cache["glob"] = (dims * dims).sum()
        return self._cache["glob"]  # type: ignore[return-value]

    def _d_squared(self) -> Fraction:
        """D^2 as a rational; S = s~/D needs it rational and nonzero."""
        glob = self.global_dimension()
        if not glob.is_rational():
            raise GlobalDimensionError(
                f"global dimension {glob} is irrational; no square-root rule")
        if glob.is_zero():
            raise GlobalDimensionError(
                "global dimension is 0; S = s~/D is undefined")
        return glob.as_rational()

    @property
    def D(self) -> CycNum:
        """Positive square root of the global dimension."""
        if "D" not in self._cache:
            self._cache["D"] = cyc_sqrt_rational(self._d_squared())
        return self._cache["D"]  # type: ignore[return-value]

    def gauss_sums(self) -> tuple[CycNum, CycNum]:
        """(p+, p-) with p± = sum d_i^2 theta_i^{±1}, at the conductor L."""
        powers = self._twist_powers()
        dims = self._dims_array()
        squares = dims * dims
        return (squares.times_root(powers).sum(),
                squares.times_root(-powers).sum())

    def infer_central_charge_mod8(self) -> Fraction | None:
        """c mod 8 from the exact identity p+ = D e^{2 pi i c/8}, if it holds.

        p+/D lies in Q(zeta_m), m = lcm(2, ord p+, ord D), whose roots of unity
        are the e(k/m): the phase of p+ (D > 0) names k, the exact product
        decides.  None also when D has no square-root rule (irrational D^2).
        """
        try:
            D = self.D
        except GlobalDimensionError:
            return None
        plus, _ = self.gauss_sums()
        m = math.lcm(2, plus.order, D.order)
        z = plus.embed()
        k = round(math.atan2(z.imag, z.real) * m / (2 * math.pi)) % m
        if plus == D * cyc_root_of_unity(k, m):
            return Fraction(8 * k, m)
        return None

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

    def _dims_array(self) -> _CycArray:
        """The dims at the conductor L."""
        dims, = _cyc_arrays(self.dims, order=self._conductor())
        return dims

    def _stilde(self) -> _CycArray:
        """s~ at the conductor L from the balancing formula, cached; the
        input of every matrix layer.

        The sum over k of N_{i*,j}^k theta_k d_k is one integer contraction
        of the dual-permuted fusion tensor with the (n, phi) coefficients of
        theta_k d_k, and theta_i^-1 theta_j^-1 is a power shift.
        """
        if "s~" not in self._cache:
            n = self.ring.rank
            powers = self._twist_powers()
            theta_dims = self._dims_array().times_root(powers)
            dual_tensor = self.ring.tensor[list(self.ring.dual_vector())]
            tensor, coeffs = _exact(n, dual_tensor, theta_dims.num)
            total = _CycArray(_int(np.tensordot(tensor, coeffs, axes=1)),
                              theta_dims.den, theta_dims.order)
            self._cache["s~"] = total.times_root(-np.add.outer(powers, powers))
        return self._cache["s~"]  # type: ignore[return-value]

    def stilde(self) -> list[list[CycNum]]:
        """Balancing matrix
        s~_{i,j} = sum_k N_{i',j}^k theta_k/(theta_i theta_j) d_k.

        The array of `_stilde`, each entry at its minimal order; cached.
        """
        if "stilde" not in self._cache:
            self._cache["stilde"] = self._stilde().canonical().tolist()
        return self._cache["stilde"]  # type: ignore[return-value]

    def s_matrix(self) -> list[list[CycNum]]:
        """S = s~ D / D^2, exact; D^2 is rational, so no inverse is solved.

        Computed at lcm(L, order of D), each entry then at its minimal
        order; cached.
        """
        if "S" not in self._cache:
            scale, = _cyc_arrays([[self.D * (1 / self._d_squared())]],
                                 order=self._conductor())
            s = self._stilde().promote(scale.order) * scale
            self._cache["S"] = s.canonical().tolist()
        return self._cache["S"]  # type: ignore[return-value]

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
        """Exact check of (ST)^3 = e^{2 pi i c/8} S^2.

        With S = s~/D it is checked as (s~ T)^3 = e^{2 pi i c/8} D s~^2:
        three matrix products on the array engine, O(n^3 phi(N)^2).
        """
        if self.central_charge is None:
            raise ValueError("central charge not set")
        c8 = self.central_charge / 8
        phase = cyc_root_of_unity(c8.numerator, c8.denominator)
        t, scale = _cyc_arrays([self.t_matrix()], [[phase * self.D]],
                               order=self._conductor())
        st = self._stilde().promote(t.order)
        st_t = st * t
        return bool(((st_t @ st_t) @ st_t).equals((st @ st) * scale).all())

    # -- verification -------------------------------------------------------

    def verify_modular(self) -> ModularReport:
        """Exact modular checks, computed once per datum and cached.

        The S checks run on s~ = D S over one conductor: symmetry and dual
        invariance compare entries, S^2 = C is s~^2 = D^2 C, unitarity is
        s~ s~* = D^2 I, and the first row is s~_{0,i} = d_i.  The two matrix
        products cost O(n^3 phi(N)^2) exact multiply-adds, phi(N) dgemm calls
        each in the float64 tier, and one reduction of O(n^2 phi(N)^2).  Each
        failure detail names the first failing entry in row-major order.
        """
        if "report" not in self._cache:
            self._cache["report"] = self._check_modular()
        return self._cache["report"]  # type: ignore[return-value]

    def _check_modular(self) -> ModularReport:
        n = self.ring.rank
        dual = self.ring.dual_vector()
        glob = self._d_squared()
        s = self._stilde()
        failures: list[str] = []

        def times_d2(matrix) -> _CycArray:
            num = np.array(matrix, dtype=object) * glob.numerator
            return _CycArray.rational(num, glob.denominator, s.order)

        def first(mask: np.ndarray) -> tuple[int, int] | None:
            hits = np.argwhere(mask)
            return tuple(int(x) for x in hits[0]) if len(hits) else None

        asym = first(np.triu(~s.equals(s.T), 1))
        if asym:
            failures.append("S[{0}][{1}] != S[{1}][{0}]".format(*asym))

        charge = np.zeros((n, n), dtype=int)
        charge[np.arange(n), dual] = 1
        off = first(~(s @ s).equals(times_d2(charge)))
        if off:
            failures.append("(S^2)[{0}][{1}] != C[{0}][{1}]".format(*off))

        dual_inv = bool(np.array_equal(s.num[np.ix_(dual, dual)], s.num))
        if not dual_inv:
            failures.append("S[i'][j'] != S[i][j] somewhere")

        gram = s @ s.conj().T
        nonunit = first(np.triu(~gram.equals(times_d2(np.eye(n, dtype=int)))))
        if nonunit:
            i, j = nonunit
            entry = (gram.entry(i, j) / glob).canonical()
            failures.append(f"(S S*)[{i}][{j}] = {entry}")

        dims = self._dims_array()
        first_row = bool(s[self.ring.unit].equals(dims).all())
        if not first_row:
            failures.append("first row of S is not dims/D")

        plus, minus = self.gauss_sums()
        gauss_product = (plus * minus == self.global_dimension())
        if not gauss_product:
            failures.append("p+ p- != D^2")
        gauss_ratio: bool | None = None
        if self.central_charge is not None and not minus.is_zero():
            c4 = self.central_charge / 4
            target = cyc_root_of_unity(c4.numerator, c4.denominator)
            gauss_ratio = (plus == target * minus)
            if gauss_ratio is False:
                failures.append("p+/p- != e^{2 pi i c/4}")

        return ModularReport(asym is None, off is None, dual_inv,
                             nonunit is None, first_row, gauss_product,
                             gauss_ratio, tuple(failures))

    # -- Verlinde -----------------------------------------------------------

    def verlinde(self, *, require_verified: bool = True) -> np.ndarray:
        """Exact integer structure constants recovered from S.

        N_{i,j}^k = sum_m S_{i,m} S_{j,m} conj(S_{k,m}) / S_{0,m}, evaluated
        as (1/D^2) sum_m s~_{i,m} s~_{j,m} conj(s~_{k,m}) / d_m, so all values
        stay in the field of s~ and D^2 is rational.  One row i at a time,
        the field products s~_{i,m} s~_{j,m} (j >= i) are contracted over m
        with conj(s~_{k,m}) / d_m as one matrix product, and the whole
        (j, k) slice is checked for rational, non-negative integer values.
        Each d_m^-1 is computed once.  The cost is O(n^4 phi(N)^2) exact
        multiply-adds in numpy, on BLAS in the float64 tier, and no temporary
        is larger than the n^2 (2 phi(N) - 1) slots of an unreduced product.
        The first failing value in (i, j >= i, k) order raises.
        """
        if require_verified and not self.verify_modular().passed:
            raise VerlindeError("datum fails verify_modular; "
                                "pass require_verified=False to force")
        n = self.ring.rank
        glob = self._d_squared()
        s = self._stilde()
        d_inv, = _cyc_arrays([[cyc_inv(d) for d in self.dims]], order=s.order)
        weights = (s.conj() * d_inv).T     # [m, k] = conj(s~_{k,m}) / d_m
        out = np.zeros((n, n, n), dtype=np.int64)
        for i in range(n):
            block = (s[i:i + 1] * s[i:]) @ weights    # [j - i, k]
            irrational = block.num[..., 1:].any(axis=-1)
            value = block.num[..., 0].astype(object) * glob.denominator
            scale = block.den * glob.numerator        # value/scale = N_ij^k
            bad = irrational | (value % scale != 0) | (value * scale < 0)
            if bad.any():
                j, k = (int(x) for x in np.argwhere(bad)[0])
                if irrational[j, k]:
                    raise VerlindeError(
                        f"non-rational Verlinde value at ({i},{i + j},{k})")
                raise VerlindeError(
                    f"non-integer Verlinde value "
                    f"{Fraction(value[j, k], scale)} at ({i},{i + j},{k})")
            out[i, i:] = out[i:, i] = value // scale
        return out

    def perturbed(self, index: int, delta: Fraction) -> "ModularDatum":
        """Copy with one twist shifted; used to exercise failure paths."""
        twists = {i: t for i, t in enumerate(self.twists)}
        twists[index] = twists[index] + delta
        return ModularDatum(self.ring, twists,
                            dict(enumerate(self.dims)), self.central_charge)

