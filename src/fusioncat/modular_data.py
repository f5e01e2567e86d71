"""Twists, quantum dimensions, and exact S/T matrices for a fusion ring.

Everything is exact cyclotomic arithmetic.  s-tilde comes entry by entry
from the balancing formula, and S = s-tilde / D with D the positive square
root of the global dimension D^2 (a rational).  The matrix layers -- the
checks of `verify_modular`, the Verlinde structure constants and the
(ST)^3 relation -- run on s-tilde, never on S, so that no square root enters
them: s-tilde is promoted once to one conductor N (the lcm of its entries'
orders) as an integer array of shape (n, n, phi(N)) over one common
denominator, and the matrix products are numpy contractions through the
multiplication tensor of Q(zeta_N) (`cyclotomic._CycArray`).  They run in
int64 only under a certified overflow bound and in Python ints otherwise,
so every result is exact; there is no floating-point or modular shortcut.

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
    cyc_inv,
    cyc_rational,
    cyc_root_of_unity,
    cyc_sqrt_rational,
)
from .fusion_ring import FusionRing

__all__ = [
    "ModularDatum",
    "ModularReport",
    "VerlindeError",
    "stilde",
    "stilde_conjugate_form",
    "s_matrix",
    "verify_modular",
    "verlinde",
    "t_matrix",
]


class VerlindeError(ArithmeticError):
    """Verlinde formula produced a non-integer (inconsistent input datum)."""


@dataclass(frozen=True)
class ModularReport:
    """Exact check results for one modular datum."""

    symmetric: bool
    s_squared_is_charge_conjugation: bool
    dual_invariance: bool          # S_{i',j'} = S_{i,j}
    unitary: bool
    first_row_is_dims: bool        # S_{0,i} = d_i / D
    gauss_product_ok: bool         # p+ p- = D^2
    gauss_ratio_ok: bool | None    # p+/p- = e^{2 pi i c/4}; None if c unknown
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        checks = [self.symmetric, self.s_squared_is_charge_conjugation,
                  self.dual_invariance, self.unitary, self.first_row_is_dims,
                  self.gauss_product_ok]
        if self.gauss_ratio_ok is not None:
            checks.append(self.gauss_ratio_ok)
        return all(checks)

    def lines(self) -> list[str]:
        def mark(ok: bool | None) -> str:
            if ok is None:
                return "SKIP"
            return "PASS" if ok else "FAIL"
        return [
            f"S symmetric                 {mark(self.symmetric)}",
            f"S^2 = charge conjugation    {mark(self.s_squared_is_charge_conjugation)}",
            f"S dual-invariant            {mark(self.dual_invariance)}",
            f"S unitary                   {mark(self.unitary)}",
            f"first row = dims/D          {mark(self.first_row_is_dims)}",
            f"Gauss sums p+p- = D^2       {mark(self.gauss_product_ok)}",
            f"Gauss ratio e^(2 pi i c/4)  {mark(self.gauss_ratio_ok)}",
        ] + [f"  detail: {f}" for f in self.failures]


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
        """Sum of squared quantum dimensions (exact)."""
        total = cyc_rational(0)
        for d in self.dims:
            total = total + d * d
        return total

    @property
    def D(self) -> CycNum:
        """Positive square root of the global dimension."""
        if "D" not in self._cache:
            glob = self.global_dimension()
            if not glob.is_rational():
                raise ArithmeticError(
                    "global dimension is irrational; no square-root rule")
            self._cache["D"] = cyc_sqrt_rational(glob.as_rational())
        return self._cache["D"]  # type: ignore[return-value]

    def _d_squared(self) -> Fraction:
        """D^2 as a rational; S = s~/D needs it nonzero."""
        glob = self.global_dimension().as_rational()
        if not glob:
            raise ZeroDivisionError("division by zero in Q(zeta)")
        return glob

    def gauss_sums(self) -> tuple[CycNum, CycNum]:
        """(p+, p-) with p± = sum d_i^2 theta_i^{±1}."""
        plus = cyc_rational(0)
        minus = cyc_rational(0)
        for i in range(self.ring.rank):
            sq = self.dims[i] * self.dims[i]
            th = self.theta(i)
            plus = plus + sq * th
            minus = minus + sq * th.conj()
        return plus, minus

    def infer_central_charge_mod8(self) -> Fraction | None:
        """c mod 8 from the exact identity p+ = D e^{2 pi i c/8}, if it holds."""
        plus, _ = self.gauss_sums()
        for m in range(8):
            if plus == self.D * cyc_root_of_unity(m, 8):
                return Fraction(m)
        return None

    # -- matrices -----------------------------------------------------------

    def stilde(self) -> list[list[CycNum]]:
        """Balancing matrix from the defining formula
        s~_{i,j} = sum_k N_{i',j}^k theta_k/(theta_i theta_j) d_k."""
        if "stilde" in self._cache:
            return self._cache["stilde"]  # type: ignore[return-value]
        n = self.ring.rank
        dual = self.ring.dual_vector()
        thetas = [self.theta(i) for i in range(n)]
        inv_thetas = [t.conj() for t in thetas]  # roots of unity
        tensor = self.ring.tensor
        rows: list[list[CycNum]] = []
        for i in range(n):
            row = []
            pref_i = inv_thetas[i]
            for j in range(n):
                acc = cyc_rational(0)
                for k in np.nonzero(tensor[dual[i], j])[0]:
                    k = int(k)
                    term = thetas[k] * self.dims[k] * tensor[dual[i], j, k]
                    acc = acc + term
                row.append(acc * pref_i * inv_thetas[j])
            rows.append(row)
        self._cache["stilde"] = rows
        return rows

    def stilde_conjugate_form(self) -> list[list[CycNum]]:
        """Same matrix through the conjugate identity
        s~_{i,j} = sum_k N_{i,j}^k theta_i theta_j/theta_k d_k."""
        n = self.ring.rank
        thetas = [self.theta(i) for i in range(n)]
        inv_thetas = [t.conj() for t in thetas]
        tensor = self.ring.tensor
        rows: list[list[CycNum]] = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = cyc_rational(0)
                for k in np.nonzero(tensor[i, j])[0]:
                    k = int(k)
                    acc = acc + inv_thetas[k] * self.dims[k] * tensor[i, j, k]
                row.append(acc * thetas[i] * thetas[j])
            rows.append(row)
        return rows

    def s_matrix(self) -> list[list[CycNum]]:
        """S = s~ / D, exact."""
        if "S" not in self._cache:
            d_inv = cyc_rational(1) / self.D
            self._cache["S"] = [[entry * d_inv for entry in row]
                                for row in self.stilde()]
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
        self._d_squared()             # S = s~/D is undefined when D = 0
        c8 = self.central_charge / 8
        phase = cyc_root_of_unity(c8.numerator, c8.denominator)
        st, t, scale = _cyc_arrays(self.stilde(), [self.t_matrix()],
                                   [[phase * self.D]])
        st_t = st * t
        return bool(((st_t @ st_t) @ st_t).equals((st @ st) * scale).all())

    # -- verification -------------------------------------------------------

    def verify_modular(self) -> ModularReport:
        """Exact modular checks, computed once per datum and cached.

        The S checks run on s~ = D S over one conductor: symmetry and dual
        invariance compare entries, S^2 = C is s~^2 = D^2 C, unitarity is
        s~ s~* = D^2 I, and the first row is s~_{0,i} = d_i.  The two matrix
        products cost O(n^3 phi(N)^2) integer operations.  Each failure
        detail names the first failing entry in row-major order.
        """
        if "report" not in self._cache:
            self._cache["report"] = self._check_modular()
        return self._cache["report"]  # type: ignore[return-value]

    def _check_modular(self) -> ModularReport:
        n = self.ring.rank
        st = self.stilde()
        dual = self.ring.dual_vector()
        D = self.D
        glob = self._d_squared()
        s, = _cyc_arrays(st)
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
            # Rendered at the conductor of S, lcm(N, order of D): every row
            # of s~ carries every twist and dimension, so each row's
            # entries have lcm order N.
            i, j = nonunit
            entry = (gram.entry(i, j) / glob).promote(math.lcm(s.order,
                                                               D.order))
            failures.append(f"(S S*)[{i}][{j}] = {entry}")

        first_row = all(st[self.ring.unit][i] == self.dims[i]
                        for i in range(n))
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
        Each d_m^-1 is computed once.  The cost is O(n^4 phi(N)^2) integer
        operations in numpy, and no temporary is larger than n^2 phi(N).
        The first failing value in (i, j >= i, k) order raises.
        """
        if require_verified and not self.verify_modular().passed:
            raise VerlindeError("datum fails verify_modular; "
                                "pass require_verified=False to force")
        n = self.ring.rank
        glob = self._d_squared()
        s, d_inv = _cyc_arrays(self.stilde(),
                               [[cyc_inv(d) for d in self.dims]])
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


# Module-level functional aliases matching the operation names.

def stilde(md: ModularDatum) -> list[list[CycNum]]:
    return md.stilde()


def stilde_conjugate_form(md: ModularDatum) -> list[list[CycNum]]:
    return md.stilde_conjugate_form()


def s_matrix(md: ModularDatum) -> list[list[CycNum]]:
    return md.s_matrix()


def verify_modular(md: ModularDatum) -> ModularReport:
    return md.verify_modular()


def verlinde(md: ModularDatum, **kwargs) -> np.ndarray:
    return md.verlinde(**kwargs)


def t_matrix(md: ModularDatum) -> list[CycNum]:
    return md.t_matrix()
