"""Finite fusion rings: labels, structure constants, duality, quantum dims.

A ring is a finite label set with nonnegative-integer structure constants
N[i][j][k], a distinguished unit, and the duality involution derived from
the unit row (a supplied involution is cross-checked, never trusted).
Quantum dimensions are the spectral radii (Perron-Frobenius eigenvalues) of
the fusion matrices.  The module also owns `CheckReport`, the labelled rows
of a check report.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

# numpy enters through `cyclotomic`.
from .cyclotomic import _exact, _memo
import numpy as np

__all__ = ["FusionRing", "InvalidRingError"]


class InvalidRingError(ValueError):
    """A ring that fails validation."""

    exit_code = 1           # the CLI's code for a failed check


class CheckReport:
    """Results of exact checks as ordered (label, outcome) rows: True
    passes, None is skipped, and a string fails with that text, printed
    after `note` below the check lines."""

    def __init__(self, note: str,
                 outcomes: Sequence[tuple[str, bool | str | None]]):
        self.note = note
        self._outcomes = tuple(outcomes)

    @property
    def failures(self) -> tuple[str, ...]:
        """The failure texts, in row order."""
        return tuple(ok for _, ok in self._outcomes if isinstance(ok, str))

    def checks(self) -> list[tuple[str, bool | None]]:
        return [(label, False if isinstance(ok, str) else ok)
                for label, ok in self._outcomes]

    @property
    def passed(self) -> bool:
        return all(ok is not False for _, ok in self.checks())

    def line(self, label: str, ok: bool | None) -> str:
        """One check line, with its mark in this report's column."""
        width = max(len(name) for name, _ in self._outcomes) + 2
        marks = {True: "PASS", False: "FAIL", None: "SKIP"}
        return label.ljust(width) + marks[ok]

    def lines(self) -> list[str]:
        return ([self.line(*check) for check in self.checks()]
                + [f"  {self.note}: {f}" for f in self.failures])


def first_violation(mask: np.ndarray, text) -> bool | str:
    """True if no entry of `mask` is set, else `text(*index)` of the first
    set entry in row-major order: a check's outcome for `CheckReport`."""
    if not mask.any():
        return True
    return text(*map(int, np.unravel_index(mask.argmax(), mask.shape)))


class FusionRing:
    """Immutable fusion ring over an ordered label list."""
    MAX_RANK = 512          # the dense int64 tensor is then 1 GiB

    def __init__(self, labels: Sequence[str], unit: int,
                 structure_constants: Mapping[tuple[int, int, int], int],
                 supplied_dual: Mapping[int, int] | None = None):
        self.labels = tuple(labels)
        n = len(self.labels)
        if n > self.MAX_RANK:
            raise ValueError(f"rank {n} exceeds the rank bound {self.MAX_RANK}")
        if len(set(self.labels)) != n:
            raise ValueError("duplicate labels")
        if not (0 <= unit < n):
            raise ValueError("unit index out of range")
        self.unit = unit
        tensor = np.zeros((n, n, n), dtype=np.int64)
        for (i, j, k), m in structure_constants.items():
            if m < 0:
                raise ValueError("negative structure constant")
            if m > 2**63 - 1:      # past the int64 tensor
                raise ValueError(f"structure constant N[{i},{j},{k}] = {m} "
                                 "exceeds 2^63 - 1")
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError(f"label index out of range in N[{i},{j},{k}]")
            tensor[i, j, k] = m
        tensor.setflags(write=False)
        self._tensor = tensor
        self.supplied_dual = dict(supplied_dual) if supplied_dual else None
        for i, d in (self.supplied_dual or {}).items():
            if not (0 <= i < n and 0 <= d < n):
                raise ValueError(f"label index out of range in dual({i}) = {d}")
        self._cache: dict[str, object] = {}

    # -- basic access -------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def tensor(self) -> np.ndarray:
        """Dense (rank, rank, rank) int array of structure constants."""
        return self._tensor

    def label_index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise KeyError(f"unknown label {name!r}") from None

    def nonzero(self) -> Iterator[tuple[int, int, int, int]]:
        for i, j, k in zip(*np.nonzero(self._tensor)):
            yield int(i), int(j), int(k), int(self._tensor[i, j, k])

    # -- axioms -------------------------------------------------------------

    @_memo
    def validate(self) -> CheckReport:
        n = self.rank
        t = self._tensor
        sides = np.stack([t[self.unit], t[:, self.unit]])
        unit = first_violation(
            sides != np.eye(n, dtype=np.int64),
            lambda s, j, k: "unit: N[{}]^{} = {}".format(
                ("unit,{}", "{},unit")[s].format(j), k, sides[s, j, k]))

        commutative = first_violation(
            t != t.transpose(1, 0, 2),
            "commutativity: N[{0},{1}]^{2} != N[{1},{0}]^{2}".format)

        dual = []
        for i in range(n):
            row = np.nonzero(t[i, :, self.unit])[0]
            if len(row) != 1 or t[i, row[0], self.unit] != 1:
                duality = f"duality: label {i} has no unique dual"
                break
            dual.append(int(row[0]))
        else:
            duality = next(
                (f"duality: supplied dual({i}) disagrees with unit row"
                 for i, d in sorted((self.supplied_dual or {}).items())
                 if d != dual[i]), True)
        self._dual = tuple(dual)

        return CheckReport("violation", [
            ("unit law", unit), ("commutativity", commutative),
            ("duality uniqueness", duality),
            ("associativity", self._associativity())])

    def _associativity(self) -> bool | str:
        """True, or the first (i, j, k, l) in row-major order where
        sum_m N_ij^m N_mk^l differs from sum_m N_jk^m N_im^l, with both sides.

        One label i and one block of j at a time, so that no product holds
        more than 2^18 entries past rank 64 (below it a block is the whole
        label).  Each side sums n products of two entries of N, and
        `_exact` picks the tier from that bound: float64 on BLAS, int64 or
        Python ints.
        """
        n = self.rank
        t = self._tensor
        t, = _exact(n * int(t.max(initial=0)), t)     # n max(N) * max(N)
        rows = t.reshape(n, n * n)
        block = max(1, 2**18 // (n * n))
        for i in range(n):
            for j0 in range(0, n, block):
                left = (t[i, j0:j0 + block] @ rows).reshape(-1, n, n)
                right = (t[j0:j0 + block].reshape(-1, n) @ t[i]
                         ).reshape(-1, n, n)
                found = first_violation(left != right, lambda j, k, l: (
                    f"associativity: quadruple ({i},{j0 + j},{k},{l}) "
                    f"{int(left[j, k, l])} != {int(right[j, k, l])}"))
                if found is not True:
                    return found
        return True

    def require_valid(self) -> None:
        report = self.validate()
        if not report.passed:
            raise InvalidRingError(
                "invalid fusion ring: " + "; ".join(report.failures))

    # -- operations ---------------------------------------------------------

    def dual_vector(self) -> tuple[int, ...]:
        self.require_valid()
        return self._dual

    def fuse(self, a: int, b: int) -> dict[int, int]:
        """N_ab^k by k, over the nonzero k in ascending order: the row
        (a, b) of the tensor."""
        for i in (a, b):
            if not 0 <= i < self.rank:
                raise KeyError(f"label index {i} out of range")
        self.require_valid()
        row = self._tensor[a, b]
        return {int(k): int(row[k]) for k in np.nonzero(row)[0]}

    def qdim_pf(self, i: int) -> float:
        """Perron-Frobenius eigenvalue of N_i: its spectral radius (N_i >= 0)."""
        self.require_valid()
        return float(abs(np.linalg.eigvals(self._tensor[i])).max())

    def __eq__(self, other):
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (self.labels == other.labels and self.unit == other.unit
                and np.array_equal(self._tensor, other._tensor))

    def __repr__(self):
        return f"FusionRing(rank={self.rank}, unit={self.labels[self.unit]!r})"

