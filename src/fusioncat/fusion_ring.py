"""Finite fusion rings: labels, structure constants, duality, quantum dims.

A ring is a finite label set with nonnegative-integer structure constants
N[i][j][k], a distinguished unit, and the duality involution derived from
the unit row (a supplied involution is cross-checked, never trusted).
Quantum dimensions are the spectral radii (Perron-Frobenius eigenvalues) of
the fusion matrices.  The module also owns `CheckReport`, the shape of every
check report, and the line-oriented FCAT v1 text format.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .cyclotomic import CycNum, _exact, format_cyc, parse_cyc

__all__ = [
    "FusionRing",
    "RingElement",
    "ValidationReport",
    "FcatError",
    "FcatDocument",
    "parse_fcat",
    "emit_fcat",
]


class FcatError(ValueError):
    """Malformed FCAT v1 input; message carries the offending line number."""


def check(label: str):
    """A report field holding one check's result, printed under `label`."""
    return field(metadata={"label": label})


@dataclass(frozen=True)
class CheckReport:
    """Results of exact checks, each a `check` field: True passes, False
    fails, None is skipped.  Subclasses end with `failures`, the first
    violation of each failed check, printed after `note`."""

    note = "detail"

    def checks(self) -> list[tuple[str, bool | None]]:
        return [(f.metadata["label"], getattr(self, f.name))
                for f in fields(self) if "label" in f.metadata]

    @property
    def passed(self) -> bool:
        return all(ok is not False for _, ok in self.checks())

    def lines(self) -> list[str]:
        checks = self.checks()
        width = max(len(label) for label, _ in checks) + 2
        marks = {True: "PASS", False: "FAIL", None: "SKIP"}
        return ([label.ljust(width) + marks[ok] for label, ok in checks]
                + [f"  {self.note}: {f}" for f in self.failures])


@dataclass(frozen=True)
class ValidationReport(CheckReport):
    """Per-axiom pass/fail with the first violating tuple on failure."""

    unit_ok: bool = check("unit law")
    commutative_ok: bool = check("commutativity")
    duality_ok: bool = check("duality uniqueness")
    associative_ok: bool = check("associativity")
    failures: tuple[str, ...] = ()

    note = "violation"


class FusionRing:
    """Immutable fusion ring over an ordered label list."""

    def __init__(self, labels: Sequence[str], unit: int,
                 structure_constants: Mapping[tuple[int, int, int], int],
                 supplied_dual: Mapping[int, int] | None = None):
        self.labels = tuple(labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate labels")
        if not (0 <= unit < n):
            raise ValueError("unit index out of range")
        self.unit = unit
        tensor = np.zeros((n, n, n), dtype=np.int64)
        for (i, j, k), m in structure_constants.items():
            if m < 0:
                raise ValueError("negative structure constant")
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError(f"label index out of range in N[{i},{j},{k}]")
            tensor[i, j, k] = m
        tensor.setflags(write=False)
        self._tensor = tensor
        self.supplied_dual = dict(supplied_dual) if supplied_dual else None
        self._validation: ValidationReport | None = None

    # -- basic access -------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def tensor(self) -> np.ndarray:
        """Dense (rank, rank, rank) int array of structure constants."""
        return self._tensor

    def N(self, i: int, j: int, k: int) -> int:
        return int(self._tensor[i, j, k])

    def label_index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise KeyError(f"unknown label {name!r}") from None

    def nonzero(self) -> Iterator[tuple[int, int, int, int]]:
        for i, j, k in zip(*np.nonzero(self._tensor)):
            yield int(i), int(j), int(k), int(self._tensor[i, j, k])

    # -- axioms -------------------------------------------------------------

    def validate(self) -> ValidationReport:
        if self._validation is not None:
            return self._validation
        n = self.rank
        t = self._tensor
        failures: list[str] = []

        eye = np.eye(n, dtype=np.int64)
        bad = [f"unit: N[{side.format(j)}]^{k} = {mat[j, k]}"
               for side, mat in (("unit,{}", t[self.unit]),
                                 ("{},unit", t[:, self.unit]))
               for j, k in np.argwhere(mat != eye)[:1].tolist()]
        unit_ok = not bad
        failures.extend(bad[:1])

        comm = np.array_equal(t, t.transpose(1, 0, 2))
        if not comm:
            i, j, k = map(int, np.argwhere(t != t.transpose(1, 0, 2))[0])
            failures.append(f"commutativity: N[{i},{j}]^{k} != N[{j},{i}]^{k}")

        duality_ok = True
        for i in range(n):
            row = np.nonzero(t[i, :, self.unit])[0]
            if len(row) != 1 or t[i, row[0], self.unit] != 1:
                duality_ok = False
                failures.append(f"duality: label {i} has no unique dual")
                break
        if duality_ok and self.supplied_dual is not None:
            for i in range(n):
                derived = int(np.nonzero(t[i, :, self.unit])[0][0])
                if self.supplied_dual.get(i, derived) != derived:
                    duality_ok = False
                    failures.append(
                        f"duality: supplied dual({i}) disagrees with unit row")
                    break

        defect = self._associativity_defect()
        assoc = defect is None
        if not assoc:
            failures.append("associativity: quadruple ({},{},{},{}) "
                            "{} != {}".format(*defect))

        self._validation = ValidationReport(unit_ok, comm, duality_ok, assoc,
                                            tuple(failures))
        return self._validation

    def _associativity_defect(self) -> tuple[int, ...] | None:
        """The first (i, j, k, l) in row-major order where
        sum_m N_ij^m N_mk^l differs from sum_m N_jk^m N_im^l, with both
        sides, or None.

        One label i at a time, so temporaries are O(n^3).  Each side sums n
        products of two entries of N, and `_exact` picks the tier from that
        bound: float64 on BLAS, int64 or Python ints.
        """
        n = self.rank
        t = self._tensor
        t, = _exact(n * int(t.max(initial=0)), t)     # n max(N) * max(N)
        rows, cols = t.reshape(n, n * n), t.reshape(n * n, n)
        for i in range(n):
            left = (t[i] @ rows).reshape(n, n, n)
            right = (cols @ t[i]).reshape(n, n, n)
            bad = np.argwhere(left != right)
            if len(bad):
                j, k, l = bad[0].tolist()
                return i, j, k, l, int(left[j, k, l]), int(right[j, k, l])
        return None

    def require_valid(self) -> None:
        report = self.validate()
        if not report.passed:
            raise ValueError("invalid fusion ring: " + "; ".join(report.failures))

    # -- operations ---------------------------------------------------------

    def dual_of(self, i: int) -> int:
        self.require_valid()
        return int(np.nonzero(self._tensor[i, :, self.unit])[0][0])

    def dual_vector(self) -> tuple[int, ...]:
        return tuple(self.dual_of(i) for i in range(self.rank))

    def element(self, coeffs: Mapping[int, int]) -> "RingElement":
        return RingElement(self, dict(coeffs))

    def basis_element(self, i: int) -> "RingElement":
        return RingElement(self, {i: 1})

    def fuse(self, a: "RingElement", b: "RingElement") -> "RingElement":
        self.require_valid()
        out: dict[int, int] = {}
        for i, ca in a.coefficients.items():
            if not (0 <= i < self.rank):
                raise KeyError(f"label index {i} out of range")
            for j, cb in b.coefficients.items():
                if not (0 <= j < self.rank):
                    raise KeyError(f"label index {j} out of range")
                row = self._tensor[i, j]
                for k in np.nonzero(row)[0]:
                    out[int(k)] = out.get(int(k), 0) + ca * cb * int(row[k])
        return RingElement(self, out)

    def qdim_pf(self, i: int) -> float:
        """Perron-Frobenius eigenvalue of N_i: its spectral radius (N_i >= 0)."""
        self.require_valid()
        return float(abs(np.linalg.eigvals(self._tensor[i])).max())

    def simple_currents(self) -> set[int]:
        """Labels of quantum dimension 1: those whose fusion matrix is a
        permutation matrix, so fusing with them permutes labels."""
        self.require_valid()
        cols, rows = self._tensor.sum(axis=1), self._tensor.sum(axis=2)
        return {i for i in range(self.rank)
                if (cols[i] == 1).all() and (rows[i] == 1).all()}

    def __eq__(self, other):
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (self.labels == other.labels and self.unit == other.unit
                and np.array_equal(self._tensor, other._tensor))

    def __repr__(self):
        return f"FusionRing(rank={self.rank}, unit={self.labels[self.unit]!r})"


@dataclass(frozen=True, eq=False)
class RingElement:
    """Finitely supported nonnegative-integer combination of labels."""

    ring: FusionRing
    coefficients: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {i: c for i, c in self.coefficients.items() if c}
        object.__setattr__(self, "coefficients", cleaned)

    def __add__(self, other: "RingElement") -> "RingElement":
        if self.ring is not other.ring:
            raise ValueError("elements of different rings")
        out = dict(self.coefficients)
        for i, c in other.coefficients.items():
            out[i] = out.get(i, 0) + c
        return RingElement(self.ring, out)

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return (self.ring == other.ring
                and self.coefficients == other.coefficients)

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for i in sorted(self.coefficients):
            c = self.coefficients[i]
            name = self.ring.labels[i]
            parts.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# FCAT v1 text format
# ---------------------------------------------------------------------------
#
# Line-oriented UTF-8.  Directives (exact grammar in docs/fcat.md):
#   category <name>
#   label <index> <string>
#   unit <index>
#   dual <i> <i'>            (optional; cross-checked against the unit row)
#   N <i> <j> <k> <mult>     (absent triples are zero)
#   twist <i> <p>/<q>        (optional)
#   dim <i> <expr>           (optional cyclotomic expression)
# '#' starts a comment; blank lines are ignored; unknown directives error.


@dataclass
class FcatDocument:
    """Parsed FCAT file: the ring plus optional twist/dim annotations."""

    name: str
    ring: FusionRing
    twists: dict[int, Fraction]
    dims: dict[int, CycNum]

    @property
    def has_modular_annotations(self) -> bool:
        n = self.ring.rank
        return (len(self.twists) == n and len(self.dims) == n)


def parse_fcat(text: str) -> FcatDocument:
    name = ""
    labels: dict[int, str] = {}
    unit: int | None = None
    duals: dict[int, int] = {}
    constants: dict[tuple[int, int, int], int] = {}
    twists: dict[int, Fraction] = {}
    dims_raw: dict[int, str] = {}

    def err(lineno: int, message: str) -> FcatError:
        return FcatError(f"line {lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        directive, args = parts[0], parts[1:]
        try:
            if directive == "category":
                name = " ".join(args)
            elif directive == "label":
                labels[int(args[0])] = args[1]
            elif directive == "unit":
                unit = int(args[0])
            elif directive == "dual":
                duals[int(args[0])] = int(args[1])
            elif directive == "N":
                i, j, k, m = map(int, args)
                constants[(i, j, k)] = m
            elif directive == "twist":
                num, den = map(int, args[1].split("/"))
                if den == 0:
                    raise ValueError(f"zero denominator in {args[1]}")
                twists[int(args[0])] = Fraction(num, den)
            elif directive == "dim":
                dims_raw[int(args[0])] = " ".join(args[1:])
            else:
                raise err(lineno, f"unknown directive {directive!r}")
        except FcatError:
            raise
        except (ValueError, IndexError) as exc:
            raise err(lineno, f"malformed {directive!r} directive: {exc}") from exc

    if unit is None:
        raise FcatError("missing 'unit' directive")
    if sorted(labels) != list(range(len(labels))):
        raise FcatError("label indices must be 0..n-1 without gaps")
    ordered = [labels[i] for i in range(len(labels))]
    ring = FusionRing(ordered, unit, constants,
                      supplied_dual=duals if duals else None)
    dims = {}
    for i, expr in dims_raw.items():
        try:
            dims[i] = parse_cyc(expr)
        except ValueError as exc:
            raise FcatError(f"bad dim expression for label {i}: {exc}") from exc
    return FcatDocument(name, ring, twists, dims)


def emit_fcat(doc: FcatDocument) -> str:
    """Deterministic, byte-stable FCAT emission (sorted directives)."""
    ring = doc.ring
    out = [f"category {doc.name}" if doc.name else "category unnamed"]
    for i, label in enumerate(ring.labels):
        out.append(f"label {i} {label}")
    out.append(f"unit {ring.unit}")
    if ring.validate().passed:
        for i in range(ring.rank):
            out.append(f"dual {i} {ring.dual_of(i)}")
    for i in sorted(doc.twists):
        t = doc.twists[i]
        out.append(f"twist {i} {t.numerator}/{t.denominator}")
    for i in sorted(doc.dims):
        out.append(f"dim {i} {format_cyc(doc.dims[i])}")
    for i, j, k, m in sorted(doc.ring.nonzero()):
        out.append(f"N {i} {j} {k} {m}")
    return "\n".join(out) + "\n"

