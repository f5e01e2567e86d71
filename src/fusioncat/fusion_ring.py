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

    @classmethod
    def of(cls, **outcomes: bool | str | None):
        """Each check's outcome by field name: True passes, None skips, and
        a string fails with that text; `failures` follows the field order."""
        failures = tuple(outcomes[f.name] for f in fields(cls)
                         if isinstance(outcomes.get(f.name), str))
        return cls(**{name: False if isinstance(ok, str) else ok
                      for name, ok in outcomes.items()}, failures=failures)

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


def first_violation(mask: np.ndarray, text) -> bool | str:
    """True if no entry of `mask` is set, else `text(*index)` of the first
    set entry in row-major order: a check's outcome for `CheckReport.of`."""
    if not mask.any():
        return True
    return text(*map(int, np.unravel_index(mask.argmax(), mask.shape)))


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
        self._validation: ValidationReport | None = None

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

    def validate(self) -> ValidationReport:
        if self._validation is not None:
            return self._validation
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

        self._validation = ValidationReport.of(
            unit_ok=unit, commutative_ok=commutative, duality_ok=duality,
            associative_ok=self._associativity())
        return self._validation

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
            raise ValueError("invalid fusion ring: " + "; ".join(report.failures))

    # -- operations ---------------------------------------------------------

    def dual_vector(self) -> tuple[int, ...]:
        self.require_valid()
        return self._dual

    def element(self, coeffs: Mapping[int, int]) -> "RingElement":
        return RingElement(self, dict(coeffs))

    def basis_element(self, i: int) -> "RingElement":
        return RingElement(self, {i: 1})

    def fuse(self, a: "RingElement", b: "RingElement") -> "RingElement":
        self.require_valid()
        out: dict[int, int] = {}
        for i, ca in a.coefficients.items():
            for j, cb in b.coefficients.items():
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
        for i in cleaned:
            if not 0 <= i < self.ring.rank:
                raise KeyError(f"label index {i} out of range")
        object.__setattr__(self, "coefficients", cleaned)

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
_ARITY = {"label": 2, "unit": 1, "dual": 2, "N": 4, "twist": 2}


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
    given: dict[str, int] = {}     # what a directive sets -> its line

    def err(lineno: int, message: str) -> FcatError:
        return FcatError(f"line {lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        directive, args = parts[0], parts[1:]
        try:
            arity = _ARITY.get(directive, len(args))
            if len(args) != arity:
                raise ValueError(f"{len(args)} fields, expected {arity}")
            if directive == "category":
                key = directive
                name = " ".join(args)
            elif directive == "label":
                i = int(args[0])
                key = f"label({i})"
                labels[i] = args[1]
            elif directive == "unit":
                key = directive
                unit = int(args[0])
            elif directive == "dual":
                i = int(args[0])
                key = f"dual({i})"
                duals[i] = int(args[1])
            elif directive == "N":
                i, j, k, m = map(int, args)
                key = f"N[{i},{j},{k}]"
                constants[(i, j, k)] = m
            elif directive == "twist":
                if args[1].count("/") != 1:
                    raise ValueError(f"expected p/q, got {args[1]!r}")
                num, den = map(int, args[1].split("/"))
                if den == 0:
                    raise ValueError(f"zero denominator in {args[1]}")
                i = int(args[0])
                key = f"twist({i})"
                twists[i] = Fraction(num, den)
            elif directive == "dim":
                if not args:
                    raise ValueError("0 fields, expected at least 1")
                i = int(args[0])
                key = f"dim({i})"
                dims_raw[i] = " ".join(args[1:])
            else:
                raise err(lineno, f"unknown directive {directive!r}")
        except FcatError:
            raise
        except (ValueError, IndexError) as exc:
            raise err(lineno, f"malformed {directive!r} directive: {exc}") from exc
        if key in given:
            raise err(lineno, f"{key} already given on line {given[key]}")
        given[key] = lineno

    if unit is None:
        raise FcatError("missing 'unit' directive")
    if sorted(labels) != list(range(len(labels))):
        raise FcatError("label indices must be 0..n-1 without gaps")
    ordered = [labels[i] for i in range(len(labels))]
    ring = FusionRing(ordered, unit, constants,
                      supplied_dual=duals if duals else None)
    for directive, indices in (("twist", twists), ("dim", dims_raw)):
        for i in indices:
            if not 0 <= i < ring.rank:
                raise FcatError(
                    f"label index out of range in {directive}({i})")
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
        out += [f"dual {i} {d}" for i, d in enumerate(ring.dual_vector())]
    for i in sorted(doc.twists):
        t = doc.twists[i]
        out.append(f"twist {i} {t.numerator}/{t.denominator}")
    for i in sorted(doc.dims):
        out.append(f"dim {i} {format_cyc(doc.dims[i])}")
    for i, j, k, m in sorted(doc.ring.nonzero()):
        out.append(f"N {i} {j} {k} {m}")
    return "\n".join(out) + "\n"

