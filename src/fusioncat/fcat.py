"""FCAT v1, the line-oriented text form of a fusion ring with optional twist
and dim annotations (docs/fcat.md): `parse_fcat` reads it, `emit_fcat`
writes it, and `FcatDocument.datum` makes a modular datum of a file.

Two rules make a file more than its directives.  An integer field is ASCII
digits with an optional sign (`_ascii_int`), which int() alone does not
require.  A file carries no central charge, so a datum read from one takes
c mod 8 from its Gauss sums.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from . import _ascii_int
# fusion_ring first, so that it compiles before numpy loads.
from .fusion_ring import FusionRing
from .cyclotomic import CycNum, format_cyc, parse_cyc

if TYPE_CHECKING:
    from .modular_data import ModularDatum

__all__ = ["FcatDocument", "FcatError", "parse_fcat", "emit_fcat"]


class FcatError(ValueError):
    """Malformed FCAT v1 input; message carries the offending line number."""


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


class FcatDocument(NamedTuple):
    """Parsed FCAT file: the ring plus optional twist/dim annotations."""

    name: str
    ring: FusionRing
    twists: dict[int, Fraction]
    dims: dict[int, CycNum]

    @property
    def has_modular_annotations(self) -> bool:
        n = self.ring.rank
        return (len(self.twists) == n and len(self.dims) == n)

    def datum(self) -> ModularDatum | None:
        """The modular datum of a file with every twist and dim, else None."""
        if not self.has_modular_annotations:
            return None
        from .modular_data import ModularDatum
        md = ModularDatum(self.ring, self.twists, self.dims)
        # FCAT carries no central charge: c mod 8 from the Gauss sums, for
        # the ratio check and T.  No value cached before it depends on c.
        md.central_charge = md.infer_central_charge_mod8()
        return md


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

    text = text.removeprefix("\ufeff")    # a byte-order mark
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
                i = _ascii_int(args[0])
                key = f"label({i})"
                labels[i] = args[1]
            elif directive == "unit":
                key = directive
                unit = _ascii_int(args[0])
            elif directive == "dual":
                i = _ascii_int(args[0])
                key = f"dual({i})"
                duals[i] = _ascii_int(args[1])
            elif directive == "N":
                i, j, k, m = map(_ascii_int, args)
                key = f"N[{i},{j},{k}]"
                constants[(i, j, k)] = m
            elif directive == "twist":
                if args[1].count("/") != 1:
                    raise ValueError(f"expected p/q, got {args[1]!r}")
                num, den = map(_ascii_int, args[1].split("/"))
                if den == 0:
                    raise ValueError(f"zero denominator in {args[1]}")
                i = _ascii_int(args[0])
                key = f"twist({i})"
                twists[i] = Fraction(num, den)
            elif directive == "dim":
                if not args:
                    raise ValueError("0 fields, expected at least 1")
                i = _ascii_int(args[0])
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
