"""Builders for the two concrete catalogs: the 20-object cyclic-permutation
orbifold datum ("U") and the 30-object lattice-orbifold datum ("VLtau").

Both are assembled from index arithmetic over (Z2 or Z3) x Z3 label grids,
with twists and quantum dimensions attached, and validated at build time.
The module also owns the orbifold counting formula, the exact recomputation
of the conformal-weight table from lattice minima, and the golden fixture
holding the transcribed 20 x 20 s-tilde table.

Convention notes (documented once, here):
- For products of two like-twisted objects, the output epsilon pair is
  {-(e+e1), 1-(e+e1)} mod 3.  The alternative offset pairing fails S^2 = C
  and the Verlinde round-trip; this one is the unique consistent choice.
- For an untwisted eigenspace object times a twisted object, the output
  grading is k*e + e1 (the twist exponent k scales the untwisted grading).
- In the 30-object ring, a c-type or eigenspace object of grade i shifts a
  tau^k-twisted object's lattice index by +k*i; the sign-flipped variant
  breaks associativity against the mixed-twist product rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import TYPE_CHECKING

from .lattice import (
    Coset,
    coset_L,
    coset_Zbeta1,
    lattice_L,
    min_norm,
    min_vectors,
    tau_vector,
)

# The builders and the fixture import the array modules when called, so
# counting, the coset pieces and label resolution load no numpy.
if TYPE_CHECKING:
    from .cyclotomic import CycNum
    from .fusion_ring import FusionRing
    from .modular_data import ModularDatum

__all__ = [
    "U_LABELS",
    "U_WEIGHTS",
    "U_DIMS",
    "U_DUALS",
    "VLTAU_LABELS",
    "build_U",
    "build_VLtau",
    "count_orbifold_irreducibles",
    "full_coset_pieces",
    "weight_table_check",
    "WeightCheckEntry",
    "WeightCheckReport",
    "stilde_fixture",
    "stilde_fixture_diff",
    "resolve_label",
]


# ---------------------------------------------------------------------------
# The 20-object datum
# ---------------------------------------------------------------------------

def _mt(i: int, e: int) -> int:
    """Diagonal (eigenspace) label M~_i[e]."""
    return 3 * (i % 2) + (e % 3)


def _mm(i: int) -> int:
    """Off-diagonal label M^i."""
    return 6 + (i % 2)


def _mh(k: int, i: int, e: int) -> int:
    """Twisted label Mhat_tk_i[e], twist exponent k in {1, 2} mod 3."""
    k = ((k - 1) % 3) + 1
    if k not in (1, 2):
        raise ValueError("twist exponent must be nonzero mod 3")
    return (8 if k == 1 else 14) + 3 * (i % 2) + (e % 3)


U_LABELS: tuple[str, ...] = tuple(
    [f"M~_{i}[{e}]" for i in range(2) for e in range(3)]
    + [f"M^{i}" for i in range(2)]
    + [f"Mhat_t{k}_{i}[{e}]"
       for k in (1, 2) for i in range(2) for e in range(3)]
)

U_WEIGHTS: tuple[Fraction, ...] = tuple(
    [Fraction(0), Fraction(1), Fraction(1),
     Fraction(3, 4), Fraction(3, 4), Fraction(3, 4),
     Fraction(1, 2), Fraction(1, 4)]
    + [Fraction(1, 9), Fraction(7, 9), Fraction(4, 9),
       Fraction(31, 36), Fraction(19, 36), Fraction(7, 36)] * 2
)

U_DIMS: tuple[int, ...] = (1, 1, 1, 1, 1, 1, 3, 3) + (2,) * 12

U_DUALS: tuple[int, ...] = (0, 2, 1, 3, 5, 4, 6, 7,
                            14, 15, 16, 17, 18, 19,
                            8, 9, 10, 11, 12, 13)


def _u_structure_constants() -> dict[tuple[int, int, int], int]:
    out: dict[tuple[int, int, int], int] = {}
    seen: set[tuple[int, int]] = set()

    def add(a: int, b: int, targets: list[tuple[int, int]]) -> None:
        if (a, b) in seen:
            return
        seen.add((a, b))
        seen.add((b, a))
        for t, m in targets:
            out[(a, b, t)] = out.get((a, b, t), 0) + m
            if a != b:
                out[(b, a, t)] = out.get((b, a, t), 0) + m

    for i in range(2):
        for j in range(2):
            add(_mm(i), _mm(j),
                [(_mt(i + j, r), 1) for r in range(3)] + [(_mm(i + j), 2)])
            for e in range(3):
                add(_mm(i), _mt(j, e), [(_mm(i + j), 1)])
                for e1 in range(3):
                    add(_mt(i, e), _mt(j, e1), [(_mt(i + j, e + e1), 1)])
                for k in (1, 2):
                    add(_mm(i), _mh(k, j, e),
                        [(_mh(k, i + j, r), 1) for r in range(3)])
                    for e1 in range(3):
                        add(_mt(i, e), _mh(k, j, e1),
                            [(_mh(k, i + j, k * e + e1), 1)])
                        add(_mh(k, i, e), _mh(k, j, e1),
                            [(_mh(2 * k, i + j, -(e + e1)), 1),
                             (_mh(2 * k, i + j, 1 - (e + e1)), 1)])
                for e1 in range(3):
                    add(_mh(1, i, e), _mh(2, j, e1),
                        [(_mt(i + j, e + 2 * e1), 1), (_mm(i + j), 1)])
    return out


def build_U() -> ModularDatum:
    """The validated 20-object datum (central charge 3, global dimension 72)."""
    from .fusion_ring import FusionRing
    from .modular_data import ModularDatum
    ring = FusionRing(U_LABELS, unit=0,
                      structure_constants=_u_structure_constants(),
                      supplied_dual=dict(enumerate(U_DUALS)))
    return ModularDatum(ring,
                        twists=dict(enumerate(U_WEIGHTS)),
                        dims=dict(enumerate(U_DIMS)),
                        central_charge=3)


# ---------------------------------------------------------------------------
# The 30-object datum
# ---------------------------------------------------------------------------

def _ve(j: int, e: int) -> int:
    """Untwisted eigenspace label V(0,j)[e]."""
    return 3 * (j % 3) + (e % 3)


def _vc(j: int) -> int:
    """c-type label V(c,j)."""
    return 9 + (j % 3)


def _vt(k: int, j: int, e: int) -> int:
    """Twisted eigenspace label T_j(tk)[e], twist exponent k in {1, 2} mod 3."""
    k = ((k - 1) % 3) + 1
    if k not in (1, 2):
        raise ValueError("twist exponent must be nonzero mod 3")
    return 12 + (k - 1) * 9 + 3 * (j % 3) + (e % 3)


VLTAU_LABELS: tuple[str, ...] = tuple(
    [f"V(0,{j})[{e}]" for j in range(3) for e in range(3)]
    + [f"V(c,{j})" for j in range(3)]
    + [f"T_{j}(t{k})[{e}]"
       for k in (1, 2) for j in range(3) for e in range(3)]
)


def _vltau_structure_constants() -> dict[tuple[int, int, int], int]:
    out: dict[tuple[int, int, int], int] = {}
    seen: set[tuple[int, int]] = set()

    def add(a: int, b: int, targets: list[int]) -> None:
        if (a, b) in seen:
            return
        seen.add((a, b))
        seen.add((b, a))
        for t in targets:
            out[(a, b, t)] = out.get((a, b, t), 0) + 1
            if a != b:
                out[(b, a, t)] = out.get((b, a, t), 0) + 1

    for i in range(3):
        for j in range(3):
            for e in range(3):
                for e1 in range(3):
                    add(_ve(i, e), _ve(j, e1), [_ve(i + j, e + e1)])
                add(_ve(i, e), _vc(j), [_vc(i + j)])
            add(_vc(i), _vc(j),
                [_ve(i + j, r) for r in range(3)] + [_vc(i + j)] * 2)
            for k in (1, 2):
                for e in range(3):
                    add(_vc(i), _vt(k, j, e),
                        [_vt(k, j + k * i, r) for r in range(3)])
                    for e1 in range(3):
                        add(_ve(i, e), _vt(k, j, e1),
                            [_vt(k, j + k * i, k * e + e1)])
                        add(_vt(k, i, e), _vt(k, j, e1),
                            [_vt(2 * k, 2 * (i + j), -(e + e1)),
                             _vt(2 * k, 2 * (i + j), 1 - (e + e1))])
            for e in range(3):
                for e1 in range(3):
                    add(_vt(1, i, e), _vt(2, j, e1),
                        [_ve(i + 2 * j, e + 2 * e1), _vc(i + 2 * j)])
    return out


def vltau_duals() -> tuple[int, ...]:
    dual = [0] * 30
    for i in range(3):
        for e in range(3):
            dual[_ve(i, e)] = _ve(2 * i, 2 * e)
        dual[_vc(i)] = _vc(2 * i)
        for k in (1, 2):
            for e in range(3):
                dual[_vt(k, i, e)] = _vt(2 * k, i, e)
    return tuple(dual)


def vltau_weights() -> tuple[Fraction, ...]:
    w: list[Fraction] = [Fraction(0)] * 30
    for j in range(3):
        for e in range(3):
            w[_ve(j, e)] = Fraction(2 * j * j, 3) % 1
        w[_vc(j)] = min_norm(coset_L("c", j)) / 2
        for k in (1, 2):
            for e in range(3):
                w[_vt(k, j, e)] = Fraction(10 - 3 * (j * j + e), 9) % 1
    return tuple(w)


def build_VLtau() -> ModularDatum:
    """The validated 30-object lattice-orbifold datum (central charge 2)."""
    from .fusion_ring import FusionRing
    from .modular_data import ModularDatum
    ring = FusionRing(VLTAU_LABELS, unit=0,
                      structure_constants=_vltau_structure_constants(),
                      supplied_dual=dict(enumerate(vltau_duals())))
    dims = [1] * 9 + [3] * 3 + [2] * 18
    return ModularDatum(ring,
                        twists=dict(enumerate(vltau_weights())),
                        dims=dict(enumerate(dims)),
                        central_charge=2)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def count_orbifold_irreducibles(n: int) -> int:
    """(n^3 + 26 n)/3 — the irreducible-module count for the rank-n case."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    total = n ** 3 + 26 * n
    assert total % 3 == 0, "n^3 + 26 n is always divisible by 3"
    return total // 3


# ---------------------------------------------------------------------------
# Weight-table recomputation from lattice minima
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightCheckEntry:
    label: str
    table_value: Fraction
    recomputed: Fraction | None   # exact value (untwisted) or None (mod-1 only)
    ok: bool
    detail: str


@dataclass(frozen=True)
class WeightCheckReport:
    entries: tuple[WeightCheckEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            mark = "PASS" if e.ok else "FAIL"
            out.append(f"{e.label:<16} table {e.table_value!s:<6} {mark}  {e.detail}")
        return out


def _rank1_parts(i: int) -> list[Fraction]:
    """beta1-coordinates of the three rank-1 coset reps for index i."""
    return [Fraction(i, 2), Fraction(3 * i + 2, 6), Fraction(3 * i + 4, 6)]


def _rank1_weight(t: Fraction) -> Fraction:
    return min_norm(coset_Zbeta1(t)) / 2


def _eigen_coset_weight(j: int, eps: int) -> Fraction:
    """Lowest weight of the tau-eigenspace [eps] of the rank-2 coset module
    for the order-3 class j.

    For j != 0 the minimal vectors fall into free tau-orbits, so each
    eigenspace contains a lowest-weight vector and the eigenspace minimum
    equals the coset minimum.  For j = 0 the only weight-0 vector is the
    vacuum (eigenvalue 1) and the weight-1 space is the two-dimensional
    degree-1 Heisenberg plane, on which the order-3 isometry acts with the
    two primitive cube-root eigenvalues; the lattice itself contributes
    nothing below weight 2.
    """
    c = coset_L("0", j % 3)
    if not c.is_zero:
        for x in min_vectors(c):
            if tau_vector(x) == x:
                raise AssertionError(
                    f"minimal vector {x} of class j={j} is tau-fixed; "
                    "eigenspace minimum would not equal the coset minimum")
        return min_norm(c) / 2
    # Vacuum class: certify there is no lattice vector of norm 2, and that
    # tau fixes no nonzero vector of the rank-2 space.
    lattice_min = min(lattice_L().norm(x) for x in min_vectors(c))
    if lattice_min <= 2:
        raise AssertionError("lattice has vectors of norm <= 2")
    if any(tau_vector(x) == x for x in min_vectors(c)):
        raise AssertionError("tau fixes a minimal lattice vector")
    return Fraction(0) if eps % 3 == 0 else Fraction(1)


def _u_decomposition_rank2(index: int) -> list[tuple[str, int]]:
    """(kind, parameter) descriptors of the three rank-2 factors, in the
    order matching _rank1_parts: kinds 'c' (coset j), 'eigen' (class j),
    'twisted' (lattice index j)."""
    if 6 <= index <= 7:
        return [("c", 0), ("c", 1), ("c", 2)]
    if index < 6:
        return [("eigen", 0), ("eigen", 1), ("eigen", 2)]
    k = 1 if index < 14 else 2
    return [("twisted", 0), ("twisted", (2 * k) % 3), ("twisted", k % 3)]


def full_coset_pieces(i: int) -> list[tuple[Coset, Coset]]:
    """(rank-1 coset, rank-2 coset) pieces of the full-coset module M^i."""
    rank2 = _u_decomposition_rank2(U_LABELS.index(f"M^{i}"))
    return [(coset_Zbeta1(t), coset_L(kind, j))
            for t, (kind, j) in zip(_rank1_parts(i), rank2)]


def weight_table_check() -> WeightCheckReport:
    """Recompute every conformal weight of the 20-object catalog from the
    three-piece lattice decompositions.

    Untwisted labels are checked exactly (weight = min over pieces of the
    rank-1 minimum plus the rank-2 eigenspace minimum).  Twisted labels are
    checked mod 1: all three pieces must be congruent to the table value.
    """
    entries: list[WeightCheckEntry] = []
    for index, name in enumerate(U_LABELS):
        table = U_WEIGHTS[index]
        if index < 6:
            i, eps = divmod(index, 3)
        elif index < 8:
            i, eps = index - 6, None
        else:
            base = index - 8 if index < 14 else index - 14
            i, eps = divmod(base, 3)
        r1 = _rank1_parts(i)
        r2 = _u_decomposition_rank2(index)
        if index < 8:
            values = []
            for t, (kind, j) in zip(r1, r2):
                if kind == "c":
                    part = min_norm(coset_L("c", j)) / 2
                else:
                    part = _eigen_coset_weight(j, eps)
                values.append(_rank1_weight(t) + part)
            recomputed = min(values)
            ok = recomputed == table
            detail = "pieces " + ", ".join(str(v) for v in values)
            entries.append(WeightCheckEntry(name, table, recomputed, ok, detail))
        else:
            k = 1 if index < 14 else 2
            congruent = []
            for t, (_, j) in zip(r1, r2):
                cls = (_rank1_weight(t)
                       + Fraction(10 - 3 * (j * j + eps), 9)) % 1
                congruent.append(cls)
            ok = all(c == table % 1 for c in congruent)
            detail = ("pieces mod 1 "
                      + ", ".join(str(c) for c in congruent)
                      + f" (twist exponent {k})")
            entries.append(WeightCheckEntry(name, table, None, ok, detail))
    return WeightCheckReport(tuple(entries))


# ---------------------------------------------------------------------------
# Golden fixture: the transcribed 20 x 20 s-tilde table
# ---------------------------------------------------------------------------

def stilde_fixture() -> list[list[CycNum]]:
    """The transcribed 20 x 20 table as exact cyclotomic numbers.

    This is the reference table as printed, transcribed verbatim, errors
    included: six sign errors, at (11, 17..19) and their mirror entries,
    and a phase error on the 72 entries of the twisted diagonal blocks
    [8..13]^2 and [14..19]^2, which are printed e(2/3) times the s-tilde.
    The library's derived matrix is diffed against it, never silently
    reconciled.
    """
    from .cyclotomic import parse_cyc
    text = (resources.files("fusioncat") / "data" / "stilde_u.grid"
            ).read_text(encoding="utf-8")
    grid: dict[tuple[int, int], CycNum] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        i_s, j_s, expr = line.split(maxsplit=2)
        grid[(int(i_s), int(j_s))] = parse_cyc(expr)
    if len(grid) != 400:
        raise ValueError(f"fixture has {len(grid)} entries, expected 400")
    return [[grid[(i, j)] for j in range(20)] for i in range(20)]


def stilde_fixture_diff(md: ModularDatum | None = None
                        ) -> list[tuple[int, int, CycNum, CycNum]]:
    """(i, j, derived, transcribed) for every entry where the derived
    s-tilde of the 20-object datum disagrees with the fixture."""
    if md is None:
        md = build_U()
    derived = md.stilde()
    table = stilde_fixture()
    out = []
    for i in range(20):
        for j in range(20):
            if derived[i][j] != table[i][j]:
                out.append((i, j, derived[i][j], table[i][j]))
    return out


# ---------------------------------------------------------------------------
# Label-name resolution (structured names plus W-index aliases)
# ---------------------------------------------------------------------------

_W_ALIAS = re.compile(r"^W(\d+)$")


def resolve_label(ring: FusionRing, name: str) -> int:
    """Resolve a label by its structured name, or by W-index alias for the
    20-object catalog (W0..W19 in catalog order)."""
    m = _W_ALIAS.match(name)
    if m and ring.labels == U_LABELS:
        idx = int(m.group(1))
        if not 0 <= idx < 20:
            raise KeyError(f"W-index {name!r} out of range")
        return idx
    return ring.label_index(name)
