"""The paper's data on the 20-object datum U, and its exact checks: the
recomputation of U's conformal-weight table from lattice minima, the exact
quantum dimensions of U's untwisted labels from the characters' y -> 0
limits, and the golden fixture holding the transcribed 20 x 20 s-tilde
table.  Labels are read in the catalog's order (`orbifold_catalog._layout`).
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from .cyclotomic import CycNum, _cyc_arrays, parse_cyc
from .lattice import (Coset, DecompositionPiece, coset_pieces,
                      full_coset_pieces, min_norm, min_vectors,
                      orbifold_decomposition, tau_vector)
from .modular_data import ModularDatum
from .orbifold_catalog import U_LABELS, _kind, _layout
from .qseries import qdim_limit

__all__ = [
    "U_WEIGHTS",
    "U_DIMS",
    "untwisted_qdims",
    "weight_table_check",
    "WeightCheckEntry",
    "stilde_fixture",
    "stilde_fixture_diff",
]


U_WEIGHTS: tuple[Fraction, ...] = tuple(
    [Fraction(0), Fraction(1), Fraction(1),
     Fraction(3, 4), Fraction(3, 4), Fraction(3, 4),
     Fraction(1, 2), Fraction(1, 4)]
    + [Fraction(1, 9), Fraction(7, 9), Fraction(4, 9),
       Fraction(31, 36), Fraction(19, 36), Fraction(7, 36)] * 2
)

U_DIMS: tuple[int, ...] = (1, 1, 1, 1, 1, 1, 3, 3) + (2,) * 12


# ---------------------------------------------------------------------------
# Weight-table recomputation from lattice minima
# ---------------------------------------------------------------------------

class WeightCheckEntry(NamedTuple):
    """One label's row of `weight_table_check`."""

    label: str
    table_value: Fraction
    recomputed: Fraction | None   # exact value (untwisted) or None (mod-1 only)
    ok: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return (f"{self.label:<16} table {self.table_value!s:<6} {mark}  "
                f"{self.detail}")


def _label_parts() -> list[tuple[int, int, int | None]]:
    """(i, k, eps) of each U label, in catalog order: lattice index i, twist
    exponent k (0 for the untwisted labels) and eigenspace eps (None for
    M^i)."""
    at = {_layout(2, a, c): (a, *_kind(c)) for a in range(2) for c in range(10)}
    return [at[index] for index in range(20)]


def _label_pieces(i: int, eps: int | None) -> list[DecompositionPiece]:
    """The pieces of M^i for eps None, else those of the coset under
    M~_i[eps], whose rank-1 parts the twisted labels (i, eps) share."""
    return full_coset_pieces(i) if eps is None else coset_pieces(i, "0")


def _twisted_weight(j: int, e: int) -> Fraction:
    """The twisted conformal weight at lattice index j and eigenspace e."""
    return Fraction(10 - 3 * (j * j + e), 9)


def _certify_tau_fixes_no_vector() -> None:
    """det(tau - 1) != 0, so tau fixes no nonzero vector of the rank-2 space
    and acts on its Heisenberg plane with the primitive cube roots of 1."""
    (a, b), (c, d) = ([t - x for t, x in zip(tau_vector(e), e)]
                      for e in ((1, 0), (0, 1)))
    if a * d - b * c == 0:
        raise AssertionError("tau fixes a nonzero vector of the rank-2 space")


def _eigen_coset_weight(c: Coset, eps: int) -> Fraction:
    """Lowest weight of the tau-eigenspace [eps] of the rank-2 coset module
    of the order-3 class c.

    tau fixes no nonzero vector (`_certify_tau_fixes_no_vector`).  So for
    c != 0 the minimal vectors fall into free tau-orbits, each eigenspace
    contains a lowest-weight vector and the eigenspace minimum equals the
    coset minimum.  For c = 0 the only weight-0 vector is the vacuum
    (eigenvalue 1) and the weight-1 space is the two-dimensional degree-1
    Heisenberg plane, on which the order-3 isometry acts with the two
    primitive cube-root eigenvalues; the lattice itself contributes nothing
    below weight 2.
    """
    _certify_tau_fixes_no_vector()
    if not c.is_zero:
        return min_norm(c) / 2
    # Vacuum class: certify there is no lattice vector of norm 2.
    lattice_min = min(c.lattice.norm(x) for x in min_vectors(c))
    if lattice_min <= 2:
        raise AssertionError("lattice has vectors of norm <= 2")
    return Fraction(0) if eps % 3 == 0 else Fraction(1)


def weight_table_check() -> tuple[WeightCheckEntry, ...]:
    """Recompute every conformal weight of the 20-object catalog from the
    three-piece lattice decompositions, one row per label.

    Untwisted labels are checked exactly (weight = min over pieces of the
    rank-1 minimum plus the rank-2 eigenspace minimum).  Twisted labels are
    checked mod 1: all three pieces must be congruent to the table value.
    """
    entries: list[WeightCheckEntry] = []
    for name, table, (i, k, eps) in zip(U_LABELS, U_WEIGHTS, _label_parts()):
        pieces = _label_pieces(i, eps)
        rank1 = [min_norm(piece.rank1) / 2 for piece in pieces]
        if k == 0:
            values = [w + (min_norm(rank2) / 2 if eps is None
                           else _eigen_coset_weight(rank2, eps))
                      for w, (_, rank2) in zip(rank1, pieces)]
            recomputed = min(values)
            ok = recomputed == table
            detail = "pieces " + ", ".join(str(v) for v in values)
            entries.append(WeightCheckEntry(name, table, recomputed, ok, detail))
        else:
            # Piece m of a tau^k-twisted label has lattice index 2km mod 3.
            congruent = [(w + _twisted_weight(2 * k * m % 3, eps)) % 1
                         for m, w in enumerate(rank1)]
            ok = all(c == table % 1 for c in congruent)
            detail = ("pieces mod 1 "
                      + ", ".join(str(c) for c in congruent)
                      + f" (twist exponent {k})")
            entries.append(WeightCheckEntry(name, table, None, ok, detail))
    return tuple(entries)


# ---------------------------------------------------------------------------
# Exact quantum dimensions of the untwisted labels
# ---------------------------------------------------------------------------

def untwisted_qdims() -> tuple[Fraction, ...]:
    """Quantum dimensions of the 8 untwisted labels of U, exactly, as the
    y -> 0 limits of their characters over the vacuum character.

    Every piece is a coset of Z b1 + L over the same eta^3 (`qdim_limit`).
    M^i is the sum of its three pieces.  M~_i[eps] is one tau-eigenspace of
    the coset under it, and takes 1/3 of each piece's leading term, because
    tau fixes no nonzero vector of the rank-2 space (the tau-twisted traces
    grow as e^{pi/(36y)}, against e^{pi/(4y)}).  The vacuum M~_0[0] is the
    tau-fixed eigenspace of the alpha-lattice, so it takes 1/3 of its pieces.
    """
    _certify_tau_fixes_no_vector()
    eigenspace = Fraction(1, 3)
    alpha = orbifold_decomposition()
    dims = []
    for i, _, eps in _label_parts()[:8]:
        share = 1 if eps is None else eigenspace
        pieces = _label_pieces(i, eps)
        dims.append(share * qdim_limit(pieces, alpha) / eigenspace)
    return tuple(dims)


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


def stilde_fixture_diff(md: ModularDatum
                        ) -> list[tuple[int, int, CycNum, CycNum]]:
    """(i, j, derived, transcribed), in row-major order, for every entry
    where the derived s-tilde of the 20-object datum `md` disagrees with
    the fixture."""
    derived, table = md.stilde(), stilde_fixture()
    same = _cyc_arrays(derived).equals(_cyc_arrays(table)).tolist()
    return [(i, j, derived[i][j], table[i][j])
            for i, row in enumerate(same) for j, ok in enumerate(row) if not ok]
