"""Builders for the two concrete catalogs: the 20-object cyclic-permutation
orbifold datum ("U") and the 30-object lattice-orbifold datum ("VLtau").

Each is one product, pointed Z_m ⊠ R10, of a pointed datum and one rank-10
datum R10 (`_product`): U = Z2 with twist 3a^2/4, c = 3, and VLtau = Z3
with twist 2a^2/3, c = 2.  A label (a, c) has grade a in Z_m and R10 label
c, and sits where the catalog's label order puts it (`_layout`).  This is
the split Müger's theorem gives for a simple current of order m whose
self-braiding is nondegenerate (Müger, Proc. LMS 87 (2003) 291).  The
module also owns the orbifold counting formula, the exact recomputation of
U's conformal-weight table from lattice minima, the exact quantum
dimensions of U's untwisted labels from the characters' y -> 0 limits, and
the golden fixture holding the transcribed 20 x 20 s-tilde table.

Convention notes on R10's fusion rule (documented once, here):
- For products of two like-twisted objects, the output epsilon pair is
  {-(e+e1), 1-(e+e1)} mod 3.  The alternative offset pairing fails S^2 = C
  and the Verlinde round-trip; this one is the unique consistent choice.
- For an untwisted eigenspace object times a twisted object, the output
  grading is k*e + e1 (the twist exponent k scales the untwisted grading).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import TYPE_CHECKING

# Each function imports the modules it calls: counting and `U_LABELS` (the
# CLI's W-index aliases) load no numpy, and the catalog builds no lattice.
if TYPE_CHECKING:
    from .cyclotomic import CycNum
    from .fusion_ring import FusionRing
    from .lattice import Coset, DecompositionPiece
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
    "untwisted_qdims",
    "weight_table_check",
    "WeightCheckEntry",
    "WeightCheckReport",
    "stilde_fixture",
    "stilde_fixture_diff",
]


# ---------------------------------------------------------------------------
# One product for both data: pointed Z_m ⊠ R10
# ---------------------------------------------------------------------------

# R10's labels: the eigenspace labels e in Z3 at e, the off-diagonal label
# at _OFF, and the twisted labels (k, e), k in {1, 2}, at `_tw(k, e)`.
_OFF = 3


def _tw(k: int, e: int) -> int:
    return 3 * (k % 3) + 1 + e % 3


def _kind(c: int) -> tuple[int, int | None]:
    """(k, e) of the R10 label c: twist exponent k (0 for the untwisted
    labels) and eigenspace e (None for the off-diagonal label)."""
    if c < _OFF:
        return 0, c
    return (0, None) if c == _OFF else divmod(c - 1, 3)


def _r10() -> dict[tuple[int, int, int], int]:
    """N of R10: each product rule once, at one grade."""
    out: dict[tuple[int, int, int], int] = {}

    def add(a: int, b: int, targets: list[int]) -> None:
        for t in targets:
            out[a, b, t] = out[b, a, t] = targets.count(t)

    add(_OFF, _OFF, [0, 1, 2, _OFF, _OFF])
    for e in range(3):
        add(_OFF, e, [_OFF])
        for e1 in range(3):
            add(e, e1, [(e + e1) % 3])
            add(_tw(1, e), _tw(2, e1), [(e + 2 * e1) % 3, _OFF])
        for k in (1, 2):
            add(_OFF, _tw(k, e), [_tw(k, r) for r in range(3)])
            for e1 in range(3):
                add(e, _tw(k, e1), [_tw(k, k * e + e1)])
                add(_tw(k, e), _tw(k, e1),
                    [_tw(2 * k, -(e + e1)), _tw(2 * k, 1 - (e + e1))])
    return out


# R10's twists (0 on e, 1/2 on the off-diagonal label, 1/9 - e/3 on (k, e))
# and its dims; the ring derives its duals.  D = 6, c = 4 mod 8.
_R10_TWISTS = ((Fraction(0),) * 3 + (Fraction(1, 2),)
               + (Fraction(1, 9), Fraction(7, 9), Fraction(4, 9)) * 2)
_R10_DIMS = (1, 1, 1, 3) + (2,) * 6


def _layout(m: int, a: int, c: int) -> int:
    """The catalog index of the label (a, c) of Z_m ⊠ R10: the 3m
    eigenspace labels (a, e), the m off-diagonal labels a, then the twisted
    labels (k, a, e), k = 1 before k = 2.  A twisted label is stored at
    lattice index j = a for k = 1, j = -a for k = 2."""
    k, e = _kind(c)
    if e is None:
        return 3 * m + a % m
    if k == 0:
        return 3 * (a % m) + e
    return m * (3 * k + 1) + 3 * ((a if k == 1 else -a) % m) + e


def _product(m: int, q: Fraction, labels: tuple[str, ...]
             ) -> tuple[FusionRing, dict[int, Fraction], dict[int, int]]:
    """The ring, twists and dims of Z_m ⊠ R10, the inputs of `ModularDatum`,
    with the label (a, c) at index `_layout(m, a, c)`.  Z_m is pointed with
    twist q a^2: grades add and every dim is 1.  So N[(a,c),(b,d),(a+b,e)] =
    N_R10[c,d,e], the twist of (a, c) is (q a^2 + h_c) mod 1 and its dim
    d_c; the ring reads its duals (-a, c*) off the unit row."""
    from .fusion_ring import FusionRing
    at = {(a, c): _layout(m, a, c) for a in range(m) for c in range(10)}
    r10 = _r10().items()
    ring = FusionRing(
        labels, unit=0,
        structure_constants={(at[a, c], at[b, d], at[(a + b) % m, e]): v
                             for a in range(m) for b in range(m)
                             for (c, d, e), v in r10})
    return (ring,
            {i: (q * a * a + _R10_TWISTS[c]) % 1 for (a, c), i in at.items()},
            {i: _R10_DIMS[c] for (a, c), i in at.items()})


# ---------------------------------------------------------------------------
# The 20-object datum: Z2 ⊠ R10
# ---------------------------------------------------------------------------

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


def build_U() -> ModularDatum:
    """The validated 20-object datum, Z2 with twist 3a^2/4 ⊠ R10 (central
    charge 3, global dimension 72)."""
    from .modular_data import ModularDatum
    return ModularDatum(*_product(2, Fraction(3, 4), U_LABELS),
                        central_charge=3)


# ---------------------------------------------------------------------------
# The 30-object datum: Z3 ⊠ R10
# ---------------------------------------------------------------------------

VLTAU_LABELS: tuple[str, ...] = tuple(
    [f"V(0,{j})[{e}]" for j in range(3) for e in range(3)]
    + [f"V(c,{j})" for j in range(3)]
    + [f"T_{j}(t{k})[{e}]"
       for k in (1, 2) for j in range(3) for e in range(3)]
)


def build_VLtau() -> ModularDatum:
    """The validated 30-object lattice-orbifold datum, Z3 with twist 2a^2/3
    ⊠ R10 (central charge 2)."""
    from .modular_data import ModularDatum
    return ModularDatum(*_product(3, Fraction(2, 3), VLTAU_LABELS),
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


def _label_parts() -> list[tuple[int, int, int | None]]:
    """(i, k, eps) of each U label, in catalog order: lattice index i, twist
    exponent k (0 for the untwisted labels) and eigenspace eps (None for
    M^i)."""
    at = {_layout(2, a, c): (a, *_kind(c)) for a in range(2) for c in range(10)}
    return [at[index] for index in range(20)]


def _label_pieces(i: int, eps: int | None) -> list[DecompositionPiece]:
    """The pieces of M^i for eps None, else those of the coset under
    M~_i[eps], whose rank-1 parts the twisted labels (i, eps) share."""
    from .lattice import coset_pieces, full_coset_pieces
    return full_coset_pieces(i) if eps is None else coset_pieces(i, "0")


def _twisted_weight(j: int, e: int) -> Fraction:
    """The twisted conformal weight at lattice index j and eigenspace e."""
    return Fraction(10 - 3 * (j * j + e), 9)


def _certify_tau_fixes_no_vector() -> None:
    """det(tau - 1) != 0, so tau fixes no nonzero vector of the rank-2 space
    and acts on its Heisenberg plane with the primitive cube roots of 1."""
    from .lattice import tau_vector
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
    from .lattice import min_norm, min_vectors
    _certify_tau_fixes_no_vector()
    if not c.is_zero:
        return min_norm(c) / 2
    # Vacuum class: certify there is no lattice vector of norm 2.
    lattice_min = min(c.lattice.norm(x) for x in min_vectors(c))
    if lattice_min <= 2:
        raise AssertionError("lattice has vectors of norm <= 2")
    return Fraction(0) if eps % 3 == 0 else Fraction(1)


def weight_table_check() -> WeightCheckReport:
    """Recompute every conformal weight of the 20-object catalog from the
    three-piece lattice decompositions.

    Untwisted labels are checked exactly (weight = min over pieces of the
    rank-1 minimum plus the rank-2 eigenspace minimum).  Twisted labels are
    checked mod 1: all three pieces must be congruent to the table value.
    """
    from .lattice import min_norm
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
    return WeightCheckReport(tuple(entries))


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
    from .lattice import orbifold_decomposition
    from .qseries import qdim_limit   # here, so catalog calls never load it
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


def stilde_fixture_diff(md: ModularDatum
                        ) -> list[tuple[int, int, CycNum, CycNum]]:
    """(i, j, derived, transcribed), in row-major order, for every entry
    where the derived s-tilde of the 20-object datum `md` disagrees with
    the fixture."""
    from .cyclotomic import _cyc_arrays
    derived, table = md.stilde(), stilde_fixture()
    same = _cyc_arrays(derived).equals(_cyc_arrays(table)).tolist()
    return [(i, j, derived[i][j], table[i][j])
            for i, row in enumerate(same) for j, ok in enumerate(row) if not ok]
