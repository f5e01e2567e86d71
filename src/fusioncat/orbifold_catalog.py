"""Builders for the two concrete catalogs: the 20-object cyclic-permutation
orbifold datum ("U") and the 30-object lattice-orbifold datum ("VLtau").

Each is one product, pointed Z_m ⊠ R10, of a pointed datum and one rank-10
datum R10 (`_product`): U = Z2 with twist 3a^2/4, c = 3, and VLtau = Z3
with twist 2a^2/3, c = 2.  A label (a, c) has grade a in Z_m and R10 label
c, and sits where the catalog's label order puts it (`_layout`).  This is
the split Müger's theorem gives for a simple current of order m whose
self-braiding is nondegenerate (Müger, Proc. LMS 87 (2003) 291).  The
module also owns the orbifold counting formula.

Convention notes on R10's fusion rule (documented once, here):
- For products of two like-twisted objects, the output epsilon pair is
  {-(e+e1), 1-(e+e1)} mod 3.  The alternative offset pairing fails S^2 = C
  and the Verlinde round-trip; this one is the unique consistent choice.
- For an untwisted eigenspace object times a twisted object, the output
  grading is k*e + e1 (the twist exponent k scales the untwisted grading).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

# Each function imports the modules it calls: counting and `U_LABELS` (the
# CLI's W-index aliases) load no numpy.
if TYPE_CHECKING:
    from .fusion_ring import FusionRing
    from .modular_data import ModularDatum

__all__ = [
    "U_LABELS",
    "VLTAU_LABELS",
    "build_U",
    "build_VLtau",
    "count_orbifold_irreducibles",
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
