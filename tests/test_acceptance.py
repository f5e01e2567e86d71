"""Acceptance criteria, one test per criterion.

Criterion 1 compares the derived s-tilde of U with the printed table,
transcribed verbatim in ``stilde_u.grid``.  The printed table is not the
s-tilde of any modular datum: every modular datum has a unitary S with
S^2 = C, and the table breaks both.  Arithmetic on the table alone shows
which entries are wrong and what they must be:

- the table is not unitary (T T*^t != 72 I);
- SIGN: six entries, (11, 17..19) and their mirrors, lack the factor -1
  that rows 12 and 13 carry on columns 17..19.  Negating them makes the
  table unitary, but T^2 != 72 C;
- PHASE: the twisted diagonal blocks [8..13]^2 and [14..19]^2 are printed
  a phase off.  Of the 18 uniform phases e(k/18) on those blocks only
  e(1/3) gives T^2 = 72 C (the other 17 were tried once, not here).

The test checks these products exactly, from the table alone, then
checks that the derived matrix differs from the table at exactly the 78
errata entries and equals the corrected table at all 400.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from fusioncat.cyclotomic import (
    cyc_rational,
    cyc_root_of_unity,
    format_cyc,
    parse_cyc,
)
from fusioncat.fcat import FcatDocument, emit_fcat, parse_fcat
from fusioncat.lattice import (
    Coset,
    Lattice,
    coset_L,
    coset_Zbeta1,
)
from fusioncat.orbifold_catalog import count_orbifold_irreducibles
from fusioncat.paper import U_DIMS, stilde_fixture, weight_table_check
from fusioncat.qseries import QSeries, qdim_limit, theta_coset
from reference import stilde_conjugate_form
from test_orbifold_catalog import U_DUALS, vltau_duals_by_rule


# Errata of the printed table, read off the table itself.  In the block of
# t1 rows (8..13) against t2 columns (14..19), the i = 1 rows carry a
# factor -1 on the i = 1 columns (17..19) relative to columns 14..16:
# rows 12 and 13 print it, row 11 does not.
STILDE_SIGN_ERRATA = frozenset(
    [(11, j) for j in (17, 18, 19)] + [(j, 11) for j in (17, 18, 19)])
# The two twisted diagonal blocks, printed off by a uniform phase.
STILDE_PHASE_ERRATA = frozenset(
    (i, j) for block in (range(8, 14), range(14, 20))
    for i in block for j in block)


def _with_factor(table, entries, factor):
    return [[x * factor if (i, j) in entries else x
             for j, x in enumerate(row)] for i, row in enumerate(table)]


def _product(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), cyc_rational(0))
             for j in range(n)] for i in range(n)]


def _is_scaled_permutation(m, scale, perm):
    """Whether m = scale * P, where P sends row i to column perm[i]."""
    return all(m[i][j] == (scale if j == perm[i] else 0)
               for i in range(len(m)) for j in range(len(m)))


def _is_unitary(t, dim):
    adjoint = [[t[j][i].conj() for j in range(len(t))]
               for i in range(len(t))]
    return _is_scaled_permutation(_product(t, adjoint), dim, range(len(t)))


def _squares_to_charge_conjugation(t, dim):
    return _is_scaled_permutation(_product(t, t), dim, U_DUALS)


def test_criterion_1_stilde_golden_table(u_datum):
    """All 400 derived s-tilde entries must equal the transcribed table,
    exactly, in under 5 seconds, once the table's two proven errata are
    applied; the other 322 entries are compared verbatim."""
    start = time.perf_counter()
    derived = u_datum.stilde()
    table = stilde_fixture()
    mismatches = [(i, j) for i in range(20) for j in range(20)
                  if derived[i][j] != table[i][j]]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"golden comparison took {elapsed:.2f}s"

    # The global dimension, from the table's own row 0.
    dim = sum((x * x.conj() for x in table[0]), cyc_rational(0))
    assert dim == 72
    assert not _is_unitary(table, dim), "printed table is unitary"
    signed = _with_factor(table, STILDE_SIGN_ERRATA, -1)
    assert _is_unitary(signed, dim), "SIGN errata do not make it unitary"
    assert not _squares_to_charge_conjugation(signed, dim), (
        "SIGN errata alone already give T^2 = 72 C")
    corrected = _with_factor(signed, STILDE_PHASE_ERRATA,
                             cyc_root_of_unity(1, 3))
    assert _is_unitary(corrected, dim), "PHASE errata break unitarity"
    assert _squares_to_charge_conjugation(corrected, dim), (
        "SIGN and PHASE errata do not give T^2 = 72 C")

    errata = STILDE_SIGN_ERRATA | STILDE_PHASE_ERRATA
    assert set(mismatches) == errata, (
        f"derived and printed tables differ at {len(mismatches)} entries; "
        f"outside the errata: {sorted(set(mismatches) - errata)[:12]}, "
        f"errata that agree: "
        f"{sorted(errata - set(mismatches))[:12]}")
    wrong = [(i, j) for i in range(20) for j in range(20)
             if derived[i][j] != corrected[i][j]]
    detail = ", ".join(
        f"({i},{j}) derived {format_cyc(derived[i][j])} vs corrected "
        f"{format_cyc(corrected[i][j])}" for i, j in wrong[:6])
    assert not wrong, (
        f"{len(wrong)} of 400 entries differ from the corrected table: "
        f"{detail}")
    print(f"CRITERION 1: PASS ({400 - len(mismatches)}/400 entries agree "
          f"verbatim, {len(mismatches)} through the SIGN and PHASE errata)")


def test_criterion_2_verlinde_round_trip(u_datum):
    start = time.perf_counter()
    tensor = u_datum.verlinde()
    elapsed = time.perf_counter() - start
    assert np.array_equal(tensor, u_datum.ring.tensor)
    assert elapsed < 30.0, f"Verlinde evaluation took {elapsed:.2f}s"
    print("CRITERION 2: PASS")


def test_criterion_3_modular_consistency(u_datum):
    checks = dict(u_datum.verify_modular().checks())
    assert checks["S symmetric"]
    assert checks["S^2 = charge conjugation"]
    assert checks["S unitary"]
    assert checks["S dual-invariant"]
    assert u_datum.stilde() == stilde_conjugate_form(u_datum)
    print("CRITERION 3: PASS")


def test_criterion_4_quantum_dimensions(u_datum):
    for i in range(20):
        assert u_datum.ring.qdim_pf(i) == pytest.approx(U_DIMS[i], abs=1e-8)
    st = u_datum.stilde()
    for i in range(20):
        assert st[i][0] / st[0][0] == cyc_rational(U_DIMS[i])
    assert u_datum.global_dimension() == 72
    print("CRITERION 4: PASS")


def test_criterion_5_counting():
    assert count_orbifold_irreducibles(2) == 20
    for n in range(1, 101):
        assert 3 * count_orbifold_irreducibles(n) == n ** 3 + 26 * n
    print("CRITERION 5: PASS")


def test_criterion_6_weight_table():
    rows = weight_table_check()
    assert len(rows) == 20
    failing = [e.label for e in rows if not e.ok]
    assert not failing, failing
    by_label = {e.label: e for e in rows}
    assert by_label["M^0"].recomputed == F(1, 2)
    assert by_label["M^1"].recomputed == F(1, 4)
    assert by_label["M~_1[0]"].recomputed == F(3, 4)
    print("CRITERION 6: PASS")


def test_criterion_7_vltau_ring(vltau_datum):
    assert vltau_datum.ring.validate().passed
    for i, name in enumerate(vltau_datum.ring.labels):
        expected = 1 if name.startswith("V(0,") else (
            3 if name.startswith("V(c,") else 2)
        assert vltau_datum.ring.qdim_pf(i) == pytest.approx(expected,
                                                            abs=1e-8)
    assert vltau_datum.ring.dual_vector() == vltau_duals_by_rule()
    # Whether the derived modular datum verifies is reported, not claimed.
    modular = vltau_datum.verify_modular().passed
    print(f"CRITERION 7: PASS (derived modular datum verifies: {modular})")


def test_criterion_8_characters_and_ratio():
    # The 12 named cosets are distinct, and their thetas sum to that of L*:
    # so they are all of L*/L.
    named = [coset_L(i, j) for i in "0abc" for j in range(3)]
    assert len(set(named)) == 12
    cutoff = F(30)
    total = sum((theta_coset(c, cutoff) for c in named), QSeries.zero(cutoff))
    dual = Lattice.from_rows([[F(1, 3), F(1, 6)], [F(1, 6), F(1, 3)]])
    assert total == theta_coset(Coset.of(dual, [0, 0]), cutoff)

    assert qdim_limit([(coset_Zbeta1(F(1, 2)),)], [(coset_Zbeta1(0),)]) == 1
    print("CRITERION 8: PASS")


def test_criterion_9_property_suite(u_datum):
    # Field-axiom and canonical-form spot checks (the full randomized
    # suites live in test_cyclotomic.py).
    a = parse_cyc("2*e(1/9)-e(5/18)")
    b = parse_cyc("e(1/8)+e(-1/8)")
    assert (a + b) * (a - b) == a * a - b * b
    assert parse_cyc(format_cyc(a * b)) == a * b
    assert parse_cyc("e(1/3)+e(2/3)") == -1

    # FCAT round-trip byte stability.
    doc = FcatDocument("U", u_datum.ring,
                       dict(enumerate(u_datum.twists)),
                       dict(enumerate(u_datum.dims)))
    emitted = emit_fcat(doc)
    assert emit_fcat(parse_fcat(emitted)) == emitted

    # Simple-current fusion bijectivity, exhaustively for the catalog.
    ring = u_datum.ring
    assert {i for i, d in enumerate(u_datum.dims) if d == 1} == set(range(6))
    for s in range(6):
        images = sorted(int(np.nonzero(ring.tensor[s, j])[0][0])
                        for j in range(20))
        assert images == list(range(20))
    print("CRITERION 9: PASS")
