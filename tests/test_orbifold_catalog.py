"""The 20- and 30-object catalogs: counts, fusion rules, weights, fixtures."""

from fractions import Fraction as F

import numpy as np
import pytest

from fusioncat.lattice import coset_L, coset_Zbeta1
from fusioncat.orbifold_catalog import (
    U_DIMS,
    U_DUALS,
    U_LABELS,
    U_WEIGHTS,
    VLTAU_LABELS,
    count_orbifold_irreducibles,
    full_coset_pieces,
    resolve_label,
    stilde_fixture,
    stilde_fixture_diff,
    vltau_duals,
    weight_table_check,
)


class TestFullCosetPieces:
    @pytest.mark.parametrize("i", [0, 1])
    def test_pieces(self, i):
        assert full_coset_pieces(i) == [
            (coset_Zbeta1(F(i, 2)), coset_L("c", 0)),
            (coset_Zbeta1(F(3 * i + 2, 6)), coset_L("c", 1)),
            (coset_Zbeta1(F(3 * i + 4, 6)), coset_L("c", 2)),
        ]


class TestCounting:
    @pytest.mark.parametrize("n,expected", [(1, 9), (2, 20), (3, 35)])
    def test_values(self, n, expected):
        assert count_orbifold_irreducibles(n) == expected

    def test_integrality_for_all_small_n(self):
        for n in range(1, 101):
            value = count_orbifold_irreducibles(n)
            assert 3 * value == n ** 3 + 26 * n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_orbifold_irreducibles(0)


class TestBuildU:
    def test_label_count_matches_counting_formula(self, u_datum):
        assert u_datum.ring.rank == 20 == count_orbifold_irreducibles(2)
        assert u_datum.ring.labels == U_LABELS

    def test_twist_of_w13(self, u_datum):
        assert u_datum.twists[13] == F(7, 36)
        assert U_LABELS[13] == "Mhat_t1_1[2]"

    def test_eigenspace_product_rule(self, u_datum):
        # diagonal labels multiply by adding both indices:
        # grade-0[1] times grade-1[1] gives grade-1[2].
        ring = u_datum.ring
        a = ring.label_index("M~_0[1]")
        b = ring.label_index("M~_1[1]")
        out = ring.fuse(ring.basis_element(a), ring.basis_element(b))
        assert out.coefficients == {ring.label_index("M~_1[2]"): 1}

    def test_offdiagonal_square(self, u_datum):
        ring = u_datum.ring
        m0 = ring.label_index("M^0")
        out = ring.fuse(ring.basis_element(m0), ring.basis_element(m0))
        assert str(out) == "M~_0[0] + M~_0[1] + M~_0[2] + 2*M^0"

    def test_mixed_twist_product(self, u_datum):
        ring = u_datum.ring
        a = ring.label_index("Mhat_t1_0[1]")
        b = ring.label_index("Mhat_t2_1[1]")
        out = ring.fuse(ring.basis_element(a), ring.basis_element(b))
        # grading 1 + 2*1 = 0 mod 3
        assert out.coefficients == {ring.label_index("M~_1[0]"): 1,
                                    ring.label_index("M^1"): 1}

    def test_like_twist_product_epsilon_pair(self, u_datum):
        ring = u_datum.ring
        a = ring.label_index("Mhat_t1_0[1]")
        out = ring.fuse(ring.basis_element(a), ring.basis_element(a))
        # epsilon pair {-(1+1), 1-(1+1)} = {1, 2} mod 3
        assert out.coefficients == {ring.label_index("Mhat_t2_0[1]"): 1,
                                    ring.label_index("Mhat_t2_0[2]"): 1}

    def test_duals(self, u_datum):
        assert u_datum.ring.dual_vector() == U_DUALS

    def test_qdims(self, u_datum):
        for i in range(20):
            assert u_datum.ring.qdim_pf(i) == pytest.approx(U_DIMS[i],
                                                            abs=1e-8)

    def test_simple_currents_are_diagonal_labels(self, u_datum):
        assert u_datum.ring.simple_currents() == set(range(6))

    def test_current_w3_relabels_offdiagonal(self, u_datum):
        # Fusing by the grade-1 current swaps the two off-diagonal labels.
        ring = u_datum.ring
        w3 = ring.basis_element(3)
        out = ring.fuse(w3, ring.basis_element(ring.label_index("M^0")))
        assert out.coefficients == {ring.label_index("M^1"): 1}

    def test_weights_table(self, u_datum):
        # Twists are stored mod 1 (weight 1 reduces to 0).
        assert u_datum.twists == tuple(w % 1 for w in U_WEIGHTS)


class TestBuildVLtau:
    def test_label_count(self, vltau_datum):
        assert vltau_datum.ring.rank == 30
        assert vltau_datum.ring.labels == VLTAU_LABELS

    def test_qdims_by_kind(self, vltau_datum):
        ring = vltau_datum.ring
        for i, name in enumerate(ring.labels):
            if name.startswith("V(0,"):
                expected = 1
            elif name.startswith("V(c,"):
                expected = 3
            else:
                expected = 2
            assert ring.qdim_pf(i) == pytest.approx(expected, abs=1e-8)

    def test_duals_match_remark(self, vltau_datum):
        assert vltau_datum.ring.dual_vector() == vltau_duals()

    def test_c_type_square(self, vltau_datum):
        ring = vltau_datum.ring
        c0 = ring.label_index("V(c,0)")
        out = ring.fuse(ring.basis_element(c0), ring.basis_element(c0))
        expected = {ring.label_index(f"V(0,0)[{r}]"): 1 for r in range(3)}
        expected[c0] = 2
        assert out.coefficients == expected

    def test_c_type_weights_from_lattice(self, vltau_datum):
        assert vltau_datum.twists[9] == F(1, 2)
        assert vltau_datum.twists[10] == F(1, 6)
        assert vltau_datum.twists[11] == F(1, 6)

    def test_simple_currents_form_z3_squared(self, vltau_datum):
        ring = vltau_datum.ring
        currents = ring.simple_currents()
        assert currents == set(range(9))
        # Closed under fusion with Z3 x Z3 composition law.
        for a in range(9):
            for b in range(9):
                ja, ea = divmod(a, 3)
                jb, eb = divmod(b, 3)
                out = ring.fuse(ring.basis_element(a), ring.basis_element(b))
                expected = 3 * ((ja + jb) % 3) + (ea + eb) % 3
                assert out.coefficients == {expected: 1}
        # Every non-unit current has order 3.
        for a in range(1, 9):
            x = ring.basis_element(a)
            cube = ring.fuse(ring.fuse(x, x), x)
            assert cube.coefficients == {0: 1}

    def test_verify_modular_reported(self, vltau_datum):
        # Not a claim from the source text; computed and reported.
        assert vltau_datum.verify_modular().passed


class TestWeightTable:
    def test_all_pass(self):
        report = weight_table_check()
        assert len(report.entries) == 20
        assert report.passed, [e.label for e in report.entries if not e.ok]

    def test_untwisted_recomputed_exactly(self):
        report = weight_table_check()
        by_label = {e.label: e for e in report.entries}
        assert by_label["M^0"].recomputed == F(1, 2)
        assert by_label["M^1"].recomputed == F(1, 4)
        assert by_label["M~_1[0]"].recomputed == F(3, 4)
        assert by_label["M~_0[0]"].recomputed == 0
        assert by_label["M~_0[1]"].recomputed == 1

    def test_twisted_checked_mod_one(self):
        report = weight_table_check()
        by_label = {e.label: e for e in report.entries}
        entry = by_label["Mhat_t1_0[0]"]
        assert entry.recomputed is None
        assert entry.ok
        assert entry.table_value == F(1, 9)

    def test_report_lines(self):
        lines = weight_table_check().lines()
        assert len(lines) == 20
        assert all("PASS" in line for line in lines)


class TestFixture:
    def test_fixture_loads_400_entries(self):
        table = stilde_fixture()
        assert len(table) == 20
        assert all(len(row) == 20 for row in table)

    def test_fixture_first_row_is_dims(self, u_datum):
        table = stilde_fixture()
        for i in range(20):
            assert table[0][i] == U_DIMS[i]

    def test_fixture_symmetric(self):
        # The transcribed table is symmetric as printed; its known sign
        # typos occur at mirrored positions, so they do not break symmetry.
        table = stilde_fixture()
        for i in range(20):
            for j in range(i + 1, 20):
                assert table[i][j] == table[j][i]

    def test_diff_count_is_stable(self, u_datum):
        diff = stilde_fixture_diff(u_datum)
        assert len(diff) == 78
        positions = {(i, j) for i, j, _, _ in diff}
        assert (8, 8) in positions
        assert (0, 0) not in positions

    def test_diff_entries_embed_differently(self, u_datum):
        for i, j, derived, table in stilde_fixture_diff(u_datum)[:10]:
            assert abs(derived.embed() - table.embed()) > 1e-9


class TestLabelResolution:
    def test_w_aliases(self, u_datum):
        assert resolve_label(u_datum.ring, "W0") == 0
        assert resolve_label(u_datum.ring, "W13") == 13
        assert resolve_label(u_datum.ring, "W19") == 19

    def test_structured_names(self, u_datum):
        assert resolve_label(u_datum.ring, "M^1") == 7
        assert resolve_label(u_datum.ring, "Mhat_t2_1[2]") == 19

    def test_unknown_label_raises(self, u_datum):
        with pytest.raises(KeyError):
            resolve_label(u_datum.ring, "W20")
        with pytest.raises(KeyError):
            resolve_label(u_datum.ring, "nope")

    def test_w_alias_only_for_u(self, vltau_datum):
        with pytest.raises(KeyError):
            resolve_label(vltau_datum.ring, "W3")
