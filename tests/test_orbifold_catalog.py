"""The 20- and 30-object catalogs: counts, fusion rules, weights, fixtures."""

import hashlib
import itertools
from fractions import Fraction as F

import numpy as np
import pytest

from fusioncat.cyclotomic import cyc_rational
from fusioncat.fusion_ring import FusionRing
from fusioncat.lattice import (coset_L, coset_Zbeta1, full_coset_pieces,
                               min_norm)
from fusioncat.modular_data import ModularDatum
from fusioncat import orbifold_catalog, paper
from fusioncat.cli import _label
from fusioncat.orbifold_catalog import (
    U_LABELS,
    VLTAU_LABELS,
    count_orbifold_irreducibles,
)
from fusioncat.paper import (
    U_DIMS,
    U_WEIGHTS,
    stilde_fixture,
    stilde_fixture_diff,
    untwisted_qdims,
    weight_table_check,
)

# U's duals, written out; the ring derives its own from its unit row.
U_DUALS = (0, 2, 1, 3, 5, 4, 6, 7,
           14, 15, 16, 17, 18, 19,
           8, 9, 10, 11, 12, 13)


def vltau_duals_by_rule() -> tuple[int, ...]:
    """VLtau's duals from the rule (i, e) -> (-i, -e), i -> -i and
    (k, i, e) -> (2k, -i, e) at grade i, where the twisted label
    T_j(tk)[e] has grade i = k j mod 3, so j = k i."""
    dual = {}
    for i in range(3):
        dual[f"V(c,{i})"] = f"V(c,{-i % 3})"
        for e in range(3):
            dual[f"V(0,{i})[{e}]"] = f"V(0,{-i % 3})[{-e % 3}]"
            for k in (1, 2):
                dual[f"T_{k * i % 3}(t{k})[{e}]"] = (
                    f"T_{2 * k * -i % 3}(t{2 * k % 3})[{e}]")
    return tuple(VLTAU_LABELS.index(dual[name]) for name in VLTAU_LABELS)


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
        assert ring.fuse(a, b) == {ring.label_index("M~_1[2]"): 1}

    def test_offdiagonal_square(self, u_datum):
        ring = u_datum.ring
        m0 = ring.label_index("M^0")
        expected = {ring.label_index(f"M~_0[{e}]"): 1 for e in range(3)}
        expected[m0] = 2
        out = ring.fuse(m0, m0)
        assert out == expected
        assert list(out) == sorted(out)

    def test_mixed_twist_product(self, u_datum):
        ring = u_datum.ring
        a = ring.label_index("Mhat_t1_0[1]")
        b = ring.label_index("Mhat_t2_1[1]")
        # grading 1 + 2*1 = 0 mod 3
        assert ring.fuse(a, b) == {ring.label_index("M~_1[0]"): 1,
                                   ring.label_index("M^1"): 1}

    def test_like_twist_product_epsilon_pair(self, u_datum):
        ring = u_datum.ring
        a = ring.label_index("Mhat_t1_0[1]")
        # epsilon pair {-(1+1), 1-(1+1)} = {1, 2} mod 3
        assert ring.fuse(a, a) == {ring.label_index("Mhat_t2_0[1]"): 1,
                                   ring.label_index("Mhat_t2_0[2]"): 1}

    def test_duals(self, u_datum):
        assert u_datum.ring.dual_vector() == U_DUALS

    def test_untwisted_qdims_from_the_characters(self, u_datum):
        # The y -> 0 limits of the characters against the S matrix.
        dims = untwisted_qdims()
        assert dims == U_DIMS[:8]
        s = u_datum.s_matrix()
        for i, d in enumerate(dims):
            assert s[i][0] == s[0][0] * cyc_rational(d)

    def test_untwisted_qdims_need_tau_fixed_point_free(self, monkeypatch):
        monkeypatch.setattr(paper, "tau_vector", lambda x: x)
        with pytest.raises(AssertionError, match="tau fixes"):
            untwisted_qdims()

    def test_qdims(self, u_datum):
        for i in range(20):
            assert u_datum.ring.qdim_pf(i) == pytest.approx(U_DIMS[i],
                                                            abs=1e-8)

    def test_simple_currents_are_diagonal_labels(self, u_datum):
        # A simple current is a label of dim 1.
        assert {i for i, d in enumerate(u_datum.dims)
                if d == 1} == set(range(6))

    def test_current_w3_relabels_offdiagonal(self, u_datum):
        # Fusing by the grade-1 current swaps the two off-diagonal labels.
        ring = u_datum.ring
        out = ring.fuse(3, ring.label_index("M^0"))
        assert out == {ring.label_index("M^1"): 1}

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
        assert vltau_datum.ring.dual_vector() == vltau_duals_by_rule()

    def test_c_type_square(self, vltau_datum):
        ring = vltau_datum.ring
        c0 = ring.label_index("V(c,0)")
        expected = {ring.label_index(f"V(0,0)[{r}]"): 1 for r in range(3)}
        expected[c0] = 2
        assert ring.fuse(c0, c0) == expected

    def test_c_type_weights_from_lattice(self, vltau_datum):
        # The twist of V(c,i) is the lowest weight of its lattice coset.
        for i in range(3):
            index = vltau_datum.ring.label_index(f"V(c,{i})")
            assert vltau_datum.twists[index] == min_norm(coset_L("c", i)) / 2

    def test_simple_currents_form_z3_squared(self, vltau_datum):
        ring = vltau_datum.ring
        # A simple current is a label of dim 1.
        assert {i for i, d in enumerate(vltau_datum.dims)
                if d == 1} == set(range(9))
        # Closed under fusion with Z3 x Z3 composition law.
        for a in range(9):
            for b in range(9):
                ja, ea = divmod(a, 3)
                jb, eb = divmod(b, 3)
                expected = 3 * ((ja + jb) % 3) + (ea + eb) % 3
                assert ring.fuse(a, b) == {expected: 1}
        # Every non-unit current has order 3: a x a is the row N_aa, and
        # its product with N_a is the unit.
        t = ring.tensor
        for a in range(1, 9):
            assert (t[a, a] @ t[a]).tolist() == [1] + [0] * 29

    def test_verify_modular_reported(self, vltau_datum):
        # Not a claim from the source text; computed and reported.
        assert vltau_datum.verify_modular().passed


def pointed(m: int, q: F) -> ModularDatum:
    """Z_m with twist q a^2."""
    ring = FusionRing([str(a) for a in range(m)], 0,
                      {(a, b, (a + b) % m): 1
                       for a in range(m) for b in range(m)})
    return ModularDatum(ring, {a: q * a * a for a in range(m)},
                        {a: 1 for a in range(m)})


@pytest.fixture(scope="module")
def r10():
    """The rank-10 factor of both catalogs: Z1 ⊠ R10."""
    return ModularDatum(*orbifold_catalog._product(
        1, F(0), tuple(f"r{c}" for c in range(10))), central_charge=4)


class TestProduct:
    """U = Z2 ⊠ R10 and VLtau = Z3 ⊠ R10, with the label (a, c) at index
    `_layout(m, a, c)`, exactly."""

    def test_r10_is_modular_with_d_6(self, r10):
        assert r10.verify_modular().passed
        assert r10.D == 6
        assert r10.infer_central_charge_mod8() == 4
        assert r10.twists == ((0, 0, 0, F(1, 2))
                              + (F(1, 9), F(7, 9), F(4, 9)) * 2)

    @pytest.mark.parametrize("m,q,catalog", [(2, F(3, 4), "u_datum"),
                                             (3, F(2, 3), "vltau_datum")])
    def test_catalog_factors(self, m, q, catalog, r10, request):
        md = request.getfixturevalue(catalog)
        zm = pointed(m, q)
        pairs = [(a, c) for a in range(m) for c in range(10)]
        index = [orbifold_catalog._layout(m, a, c) for a, c in pairs]
        assert sorted(index) == list(range(10 * m))
        # N[(a,c),(b,d),(x,e)] = N_Zm[a,b,x] N_R10[c,d,e]
        kron = np.einsum("abx,cdy->acbdxy", zm.ring.tensor, r10.ring.tensor)
        assert np.array_equal(md.ring.tensor[np.ix_(index, index, index)],
                              kron.reshape((10 * m,) * 3))
        labels = list(zip(index, pairs))
        for i, (a, c) in labels:
            assert md.twists[i] == (zm.twists[a] + r10.twists[c]) % 1
            assert md.dims[i] == r10.dims[c]
        s, s_zm, s_r10 = md.stilde(), zm.stilde(), r10.stilde()
        for (i, (a, c)), (j, (b, d)) in itertools.product(labels, repeat=2):
            assert s[i][j] == s_zm[a][b] * s_r10[c][d]
        c_zm = zm.infer_central_charge_mod8()
        assert (c_zm + 4 - md.central_charge) % 8 == 0


class TestWeightTable:
    def test_all_pass(self):
        rows = weight_table_check()
        assert len(rows) == 20
        assert all(e.ok for e in rows), [e.label for e in rows if not e.ok]

    def test_untwisted_recomputed_exactly(self):
        by_label = {e.label: e for e in weight_table_check()}
        assert by_label["M^0"].recomputed == F(1, 2)
        assert by_label["M^1"].recomputed == F(1, 4)
        assert by_label["M~_1[0]"].recomputed == F(3, 4)
        assert by_label["M~_0[0]"].recomputed == 0
        assert by_label["M~_0[1]"].recomputed == 1

    def test_twisted_checked_mod_one(self):
        by_label = {e.label: e for e in weight_table_check()}
        entry = by_label["Mhat_t1_0[0]"]
        assert entry.recomputed is None
        assert entry.ok
        assert entry.table_value == F(1, 9)

    def test_report_lines(self):
        lines = [e.line() for e in weight_table_check()]
        assert len(lines) == 20
        assert all("PASS" in line for line in lines)
        # The exact text of all 20 lines, one per line.
        text = "".join(line + "\n" for line in lines)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c4aa6418ada1203896c5d63b33e8d2a460342cf98bfc2cf0580a5643ec87c504")


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
        # Imported here: test_acceptance imports this module.
        from test_acceptance import STILDE_PHASE_ERRATA, STILDE_SIGN_ERRATA
        assert positions == STILDE_SIGN_ERRATA | STILDE_PHASE_ERRATA
        order = [(i, j) for i, j, _, _ in diff]
        assert order == sorted(positions)
        derived, table = u_datum.stilde(), stilde_fixture()
        for i, j, x, y in diff:
            assert x == derived[i][j] and y == table[i][j]

    def test_diff_entries_embed_differently(self, u_datum):
        for i, j, derived, table in stilde_fixture_diff(u_datum)[:10]:
            assert abs(derived.embed() - table.embed()) > 1e-9


class TestLabelResolution:
    """The CLI's label names: a label, or a W-index alias of U's labels."""

    def test_w_aliases(self, u_datum):
        assert [_label(u_datum.ring, f"W{i}") for i in (0, 13, 19)] == [
            0, 13, 19]

    def test_structured_names(self, u_datum):
        assert _label(u_datum.ring, "M^1") == 7
        assert _label(u_datum.ring, "Mhat_t2_1[2]") == 19

    def test_unknown_label_raises(self, u_datum):
        with pytest.raises(KeyError, match="W-index 'W20' out of range"):
            _label(u_datum.ring, "W20")
        with pytest.raises(KeyError, match="unknown label 'nope'"):
            _label(u_datum.ring, "nope")

    def test_w_alias_only_for_u(self, vltau_datum):
        with pytest.raises(KeyError, match="unknown label 'W3'"):
            _label(vltau_datum.ring, "W3")
