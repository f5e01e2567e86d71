"""Lattices, dual cosets, exact minimal norms, and the order-3 isometry."""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusioncat import lattice
from fusioncat.lattice import (
    Coset,
    Lattice,
    alpha_to_beta,
    coset_L,
    coset_Zbeta1,
    dual_coset_reps,
    lattice_L,
    lattice_Zbeta1,
    min_norm,
    min_vectors,
    orbifold_decomposition,
    tau_action,
    tau_vector,
)
from fusioncat.lattice import _coset_vectors, _gauss_jordan

A3 = Lattice.from_rows([[2, 1, 1], [1, 2, 1], [1, 1, 2]])


class TestLattice:
    def test_rank2_gram(self):
        lat = lattice_L()
        assert lat.gram == ((4, -2), (-2, 4))     # a block of 2 B B^T
        assert lat.rank == 2
        assert lat.determinant() == 12
        assert lat.is_integral

    def test_rank1_gram(self):
        assert lattice_Zbeta1().gram == ((6,),)
        assert lattice_Zbeta1().determinant() == 6

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Lattice.from_rows([[1, 1], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="Gram matrix must be square"):
            Lattice.from_rows([[1, 0]])

    def test_coset_rejects_representative_of_wrong_length(self):
        with pytest.raises(ValueError, match="representative has wrong"):
            Coset.of(lattice_L(), [F(1, 2)])

    def test_rejects_indefinite(self):
        for rows in ([[1, 2], [2, 1]],     # indefinite
                     [[1, 1], [1, 1]],     # semidefinite: second pivot 0
                     [[0, 1], [1, 0]]):    # first pivot 0
            with pytest.raises(ValueError, match="positive definite"):
                Lattice.from_rows(rows)

    def test_norm_quadratic_form(self):
        lat = lattice_L()
        # Q(u, v) = 4u^2 - 4uv + 4v^2
        assert lat.norm((F(1), F(0))) == 4
        assert lat.norm((F(1), F(1))) == 4
        assert lat.norm((F(1, 2), F(0))) == 1


class TestDualCosets:
    def test_counts(self):
        assert len(dual_coset_reps(lattice_L())) == 12
        assert len(dual_coset_reps(lattice_Zbeta1())) == 6
        assert len(dual_coset_reps(Lattice.from_rows([[1, 0], [0, 1]]))) == 1

    def test_rank1_reps_are_sixths(self):
        reps = dual_coset_reps(lattice_Zbeta1())
        assert sorted(c.rep[0] for c in reps) == [F(k, 6) for k in range(6)]

    def test_named_cosets_cover_dual_quotient(self):
        named = {coset_L(i, j) for i in "0abc" for j in range(3)}
        assert named == set(dual_coset_reps(lattice_L()))

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            dual_coset_reps(Lattice.from_rows([[F(1, 2)]]))


class TestCosetArithmetic:
    def test_canonical_rep_in_unit_box(self):
        c = Coset.of(lattice_L(), (F(7, 6), F(-2, 3)))
        assert c.rep == (F(1, 6), F(1, 3))

    def test_add_example(self):
        # c-coset plus order-3 coset 1: rep (7/6, 1/3) reduces to (1/6, 1/3).
        total = coset_L("c", 0) + coset_L("0", 1)
        assert total == coset_L("c", 1)
        raw = (F(1, 2) + F(2, 3), F(0) + F(1, 3))
        assert Coset.of(lattice_L(), raw) == total

    def test_add_zero(self):
        zero = coset_L("0", 0)
        assert (zero + zero).is_zero

    def test_two_torsion(self):
        a = coset_L("a", 0)
        assert (a + a).is_zero

    def test_neg_inverse(self):
        for i in "0abc":
            for j in range(3):
                c = coset_L(i, j)
                assert (c + -c).is_zero

    def test_mismatched_lattices_rejected(self):
        with pytest.raises(ValueError):
            coset_L("0", 0) + coset_Zbeta1(0)


class TestMinNorm:
    def test_zero_coset(self):
        assert min_norm(coset_L("0", 0)) == 0

    def test_c_coset(self):
        assert min_norm(coset_L("c", 0)) == 1

    def test_c1_coset(self):
        assert min_norm(coset_L("c", 1)) == F(1, 3)
        assert min_norm(coset_L("c", 2)) == F(1, 3)

    def test_order3_cosets(self):
        assert min_norm(coset_L("0", 1)) == F(4, 3)
        assert min_norm(coset_L("0", 2)) == F(4, 3)

    def test_rank1_half_coset(self):
        assert min_norm(coset_Zbeta1(F(1, 2))) == F(3, 2)
        assert min_norm(coset_Zbeta1(F(1, 3))) == F(2, 3)

    def test_min_vectors_achieve_min(self):
        c = coset_L("c", 1)
        vecs = min_vectors(c)
        assert vecs
        assert all(c.lattice.norm(x) == F(1, 3) for x in vecs)

    def test_lattice_minimum_nonzero(self):
        vecs = min_vectors(coset_L("0", 0))
        assert all(lattice_L().norm(x) == 4 for x in vecs)
        assert len(vecs) == 6

    def test_norm_mod_two_constant_on_even_cosets(self):
        # weight = norm/2 is well defined mod 1 per coset.
        for i in "0abc":
            for j in range(3):
                c = coset_L(i, j)
                base = min_norm(c)
                for x in min_vectors(c):
                    shifted = tuple(a + b for a, b in zip(x, (F(1), F(-1))))
                    diff = lattice_L().norm(shifted) - base
                    assert diff % 2 == 0


class TestA3:
    # Gershgorin gives 2 - 1 - 1 = 0 on every row of this positive-definite
    # Gram matrix, so a Gershgorin box cannot be certified here.

    def test_quarter_coset_min_norm(self):
        assert min_norm(Coset.of(A3, [F(1, 4)] * 3)) == F(3, 4)

    def test_quarter_coset_min_vectors(self):
        vecs = min_vectors(Coset.of(A3, [F(1, 4)] * 3))
        q, m = F(1, 4), F(-3, 4)
        assert vecs == [(m, q, q), (q, m, q), (q, q, m), (q, q, q)]
        assert all(A3.norm(x) == F(3, 4) for x in vecs)

    def test_dual_cosets(self):
        # A3 = D3: the roots, the vector class and the two spinor classes.
        found = {c.rep: (min_norm(c), len(min_vectors(c)))
                 for c in dual_coset_reps(A3)}
        assert found == {
            (F(0), F(0), F(0)): (F(0), 12),
            (F(1, 4), F(1, 4), F(1, 4)): (F(3, 4), 4),
            (F(1, 2), F(1, 2), F(1, 2)): (F(1), 6),
            (F(3, 4), F(3, 4), F(3, 4)): (F(3, 4), 4),
        }

    def test_roots_are_minimal_nonzero_vectors(self):
        vecs = min_vectors(Coset.of(A3, [0, 0, 0]))
        assert len(vecs) == 12
        assert all(A3.norm(x) == 2 for x in vecs)
        assert set(vecs) == {tuple(-a for a in x) for x in vecs}


@st.composite
def short_vector_cases(draw):
    """(coset, cap) on Gram = B^T B for integer lower-triangular B."""
    r = draw(st.integers(1, 3))
    b = [[draw(st.integers(1, 2)) if i == j
          else draw(st.integers(-2, 2)) if j < i else 0
          for j in range(r)] for i in range(r)]
    gram = [[sum(b[k][i] * b[k][j] for k in range(r)) for j in range(r)]
            for i in range(r)]
    den = draw(st.sampled_from([1, 2, 3, 4, 6]))
    rep = [F(draw(st.integers(0, 12)), den) for _ in range(r)]
    cap = F(draw(st.integers(0, 12)), draw(st.sampled_from([1, 2, 3, 4])))
    return Coset.of(Lattice.from_rows(gram), rep), cap


@settings(max_examples=40, deadline=None)
@given(short_vector_cases())
def test_short_vectors_match_a_wider_search(case):
    c, cap = case
    inv = _gauss_jordan([list(row) for row in c.lattice.gram])[1]
    # Every x with <x,x> <= cap has |x_i| <= sqrt(cap inv_ii) < reach.
    reach = max(math.isqrt(math.floor(cap * inv[i][i])) + 2
                for i in range(c.lattice.rank))
    wide = []
    for offsets in itertools.product(range(-reach, reach + 1),
                                     repeat=c.lattice.rank):
        x = tuple(r + o for r, o in zip(c.rep, offsets))
        n = c.lattice.norm(x)
        if n <= cap:
            wide.append((x, n))
    assert _coset_vectors(c, cap) == wide


class TestTau:
    def test_order_three(self):
        for i in "0abc":
            for j in range(3):
                c = coset_L(i, j)
                assert tau_action(tau_action(tau_action(c))) == c

    def test_fixed_classes(self):
        fixed = {c for i in "0abc" for j in range(3)
                 if tau_action(c := coset_L(i, j)) == c}
        expected = {coset_L("0", j) for j in range(3)}
        assert fixed == expected

    def test_two_torsion_orbit(self):
        # a -> c -> b -> a on the order-2 letters.
        for j in range(3):
            assert tau_action(coset_L("a", j)) == coset_L("c", j)
            assert tau_action(coset_L("c", j)) == coset_L("b", j)
            assert tau_action(coset_L("b", j)) == coset_L("a", j)

    def test_preserves_norm(self):
        for i in "0abc":
            for j in range(3):
                c = coset_L(i, j)
                assert min_norm(tau_action(c)) == min_norm(c)

    def test_vector_action_is_isometry(self):
        x = (F(5, 6), F(1, 3))
        assert lattice_L().norm(tau_vector(x)) == lattice_L().norm(x)

    def test_wrong_lattice_rejected(self):
        with pytest.raises(ValueError):
            tau_action(coset_Zbeta1(0))


class TestDecomposition:
    def test_three_pieces(self):
        pieces = orbifold_decomposition()
        assert len(pieces) == 3
        assert pieces[0].rank1.is_zero and pieces[0].rank2.is_zero
        assert pieces[1].rank1.rep == (F(1, 3),)
        assert pieces[1].rank2 == coset_L("0", 1)
        assert pieces[2].rank1.rep == (F(2, 3),)
        assert pieces[2].rank2 == coset_L("0", 2)

    def test_piece_moved_out_of_the_alpha_lattice_is_refused(self,
                                                              monkeypatch):
        monkeypatch.setitem(lattice.THREE_PART_REPS, 1, (F(1, 3), F(2, 3)))
        with pytest.raises(AssertionError):
            orbifold_decomposition()

    def test_b1_not_orthogonal_to_l_is_refused(self, monkeypatch):
        # b3 = alpha_2: (b1, b3) = 2.
        monkeypatch.setattr(lattice, "_BETA", ((1, 1, 1), (1, -1, 0),
                                               (0, 1, 0)))
        with pytest.raises(AssertionError, match="not orthogonal"):
            orbifold_decomposition()

    def test_basis_of_index_6_is_refused(self, monkeypatch):
        # b2 = 2 (alpha_1 - alpha_2): still orthogonal to b1, det 288.
        monkeypatch.setattr(lattice, "_BETA", ((1, 1, 1), (2, -2, 0),
                                               (0, 1, -1)))
        with pytest.raises(AssertionError, match="index 3"):
            orbifold_decomposition()

    def test_alpha_to_beta_change_of_basis(self):
        assert alpha_to_beta((1, 0, 0)) == (F(1, 3), (F(2, 3), F(1, 3)))
        assert alpha_to_beta((0, 1, 0)) == (F(1, 3), (F(-1, 3), F(1, 3)))
        assert alpha_to_beta((0, 0, 1)) == (F(1, 3), (F(-1, 3), F(-2, 3)))
        # alpha^1 + alpha^2 + alpha^3 = beta_1
        assert alpha_to_beta((1, 1, 1)) == (F(1), (F(0), F(0)))
        # It inverts the basis: b_k maps to the k-th unit vector.
        for k, row in enumerate(lattice._BETA):
            unit = tuple(F(int(i == k)) for i in range(3))
            assert alpha_to_beta(row) == (unit[0], unit[1:])


@st.composite
def l_cosets(draw):
    i = draw(st.sampled_from("0abc"))
    j = draw(st.integers(0, 2))
    return coset_L(i, j)


@settings(max_examples=30, deadline=None)
@given(l_cosets(), l_cosets())
def test_coset_addition_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=30, deadline=None)
@given(l_cosets(), l_cosets())
def test_tau_is_additive(a, b):
    assert tau_action(a + b) == tau_action(a) + tau_action(b)
