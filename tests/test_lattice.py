"""Lattices, the named dual cosets, exact minimal norms, and the order-3
isometry."""

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
    coset_L,
    coset_Zbeta1,
    min_norm,
    min_vectors,
    orbifold_decomposition,
    tau_vector,
)
from fusioncat.lattice import _coset_vectors, _gauss_jordan

A3 = Lattice.from_rows([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
L = coset_L("0", 0).lattice
NAMED = [coset_L(i, j) for i in "0abc" for j in range(3)]


def tau(c):
    """tau on the coset c of L."""
    return Coset.of(L, tau_vector(c.rep))


class TestLattice:
    def test_rank2_gram(self):
        assert L.gram == ((4, -2), (-2, 4))     # a block of 2 B B^T
        assert L.rank == 2
        assert L.determinant() == 12

    def test_rank1_gram(self):
        zb1 = coset_Zbeta1(0).lattice
        assert zb1.gram == ((6,),)
        assert zb1.determinant() == 6

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Lattice.from_rows([[1, 1], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="Gram matrix must be square"):
            Lattice.from_rows([[1, 0]])

    def test_coset_rejects_representative_of_wrong_length(self):
        with pytest.raises(ValueError, match="representative has wrong"):
            Coset.of(L, [F(1, 2)])

    def test_rejects_indefinite(self):
        for rows in ([[1, 2], [2, 1]],     # indefinite
                     [[1, 1], [1, 1]],     # semidefinite: second pivot 0
                     [[0, 1], [1, 0]]):    # first pivot 0
            with pytest.raises(ValueError, match="positive definite"):
                Lattice.from_rows(rows)

    def test_norm_quadratic_form(self):
        # Q(u, v) = 4u^2 - 4uv + 4v^2
        assert L.norm((F(1), F(0))) == 4
        assert L.norm((F(1), F(1))) == 4
        assert L.norm((F(1, 2), F(0))) == 1


class TestDualCosets:
    def test_named_cosets_cover_dual_quotient(self):
        # det L = 12 distinct classes, each in L* (G rep is integral):
        # together they are all of L*/L.
        assert len(set(NAMED)) == L.determinant() == 12
        assert all(sum(g * x for g, x in zip(row, c.rep)).denominator == 1
                   for c in NAMED for row in L.gram)


class TestCosetArithmetic:
    def test_canonical_rep_in_unit_box(self):
        c = Coset.of(L, (F(7, 6), F(-2, 3)))
        assert c.rep == (F(1, 6), F(1, 3))

    def test_add_example(self):
        # The label (c, 1) sums the c and order-3 representatives: the raw
        # rep (7/6, 1/3) reduces to (1/6, 1/3).
        raw = (F(1, 2) + F(2, 3), F(0) + F(1, 3))
        assert Coset.of(L, raw) == coset_L("c", 1)


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
        assert all(L.norm(x) == 4 for x in vecs)
        assert len(vecs) == 6

    def test_norm_mod_two_constant_on_even_cosets(self):
        # weight = norm/2 is well defined mod 1 per coset.
        for i in "0abc":
            for j in range(3):
                c = coset_L(i, j)
                base = min_norm(c)
                for x in min_vectors(c):
                    shifted = tuple(a + b for a, b in zip(x, (F(1), F(-1))))
                    diff = L.norm(shifted) - base
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
                 for c in (Coset.of(A3, [F(k, 4)] * 3) for k in range(4))}
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
        for c in NAMED:
            assert tau_vector(tau_vector(tau_vector(c.rep))) == c.rep

    def test_fixed_classes(self):
        fixed = {c for c in NAMED if tau(c) == c}
        expected = {coset_L("0", j) for j in range(3)}
        assert fixed == expected

    def test_two_torsion_orbit(self):
        # a -> c -> b -> a on the order-2 letters.
        for j in range(3):
            assert tau(coset_L("a", j)) == coset_L("c", j)
            assert tau(coset_L("c", j)) == coset_L("b", j)
            assert tau(coset_L("b", j)) == coset_L("a", j)

    def test_preserves_norm(self):
        for c in NAMED:
            assert min_norm(tau(c)) == min_norm(c)

    def test_vector_action_is_isometry(self):
        x = (F(5, 6), F(1, 3))
        assert L.norm(tau_vector(x)) == L.norm(x)


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


@st.composite
def l_cosets(draw):
    i = draw(st.sampled_from("0abc"))
    j = draw(st.integers(0, 2))
    return coset_L(i, j)


@settings(max_examples=30, deadline=None)
@given(l_cosets(), l_cosets())
def test_tau_is_additive(a, b):
    total = tuple(x + y for x, y in zip(a.rep, b.rep))
    assert tau_vector(total) == tuple(
        x + y for x, y in zip(tau_vector(a.rep), tau_vector(b.rep)))
