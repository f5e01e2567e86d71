"""q-series: eta powers, coset thetas, characters, and exact qdim limits."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusioncat.lattice import (
    Coset,
    Lattice,
    coset_L,
    coset_Zbeta1,
    full_coset_pieces,
    orbifold_decomposition,
)
from fusioncat import qseries
from fusioncat.qseries import (
    QSeries,
    character,
    eta_inverse_power,
    qdim_limit,
    theta_coset,
)


class TestEta:
    def test_partition_coefficients(self):
        s = eta_inverse_power(1, 10)
        shift = -F(1, 24)
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        assert [s.coefficient(F(n) + shift) for n in range(9)] == expected

    def test_r_zero_is_one(self):
        s = eta_inverse_power(0, 5)
        assert s.coeffs == ((F(0), 1),)

    def test_r_two_convolution(self):
        s = eta_inverse_power(2, 10)
        shift = -F(2, 24)
        # (sum p(n) q^n)^2: coefficients 1, 2, 5, 10, 20, ...
        assert s.coefficient(F(0) + shift) == 1
        assert s.coefficient(F(1) + shift) == 2
        assert s.coefficient(F(2) + shift) == 5
        assert s.coefficient(F(3) + shift) == 10

    def test_leading_exponent(self):
        assert eta_inverse_power(3, 5).leading_exponent() == -F(1, 8)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            eta_inverse_power(-1, 5)

    def test_str_lists_terms_by_exponent(self):
        assert str(eta_inverse_power(1, 3)) == (
            "1*q^(-1/24) + 1*q^(23/24) + 2*q^(47/24) + 3*q^(71/24)")


class TestTheta:
    def test_rank1_zero_coset(self):
        s = theta_coset(coset_Zbeta1(0), 15)
        assert s.coefficient(0) == 1
        assert s.coefficient(3) == 2
        assert s.coefficient(12) == 2
        assert s.coefficient(1) == 0

    def test_rank1_half_coset(self):
        s = theta_coset(coset_Zbeta1(F(1, 2)), 10)
        assert s.leading_exponent() == F(3, 4)
        assert s.coefficient(F(3, 4)) == 2
        assert s.coefficient(F(27, 4)) == 2

    def test_zero_cutoff(self):
        assert theta_coset(coset_Zbeta1(0), 0).coeffs == ()

    def test_leading_exponent_is_half_min_norm(self):
        from fusioncat.lattice import min_norm
        for i in "0abc":
            for j in range(3):
                c = coset_L(i, j)
                s = theta_coset(c, 6)
                assert s.leading_exponent() == min_norm(c) / 2

    def test_coset_sum_equals_dual_lattice_theta(self):
        # The 12 named cosets are distinct, so the identity shows that they
        # are all of L*/L.
        named = [coset_L(i, j) for i in "0abc" for j in range(3)]
        assert len(set(named)) == 12
        cutoff = F(30)
        total = sum((theta_coset(c, cutoff) for c in named),
                    QSeries.zero(cutoff))
        dual = Lattice.from_rows([[F(1, 3), F(1, 6)], [F(1, 6), F(1, 3)]])
        direct = theta_coset(Coset.of(dual, [0, 0]), cutoff)
        assert total == direct

    def test_coefficients_nonnegative(self):
        s = theta_coset(coset_L("c", 1), 10)
        assert all(c > 0 for _, c in s.coeffs)


class TestCharacter:
    def _m_pieces(self, i):
        return [
            (coset_Zbeta1(F(i, 2)), coset_L("c", 0)),
            (coset_Zbeta1(F(3 * i + 2, 6)), coset_L("c", 1)),
            (coset_Zbeta1(F(3 * i + 4, 6)), coset_L("c", 2)),
        ]

    def test_m0_leading_exponent(self):
        ch = character(self._m_pieces(0), 3, 10)
        assert ch.leading_exponent() == F(1, 2) - F(1, 8)

    def test_m1_leading_exponent(self):
        ch = character(self._m_pieces(1), 3, 10)
        assert ch.leading_exponent() == F(1, 4) - F(1, 8)

    def test_vacuum_piece_leading_exponent(self):
        ch = character([(coset_Zbeta1(0), coset_L("0", 0))], 3, 10)
        assert ch.leading_exponent() == -F(1, 8)

    def test_coefficients_nonnegative_integers(self):
        ch = character(self._m_pieces(0), 3, 8)
        assert all(isinstance(c, int) and c > 0 for _, c in ch.coeffs)

    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("cutoff", [F(0), F(1, 8), F(1, 3), F(7, 2),
                                        F(100)])
    def test_equals_per_piece_sum(self, i, cutoff):
        # eta^-3 once on the summed thetas, against once per piece.
        pieces = full_coset_pieces(i)
        eta3 = eta_inverse_power(3, cutoff)
        expected = QSeries.zero(cutoff)
        for rank1, rank2 in pieces:
            term = theta_coset(rank1, cutoff) * theta_coset(rank2, cutoff)
            expected = expected + term * eta3
        got = character(pieces, 3, cutoff)
        assert got.coeffs == expected.coeffs
        assert got.truncation_order == expected.truncation_order


class TestSeriesAlgebra:
    def test_add_and_mul(self):
        a = QSeries.from_dict({F(0): 1, F(1): 2}, 5)
        b = QSeries.from_dict({F(1, 2): 3}, 5)
        assert (a + b).coefficient(F(1, 2)) == 3
        prod = a * b
        assert prod.coefficient(F(1, 2)) == 3
        assert prod.coefficient(F(3, 2)) == 6

    def test_mul_respects_truncation(self):
        a = QSeries.from_dict({F(0): 1, F(4): 1}, 5)
        prod = a * a
        # q^8 would exceed the provable window; it must be dropped.
        assert prod.truncation_order <= 9
        assert prod.coefficient(F(4)) == 2

    def test_zero_series_str(self):
        assert str(QSeries.zero(3)) == "0"

    def test_dump_lines_sorted(self):
        s = theta_coset(coset_Zbeta1(F(1, 2)), 10)
        lines = s.dump_lines()
        assert lines[0] == "3/4 2"


# -- reference algebra on Fraction-keyed dicts ---------------------------------

def ref_series(data, cutoff):
    """Sorted (exponent, coefficient) pairs below cutoff, zeros dropped."""
    return tuple(sorted((e, c) for e, c in data.items() if c and e < cutoff))


def ref_add(a, cut_a, b, cut_b):
    cutoff = min(cut_a, cut_b)
    data = {}
    for e, c in a + b:
        data[e] = data.get(e, 0) + c
    return ref_series(data, cutoff), cutoff


def ref_mul(a, cut_a, b, cut_b):
    lead_a = a[0][0] if a else F(0)
    lead_b = b[0][0] if b else F(0)
    cutoff = min(cut_a + lead_b, cut_b + lead_a)
    data = {}
    for e1, c1 in a:
        for e2, c2 in b:
            data[e1 + e2] = data.get(e1 + e2, 0) + c1 * c2
    return ref_series(data, cutoff), cutoff


def ref_denom(coeffs):
    return math.lcm(*(e.denominator for e, _ in coeffs))


# Denominators mix residue classes mod 1 of several orders; coefficients
# include 0, which a series must drop.
exponents = st.builds(F, st.integers(-40, 80), st.sampled_from([1, 2, 3, 4, 8, 9, 24]))
cutoffs = st.builds(F, st.integers(-24, 120), st.sampled_from([1, 2, 3, 8, 12]))
raw_series = st.tuples(
    st.dictionaries(exponents, st.integers(-4, 4), max_size=12), cutoffs)


def as_pair(raw):
    data, cutoff = raw
    return QSeries.from_dict(data, cutoff), ref_series(data, cutoff), cutoff


class TestAgainstReference:
    def check(self, series, coeffs, cutoff):
        assert series.coeffs == coeffs
        assert series.truncation_order == cutoff
        assert series.den == ref_denom(coeffs)
        assert series.dump_lines() == [
            f"{e.numerator}/{e.denominator} {c}" if e.denominator != 1
            else f"{e.numerator} {c}" for e, c in coeffs]

    @settings(max_examples=200, deadline=None)
    @given(raw_series)
    def test_from_dict(self, raw):
        self.check(*as_pair(raw))

    @settings(max_examples=200, deadline=None)
    @given(raw_series, raw_series)
    def test_add(self, raw_a, raw_b):
        a, ref_a, cut_a = as_pair(raw_a)
        b, ref_b, cut_b = as_pair(raw_b)
        self.check(a + b, *ref_add(ref_a, cut_a, ref_b, cut_b))

    @settings(max_examples=200, deadline=None)
    @given(raw_series, raw_series)
    def test_mul(self, raw_a, raw_b):
        a, ref_a, cut_a = as_pair(raw_a)
        b, ref_b, cut_b = as_pair(raw_b)
        self.check(a * b, *ref_mul(ref_a, cut_a, ref_b, cut_b))

    @settings(max_examples=200, deadline=None)
    @given(raw_series, exponents)
    def test_shift(self, raw, delta):
        a, ref_a, cutoff = as_pair(raw)
        self.check(a.shift(delta),
                   tuple((e + delta, c) for e, c in ref_a), cutoff + delta)

    @settings(max_examples=100, deadline=None)
    @given(raw_series)
    def test_zero_series(self, raw):
        a, ref_a, cutoff = as_pair(raw)
        zero = QSeries.zero(F(50))
        self.check(a + zero, *ref_add(ref_a, cutoff, (), F(50)))
        self.check(a * zero, *ref_mul(ref_a, cutoff, (), F(50)))
        self.check(zero * a, *ref_mul((), F(50), ref_a, cutoff))

    def test_cutoff_follows_leading_exponents(self):
        a = QSeries.from_dict({F(1, 3): 1, F(2): 1}, 10)
        b = QSeries.from_dict({F(-1, 8): 2, F(5, 8): 1}, F(7, 2))
        prod = a * b
        # min(10 + (-1/8), 7/2 + 1/3)
        assert prod.truncation_order == F(23, 6)
        assert prod.coeffs == ((F(5, 24), 2), (F(23, 24), 1),
                               (F(15, 8), 2), (F(21, 8), 1))

    def test_equal_series_from_different_denominators(self):
        a = QSeries.from_dict({F(1, 2): 1, F(3, 4): 2}, 5)
        b = QSeries.from_dict({F(1, 4): 2}, 5).shift(F(1, 2))
        c = QSeries.from_dict({F(1, 2): 1}, 5)
        assert c + b == a
        assert (a + a.shift(0)).coefficient(F(3, 4)) == 4
        assert a.shift(F(1, 4)).shift(F(-1, 4)) == a


# -- the Kronecker product kernel ---------------------------------------------

def naive_convolve(a, b, size):
    out = [0] * size
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < size:
                out[i + j] += x * y
    return out


# Values around byte and 64-bit boundaries, so slot widths cross them.
_EDGES = [0, 1, 255, 256, 2**64 - 1, 2**64, 2**130]
big_coeffs = st.one_of(st.sampled_from(_EDGES + [-x for x in _EDGES]),
                       st.integers(-2**130, 2**130))
coeff_lists = st.one_of(
    st.lists(big_coeffs, max_size=300),
    st.lists(st.sampled_from(_EDGES), max_size=300),
    st.lists(st.integers(0, 3), max_size=300))


class TestConvolve:
    @settings(max_examples=200, deadline=None)
    @given(coeff_lists, coeff_lists, st.integers(0, 650))
    def test_matches_naive(self, a, b, size):
        assert qseries._convolve(a, b, size) == naive_convolve(a, b, size)

    @pytest.mark.parametrize("x", _EDGES + [-2**130])
    def test_single_slot_edges(self, x):
        a = [x, -x, x, 0, x]
        assert qseries._convolve(a, a, 12) == naive_convolve(a, a, 12)

    def test_all_zero_operand(self):
        # The product bound is 0 here, yet 2^64 needs a wide slot.
        assert qseries._convolve([0, 0], [2**64, 256], 3) == [0, 0, 0]


dense_series = st.tuples(
    st.integers(-30, 30), st.sampled_from([1, 2, 3, 8, 24]),
    st.sampled_from([1, 2, 5]),
    st.lists(st.integers(-2**70, 2**70), min_size=2, max_size=80),
    st.integers(-10, 200))


def as_dense(raw):
    """Series with coefficient k at (start + step*k)/den, below cutoff."""
    start, den, step, cs, cut = raw
    data = {F(start + step * k, den): c for k, c in enumerate(cs)}
    cutoff = F(cut, den)
    return QSeries.from_dict(data, cutoff), ref_series(data, cutoff), cutoff


class TestDenseProduct:
    @settings(max_examples=100, deadline=None)
    @given(dense_series, dense_series)
    def test_matches_reference(self, raw_a, raw_b):
        a, ref_a, cut_a = as_dense(raw_a)
        b, ref_b, cut_b = as_dense(raw_b)
        prod = a * b
        coeffs, cutoff = ref_mul(ref_a, cut_a, ref_b, cut_b)
        assert prod.coeffs == coeffs
        assert prod.truncation_order == cutoff

    def test_characters_take_the_kernel(self, monkeypatch):
        calls = []
        kernel = qseries._convolve

        def spy(a, b, size):
            calls.append(size)
            return kernel(a, b, size)
        monkeypatch.setattr(qseries, "_convolve", spy)
        character(full_coset_pieces(0), 3, 30)
        # three theta products, the sum times eta^-3, eta^-3's two powers
        assert len(calls) == 6

    def test_dense_layout_stops_at_the_full_product(self, monkeypatch):
        # A cutoff of 1e9 must not pad the product out to 1e9 slots.
        sizes = []
        kernel = qseries._convolve

        def spy(a, b, size):
            sizes.append(size)
            # Refuse before the kernel pads a list out to `size`.
            assert size <= 3
            return kernel(a, b, size)
        monkeypatch.setattr(qseries, "_convolve", spy)
        s = QSeries.from_dict({F(0): 1, F(1): 1}, 10**9)
        square = s * s
        assert sizes == [3]
        assert square.coeffs == ((F(0), 1), (F(1), 2), (F(2), 1))
        assert square.truncation_order == 10**9

    def test_sparse_square_takes_the_pair_loop(self, monkeypatch):
        # Laid out densely this would be 2e9 slots: fail before building one.
        def refuse(*args):
            raise AssertionError("dense layout of a sparse series")
        monkeypatch.setattr(qseries, "_dense", refuse)
        s = QSeries.from_dict({F(0): 1, F(1): 1, F(10**9): 1}, 3 * 10**9)
        square = s * s
        assert square.coeffs == ((F(0), 1), (F(1), 2), (F(2), 1),
                                 (F(10**9), 2), (F(10**9 + 1), 2),
                                 (F(2 * 10**9), 1))


class TestQdimLimit:
    def test_trivial_ratio(self):
        x = [(coset_Zbeta1(0),)]
        assert qdim_limit(x, x) == 1

    def test_simple_current_ratio(self):
        assert qdim_limit([(coset_Zbeta1(F(1, 2)),)],
                          [(coset_Zbeta1(0),)]) == 1

    def test_c_coset_ratio(self):
        assert qdim_limit([(coset_L("c", 0),)], [(coset_L("0", 0),)]) == 1

    def test_mismatched_determinants_rejected(self):
        other = Coset.of(Lattice.from_rows([[2]]), [0])
        with pytest.raises(ValueError):
            qdim_limit([(coset_Zbeta1(0),)], [(other,)])

    def test_mismatched_ranks_rejected(self):
        with pytest.raises(ValueError):
            qdim_limit([(coset_Zbeta1(0), coset_L("0", 0))],
                       [(coset_L("0", 0),)])

    def test_truncated_series_agree_at_small_y(self):
        # A float cross-check of the exact limit: at y = 0.04 the dual-lattice
        # corrections are below e^{-pi/(2y)} ~ 1e-17 and the cut tail below
        # e^{-2 pi y 200} ~ 1e-22, relative.
        cutoff, y = 200, 0.04

        def value(pieces):
            series = sum((theta_coset(r1, cutoff) * theta_coset(r2, cutoff)
                          for r1, r2 in pieces), QSeries.zero(cutoff))
            return sum(c * math.exp(-2 * math.pi * y * n / series.den)
                       for n, c in series.terms)

        ratio = value(full_coset_pieces(0)) / value(orbifold_decomposition())
        limit = qdim_limit(full_coset_pieces(0), orbifold_decomposition())
        assert abs(ratio - limit) < 1e-6
