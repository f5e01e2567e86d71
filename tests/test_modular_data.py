"""Exact S/T matrices, Gauss sums, and the Verlinde round-trip."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusioncat.cyclotomic import (_CycArray, cyc_rational, cyc_root_of_unity,
                                  format_cyc, parse_cyc)
from fusioncat.fusion_ring import CheckReport, FusionRing
from fusioncat.modular_data import (GlobalDimensionError, ModularDatum,
                                    VerlindeError)
from reference import shifted_twist, stilde_conjugate_form


def trivial_datum() -> ModularDatum:
    ring = FusionRing(["1"], 0, {(0, 0, 0): 1})
    return ModularDatum(ring, {0: Fraction(0)}, {0: 1}, central_charge=0)


def z3_datum() -> ModularDatum:
    ring = FusionRing(["0", "1", "2"], 0,
                      {(i, j, (i + j) % 3): 1
                       for i in range(3) for j in range(3)})
    return ModularDatum(ring, {0: Fraction(0), 1: Fraction(1, 3),
                               2: Fraction(1, 3)},
                        {0: 1, 1: 1, 2: 1}, central_charge=2)


class TestScalars:
    def test_trivial_category(self):
        md = trivial_datum()
        assert md.global_dimension() == 1
        assert md.D == 1
        assert md.s_matrix()[0][0] == 1
        assert md.verify_modular().passed
        assert md.verlinde()[0, 0, 0] == 1

    def test_global_dimension_u(self, u_datum):
        assert u_datum.global_dimension() == 72
        assert u_datum.D * u_datum.D == 72
        assert u_datum.D == 6 * (cyc_root_of_unity(1, 8)
                                 + cyc_root_of_unity(-1, 8))

    def test_global_dimension_vltau(self, vltau_datum):
        assert vltau_datum.global_dimension() == 108

    def test_theta_values(self, u_datum):
        # T_ii = theta_i e(-c/24), with c = 3 for U.
        t = u_datum.t_matrix()
        assert t[0] == cyc_root_of_unity(-1, 8)
        assert t[13] == cyc_root_of_unity(7, 36) * cyc_root_of_unity(-1, 8)

    def test_gauss_sums_u(self, u_datum):
        plus, minus = u_datum.gauss_sums()
        assert plus * minus == 72
        # p+/p- = e^{2 pi i c/4} with c = 3: ratio is -i.
        assert plus == cyc_root_of_unity(3, 4) * minus

    def test_infer_central_charge(self, u_datum, vltau_datum):
        assert u_datum.infer_central_charge_mod8() == 3
        assert vltau_datum.infer_central_charge_mod8() == 2

    def test_missing_d_is_computed_once(self, monkeypatch):
        # Z2 with dims 1, 2 and twist 1/4: p+ = 1 + 4i, and D^2 = 5.
        ring = FusionRing(["a", "b"], 0, {(i, j, (i + j) % 2): 1
                                          for i in range(2) for j in range(2)})
        md = ModularDatum(ring, {0: 0, 1: Fraction(1, 4)}, {0: 1, 1: 2})
        assert md.infer_central_charge_mod8() is None
        monkeypatch.setattr(md, "gauss_sums",
                            lambda: pytest.fail("Gauss sums recomputed"))
        assert md.infer_central_charge_mod8() is None


class TestStilde:
    def test_corner_entries(self, u_datum):
        st = u_datum.stilde()
        assert st[0][0] == 1
        assert st[0][6] == 3
        assert st[6][7] == -3
        assert st[8][0] == 2

    def test_twisted_diagonal_entry(self, u_datum):
        # The transcribed table prints -2e(4/9) = 2e(-2/9)+2e(1/9) = 2e(17/18)
        # here, a single term like the derived 2e(5/18) but e(2/3) times it:
        # (8,8) lies in a twisted diagonal block, which the printed table
        # carries a phase off (criterion 1 in test_acceptance.py).
        st = u_datum.stilde()
        assert st[8][8] == cyc_rational(2) * cyc_root_of_unity(5, 18)
        from fusioncat.paper import stilde_fixture
        table = stilde_fixture()
        assert table[8][8] == (cyc_rational(2) * cyc_root_of_unity(-2, 9)
                               + cyc_rational(2) * cyc_root_of_unity(1, 9))

    def test_conjugate_form_matches(self, u_datum):
        assert u_datum.stilde() == stilde_conjugate_form(u_datum)

    def test_conjugate_form_matches_vltau(self, vltau_datum):
        assert vltau_datum.stilde() == stilde_conjugate_form(vltau_datum)

    def test_first_row_is_dims(self, u_datum):
        st = u_datum.stilde()
        for i in range(20):
            assert st[0][i] == u_datum.dims[i]


@pytest.mark.parametrize("matrix", ["stilde", "s_matrix"])
@pytest.mark.parametrize("catalog", ["u_datum", "vltau_datum"])
def test_text_follows_value(catalog, matrix, request):
    # Two entries print the same text exactly when they are equal.
    md = request.getfixturevalue(catalog)
    texts: dict[str, object] = {}
    for row in getattr(md, matrix)():
        for x in row:
            assert x == texts.setdefault(format_cyc(x), x)
    assert all(a != b for a, b in itertools.combinations(texts.values(), 2))


# Dims at orders 1, 3, 4 and 8; all but the last square to rationals.
_DIMS = ["1", "-1", "e(1/4)", "e(1/8)-e(3/8)", "e(1/3)-e(2/3)", "3/2",
         "e(1/3)"]


def shuffled_cyclic_ring(n: int, rng: random.Random
                         ) -> tuple[FusionRing, list[int], dict[int, int]]:
    """The group ring of Z_n in shuffled label order: (ring, values, index),
    with values[i] the element at label i and index its inverse."""
    values = list(range(n))
    rng.shuffle(values)
    index = {x: i for i, x in enumerate(values)}
    ring = FusionRing([f"g{x}" for x in values], index[0],
                      {(index[x], index[y], index[(x + y) % n]): 1
                       for x in values for y in values})
    return ring, values, index


def shifted_pointed_datum(n: int, seed: int) -> ModularDatum:
    """Pointed Z_n in shuffled label order with twists a x^2/n, the twists
    of some pairs {x, -x} shifted by p/q (q | 12), and dims from _DIMS.

    The twists stay dual-invariant (theta_x = theta_-x); the dims need not
    be.  The conductor divides lcm(n, 24).
    """
    rng = random.Random(seed)
    ring, values, index = shuffled_cyclic_ring(n, rng)
    a = rng.randrange(1, 2 * n)
    twists = {index[x]: Fraction(a * x * x, n) for x in values}
    for x in rng.sample(values, rng.randrange(n + 1)):
        shift = Fraction(rng.randrange(1, 12), rng.choice([2, 3, 4, 6, 12]))
        for y in {x, -x % n}:
            twists[index[y]] += shift
    dims = {i: parse_cyc(rng.choice(_DIMS)) for i in range(n)}
    return ModularDatum(ring, twists, dims)


def conjugate_form_reference(md: ModularDatum) -> list[list]:
    """s~ through the scalar `stilde_conjugate_form`: for dual-invariant
    twists, s~_{i,j} of (theta, d) is the conjugate form of (theta^-1, d)
    at (i*, j)."""
    mirror = ModularDatum(md.ring, {i: -t for i, t in enumerate(md.twists)},
                          dict(enumerate(md.dims)))
    rows = stilde_conjugate_form(mirror)
    return [rows[i] for i in md.ring.dual_vector()]


def at_minimal_order(x) -> bool:
    """No proper divisor d of x.order has every sigma_k with k = 1 mod d
    fix x, so x lies in no smaller Q(zeta_d)."""
    n = x.order
    units = [k for k in range(2, n) if math.gcd(k, n) == 1]
    return not any(all(x._galois(k) == x for k in units if (k - 1) % d == 0)
                   for d in range(1, n) if n % d == 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10**6))
def test_stilde_arrays_match_conjugate_form(n, seed):
    md = shifted_pointed_datum(n, seed)
    expect = conjugate_form_reference(md)
    array = md._stilde()
    stilde = md.stilde()
    for i in range(n):
        for j in range(n):
            assert array[i, j] == expect[i][j]
            assert stilde[i][j] == expect[i][j]
            assert at_minimal_order(stilde[i][j])

    if md.infer_central_charge_mod8() is None:
        with pytest.raises(GlobalDimensionError):
            md.s_matrix()
        return
    s_matrix = md.s_matrix()
    for i in range(n):
        for j in range(n):
            assert s_matrix[i][j] * md.D == expect[i][j]
            assert at_minimal_order(s_matrix[i][j])


def test_stilde_past_int64_matches_conjugate_form():
    # Dims near 2^61 push the contraction and the shifts onto Python ints.
    small = shifted_pointed_datum(7, 3)
    dims = {i: d * cyc_rational(2**61 + i) for i, d in enumerate(small.dims)}
    md = ModularDatum(small.ring, dict(enumerate(small.twists)), dims)
    assert md._stilde().num.dtype == object
    assert md.stilde() == conjugate_form_reference(md)
    plus = sum((d * d * cyc_root_of_unity(*md.twists[i].as_integer_ratio())
                for i, d in dims.items()), cyc_rational(0))
    assert md.gauss_sums()[0] == plus


def pointed_modular_datum(n: int, a: int, seed: int = 0) -> ModularDatum:
    """Pointed Z_n in shuffled label order with dims 1 and twists a x^2/n:
    modular for odd n and gcd(2a, n) = 1, with D^2 = n."""
    ring, values, index = shuffled_cyclic_ring(n, random.Random(seed))
    return ModularDatum(ring, {index[x]: Fraction(a * x * x, n)
                               for x in values}, {i: 1 for i in range(n)})


@st.composite
def odd_modulus_and_unit(draw) -> tuple[int, int]:
    n = draw(st.sampled_from(range(3, 26, 2)))
    return n, draw(st.sampled_from([a for a in range(1, n)
                                    if math.gcd(2 * a, n) == 1]))


@settings(max_examples=25, deadline=None)
@given(odd_modulus_and_unit(), st.integers(0, 10**6))
def test_pointed_modular_data_have_d_and_s(n_and_a, seed):
    n, a = n_and_a
    md = pointed_modular_datum(n, a, seed)
    D = md.D
    assert D * D == n
    assert D == D.conj()
    assert D.embed().real > 0
    s_matrix, stilde = md.s_matrix(), md.stilde()
    for i in range(n):
        for j in range(n):
            assert s_matrix[i][j] * D == stilde[i][j]
            assert at_minimal_order(s_matrix[i][j])
    assert md.verify_modular().passed


@pytest.mark.parametrize("name,field", [
    ("U", 72), ("VLtau", 36), ("Z11", 44), ("Z13", 13), ("Z15", 60),
    ("Z17", 17)])
def test_s_field(name, field, request):
    # Z13 with a = 2 and Z17 with a = 3 have c = 4: e(c/8) = -1 is -e(0),
    # so D stays at order 13 and 17, not 26 and 34.
    md = (request.getfixturevalue(f"{name.lower()}_datum") if name[0] != "Z"
          else pointed_modular_datum(int(name[1:]),
                                     {"Z13": 2, "Z17": 3}.get(name, 1)))
    assert math.lcm(md._conductor(), md.D.order) == field


def fibonacci_datum() -> ModularDatum:
    ring = FusionRing(["1", "t"], 0, {(0, 0, 0): 1, (0, 1, 1): 1,
                                      (1, 0, 1): 1, (1, 1, 0): 1,
                                      (1, 1, 1): 1})
    return ModularDatum(ring, {0: Fraction(0), 1: Fraction(2, 5)},
                        {0: 1, 1: parse_cyc("-e(2/5)-e(3/5)")},
                        central_charge=Fraction(14, 5))


def test_fibonacci_d_against_t():
    # D^2 = 2-e(2/5)-e(3/5) is irrational; with T_ii = e(h_i - c/24), S =
    # s~/D satisfies (ST)^3 = S^2 exactly only for the right D and c.
    md = fibonacci_datum()
    assert md.infer_central_charge_mod8() == Fraction(14, 5)
    D = md.D
    assert D * D == md.global_dimension() == parse_cyc("2-e(2/5)-e(3/5)")
    assert D == D.conj()

    def matmul(a, b):
        return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
                for i in range(2)]
    s, t = md.s_matrix(), md.t_matrix()
    st = [[s[i][j] * t[j] for j in range(2)] for i in range(2)]
    assert matmul(matmul(st, st), st) == matmul(s, s)
    assert md.verify_modular().passed
    assert np.array_equal(md.verlinde(), md.ring.tensor)


@pytest.mark.parametrize("make", [fibonacci_datum, z3_datum])
def test_dims_squared_once(make, monkeypatch):
    # D^2 and both Gauss sums read one array of squares at the conductor L.
    md = make()
    n = md.ring.rank
    squarings = []
    mul = _CycArray.__mul__

    def spy(a, b):
        if a is b and a.num.shape[:-1] == (n,):
            squarings.append(a)
        return mul(a, b)
    monkeypatch.setattr(_CycArray, "__mul__", spy)
    assert md.infer_central_charge_mod8() == md.central_charge
    assert md.verify_modular().passed
    md.s_matrix()
    md.verlinde()
    assert len(squarings) == 1


class TestVerification:
    def test_u_passes(self, u_datum):
        report = u_datum.verify_modular()
        assert report.passed, report.failures
        assert dict(report.checks())["Gauss ratio e^(2 pi i c/4)"] is True

    def test_vltau_passes(self, vltau_datum):
        assert vltau_datum.verify_modular().passed

    def test_z3_passes(self):
        assert z3_datum().verify_modular().passed

    def test_perturbed_twist_fails(self):
        md = shifted_twist(z3_datum(), 1, Fraction(1, 9))
        report = md.verify_modular()
        assert not report.passed
        assert dict(report.checks())["S^2 = charge conjugation"] is False

    def test_every_label_needs_a_dim(self):
        ring = z3_datum().ring
        with pytest.raises(ValueError, match="a dim is required for every"):
            ModularDatum(ring, {i: Fraction(0) for i in range(3)}, {0: 1, 1: 1})

    def test_report_lines_mention_failures(self):
        md = shifted_twist(z3_datum(), 1, Fraction(1, 9))
        lines = md.verify_modular().lines()
        assert any("FAIL" in line for line in lines)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["violation", "detail"]),
       st.lists(st.text("S^2=ab ", min_size=1, max_size=12), min_size=1,
                max_size=8, unique=True),
       st.data())
def test_report_lists_failures_in_row_order(note, labels, data):
    """Each row's outcome True, None or a failure text: the check lines and
    `failures` follow the row order, in one column past the longest label."""
    outcomes = [(label, data.draw(st.sampled_from([True, None,
                                                    f"{label} text"])))
                for label in labels]
    report = CheckReport(note, outcomes)
    failed = [ok for _, ok in outcomes if isinstance(ok, str)]
    assert report.failures == tuple(failed)
    assert report.passed == (not failed)
    assert report.checks() == [(label, False if isinstance(ok, str) else ok)
                               for label, ok in outcomes]
    marks = {True: "PASS", None: "SKIP"}
    width = max(map(len, labels)) + 2
    assert report.lines() == [
        label.ljust(width) + marks.get(ok, "FAIL") for label, ok in outcomes
    ] + [f"  {note}: {text}" for text in failed]


class TestTMatrix:
    def test_u_diagonal(self, u_datum):
        t = u_datum.t_matrix()
        assert t[0] == cyc_root_of_unity(-1, 8)  # 0 - 3/24
        assert t[8] == cyc_root_of_unity(*((Fraction(1, 9)
                                            - Fraction(1, 8)).as_integer_ratio()))

    def test_requires_central_charge(self):
        ring = FusionRing(["1"], 0, {(0, 0, 0): 1})
        md = ModularDatum(ring, {0: Fraction(0)}, {0: 1})
        with pytest.raises(ValueError,
                           match="central charge required for the T matrix"):
            md.t_matrix()

    @pytest.mark.parametrize("c,holds", [(4, False), (Fraction(7, 2), False),
                                         (11, True), (-5, True)])
    def test_st_relation_reads_c_mod_8(self, u_datum, c, holds):
        # (ST)^3 = e^{2 pi i (3 - c)/8} S^2 on U's ring, twists and dims:
        # it holds exactly when p+ = D e(c/8).
        plus, _ = u_datum.gauss_sums()
        phase = cyc_root_of_unity(*(Fraction(c) / 8).as_integer_ratio())
        assert (plus == u_datum.D * phase) is holds


class TestVerlinde:
    def test_round_trip_z3(self):
        md = z3_datum()
        assert np.array_equal(md.verlinde(), md.ring.tensor)

    def test_round_trip_u(self, u_datum):
        assert np.array_equal(u_datum.verlinde(), u_datum.ring.tensor)

    def test_round_trip_vltau(self, vltau_datum):
        assert np.array_equal(vltau_datum.verlinde(), vltau_datum.ring.tensor)

    def test_unverified_datum_refused(self):
        md = shifted_twist(z3_datum(), 1, Fraction(1, 9))
        with pytest.raises(VerlindeError):
            md.verlinde()

    def test_zero_dim_is_named(self):
        ring = FusionRing(["1", "g"], 0, {(i, j, (i + j) % 2): 1
                                          for i in range(2) for j in range(2)})
        md = ModularDatum(ring, {0: Fraction(0), 1: Fraction(1, 4)},
                          {0: 1, 1: 0})
        assert md.verify_modular().passed
        with pytest.raises(VerlindeError, match="label 'g', which is 0"):
            md.verlinde()

    def test_values_past_int64(self):
        # One factor on every dim cancels in s~ s~ conj(s~) / (d D^2); 2^61
        # puts the values and their denominator past int64.
        small = pointed_modular_datum(7, 1)
        md = ModularDatum(small.ring, dict(enumerate(small.twists)),
                          {i: d * cyc_rational(2**61)
                           for i, d in enumerate(small.dims)})
        assert md._stilde().num.dtype == object
        assert np.array_equal(md.verlinde(require_verified=False),
                              md.ring.tensor)

    def test_non_integer_value_past_int64_is_exact(self):
        # Z2 with dims 1 and 10^12, D^2 = 1 + 10^24:
        # N_11^1 = (10^36 - 10^-12) / (1 + 10^24) = (10^24 - 1) / 10^12.
        ring = FusionRing(["1", "g"], 0, {(i, j, (i + j) % 2): 1
                                          for i in range(2) for j in range(2)})
        md = ModularDatum(ring, {0: Fraction(0), 1: Fraction(1, 4)},
                          {0: 1, 1: 10**12})
        with pytest.raises(VerlindeError) as caught:
            md.verlinde(require_verified=False)
        assert str(caught.value) == (
            f"non-integer Verlinde value {Fraction(10**24 - 1, 10**12)} "
            "at (1,1,1)")

    def test_force_on_broken_datum_raises_or_disagrees(self):
        md = shifted_twist(z3_datum(), 1, Fraction(1, 9))
        try:
            tensor = md.verlinde(require_verified=False)
        except VerlindeError:
            return
        assert not np.array_equal(tensor, md.ring.tensor)


class TestConstruction:
    def test_missing_twist_rejected(self):
        ring = FusionRing(["1"], 0, {(0, 0, 0): 1})
        with pytest.raises(ValueError):
            ModularDatum(ring, {}, {0: 1})

    def test_invalid_ring_rejected(self):
        ring = FusionRing(["1", "t"], 0, {(0, 0, 0): 1, (1, 1, 0): 1})
        with pytest.raises(ValueError):
            ModularDatum(ring, {0: Fraction(0), 1: Fraction(0)},
                         {0: 1, 1: 1})
