"""Fusion-ring axioms, quantum dimensions, and the FCAT text format."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusioncat.cyclotomic import OrderCapExceeded
from fusioncat.fcat import FcatDocument, FcatError, emit_fcat, parse_fcat
from fusioncat.fusion_ring import FusionRing, first_violation


def fibonacci_ring() -> FusionRing:
    constants = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                 (1, 1, 0): 1, (1, 1, 1): 1}
    return FusionRing(["1", "t"], 0, constants)


def z_n_ring(n: int) -> FusionRing:
    constants = {(i, j, (i + j) % n): 1 for i in range(n) for j in range(n)}
    return FusionRing([str(i) for i in range(n)], 0, constants)


class TestValidation:
    def test_fibonacci_is_valid(self):
        report = fibonacci_ring().validate()
        assert report.passed
        assert report.lines()[0].endswith("PASS")

    def test_broken_unit_detected(self):
        ring = FusionRing(["1", "t"], 0, {(0, 0, 0): 1, (1, 1, 0): 1})
        report = ring.validate()
        assert dict(report.checks())["unit law"] is False
        assert not report.passed
        assert any("unit" in f for f in report.failures)

    def test_broken_right_unit_is_named(self):
        # Z2 with N[1,0]^0 = 1: the unit row is right, the unit column not.
        ring = FusionRing(["1", "g"], 0, {(0, 0, 0): 1, (0, 1, 1): 1,
                                          (1, 0, 1): 1, (1, 0, 0): 1,
                                          (1, 1, 0): 1})
        report = ring.validate()
        assert dict(report.checks())["unit law"] is False
        assert "  violation: unit: N[1,unit]^0 = 1" in report.lines()

    def test_broken_associativity_detected(self):
        # Klein-four group ring with one product corrupted: b*c = b
        # instead of a, so (a*b)*c = c*c = 1 but a*(b*c) = a*b = c.
        constants = {}
        table = {(1, 2): 3, (1, 3): 2, (2, 3): 1,
                 (1, 1): 0, (2, 2): 0, (3, 3): 0}
        for (i, j), k in table.items():
            constants[(i, j, k)] = 1
            constants[(j, i, k)] = 1
        for i in range(4):
            constants[(0, i, i)] = 1
            constants[(i, 0, i)] = 1
        constants[(0, 0, 0)] = 1
        del constants[(2, 3, 1)], constants[(3, 2, 1)]
        constants[(2, 3, 2)] = constants[(3, 2, 2)] = 1
        ring = FusionRing(["1", "a", "b", "c"], 0, constants)
        report = ring.validate()
        assert dict(report.checks())["associativity"] is False
        assert not report.passed
        # The first failing quadruple in row-major (i, j, k, l) order.
        assert report.failures == (
            "associativity: quadruple (1,2,2,1) 0 != 1",)

    def test_noncommutative_detected(self):
        constants = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                     (1, 1, 0): 1, (1, 1, 1): 1, (1, 1, 0): 1}
        constants[(1, 0, 1)] = 1
        # break commutativity explicitly: N[0,1]^1 = 1 but N[1,0]^1 = 2
        constants[(1, 0, 1)] = 2
        ring = FusionRing(["1", "t"], 0, constants)
        report = ring.validate()
        assert dict(report.checks())["commutativity"] is False

    def test_duality_failure_detected(self):
        # Rank 3 where label 1 never reaches the unit.
        constants = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                     (0, 2, 2): 1, (2, 0, 2): 1,
                     (1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1,
                     (2, 2, 0): 1}
        ring = FusionRing(["1", "a", "b"], 0, constants)
        report = ring.validate()
        assert dict(report.checks())["duality uniqueness"] is False

    def test_supplied_dual_cross_checked(self):
        ring = FusionRing(["0", "1", "2"], 0,
                          {(i, j, (i + j) % 3): 1
                           for i in range(3) for j in range(3)},
                          supplied_dual={0: 0, 1: 1, 2: 2})  # wrong: 1' = 2
        assert dict(ring.validate().checks())["duality uniqueness"] is False

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            FusionRing(["1"], 0, {(0, 0, 0): -1})

    def test_constant_past_int64_rejected(self):
        FusionRing(["1"], 0, {(0, 0, 0): 2**63 - 1})
        with pytest.raises(ValueError, match="exceeds 2\\^63 - 1"):
            FusionRing(["1"], 0, {(0, 0, 0): 2**63})

    def test_rank_above_bound_refused_before_the_tensor(self, monkeypatch):
        requested = []
        zeros = np.zeros

        def spy(shape, *args, **kwargs):
            requested.append(shape)
            return zeros(shape, *args, **kwargs)
        monkeypatch.setattr(np, "zeros", spy)
        FusionRing(["1"], 0, {(0, 0, 0): 1})
        assert requested == [(1, 1, 1)]
        labels = [str(i) for i in range(FusionRing.MAX_RANK + 1)]
        with pytest.raises(ValueError,
                           match="rank 513 exceeds the rank bound 512"):
            FusionRing(labels, 0, {})
        assert requested == [(1, 1, 1)]

    def test_associativity_temporaries_below_3x_tensor(self):
        ring = z_n_ring(80)
        tracemalloc.start()
        try:
            assert ring.validate().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * ring.tensor.nbytes

    def test_associativity_defect_past_first_block(self):
        # At rank 80 a block holds 2^18 // 80^2 = 40 labels j.
        n = 80
        constants = {(i, j, (i + j) % n): 1 for i in range(n) for j in range(n)}
        constants[70, 75, 2] = constants[75, 70, 2] = 2
        ring = FusionRing([str(i) for i in range(n)], 0, constants)
        t = ring.tensor
        for i in range(n):      # one label at a time, in row-major order
            left = np.tensordot(t[i], t, axes=1)
            right = np.tensordot(t, t[i], axes=1)
            bad = np.argwhere(left != right)
            if len(bad):
                j, k, l = bad[0]
                break
        assert j >= 40
        assert ring.validate().failures == (
            f"associativity: quadruple ({i},{j},{k},{l}) "
            f"{left[j, k, l]} != {right[j, k, l]}",)

    def test_first_violation_names_first_entry_in_row_major_order(self):
        mask = np.zeros((2, 3), dtype=bool)
        assert first_violation(mask, "{},{}".format) is True
        mask[1, 0] = mask[0, 2] = True
        assert first_violation(mask, "{},{}".format) == "0,2"
        assert first_violation(mask.T, "{},{}".format) == "0,1"

    def test_catalog_rings_valid(self, u_datum, vltau_datum):
        assert u_datum.ring.validate().passed
        assert vltau_datum.ring.validate().passed


@st.composite
def structure_tensors(draw):
    """Any non-negative (n, n, n) tensor, sometimes with entries near 2^31,
    where n max(N)^2 passes 2^53 and associativity runs on Python ints."""
    n = draw(st.integers(1, 4))
    big = draw(st.booleans())
    entry = st.integers(0, 2) | (st.integers(2**30, 2**31) if big
                                 else st.integers(0, 5))
    return n, draw(st.lists(entry, min_size=n ** 3, max_size=n ** 3))


@settings(max_examples=60, deadline=None)
@given(structure_tensors())
def test_associativity_failure_names_first_quadruple(data):
    n, flat = data
    N = [[flat[n * n * i + n * j:n * n * i + n * j + n] for j in range(n)]
         for i in range(n)]
    expect = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    a = sum(N[i][j][m] * N[m][k][l] for m in range(n))
                    b = sum(N[j][k][m] * N[i][m][l] for m in range(n))
                    if expect is None and a != b:
                        expect = (f"associativity: quadruple "
                                  f"({i},{j},{k},{l}) {a} != {b}")
    ring = FusionRing([str(i) for i in range(n)], 0,
                      {(i, j, k): N[i][j][k] for i in range(n)
                       for j in range(n) for k in range(n)})
    report = ring.validate()
    found = [f for f in report.failures if f.startswith("associativity")]
    assert dict(report.checks())["associativity"] is (expect is None)
    assert found == ([] if expect is None else [expect])


@settings(max_examples=100, deadline=None)
@given(structure_tensors(),
       st.dictionaries(st.integers(0, 3), st.integers(0, 3)))
def test_duality_matches_a_scan_of_each_unit_row(data, supplied):
    n, flat = data
    N = [[flat[n * n * i + n * j:n * n * i + n * j + n] for j in range(n)]
         for i in range(n)]
    supplied = {i: d for i, d in supplied.items() if i < n and d < n}
    rows = [[j for j in range(n) if N[i][j][0]] for i in range(n)]
    expect = [f"duality: label {i} has no unique dual"
              for i, row in enumerate(rows)
              if len(row) != 1 or N[i][row[0]][0] != 1]
    if not expect:
        expect = [f"duality: supplied dual({i}) disagrees with unit row"
                  for i, d in sorted(supplied.items()) if d != rows[i][0]]
    ring = FusionRing([str(i) for i in range(n)], 0,
                      {(i, j, k): N[i][j][k] for i in range(n)
                       for j in range(n) for k in range(n)}, supplied)
    report = ring.validate()
    found = [f for f in report.failures if f.startswith("duality")]
    assert dict(report.checks())["duality uniqueness"] == (not expect)
    assert found == expect[:1]
    if report.passed:
        assert ring.dual_vector() == tuple(row[0] for row in rows)


class TestOperations:
    def test_fibonacci_qdim_golden_ratio(self):
        phi = fibonacci_ring().qdim_pf(1)
        assert abs(phi - 1.6180339887498949) < 1e-10

    def test_unit_qdim_is_one(self):
        assert fibonacci_ring().qdim_pf(0) == pytest.approx(1.0, abs=1e-12)

    def test_duals_of_cyclic_ring(self):
        ring = z_n_ring(5)
        assert ring.dual_vector() == (0, 4, 3, 2, 1)

    def test_fuse_is_the_tensor_row(self):
        ring = fibonacci_ring()
        assert ring.fuse(1, 1) == {0: 1, 1: 1}
        assert ring.fuse(0, 1) == {1: 1}
        z5 = z_n_ring(5)
        assert [z5.fuse(3, b) for b in range(5)] == [
            {(3 + b) % 5: 1} for b in range(5)]

    def test_fuse_rejects_label_index_out_of_range(self):
        # numpy would read -1 as the last label
        ring = fibonacci_ring()
        for i in (-1, ring.rank):
            for a, b in ((i, 0), (0, i)):
                with pytest.raises(KeyError,
                                   match=f"label index {i} out of range"):
                    ring.fuse(a, b)

    def test_repr_and_equality(self):
        ring = FusionRing(["a"], 0, {(0, 0, 0): 1})
        assert repr(ring) == "FusionRing(rank=1, unit='a')"
        assert (ring == 3) is False
        assert ring == FusionRing(["a"], 0, {(0, 0, 0): 1})
        assert ring != FusionRing(["b"], 0, {(0, 0, 0): 1})

    def test_simple_currents_cyclic(self):
        # The simple currents are the labels of quantum dimension 1.
        for ring, currents in ((z_n_ring(4), {0, 1, 2, 3}),
                               (fibonacci_ring(), {0})):
            assert {i for i in range(ring.rank)
                    if ring.qdim_pf(i) == pytest.approx(1)} == currents

    def test_simple_current_fusion_is_bijective(self, u_datum):
        ring = u_datum.ring
        for s in range(6):
            mat = ring.tensor[s]
            assert (mat.sum(axis=0) == 1).all()
            assert (mat.sum(axis=1) == 1).all()

    def test_fusion_symmetries(self, u_datum):
        """N_{i,j}^k = N_{j,i}^k and N_{i,j}^k = N_{i,k'}^{j'}."""
        ring = u_datum.ring
        t = ring.tensor
        dual = ring.dual_vector()
        assert np.array_equal(t, t.transpose(1, 0, 2))
        n = ring.rank
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert t[i, j, k] == t[i, dual[k], dual[j]]


SAMPLE_FCAT = """
# sample file
category fib
label 0 unit
label 1 tau
unit 0
N 0 0 0 1
N 0 1 1 1
N 1 0 1 1
N 1 1 0 1
N 1 1 1 1
twist 1 2/5
dim 1 1
dim 0 1
twist 0 0/1
"""


class TestFcat:
    def test_parse_sample(self):
        doc = parse_fcat(SAMPLE_FCAT)
        assert doc.name == "fib"
        assert doc.ring.labels == ("unit", "tau")
        assert doc.ring.validate().passed
        assert doc.twists[1] == Fraction(2, 5)
        assert doc.has_modular_annotations

    def test_unknown_directive_errors_with_line(self):
        with pytest.raises(FcatError, match="line 2"):
            parse_fcat("unit 0\nfrobnicate 1 2\n")

    def test_malformed_directive_errors(self):
        with pytest.raises(FcatError, match="line 1"):
            parse_fcat("N 0 zero 0 1\nunit 0\n")

    def test_missing_unit_errors(self):
        with pytest.raises(FcatError, match="unit"):
            parse_fcat("label 0 x\nN 0 0 0 1\n")

    def test_gapped_labels_error(self):
        with pytest.raises(FcatError, match="0..n-1"):
            parse_fcat("label 0 a\nlabel 2 b\nunit 0\nN 0 0 0 1\n")

    def test_round_trip_byte_stable(self):
        doc = parse_fcat(SAMPLE_FCAT)
        emitted = emit_fcat(doc)
        doc2 = parse_fcat(emitted)
        assert emit_fcat(doc2) == emitted
        assert doc2.ring == doc.ring
        assert doc2.twists == doc.twists
        assert doc2.dims == doc.dims

    def test_catalog_round_trip_exact(self, u_datum):
        doc = FcatDocument("U", u_datum.ring,
                           dict(enumerate(u_datum.twists)),
                           dict(enumerate(u_datum.dims)))
        emitted = emit_fcat(doc)
        back = parse_fcat(emitted)
        assert back.ring == u_datum.ring
        assert tuple(back.twists[i] for i in range(20)) == u_datum.twists
        assert emit_fcat(back) == emitted


@st.composite
def random_group_ring(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return z_n_ring(n)


@settings(max_examples=20, deadline=None)
@given(random_group_ring())
def test_cyclic_rings_always_valid(ring):
    assert ring.validate().passed
    assert all(abs(ring.qdim_pf(i) - 1.0) < 1e-9 for i in range(ring.rank))


@settings(max_examples=20, deadline=None)
@given(random_group_ring())
def test_fcat_round_trip_random(ring):
    doc = FcatDocument("g", ring, {}, {})
    emitted = emit_fcat(doc)
    back = parse_fcat(emitted)
    assert back.ring == ring
    assert emit_fcat(back) == emitted


# Fuzz of the twist and dim values of FCAT text: zero, negative and huge
# denominators, malformed fractions and deep nesting.
_Z2_RING = ("label 0 a\nlabel 1 b\nunit 0\n"
            "N 0 0 0 1\nN 0 1 1 1\nN 1 0 1 1\nN 1 1 0 1\n")
_integer_text = st.one_of(st.integers(-12, 12), st.integers(-10**30, 10**30),
                          st.sampled_from([701, 709, 727, 2003])
                          ).map(str) | st.just("9" * 5000)
_fraction_text = (
    st.builds("{}/{}".format, _integer_text, _integer_text)
    | _integer_text
    | st.text(alphabet="0123456789-+*/e() ", max_size=12))
_dim_text = (
    _fraction_text
    | st.builds("e({})".format, _fraction_text)
    | st.builds("{}*e({})-e({})".format, _fraction_text, _fraction_text,
                _fraction_text)
    | st.integers(0, 2000).map(lambda k: "(" * k + "1" + ")" * k))


@settings(max_examples=300, deadline=None)
@given(_fraction_text, _dim_text)
def test_parse_fcat_fails_only_with_parse_or_cap_errors(twist, dim):
    text = _Z2_RING + f"twist 0 0/1\ntwist 1 {twist}\ndim 0 1\ndim 1 {dim}\n"
    try:
        parse_fcat(text)
    except (FcatError, OrderCapExceeded):
        pass
