"""Exact cyclotomic arithmetic: examples, canonical forms, and field axioms."""

import contextlib
import math
import operator
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import minimal_orders
from test_golden import pointed_fcat

from fusioncat import cyclotomic
from fusioncat.cyclotomic import (
    CycError,
    CycNum,
    OrderCapExceeded,
    _CycArray,
    _cyc_arrays,
    cyc_inv,
    cyc_rational,
    cyc_root_of_unity,
    format_cyc,
    parse_cyc,
)
from fusioncat.fcat import parse_fcat
from fusioncat.modular_data import ModularDatum


def e(num, den):
    return cyc_root_of_unity(num, den)


class TestExamples:
    def test_cube_roots_sum_to_zero(self):
        total = e(0, 3) + e(1, 3) + e(2, 3)
        assert total.is_zero()
        assert total == 0

    def test_primitive_root_not_rational(self):
        assert not e(1, 3).is_rational()

    def test_half_turn_is_minus_one(self):
        assert e(1, 2) == -1
        assert e(1, 2).is_rational()
        assert e(1, 2).as_rational() == Fraction(-1)

    def test_conjugate_of_root(self):
        z = e(5, 18)
        assert z.conj() == e(-5, 18)
        assert z * z.conj() == 1

    def test_exact_inverse(self):
        z = cyc_rational(2) + e(1, 9)
        assert z * (cyc_rational(1) / z) == 1

    def test_inverse_works_at_the_minimal_order(self, monkeypatch):
        # 2-e(2/5)-e(3/5) held at order 85: the inverse multiplies its 3
        # other conjugates at order 5, not 63 at order 85, and comes back
        # at order 85.
        x = parse_cyc("2-e(2/5)-e(3/5)").promote(85)
        orders = []
        mul = _CycArray.__mul__

        def spy(a, b):
            orders.append(math.lcm(a.order, getattr(b, "order", 1)))
            return mul(a, b)
        monkeypatch.setattr(_CycArray, "__mul__", spy)
        inv = cyc_inv(x)
        assert max(orders) == 5 and len(orders) <= 5
        monkeypatch.undo()
        assert inv.order == 85 and x * inv == 1

    def test_division_of_roots_subtracts_exponents(self):
        assert e(5, 18) / e(2, 18) == e(3, 18)

    def test_cross_order_equality_and_hash(self):
        a = e(1, 2)           # order-2 construction
        b = e(3, 6)           # order-6 construction of the same number
        assert a == b
        assert hash(a) == hash(b)

    def test_order_cap_exceeded(self):
        with pytest.raises(OrderCapExceeded):
            _ = e(1, 7) * e(1, 11) * e(1, 13)

    def test_embed_matches_cmath(self):
        import cmath
        z = e(5, 72)
        assert abs(z.embed() - cmath.exp(2j * cmath.pi * 5 / 72)) < 1e-12

    def test_repr_names_order_and_value(self):
        assert repr(e(1, 8)) == "CycNum(8, 'e(1/8)')"

    @pytest.mark.parametrize("call,error,message", [
        (lambda: e(1, 0), ValueError, "denominator must be positive"),
        (lambda: cyc_inv(cyc_rational(0)), ZeroDivisionError,
         "division by zero in Q\\(zeta\\)"),
        (lambda: e(1, 3).promote(8), ValueError,
         "target order must be a multiple of current order"),
        (lambda: e(1, 3).as_rational(), CycError, "value is not rational"),
        (lambda: _cyc_arrays([e(1, 5), e(2, 5)]).T, ValueError,
         "only a matrix has a transpose"),
        (lambda: _cyc_arrays([[e(1, 5)]]) @ 2, ValueError,
         "only two matrices have a matrix product"),
        (lambda: _cyc_arrays([[e(1, 5)]]) @ e(1, 3), ValueError,
         "only two matrices have a matrix product"),
    ], ids=["root-zero-denominator", "inverse-of-zero", "promote-non-multiple",
            "irrational-as-rational", "transpose-of-a-vector",
            "matmul-with-an-int", "matmul-with-a-number"])
    def test_invalid_call_raises(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestParseFormat:
    @pytest.mark.parametrize("text", [
        "0",
        "1",
        "-3/2",
        "e(1/8)+e(-1/8)",
        "2*e(-2/9)+2*e(1/9)",
        "3*e(-5/18)+e(2/9)",
        "(1+e(1/3))*e(1/4)",
    ])
    def test_round_trip(self, text):
        x = parse_cyc(text)
        assert parse_cyc(format_cyc(x)) == x

    def test_format_of_rational_is_plain(self):
        assert format_cyc(cyc_rational(Fraction(-3, 2))) == "-3/2"
        assert format_cyc(cyc_rational(0)) == "0"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_cyc("e(1/8")
        with pytest.raises(ValueError):
            parse_cyc("2**3")

    @pytest.mark.parametrize("text,message", [
        ("1 2", "trailing input '2'"),
        ("1 $", "bad character in expression at ' $'"),
        ("1/", "expected a number, found end of input"),
        ("1+", "expected a number, found end of input"),
        ("e(1/3", "expected ')', found end of input"),
        ("2**3", "expected a number, found '*'"),
        ("e()", "expected a number, found ')'"),
        ("e(1/-3)", "expected a number, found '-'"),
    ])
    def test_parse_names_what_it_cannot_read(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_cyc(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["1/0", "e(1/0)", "3*e(2/00)"])
    def test_parse_rejects_zero_denominator(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_cyc(text)

    @pytest.mark.parametrize("text", ["(" * 2000 + "1" + ")" * 2000,
                                      "-" * 5000 + "1"],
                             ids=["parentheses", "minus signs"])
    def test_parse_rejects_deep_nesting(self, text):
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_cyc(text)

    def test_format_is_canonical(self):
        # Same number written two ways formats identically.
        a = e(1, 3) + e(2, 3)          # = -1
        b = cyc_rational(-1)
        assert format_cyc(a) == format_cyc(b)


# Random elements of the order-36 field with small coefficients.
_coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def cyc_numbers(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 9, 12, 18, 36]))
    terms = draw(st.lists(st.tuples(_coeff, st.integers(0, 35)),
                          min_size=0, max_size=3))
    total = cyc_rational(draw(_coeff))
    for c, k in terms:
        total = total + cyc_rational(c) * cyc_root_of_unity(k, n)
    return total


@settings(max_examples=60, deadline=None)
@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == 0


@settings(max_examples=60, deadline=None)
@given(cyc_numbers())
def test_additive_and_multiplicative_inverse(a):
    assert a + (-a) == 0
    if not a.is_zero():
        assert a * (cyc_rational(1) / a) == 1


@settings(max_examples=60, deadline=None)
@given(cyc_numbers())
def test_arithmetic_with_ints(a):
    assert a / 3 * 3 == a
    with pytest.raises(ZeroDivisionError):
        a / 0
    if not a.is_zero():
        assert 1 / a * a == 1
    assert 1 - a == -(a - 1)


@settings(max_examples=60, deadline=None)
@given(cyc_numbers())
def test_conjugation_is_involutive_ring_map(a):
    assert a.conj().conj() == a
    assert abs(a.conj().embed() - a.embed().conjugate()) < 1e-9


@settings(max_examples=60, deadline=None)
@given(cyc_numbers(), cyc_numbers())
def test_conjugation_distributes(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


@settings(max_examples=60, deadline=None)
@given(cyc_numbers())
def test_format_parse_round_trip(a):
    assert parse_cyc(format_cyc(a)) == a


@settings(max_examples=60, deadline=None)
@given(cyc_numbers())
def test_promotion_round_trip(a):
    promoted = a.promote(72)
    assert promoted == a
    assert hash(promoted) == hash(a)
    assert format_cyc(promoted.canonical()) == format_cyc(a.canonical())


@settings(max_examples=40, deadline=None)
@given(cyc_numbers())
def test_embed_is_ring_homomorphism_numerically(a):
    z = a.embed()
    w = (a * a).embed()
    assert abs(w - z * z) < 1e-8 * (1 + abs(z)) ** 2


# -- the array engine of the matrix layers ---------------------------------

_ORDERS = [1, 8, 12, 15, 17, 36, 72]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def cyc_matrices(draw, rows, cols):
    """A rows x cols matrix of elements of Q(zeta_N), N drawn from _ORDERS;
    each entry is built at a divisor of N, so the arrays promote it."""
    n = draw(st.sampled_from(_ORDERS))
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            d = draw(st.sampled_from(_divisors(n)))
            terms = draw(st.lists(st.tuples(_coeff, st.integers(0, d - 1)),
                                  max_size=3))
            x = cyc_rational(Fraction(draw(_coeff), draw(st.integers(1, 3))))
            for c, k in terms:
                x = x + cyc_rational(c) * e(k, d)
            row.append(x.promote(d))
        out.append(row)
    return n, out


def _scalar_product(a, b):
    return [[sum((a[i][j] * b[j][k] for j in range(len(b))), cyc_rational(0))
             for k in range(len(b[0]))] for i in range(len(a))]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_array_products_match_scalar_arithmetic(data):
    n, a = data.draw(cyc_matrices(2, 3))
    b = data.draw(st.lists(st.lists(st.sampled_from([x for r in a for x in r]),
                                    min_size=3, max_size=3),
                           min_size=3, max_size=3))
    c = data.draw(st.lists(st.sampled_from([x for r in a for x in r]),
                           min_size=3, max_size=3))
    arr_a, arr_b, arr_c = _cyc_arrays(a), _cyc_arrays(b), _cyc_arrays(c)
    assert n % arr_a.order == 0
    entrywise = arr_a * arr_c          # broadcasts the row c over a's rows
    product = arr_a @ arr_b
    conj = arr_a.conj()
    expect = _scalar_product(a, b)
    for i in range(2):
        for j in range(3):
            assert entrywise[i, j] == a[i][j] * c[j]
            assert product[i, j] == expect[i][j]
            assert conj[i, j] == a[i][j].conj()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_times_root_matches_scalar_product(data):
    n, a = data.draw(cyc_matrices(2, 3))
    expo = np.array(data.draw(st.lists(st.lists(st.integers(-200, 200),
                                                min_size=3, max_size=3),
                                       min_size=2, max_size=2)))
    arr = _cyc_arrays(a, order=n)
    assert arr.order == n
    shifted = arr.times_root(expo)
    for i in range(2):
        for j in range(3):
            assert shifted[i, j] == a[i][j] * e(int(expo[i, j]), n)


def test_times_root_takes_object_branch_for_large_coefficients():
    big = 2**61
    arr = _cyc_arrays([cyc_rational(big) * e(1, 36) + cyc_rational(big)])
    assert arr.num.dtype == np.int64
    shifted = arr.times_root(np.array([35]))
    assert shifted.num.dtype == object
    assert shifted[0] == cyc_rational(big) * (e(0, 1) + e(35, 36))


def test_array_products_take_object_branch_near_2_pow_40():
    big = 2**40 + 12345
    a = [[cyc_rational(big) * e(1, 72) + cyc_rational(-big + 7) * e(5, 72),
          cyc_rational(big - 3)],
         [e(1, 8) * cyc_rational(big), cyc_rational(1) - e(7, 36)]]
    arr = _cyc_arrays(a)
    assert arr.num.dtype == np.int64           # stored values fit int64
    product = arr @ arr
    square = arr * arr
    assert product.num.dtype == object         # their products need not
    assert square.num.dtype == object
    expect = _scalar_product(a, a)
    for i in range(2):
        for j in range(2):
            assert product[i, j] == expect[i][j]
            assert square[i, j] == a[i][j] * a[i][j]


def test_small_products_stay_int64():
    arr = _cyc_arrays([[e(1, 72), e(5, 8)], [cyc_rational(3), e(1, 9)]])
    assert (arr @ arr).num.dtype == np.int64
    assert (arr * arr.conj()).num.dtype == np.int64


# -- one arithmetic: a CycNum is an array with no entry axes ----------------

_SMALL_ORDERS = [1, 3, 4, 8, 9, 12]


@st.composite
def cyc_arrays_at(draw, shape):
    """An array of the entry shape at an order from _SMALL_ORDERS (() gives
    a CycNum)."""
    n = draw(st.sampled_from(_SMALL_ORDERS))
    phi = cyclotomic._order_context(n).phi
    size = math.prod(shape) * phi
    num = np.array(draw(st.lists(_coeff, min_size=size, max_size=size)))
    den = draw(st.integers(1, 3))
    if not shape:
        return CycNum(n, [Fraction(int(c), den) for c in num])
    return _CycArray(num.reshape(shape + (phi,)), den, n)


@settings(max_examples=60, deadline=None)
@given(cyc_arrays_at((2, 3)), cyc_arrays_at((2, 3)), cyc_arrays_at(()),
       st.lists(st.booleans(), min_size=6, max_size=6))
def test_arrays_and_numbers_share_one_arithmetic(a, b, x, take_b):
    top = math.lcm(a.order, b.order)
    # c holds b's entry where take_b is set and a's elsewhere.
    mask = _CycArray(np.array(take_b, dtype=np.int64).reshape(2, 3, 1), 1, 1)
    c = a + (b - a) * mask
    scaled, total, same = a * x, a + b, a.equals(c)
    assert (total.order, c.order) == (top, top)
    assert scaled.order == math.lcm(a.order, x.order)
    canon = a.canonical()
    for i, j in np.ndindex(2, 3):
        y = a[i, j]
        assert isinstance(y, CycNum) and isinstance(canon[i, j], CycNum)
        assert hash(y) == hash(canon[i, j])
        assert scaled[i, j] == y * x
        assert abs(scaled[i, j].embed() - y.embed() * x.embed()) < 1e-9
        assert total[i, j] == y + b[i, j]
        assert abs(total[i, j].embed() - y.embed() - b[i, j].embed()) < 1e-9
        assert same[i, j] == (y == c[i, j])
        assert same[i, j] or take_b[3 * i + j]


@pytest.mark.parametrize("r", [3, -2, Fraction(-5, 7)])
def test_rationals_act_alike_on_numbers_and_arrays(r):
    x = 2 * e(1, 9) - Fraction(1, 3) * e(1, 4)
    row, ones = _cyc_arrays([x]), _cyc_arrays([cyc_rational(r)])
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert op(x, r) == op(row, r)[0]
    for op in (operator.add, operator.sub, operator.mul):
        assert op(r, x) == op(r, row)[0]
    assert r / x == (ones / x)[0]


# The three tiers of `_exact`, with the bound the array products certify: a
# coefficient of a @ b sums inner * phi * (2 phi - 1) products of an entry
# of a, an entry of b and a power row; of a * b, phi * (2 phi - 1).
_TIERS = {"float64": (1, 2**53), "int64": (2**54, 2**62),
          "object": (2**63, 2**90)}


def _tier(bound):
    return next(t for t, (_, top) in _TIERS.items() if bound < top)


@contextlib.contextmanager
def tiers_taken():
    """The dtypes `_exact` hands out while the block runs."""
    taken = []
    exact = cyclotomic._exact

    def spy(terms, *arrays):
        out = exact(terms, *arrays)
        taken.append(out[0].dtype.name)
        return out
    with mock.patch.object(cyclotomic, "_exact", spy):
        yield taken


@st.composite
def coefficient_array(draw, shape, phi, top):
    """Integer coefficients in [-top, top], one of them exactly +-top."""
    size = math.prod(shape) * phi
    flat = draw(st.lists(st.integers(-top, top), min_size=size, max_size=size))
    flat[draw(st.integers(0, size - 1))] = draw(st.sampled_from([-top, top]))
    return np.array(flat, dtype=object).reshape(shape + (phi,))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(_TIERS)), st.sampled_from(["@", "*"]),
       st.data())
def test_products_match_scalar_arithmetic_in_each_tier(tier, op, data):
    n = data.draw(st.sampled_from(_ORDERS))
    ctx = cyclotomic._order_context(n)
    rows, inner, cols = (data.draw(st.integers(1, 3)) for _ in range(3))
    terms = ctx.phi * (2 * ctx.phi - 1) * (inner if op == "@" else 1)
    terms *= int(abs(ctx.pow_matrix[:2 * ctx.phi - 1]).max())
    low, high = _TIERS[tier]
    top = max(1, math.isqrt(data.draw(st.integers(low, high - 1)) // terms))
    assert _tier(terms * top * top) == tier
    shape_b = (inner, cols) if op == "@" else (rows, inner)
    a = _CycArray(data.draw(coefficient_array((rows, inner), ctx.phi, top)),
                  data.draw(st.integers(1, 5)), n)
    b = _CycArray(data.draw(coefficient_array(shape_b, ctx.phi, top)),
                  data.draw(st.integers(1, 5)), n)
    with tiers_taken() as taken:
        out = a @ b if op == "@" else a * b
    assert taken == [tier]
    assert out.num.dtype != np.float64
    for i, k in np.ndindex(out.num.shape[:-1]):
        if op == "@":
            expect = sum((a[i, j] * b[j, k]
                          for j in range(inner)), cyc_rational(0))
        else:
            expect = a[i, k] * b[i, k]
        assert out[i, k] == expect


# Coefficient ranges of the stored entries: below 2^53, between 2^53 and
# 2^62, past 2^62 (held as Python ints, as a CycNum would hold them).
_COEFF_RANGES = [(1, 2**53 - 1), (2**53, 2**62 - 1), (2**62, 2**90)]


@st.composite
def cyc_square_arrays(draw, size):
    """A size x size array at an order of its own, with its coefficients in
    one drawn range, and the same entries as CycNum rows built apart."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 10, 12]))
    phi = cyclotomic._order_context(n).phi
    top = draw(st.integers(*draw(st.sampled_from(_COEFF_RANGES))))
    num = draw(coefficient_array((size, size), phi, top))
    den = draw(st.integers(1, 5))
    entries = [[CycNum(n, [Fraction(int(c), den) for c in num[i, j]])
                for j in range(size)] for i in range(size)]
    if top < 2**62:
        num = num.astype(np.int64)
    return _CycArray(num, den, n), entries


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda size: st.tuples(
           cyc_square_arrays(size), cyc_square_arrays(size),
           st.lists(st.booleans(), min_size=size * size,
                    max_size=size * size))))
def test_array_operations_across_conductors_match_cycnum(operands):
    # Each binary operation brings both operands to the lcm of their
    # conductors, the matrix product too.
    (a, a_rows), (b, b_rows), take_b = operands
    size = len(a_rows)
    mask = _CycArray(np.array(take_b, dtype=np.int64).reshape(size, size, 1),
                     1, 1)
    c = a + (b - a) * mask          # b's entry where take_b is set, else a's
    total, diff, prod, matprod = a + b, a - b, a * b, a @ b
    same = a.equals(c)
    for i, j in np.ndindex(size, size):
        x, y = a_rows[i][j], b_rows[i][j]
        assert total[i, j] == x + y
        assert diff[i, j] == x - y
        assert prod[i, j] == x * y
        assert matprod[i, j] == sum(
            (a_rows[i][k] * b_rows[k][j] for k in range(size)),
            cyc_rational(0))
        assert same[i, j] == (not take_b[size * i + j] or x == y)


def test_odd_product_past_2_pow_53_is_exact():
    # (2^27+1)^2 = 2^54 + 2^28 + 1 is odd; float64 would round it to even.
    x = _CycArray(np.array([[[2**27 + 1]]]), 1, 1)
    for out in (x @ x, x * x):
        assert out[0, 0] == (2**27 + 1) ** 2


def test_product_just_under_the_bound_takes_the_float_tier():
    top = math.isqrt(2**53 - 1)                  # top^2 < 2^53, odd
    x = _CycArray(np.array([[[top]]]), 1, 1)
    with tiers_taken() as taken:
        product, square = x @ x, x * x
    assert taken == ["float64", "float64"]
    assert product.num.dtype == square.num.dtype == np.int64
    assert product[0, 0] == square[0, 0] == top ** 2
    y = _CycArray(np.array([[[top + 2]]]), 1, 1)
    with tiers_taken() as taken:
        assert (y @ y)[0, 0] == (top + 2) ** 2
    assert taken == ["int64"]


def test_array_conductor_above_cap_raises():
    with pytest.raises(OrderCapExceeded):
        _cyc_arrays([[e(1, 7), e(1, 11)], [e(1, 13), cyc_rational(1)]])


def test_array_cap_is_read_at_call_time(monkeypatch):
    matrix = [[e(1, 12), cyc_rational(1)]]
    assert _cyc_arrays(matrix).order == 12
    monkeypatch.setattr(cyclotomic, "DEFAULT_ORDER_CAP", 10)
    with pytest.raises(OrderCapExceeded):
        _cyc_arrays(matrix)


def test_equality_promotes_like_addition(refuse_fields_above_cap):
    # lcm(701, 709) = 497009: equality does not raise the cap to reach it.
    with pytest.raises(OrderCapExceeded,
                       match="cyclotomic order 497009 exceeds cap 720"):
        e(1, 701) == e(1, 709)


def test_lowered_cap_refuses_a_cached_field(monkeypatch):
    e(1, 12)                      # builds and caches Q(zeta_12)
    monkeypatch.setattr(cyclotomic, "DEFAULT_ORDER_CAP", 10)
    with pytest.raises(OrderCapExceeded):
        e(5, 12)


def test_more_coefficients_than_the_degree_is_an_error():
    assert CycNum(3, [1, 2]) == 1 + 2 * e(1, 3)
    with pytest.raises(ValueError):
        CycNum(3, [0, 0, 1])


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # Each Phi_n is monic of degree phi(n), and prod_{d | n} Phi_d = x^n - 1.
    # The int64 products are exact: the l1 norms of two factors bound every
    # coefficient of their product, and they stay below 2^63.
    for n in range(1, 721):
        phi_n = cyclotomic.cyclotomic_polynomial(n)
        assert phi_n[-1] == 1
        assert len(phi_n) - 1 == sum(math.gcd(k, n) == 1 for k in range(n))
        product = np.array([1])
        for d in (d for d in range(1, n + 1) if n % d == 0):
            factor = np.array(cyclotomic.cyclotomic_polynomial(d))
            assert int(abs(product).sum()) * int(abs(factor).sum()) < 2**63
            product = np.convolve(product, factor)
        assert product.tolist() == [-1] + [0] * (n - 1) + [1]


@pytest.mark.parametrize("n", [1, 2, 12, 63, 125, 252, 720])
def test_crt_basis_change_is_invertible(n):
    # The power rows of the tensor basis elements undo the change of basis.
    crt = cyclotomic._crt(n)
    back = cyclotomic._order_context(n).pow_matrix[
        cyclotomic._tensor_powers(n) % n]
    assert set(np.unique(crt).tolist()) <= {-1, 0, 1}
    assert (crt @ back == np.eye(len(crt))).all()


@st.composite
def subfield_arrays(draw):
    """A vector at a conductor N, N = 2 mod 4 or a prime power often, whose
    entries each come from a random subfield Q(zeta_d), d | N: sums of a few
    roots, at times with coefficients past 2^62; it may be empty."""
    n = draw(st.one_of(st.sampled_from([1, 2, 6, 10, 18, 30, 42, 90,
                                        8, 16, 27, 32, 49, 64, 81]),
                       st.integers(1, 90)))
    scale = draw(st.sampled_from([1, 1, 1, 2**70]))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        d = draw(st.sampled_from(divisors))
        terms = draw(st.lists(st.tuples(st.integers(-3, 3),
                                        st.integers(0, d - 1)), max_size=4))
        entries.append(sum((c * scale * e(j, d) for c, j in terms),
                           cyc_rational(0)))
    return _cyc_arrays(entries, order=n)


def assert_canonical(a):
    """Each entry of a vector comes out at the order the all-units search
    finds, and promoted back to N it is the entry, coefficient for
    coefficient."""
    canon = a.canonical()
    assert [x.order for x in canon] == minimal_orders(a)
    for t, x in enumerate(canon):
        back, entry = x.promote(a.order), a[t]
        assert (back.den, back.num.tolist()) == (entry.den, entry.num.tolist())


@settings(max_examples=150, deadline=None)
@given(subfield_arrays())
def test_canonical_orders_match_the_all_units_search(a):
    assert_canonical(a)


_BIG = 2**70 + 3


@pytest.mark.parametrize("n,texts", [
    (7, []),
    (1, ["-2/7", "0", f"{_BIG}"]),
    (2, ["e(1/2)", "3/5"]),
    (720, ["e(1/720)", "e(1/16)-e(1/9)", "e(1/5)+e(1/3)", "e(1/4)", "e(1/6)",
           "e(7/80)-e(1/45)", "1/7*e(1/48)"]),
    (128, ["e(1/128)", "e(1/64)+e(1/32)", "e(1/8)", "e(1/4)", "e(1/2)"]),
    (243, ["e(1/243)", "e(2/81)", "e(1/27)-e(1/9)", "e(1/3)", "2"]),
    (252, [f"{_BIG}*e(1/7)+e(1/4)", f"{_BIG}*(e(1/9)-e(1/36))",
           f"{_BIG}*e(1/252)", f"1/{_BIG}*e(1/6)", f"{2**62}*e(5/12)"]),
], ids=["empty", "N=1", "N=2", "N=720", "N=2^7", "N=3^5", "past-2^62"])
def test_canonical_at_the_edges(n, texts):
    assert_canonical(_cyc_arrays([parse_cyc(t) for t in texts], order=n))


def test_canonical_makes_no_galois_substitution(monkeypatch):
    # Z63's S sits at order 252; its entries' orders, 28, 84 and 252, and
    # their coefficients there are read off the CRT basis.
    doc = parse_fcat(pointed_fcat(63, 2, 3))
    md = ModularDatum(doc.ring, doc.twists, doc.dims)
    s = md._stilde() * (md.D / md.global_dimension())
    calls = []
    substitute = _CycArray._substitute
    monkeypatch.setattr(_CycArray, "_substitute",
                        lambda self, k, order: calls.append(k)
                        or substitute(self, k, order))
    orders = {x.order for x in s.canonical().flat}
    assert (s.order, orders, calls) == (252, {28, 84, 252}, [])
