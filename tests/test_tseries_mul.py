"""The Laurent kernel of ``TSeries.__mul__`` and ``scalar._sum_of_products`` against the
term-by-term product of ``conftest``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisc import ONE, S, QScalar, TSeries, ZERO
from qdisc.scalar import _sum_of_products

from conftest import mixed_coefficients, tseries_mul_reference

NON_LAURENT = ONE / (ONE - QScalar.q_power(1))
NON_LAURENT_VALUES = (NON_LAURENT, S - 2 * NON_LAURENT, QScalar.from_fraction(Fraction(1, 2)))


def laurent_values(nonzero: bool = False):
    """Laurent values with exponents -8..8 and small integer coefficients."""
    raw = st.dictionaries(st.integers(-8, 8), st.integers(-4, 4), max_size=4)
    return raw.map(QScalar).filter(lambda x: not (nonzero and x.is_zero()))


def series(coefficients, order: int):
    return st.lists(coefficients, min_size=order + 1, max_size=order + 1).map(lambda cs: TSeries(cs, order))


def series_pairs(coefficients):
    """Two series of one order 0..5 over the given coefficients."""
    return st.integers(0, 5).flatmap(lambda order: st.tuples(series(coefficients, order), series(coefficients, order)))


def num_den(x: TSeries) -> list:
    return [(c.num, c.den) for c in x.coeffs]


def assert_matches_reference(a: TSeries, b: TSeries) -> TSeries:
    got = a * b
    assert got.order == a.order
    assert num_den(got) == num_den(tseries_mul_reference(a, b))
    return got


@settings(max_examples=150, deadline=None)
@given(series_pairs(laurent_values()))
def test_laurent_kernel_matches_the_reference(pair):
    got = assert_matches_reference(*pair)
    for c in got.coeffs:
        assert c.den == {0: 1}
        assert all(c.num.values())


@settings(max_examples=100, deadline=None)
@given(series_pairs(mixed_coefficients()))
def test_mixed_coefficients_match_the_reference(pair):
    assert_matches_reference(*pair)


@settings(max_examples=60, deadline=None)
@given(laurent_values(nonzero=True), laurent_values(nonzero=True), st.integers(1, 5))
def test_t_orders_whose_terms_cancel_are_zero(u, v, order):
    # u (1 + t + t^2 + ...) times v (1 - t) is u v: every t^n with n >= 1 cancels
    a = TSeries([u] * (order + 1), order)
    b = TSeries([v, -v] + [ZERO] * (order - 1), order)
    got = assert_matches_reference(a, b)
    assert got.coeffs[0] == u * v
    assert all(c.num == {} and c.den == {0: 1} for c in got.coeffs[1:])


def test_exponents_that_cancel_leave_no_zero_entry():
    a = TSeries([QScalar({-3: 1, 2: 1}), QScalar({-1: 1})], 1)
    b = TSeries([QScalar({4: 1}), QScalar({-2: -1, 3: 1})], 1)
    got = assert_matches_reference(a, b)
    # t^1: (s^-3 + s^2)(s^3 - s^-2) + s^-1 s^4 = 1 - s^-5 + s^5 - 1 + s^3
    assert got.coeffs[1].num == {-5: -1, 5: 1, 3: 1}


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda order: st.tuples(
            series(laurent_values(), order),
            series(laurent_values(nonzero=True), order),
            st.integers(0, order),
            st.sampled_from(NON_LAURENT_VALUES),
            st.booleans(),
        )
    )
)
def test_one_coefficient_that_is_not_laurent_falls_back(case):
    a, b, i, c, left = case
    coeffs = list(a.coeffs)
    coeffs[i] = c
    a = TSeries(coeffs, a.order)
    if left:
        assert_matches_reference(a, b)
    else:
        assert_matches_reference(b, a)


def test_a_non_laurent_constant_term_keeps_its_denominator():
    a = TSeries([NON_LAURENT, S], 1)
    b = TSeries([S, ONE], 1)
    for x, y in ((a, b), (b, a)):
        got = assert_matches_reference(x, y)
        assert got.coeffs == (NON_LAURENT * S, NON_LAURENT + S * S)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda order: series(mixed_coefficients() | laurent_values(), order)))
def test_the_unit_series_returns_the_other_factor(a):
    one = TSeries.one(a.order)
    assert a * one is a
    assert one * a is (one if a.is_one() else a)  # the right factor is tested first


@pytest.mark.parametrize(
    "a, b",
    [
        (TSeries.one(2), TSeries.one(3)),
        (TSeries([S, S, S], 2), TSeries([ONE, S], 1)),
        (TSeries([NON_LAURENT, S], 1), TSeries([S, S, S], 2)),
        (TSeries.one(1), TSeries([NON_LAURENT, S, ZERO], 2)),
    ],
)
def test_an_order_mismatch_raises(a, b):
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="truncation order mismatch"):
            x * y


def reference_sum(pairs: list, order: int) -> TSeries:
    """The sum of the ``tseries_mul_reference`` products, added through ``TSeries.__add__``."""
    out = TSeries.zero(order)
    for a, b in pairs:
        out = out + tseries_mul_reference(a, b)
    return out


def pair_lists(coefficients, last):
    """One to three pairs over ``coefficients`` and a last pair over ``last``, of one order 0..4."""
    def lists(order):
        pair = st.tuples(series(coefficients, order), series(coefficients, order))
        last_pair = st.tuples(series(last, order), series(last, order))
        return st.tuples(st.just(order), st.lists(pair, min_size=1, max_size=3), last_pair)

    return st.integers(0, 4).flatmap(lists).map(lambda c: (c[0], c[1] + [c[2]]))


@settings(max_examples=80, deadline=None)
@given(series_pairs(mixed_coefficients() | laurent_values()))
def test_sum_of_products_of_one_pair_is_the_product(pair):
    a, b = pair
    assert num_den(_sum_of_products([(a, b)], a.order)) == num_den(tseries_mul_reference(a, b))


@settings(max_examples=60, deadline=None)
@given(series_pairs(laurent_values()), st.sampled_from(NON_LAURENT_VALUES + (ONE,)))
def test_sum_of_products_of_pairs_that_cancel_is_zero(pair, c):
    a, b = pair
    a = TSeries([c * x for x in a.coeffs], a.order)  # Laurent exactly when c is one
    got = _sum_of_products([(a, b), (-a, b), (b, a), (b, -a)], a.order)
    assert all(x.num == {} and x.den == {0: 1} for x in got.coeffs)


@settings(max_examples=60, deadline=None)
@given(
    pair_lists(laurent_values(), laurent_values()),
    st.sampled_from(NON_LAURENT_VALUES),
    st.booleans(),
    st.integers(0, 4),
)
def test_one_non_laurent_coefficient_in_the_last_pair_sends_the_sum_through_qscalar(case, c, left, i):
    order, pairs = case
    a, b = pairs[-1]
    i = min(i, order)
    if left:
        a = TSeries(a.coeffs[:i] + (c,) + a.coeffs[i + 1 :], order)
    else:
        b = TSeries(b.coeffs[:i] + (c,) + b.coeffs[i + 1 :], order)
    pairs[-1] = (a, b)
    assert num_den(_sum_of_products(pairs, order)) == num_den(reference_sum(pairs, order))
