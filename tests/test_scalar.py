"""Tests for the exact coefficient field and the truncated t-series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisc import ONE, QScalar, TSeries, ZERO, eval_numeric

from conftest import from_rational, qpochhammer, tseries_inverse, tshift

Q = QScalar.q_power(1)


def test_basic_cancellation():
    # q^2 + (1 - q^2) = 1
    q2 = QScalar.q_power(2)
    assert q2 + (ONE - q2) == ONE


def test_self_division():
    s2 = QScalar.s_power(2)
    assert s2 / s2 == ONE


def test_polynomial_division_oracle():
    # (1 - q^4)/(1 - q^2) = 1 + q^2, checked against dense long division
    num = [Fraction(1)] + [Fraction(0)] * 7 + [Fraction(-1)]  # 1 - s^8
    den = [Fraction(1), 0, 0, 0, Fraction(-1)]  # 1 - s^4
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = rem[i + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            rem[i + j] -= quot[i] * d
    assert all(r == 0 for r in rem)
    expected = QScalar({e: c for e, c in enumerate(quot) if c})
    got = (ONE - QScalar.q_power(4)) / (ONE - QScalar.q_power(2))
    assert got == expected
    assert got == ONE + QScalar.q_power(2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_canonical_form_is_reduced_and_monic():
    x = (ONE - QScalar.q_power(2)) / (QScalar.from_int(2) - QScalar.from_int(2) * Q)
    # gcd (1 - q) cancels; the integer content stays, as the denominator 2
    y = (ONE + Q) * QScalar.from_fraction(Fraction(1, 2))
    assert x == y
    assert (x.num, x.den) == ({0: 1, 2: 1}, {0: 2})
    # the printed form is monic
    assert x.monic() == ({0: Fraction(1, 2), 2: Fraction(1, 2)}, {0: 1})
    assert str(x) == "1/2 + 1/2*s^2"


# -- q-Pochhammer -------------------------------------------------------------


def test_qpochhammer_first_factor():
    assert qpochhammer(QScalar.q_power(2), 2, 1) == ONE - QScalar.q_power(2)


def test_qpochhammer_empty_product():
    assert qpochhammer(QScalar.q_power(5), 2, 0) == ONE
    assert qpochhammer(QScalar.from_int(37), 2, 0) == ONE


def test_qpochhammer_negative_argument_vanishes():
    # (q^-2; q^2)_2 = (1 - q^-2)(1 - 1) = 0
    assert qpochhammer(QScalar.q_power(-2), 2, 2) == ZERO


def test_qpochhammer_truncation_rule():
    # (q^-2k; q^2)_j = 0 exactly when j > k
    for k in range(9):
        a = QScalar.q_power(-2 * k)
        for j in range(k + 3):
            value = qpochhammer(a, 2, j)
            if j > k:
                assert value == ZERO, (k, j)
            else:
                assert value != ZERO, (k, j)


def test_qpochhammer_splits_multiplicatively(rng):
    for _ in range(20):
        a = QScalar.from_int(rng.randint(-2, 2)) * QScalar.q_power(rng.randint(-1, 2))
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        whole = qpochhammer(a, 2, n + m)
        split = qpochhammer(a, 2, n) * qpochhammer(a * QScalar.q_power(2 * n), 2, m)
        assert whole == split


def test_qpochhammer_negative_n_rejected():
    with pytest.raises(ValueError):
        qpochhammer(ONE, 2, -1)


# -- field laws by property ----------------------------------------------------


def _polys():
    coeff = st.integers(min_value=-4, max_value=4)
    return st.dictionaries(st.integers(min_value=0, max_value=4), coeff, max_size=3)


@st.composite
def qscalars(draw, nonzero=False):
    num = {e: Fraction(c) for e, c in draw(_polys()).items() if c}
    den = {e: Fraction(c) for e, c in draw(_polys()).items() if c}
    den[0] = den.get(0, Fraction(0)) + 1  # force a nonzero denominator
    if not den[0]:
        den[0] = Fraction(1)
    x = QScalar(num, den)
    if nonzero and x.is_zero():
        x = x + ONE
    return x


@settings(max_examples=120, deadline=None)
@given(qscalars(), qscalars(), qscalars())
def test_field_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(qscalars(nonzero=True))
def test_field_inverse(a):
    assert a * (ONE / a) == ONE


@settings(max_examples=80, deadline=None)
@given(qscalars(), qscalars())
def test_field_commutativity_and_subtraction(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a - b) + b == a


# -- numeric evaluation ---------------------------------------------------------


def test_eval_numeric_basic():
    assert eval_numeric(QScalar.q_power(2), Fraction(1, 2)) == Fraction(1, 16)


def test_eval_numeric_reduction():
    x = (ONE - QScalar.q_power(2)) / (ONE - Q)
    assert eval_numeric(x, Fraction(1, 2)) == Fraction(5, 4)


def test_eval_numeric_pole():
    x = ONE / (ONE - Q)
    with pytest.raises(ZeroDivisionError):
        eval_numeric(x, Fraction(1))


# -- truncated t-series ----------------------------------------------------------


def test_geometric_expansion():
    got = from_rational([ONE], [ONE, -QScalar.q_power(2)], 2)
    assert got.coeffs == (ONE, QScalar.q_power(2), QScalar.q_power(4))


def test_from_rational_trivial():
    assert from_rational([ONE], [ONE], 4) == TSeries.one(4)


def test_truncation_drops_high_terms():
    a = TSeries([ONE, ONE], 1)
    b = TSeries([ONE, -ONE], 1)
    assert a * b == TSeries.one(1)


def test_from_rational_needs_unit_constant_term():
    with pytest.raises(ValueError):
        from_rational([ONE], [ZERO, ONE], 3)


def test_order_mixing_is_an_error():
    with pytest.raises(ValueError):
        TSeries.one(2) + TSeries.one(3)
    with pytest.raises(ValueError):
        TSeries.one(2) * TSeries.one(3)


def test_rational_roundtrip_inverse(rng):
    T = 4
    for _ in range(25):
        p = [QScalar.from_int(rng.randint(1, 3))] + [
            QScalar.from_int(rng.randint(-2, 2)) * QScalar.q_power(rng.randint(0, 1))
            for _ in range(rng.randint(0, 2))
        ]
        q = [QScalar.from_int(rng.randint(1, 3))] + [
            QScalar.from_int(rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))
        ]
        assert from_rational(p, q, T) * from_rational(q, p, T) == TSeries.one(T)


def test_tshift():
    a = TSeries([ONE, QScalar.q_power(1), QScalar.q_power(2)], 2)
    assert tshift(a, 1).coeffs == (ZERO, ONE, QScalar.q_power(1))
    assert tshift(a, 3).is_zero()


def test_subtracting_a_non_scalar_is_unsupported():
    with pytest.raises(TypeError, match="unsupported operand"):
        TSeries.one(2) - "x"
    with pytest.raises(TypeError, match="unsupported operand"):
        TSeries.one(2) + "x"


def test_subtracting_from_a_scalar_negates_the_difference():
    ts = TSeries([ONE, Q, QScalar.q_power(2)], 2)
    for c in (1, Fraction(1, 2), Q):
        assert c - ts == -(ts - c)
        assert c - ts == (-ts) + c
    assert 1 - TSeries.one(2) == TSeries.zero(2)


def test_inverse_requires_unit():
    with pytest.raises(ValueError):
        tseries_inverse(TSeries.zero(2))
