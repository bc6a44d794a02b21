"""Tests for the operator realization, symbols, and the transform."""

import itertools
import random
from fractions import Fraction

import pytest

from qdisc import (
    InsufficientCutoffError,
    NCPoly,
    ONE,
    QScalar,
    TSeries,
    ValidityError,
    Z,
    ZS,
    ZERO,
    berezin,
    berezin_expansion,
    covariant_symbol,
    i_op,
    i_op_poly,
    nc_mul,
    q_map,
    star,
    zhat,
    zhat_star,
)
from qdisc.fockrep import _column_poly, _column_value, _column_weight
from qdisc.star import StarSeries

from qdisc.verify import _maps_back

from conftest import (
    _t_linear_product,
    berezin_horner,
    column_series,
    from_rational,
    geometric,
    naive_berezin_op,
    naive_i_op,
    naive_i_op_poly,
    naive_q_map,
    qbinomial_covariant_symbol,
    qpochhammer,
    tseries_inverse,
    tshift,
)

M, T = 16, 3
Q2 = QScalar.q_power(2)


def _geom(c, order=T):
    return geometric(c, order)


# -- the monomial action ----------------------------------------------------------


def test_i_op_annihilation_column():
    A = i_op(0, 1, M, T)
    assert A.entry(0, 1) == (ONE - Q2) * _geom(Q2)
    assert A.entry(0, 0).is_zero()  # k > m column vanishes


def test_i_op_pure_shift():
    B = i_op(1, 0, M, T)
    for m in range(M):
        assert B.entry(m + 1, m) == TSeries.one(T)
    assert B.raise_bound == 1


@pytest.mark.parametrize("order", [0, 3, 5])
@pytest.mark.parametrize("cutoff", [0, 3, 9, 16])
def test_i_op_matches_column_loop(cutoff, order):
    for j in range(5):
        for k in range(5):
            got, want = i_op(j, k, cutoff, order), naive_i_op(j, k, cutoff, order)
            assert got.entries == want.entries, (j, k)
            assert got.raise_bound == want.raise_bound, (j, k)


def test_i_op_general_column():
    A = i_op(1, 2, M, T)
    m = 5
    num = qpochhammer(QScalar.q_power(2 * m), -2, 2)
    want = TSeries.constant(num, T) * _geom(QScalar.q_power(2 * m)) * _geom(QScalar.q_power(2 * m - 2))
    assert A.entry(m - 1, m) == want


# -- zhat and its adjoint -----------------------------------------------------------


def test_zhat_is_raising_shift():
    A = zhat(M, T)
    for m in range(M):
        assert A.entry(m + 1, m) == TSeries.one(T)


def test_zhat_star_from_norm_ratios():
    """Independent oracle: the adjoint coefficient is the ratio of squared norms.

    With the weighted inner product, column m of the adjoint must carry
    |z^m|^2 / |z^(m-1)|^2 where |z^m|^2 = (q^2; q^2)_m / (t q^2; q^2)_m.
    """
    A = zhat_star(M, T)
    for m in range(1, M + 1):
        def norm_sq(n):
            num = qpochhammer(Q2, 2, n)
            den = TSeries.one(T)
            for i in range(n):
                den = den * (
                    TSeries.one(T) - tshift(TSeries.constant(QScalar.q_power(2 * i + 2), T), 1)
                )
            return TSeries.constant(num, T) * tseries_inverse(den)

        ratio = norm_sq(m) * tseries_inverse(norm_sq(m - 1))
        assert A.entry(m - 1, m) == ratio, m


def test_zhat_star_annihilates_constants():
    A = zhat_star(M, T)
    assert all(col != 0 for (_, col) in A.entries)


def test_zhat_star_equals_monomial_action():
    assert zhat_star(M, T) == i_op(0, 1, M, T)


def test_commutation_at_leading_order():
    comm = zhat_star(M, T) * zhat(M, T) - (zhat(M, T) * zhat_star(M, T)).scale_series(
        TSeries.constant(Q2, T)
    )
    for m in range(comm.valid_columns() + 1):
        assert comm.entry(m, m).coeffs[0] == ONE - Q2


# -- validity discipline -------------------------------------------------------------


def test_reads_beyond_valid_columns_raise():
    A = i_op(2, 0, M, T)  # raise_bound 2
    assert A.valid_columns() == M - 2
    with pytest.raises(ValidityError):
        A.entry(M, M - 1)


def test_product_raise_bounds_add():
    A = i_op(2, 0, M, T) * i_op(1, 0, M, T)
    assert A.raise_bound == 3
    with pytest.raises(ValidityError):
        A.entry(M, M - 2)


def test_equal_on_valid_requires_common_columns():
    A = i_op(0, 0, 2, T)
    B = i_op(3, 0, 2, T)  # raise 3 > M leaves no valid columns
    with pytest.raises(ValidityError):
        A.equal_on_valid(B)


# -- q_map ----------------------------------------------------------------------------


def test_q_map_unit():
    from qdisc import FockOp

    assert q_map(StarSeries.one(T), M) == FockOp.identity(M, T)


def test_q_map_single_polynomial():
    psi = StarSeries.from_ncpoly(NCPoly.monomial(1, 1), T)
    assert q_map(psi, M) == i_op(1, 1, M, T)


def test_q_map_star_is_operator_product():
    lhs = q_map(star(ZS, Z, T), M)
    rhs = i_op(0, 1, M, T) * i_op(1, 0, M, T)
    assert lhs.equal_on_valid(rhs)


def test_q_map_homomorphism_sample_pairs():
    pairs = [((1, 1), (1, 1)), ((0, 2), (2, 0)), ((2, 1), (1, 2)), ((0, 1), (2, 2))]
    for (a, b), (c, d) in pairs:
        f1, f2 = NCPoly.monomial(a, b), NCPoly.monomial(c, d)
        lhs = q_map(star(f1, f2, T), M)
        rhs = i_op_poly(f1, M, T) * i_op_poly(f2, M, T)
        assert lhs.equal_on_valid(rhs), (a, b, c, d)


def _same_op(got, want):
    assert got.entries == want.entries
    assert got.raise_bound == want.raise_bound


SMALL_MONOMIALS = [(j, k) for j in range(3) for k in range(3)]


# the naive route scales whole entries, so T = 5 runs on a smaller basis
@pytest.mark.parametrize("order, cutoff", [(3, M), (5, 10)])
def test_q_map_matches_naive_route_on_monomial_pairs(order, cutoff):
    for a, b in SMALL_MONOMIALS:
        f1 = NCPoly.monomial(a, b)
        _same_op(i_op_poly(f1, cutoff, order), naive_i_op_poly(f1, cutoff, order))
        for c, d in SMALL_MONOMIALS:
            psi = star(f1, NCPoly.monomial(c, d), order)
            _same_op(q_map(psi, cutoff), naive_q_map(psi, cutoff))


def test_q_map_matches_naive_route_on_random_star_outputs(rand_ncpoly):
    # non-integral coefficients make every scalar op a gcd over Q: a small basis
    cutoff = 8
    rng = random.Random(5)
    for _ in range(20):
        f1, f2 = rand_ncpoly(rng, max_exp=2), NCPoly.zero()
        while f2.is_zero():
            f2 = rand_ncpoly(rng, max_exp=2)
        # a non-integral coefficient on a monomial of its own
        f1 = f1 + NCPoly.monomial(3, rng.randint(0, 2), QScalar.from_fraction(Fraction(rng.randint(1, 4), 7)))
        psi = star(f1, f2, T)
        assert sum(len(c.terms) for c in psi.coeffs) > 1
        _same_op(q_map(psi, cutoff), naive_q_map(psi, cutoff))
        _same_op(i_op_poly(f1, cutoff, T), naive_i_op_poly(f1, cutoff, T))


def test_q_map_drops_entries_whose_terms_cancel():
    # at t^T only constant terms survive: z zs - (1 - q^4) vanishes on z^2
    top = NCPoly.monomial(1, 1) - NCPoly.scalar(ONE - QScalar.q_power(4))
    psi = StarSeries((Z, NCPoly.monomial(0, 2)) + (NCPoly.zero(),) * (T - 2) + (top,), T)
    got = q_map(psi, M)
    assert (2, 2) not in got.entries and (3, 3) in got.entries
    _same_op(got, naive_q_map(psi, M))


def _column_rows(k: int, order: int) -> list:
    """The rows of ``_column_poly(k, order)`` as (power of x, QScalar) pairs."""
    return [[(p, QScalar(num, None, _canonical=True)) for p, num in row] for row in _column_poly(k, order)]


def test_column_poly_reads_the_column_series():
    # the table is a polynomial of degree k + n in x at t^n, and read at
    # x = q^2m it is the column value; lower orders are prefixes of order 6
    top = 6
    for k in range(9):
        table = _column_rows(k, top)
        for order in range(top):
            assert _column_rows(k, order) == table[: order + 1], (k, order)
        for n, row in enumerate(table):
            assert [p for p, _ in row] == ([] if k == 0 and n else list(range(n, n + k + 1))), (k, n)
        for m in range(21):
            x = QScalar.q_power(2 * m)
            read = [sum((c * x**p for p, c in row), ZERO) for row in table]
            want = column_series(k, m, top)
            assert read == list(want.coeffs), (k, m)
            assert _column_value(k, m, top) == want, (k, m)
            assert _column_value(k, m, 2).coeffs == want.coeffs[:3], (k, m)


def test_column_poly_rows_are_laurent_numerators():
    # the diagonal sums in _image add the table entries with no denominator:
    # each is a zero-free integer dict in powers of r = s^-4, canonical over 1
    for k in range(9):
        for order in range(9):
            for row in _column_poly(k, order):
                for _, num in row:
                    assert num and all(type(c) is int and c for c in num.values()), (k, order, num)
                    assert all(e <= 0 and e % 4 == 0 for e in num), (k, order, num)
                    assert QScalar(num) == QScalar(num, None, _canonical=True)


def _several_term_series(order: int) -> StarSeries:
    """Several terms on diagonals 0 and -1 at every t-order, one lone term on 2.

    Coefficients are Laurent in q, rational with denominator 7 (``{0: 7}``),
    both, one, and 1/(1 - q^2), whose denominator is no monomial.  On
    diagonal 0 every term below t^order vanishes on the columns z^0, z^1,
    z^2, and at t^order z zs - (1 - q^4) vanishes on z^2, so the whole entry
    at column z^2 cancels.
    """
    laurent = QScalar.from_int(2) * QScalar.q_power(-3) - QScalar.q_power(1)
    seventh = QScalar.from_fraction(Fraction(3, 7))
    coeffs = []
    for n in range(order + 1):
        f = NCPoly.monomial(3, 3, seventh) + NCPoly.monomial(4, 4, laurent * QScalar.q_power(n))
        f = f + NCPoly.monomial(0, 1, seventh * QScalar.q_power(-1)) + NCPoly.monomial(1, 2, laurent)
        f = f + NCPoly.monomial(2, 3) + NCPoly.monomial(3, 4, ONE / (ONE - Q2))
        if n == order:
            f = f + NCPoly.monomial(1, 1) - NCPoly.scalar(ONE - QScalar.q_power(4))
        if n == 0:
            f = f + NCPoly.monomial(3, 1, laurent)
        coeffs.append(f)
    return StarSeries(coeffs, order)


def _mixed_denominator_series(order: int) -> StarSeries:
    """One diagonal whose terms carry 1, q^-2, 3/7, 1/(2q) and 1/(1 - q^2) at every t-order.

    Their denominators are 1, s^4, 7, 2 s^2 and 1 - s^4: monomials with a
    unit and a non-unit coefficient next to one that is no monomial.
    """
    values = (ONE, QScalar.q_power(-2), QScalar.from_fraction(Fraction(3, 7)), ONE / (2 * QScalar.q_power(1)), ONE / (ONE - Q2))
    f = NCPoly.zero()
    for k, c in enumerate(values):
        f = f + NCPoly.monomial(k + 1, k, c)
    return StarSeries([f.scale(QScalar.q_power(n)) for n in range(order + 1)], order)


@pytest.mark.parametrize("order", [0, 3, 5])
@pytest.mark.parametrize("cutoff", [0, 1, 8, 16])
def test_q_map_matches_naive_route_on_diagonals_with_several_terms(cutoff, order):
    for psi in (_mixed_denominator_series(order), _several_term_series(order)):
        got = q_map(psi, cutoff)
        _same_op(got, naive_q_map(psi, cutoff))
        for f in psi.coeffs[:2]:
            _same_op(i_op_poly(f, cutoff, order), naive_i_op_poly(f, cutoff, order))
    assert (2, 2) not in got.entries
    assert ((1, 1) in got.entries) == (cutoff >= 1)
    assert ((3, 3) in got.entries) == (cutoff >= 3)


def test_diagonal_sums_hand_no_zero_entry_to_read(monkeypatch):
    """Over the 81 certification pairs at T = 3, every numerator ``_read`` gets is nonzero."""
    from qdisc import fockrep

    seen = []
    real = fockrep._read

    def spy(num_rows, m, order):
        seen.extend(num for row in num_rows for _, num in row)
        return real(num_rows, m, order)

    monkeypatch.setattr(fockrep, "_read", spy)
    for a, b, c, d in itertools.product(range(3), repeat=4):
        q_map(star(NCPoly.monomial(a, b), NCPoly.monomial(c, d), T), M)
    assert seen
    assert all(num and all(num.values()) for num in seen)


@pytest.mark.parametrize("order", [3, 5])
def test_column_weight_is_column_value_times_the_column_factor(order):
    # w(k, m) = c(k, m) (t Q; Q)_m with Q = q^2, a polynomial of degree m - k in t
    Q = QScalar.q_power(2)
    for m in range(17):
        factor = _t_linear_product([(ONE, -(Q ** (i + 1))) for i in range(m)], order)
        for k in range(m + 1):
            weight = _column_weight(k, m, order)
            assert weight == column_series(k, m, order) * factor, (k, m)
            assert not any(c.num for c in weight.coeffs[m - k + 1 :]), (k, m)


# -- covariant symbols ------------------------------------------------------------------


def test_covariant_symbol_of_identity():
    from qdisc import FockOp

    sym = covariant_symbol(FockOp.identity(M, T), 6)
    assert sym.entries == {(0, 0): TSeries.one(T)}


def test_covariant_symbol_round_trip():
    for j in range(3):
        for k in range(3):
            sym = covariant_symbol(i_op(j, k, M, T), 6)
            assert sym.entries == {(j, k): TSeries.one(T)}, (j, k)


def test_covariant_symbol_round_trip_polynomial():
    f = NCPoly.monomial(2, 1, Q2) + NCPoly.monomial(0, 1, ONE - Q2) + NCPoly.one()
    sym = covariant_symbol(i_op_poly(f, M, T), 6)
    got = NCPoly({key: ts.coeffs[0] for key, ts in sym.entries.items() if not ts.coeffs[0].is_zero()})
    # the t^0 part recovers f exactly, and there is no spurious t-dependence
    assert got == f
    for key, ts in sym.entries.items():
        assert all(c.is_zero() for c in ts.coeffs[1:]), key


def test_covariant_symbol_of_operator_product():
    sym = covariant_symbol(i_op(0, 1, M, T) * i_op(1, 0, M, T), 6)
    want = from_rational([ONE - Q2], [ONE, -Q2], T)
    assert sym.entry(0, 0) == want


def test_covariant_symbol_needs_enough_cutoff():
    with pytest.raises(InsufficientCutoffError):
        covariant_symbol(i_op(1, 1, 4, T), 6)


@pytest.mark.parametrize("cutoff,order,window", [(16, 3, 6), (9, 5, 5)])
def test_covariant_symbol_matches_qbinomial_oracle_on_berezin_operators(cutoff, order, window):
    for j in range(3):
        for k in range(3):
            A = i_op(0, j, cutoff, order) * i_op(k, 0, cutoff, order)
            assert covariant_symbol(A, window) == qbinomial_covariant_symbol(A, window), (j, k)


def test_covariant_symbol_matches_qbinomial_oracle_at_order_8():
    # every column weight of window 8 has degree m - k <= 8 in t, so none is truncated at order 8
    for j in range(4):
        for k in range(4):
            A = i_op(0, j, 20, 8) * i_op(k, 0, 20, 8)
            assert covariant_symbol(A, 8) == qbinomial_covariant_symbol(A, 8), (j, k)


def test_covariant_symbol_matches_qbinomial_oracle_on_q_map_images(rng, rand_ncpoly):
    for _ in range(4):
        A = q_map(star(rand_ncpoly(rng, 2, 3), rand_ncpoly(rng, 2, 3), T), M)
        assert covariant_symbol(A, 6) == qbinomial_covariant_symbol(A, 6)
    # negative powers of q: Laurent values with negative exponents that must survive the division
    f = NCPoly.monomial(2, 1, QScalar.q_power(-1)) + NCPoly.monomial(0, 1, QScalar.q_power(-3))
    A = q_map(star(f, NCPoly.monomial(1, 1, QScalar.q_power(-2)), T), M)
    sym = covariant_symbol(A, 6)
    assert sym == qbinomial_covariant_symbol(A, 6)
    assert any(c.num and min(c.num) < 0 for ts in sym.entries.values() for c in ts.coeffs)


def test_covariant_symbol_matches_qbinomial_oracle_off_the_laurent_values():
    """Symbols whose values are not Laurent: the solve's exact division falls back."""
    from qdisc import FockOp

    three_sevenths = QScalar.from_fraction(Fraction(3, 7))
    diagonal = FockOp(M, T, {(m, m): TSeries.constant(c, T) for m, c in enumerate((1, 2, three_sevenths))})
    f = NCPoly.monomial(1, 1, ONE / (ONE - QScalar.q_power(1))) + NCPoly.monomial(0, 0, three_sevenths)
    for A in (diagonal, i_op_poly(f, M, T)):
        sym = covariant_symbol(A, 6)
        assert sym == qbinomial_covariant_symbol(A, 6)
        # a denominator that is no monomial can only come out of the fallback
        assert any(len(c.den) > 1 for ts in sym.entries.values() for c in ts.coeffs)


# -- the transform ------------------------------------------------------------------------


def test_transform_of_unit():
    w = berezin(0, 0, 6, M, T)
    assert w.entries == {(0, 0): TSeries.one(T)}


def test_transform_fixes_one_sided_monomials():
    for k in range(1, 3):
        assert berezin(0, k, 6, M, T).entries == {(k, 0): TSeries.one(T)}
        assert berezin(k, 0, 6, M, T).entries == {(0, k): TSeries.one(T)}


def test_transform_corner_entry():
    w = berezin(1, 1, 6, M, T)
    assert w.entry(0, 0) == from_rational([ONE - Q2], [ONE, -Q2], T)


def test_expansion_of_antiholomorphic_is_flat():
    terms = berezin_expansion(2, 0, 3)
    assert terms[0] == NCPoly.monomial(0, 2)
    assert all(t.is_zero() for t in terms[1:])


def test_expansion_of_unit():
    terms = berezin_expansion(0, 0, 4)
    assert terms[0] == NCPoly.one()
    assert all(t.is_zero() for t in terms[1:])


def test_expansion_leading_term_is_normal_ordered_symbol():
    for j, k in [(1, 1), (2, 1), (1, 2)]:
        terms = berezin_expansion(j, k, 1)
        assert terms[0] == nc_mul(NCPoly.monomial(0, j), NCPoly.monomial(k, 0))


def test_expansion_matches_horner_route():
    for j in range(3):
        for k in range(3):
            assert berezin_expansion(j, k, 5) == berezin_horner(j, k, 5), (j, k)


@pytest.mark.parametrize("cutoff, order", [(16, 3), (9, 5)])
def test_transform_operator_is_product_of_monomial_images(cutoff, order):
    # berezin solves i_op(0, j) i_op(k, 0); the oracle multiplies shifts one by one
    for j in range(4):
        for k in range(4):
            want = naive_berezin_op(j, k, cutoff, order)
            _same_op(i_op(0, j, cutoff, order) * i_op(k, 0, cutoff, order), want)
            assert berezin(j, k, 6, cutoff, order) == covariant_symbol(want, 6), (j, k)


@pytest.mark.parametrize("order", [3, 5])
def test_map_back_needs_the_whole_symbol_in_the_window(order):
    for j, k in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert _maps_back(j, k, max(j, k) + order, M, order), (j, k)
        assert not _maps_back(j, k, max(j, k) + order - 1, M, order), (j, k)


def test_transform_matches_expansion():
    for j, k in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        terms = berezin_expansion(j, k, T)
        w = berezin(j, k, 6, M, T)
        for n in range(T + 1):
            assert w.t_coefficient(n) == terms[n], (j, k, n)


def test_sandwich_covariance():
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    sym = covariant_symbol(i_op(i, j, M, T) * i_op(k, l, M, T), 6)
                    base = berezin(j, k, 6, M, T)
                    for a in range(7):
                        for b in range(7):
                            want = (
                                base.entry(a - i, b - l)
                                if a >= i and b >= l
                                else TSeries.zero(T)
                            )
                            assert sym.entry(a, b) == want, (i, j, k, l, a, b)
