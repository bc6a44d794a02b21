"""Tests for the normal-ordered algebra against a brute-force rewriter."""

import pytest

from qdisc import (
    NCPoly,
    ONE,
    QScalar,
    TSeries,
    TensorPoly,
    WindowError,
    WindowedSeries,
    Z,
    ZS,
    nc_mul,
    nc_mul_left_z_power,
    nc_mul_right_zstar_power,
    tensor_mul,
)

from qdisc import qpoly

from conftest import naive_monomial_product, recursive_normal_block

Q2 = QScalar.q_power(2)


def test_commutation_relation():
    assert nc_mul(ZS, Z) == NCPoly.monomial(1, 1, Q2) + NCPoly.scalar(ONE - Q2)


def test_holomorphic_subalgebra_is_plain():
    for j in range(4):
        for k in range(4):
            assert nc_mul(NCPoly.monomial(j, 0), NCPoly.monomial(k, 0)) == NCPoly.monomial(j + k, 0)


def test_double_swap_against_naive_rewriter():
    got = nc_mul(NCPoly.monomial(0, 2), Z)
    assert got == naive_monomial_product(0, 2, 1, 0)


def test_all_small_products_match_naive_rewriter():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    got = nc_mul(NCPoly.monomial(a, b), NCPoly.monomial(c, d))
                    assert got == naive_monomial_product(a, b, c, d), (a, b, c, d)


def test_cold_blocks_match_naive_rewriter_and_memoize_one_entry():
    qpoly._normal_block.cache_clear()
    for b in range(5):
        for c in range(5):
            assert NCPoly(dict(qpoly._normal_block(b, c))) == naive_monomial_product(0, b, c, 0)
    # a block is computed by itself, not from the blocks below it
    qpoly._normal_block.cache_clear()
    qpoly._normal_block(40, 40)
    assert qpoly._normal_block.cache_info().currsize == 1


def test_swapped_blocks_share_coefficient_objects():
    for b in range(9):
        for c in range(b, 10):
            low, high = qpoly._normal_block(b, c), qpoly._normal_block(c, b)
            assert [(k, j) for (j, k), _ in low] == [key for key, _ in high], (b, c)
            assert all(w is v for (_, w), (_, v) in zip(low, high)), (b, c)
    # a block with b > c memoizes itself and the (c, b) block it reads
    qpoly._normal_block.cache_clear()
    qpoly._normal_block(7, 3)
    assert qpoly._normal_block.cache_info().currsize == 2


def _assert_block_matches_recursion(b, c):
    got = qpoly._normal_block(b, c)
    assert got == recursive_normal_block(b, c), (b, c)
    for _, w in got:
        assert w.den == {0: 1}
        assert all(type(v) is int for v in w.num.values())


def test_closed_form_blocks_match_recursion():
    for b in range(26):
        for c in range(26):
            _assert_block_matches_recursion(b, c)


@pytest.mark.parametrize("b, c", [(3, 1500), (1500, 3), (40, 40), (1, 1200)])
def test_large_closed_form_blocks_match_recursion(b, c):
    _assert_block_matches_recursion(b, c)


def test_large_exponent_normal_ordering():
    # zs z^n = q^2n z^n zs + (1 - q^2n) z^(n-1); recursion once overflowed the stack here
    n = 1500
    q2n = QScalar.q_power(2 * n)
    expected = NCPoly.monomial(n, 1, q2n) + NCPoly.monomial(n - 1, 0, ONE - q2n)
    assert nc_mul(ZS, NCPoly.monomial(n, 0)) == expected
    assert nc_mul(NCPoly.monomial(0, n), Z) == NCPoly.monomial(1, n, q2n) + NCPoly.monomial(0, n - 1, ONE - q2n)


def test_associativity_small_monomials():
    monos = [NCPoly.monomial(j, k) for j in range(3) for k in range(3)]
    for a in monos:
        for b in monos:
            for c in monos:
                assert nc_mul(nc_mul(a, b), c) == nc_mul(a, nc_mul(b, c))


def test_unit_and_zero():
    f = nc_mul(ZS, Z) + NCPoly.monomial(2, 1, QScalar.s_power(3))
    assert nc_mul(f, NCPoly.one()) == f
    assert nc_mul(NCPoly.one(), f) == f
    assert nc_mul(f, NCPoly.zero()).is_zero()
    assert (f - f).is_zero()


def test_degree_bookkeeping():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    prod = nc_mul(NCPoly.monomial(a, b), NCPoly.monomial(c, d))
                    allowed = {(a + c - r, b + d - r) for r in range(min(b, c) + 1)}
                    assert set(prod.support()) <= allowed


# -- involution ----------------------------------------------------------------


def test_involution_swaps_exponents():
    assert NCPoly.monomial(2, 1).involution() == NCPoly.monomial(1, 2)
    assert NCPoly.one().involution() == NCPoly.one()


def test_involution_fixes_selfadjoint_product():
    zz = nc_mul(ZS, Z)
    assert zz.involution() == zz  # zs*z is self-adjoint


def test_involution_antihomomorphism(rng, rand_ncpoly):
    for _ in range(60):
        f = rand_ncpoly(rng, max_exp=3)
        g = rand_ncpoly(rng, max_exp=3)
        assert nc_mul(f, g).involution() == nc_mul(g.involution(), f.involution())
        assert f.involution().involution() == f


# -- fast paths -----------------------------------------------------------------


def test_left_z_power_fast_path():
    f = nc_mul(Z, ZS)
    assert nc_mul_left_z_power(1, f) == nc_mul(Z, f) == NCPoly.monomial(2, 1)
    assert nc_mul_left_z_power(1, ZS) == NCPoly.monomial(1, 1)


def test_right_zstar_power_fast_path():
    assert nc_mul_right_zstar_power(2, NCPoly.one()) == NCPoly.monomial(0, 2)
    f = NCPoly.monomial(1, 1) + NCPoly.scalar(QScalar.q_power(3))
    assert nc_mul_right_zstar_power(2, f) == nc_mul(f, NCPoly.monomial(0, 2))


def test_fast_path_rejects_negative():
    with pytest.raises(ValueError):
        nc_mul_left_z_power(-1, Z)


# -- tensor square ----------------------------------------------------------------


def test_tensor_product_legwise():
    F = TensorPoly.from_polys(ZS, Z)
    G = TensorPoly.from_polys(Z, ZS)
    got = tensor_mul(F, G)
    want = TensorPoly.from_polys(nc_mul(ZS, Z), nc_mul(Z, ZS))
    assert got == want


def test_tensor_flip_and_involution():
    F = TensorPoly.from_polys(Z, nc_mul(ZS, Z))
    assert F.flip().flip() == F
    assert F.involution_each_leg().involution_each_leg() == F


# -- windowed series ----------------------------------------------------------------


def test_windowed_series_reads_inside_window():
    w = WindowedSeries(2, 1, {(1, 1): TSeries.one(1)})
    assert w.entry(1, 1) == TSeries.one(1)
    assert w.entry(0, 0).is_zero()  # inside the window, known zero


def test_windowed_series_rejects_outside_reads():
    w = WindowedSeries(2, 1, {})
    with pytest.raises(WindowError):
        w.entry(3, 0)


def test_windowed_series_rejects_oversized_entries():
    with pytest.raises(WindowError):
        WindowedSeries(1, 0, {(2, 0): TSeries.one(0)})


# -- canonical text ----------------------------------------------------------------


def test_canonical_term_ordering():
    f = NCPoly.monomial(1, 1, Q2) + NCPoly.scalar(ONE - Q2) + NCPoly.monomial(0, 2)
    # order is lexicographic in (total degree, holomorphic exponent)
    assert str(f) == "(1 - s^4) + zs^2 + s^4*z*zs"
