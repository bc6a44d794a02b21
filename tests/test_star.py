"""Tests for the expansion polynomials and the deformed product."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import qdisc
from qdisc import (
    E,
    F,
    NCPoly,
    ONE,
    QScalar,
    StarSeries,
    TensorPoly,
    Z,
    ZS,
    act,
    berezin,
    box_tilde,
    ck,
    clear_caches,
    fockrep,
    m0,
    m_series,
    nc_mul,
    pk,
    q_map,
    qpoly,
    series_involution,
    star,
    uqsl2,
)
from qdisc.star import _SECTORS, _X_IMAGES, _ck_mono

from conftest import berezin_horner, box_tilde_sector_chain, ck_horner, pk_sum_formula

Q2 = QScalar.q_power(2)


# -- expansion polynomials ------------------------------------------------------


def test_p0_is_one():
    assert pk(0).coeffs == [ONE]


def test_p1_explicit():
    # hand expansion: the degree-one term carries coefficient (1 - q^2)
    assert pk(1).coeffs == [ONE, ONE - Q2]


def test_pk_degree_and_constant_term():
    for k in range(9):
        p = pk(k)
        assert p.degree() == k
        assert p.coeffs[0] == ONE
        assert p(QScalar.from_int(0)) == ONE


def test_pk_matches_sum_formula():
    # the three-term recurrence against the terminating j-sum, exactly
    for k in range(13):
        assert pk(k) == pk_sum_formula(k), k


def test_pk_degrees_share_one_chain():
    # a high degree fills the chain; reading lower degrees, highest first and
    # with the memo cleared, extends nothing
    pk(12)
    computed = len(_X_IMAGES)
    pk.cache_clear()
    for k in reversed(range(13)):
        assert pk(k) == pk_sum_formula(k), k
    assert len(_X_IMAGES) == computed


def test_pk_rejects_negative():
    with pytest.raises(ValueError):
        pk(-1)


# -- bidifferential coefficients ---------------------------------------------------


def test_c1_is_scaled_box_tilde(rng, rand_ncpoly):
    # p_1 - p_0 = (1 - q^2) x, so C_1 = (1 - q^2) m0(box_tilde(.))
    for _ in range(15):
        f1 = rand_ncpoly(rng, 2, 2)
        f2 = rand_ncpoly(rng, 2, 2)
        want = m0(box_tilde(TensorPoly.from_polys(f1, f2))).scale(ONE - Q2)
        assert ck(1, f1, f2) == want


def test_ck_vanishes_on_holomorphic_left(rng, rand_ncpoly):
    for k in (1, 2, 3):
        for i in (0, 1, 2):
            assert ck(k, NCPoly.monomial(i, 0), rand_ncpoly(rng)).is_zero()


def test_c1_on_generators():
    mid = m0(box_tilde(TensorPoly.from_polys(ZS, Z)))
    assert ck(1, ZS, Z) == mid.scale(ONE - Q2)


def test_ck_zero_rejected():
    with pytest.raises(ValueError):
        ck(0, Z, ZS)


def test_ck_matches_horner_route(rng, rand_ncpoly):
    # polynomials with several terms, one of them carrying a Fraction
    for k in (1, 2, 3):
        for _ in range(4):
            f1 = rand_ncpoly(rng, 2, 3) + NCPoly.monomial(1, 2, Fraction(1, 2))
            f2 = rand_ncpoly(rng, 2, 3)
            assert ck(k, f1, f2) == ck_horner(k, f1, f2), (k, f1, f2)


def test_ck_bilinear(rng, rand_ncpoly):
    for _ in range(10):
        f1, g1 = rand_ncpoly(rng, 2, 2), rand_ncpoly(rng, 2, 2)
        f2 = rand_ncpoly(rng, 2, 2)
        assert ck(2, f1 + g1, f2) == ck(2, f1, f2) + ck(2, g1, f2)


# -- the star product ----------------------------------------------------------------


def test_star_leading_term_is_plain_product(rng, rand_ncpoly):
    for _ in range(10):
        f1, f2 = rand_ncpoly(rng), rand_ncpoly(rng)
        st = star(f1, f2, 2)
        assert st.coeffs[0] == nc_mul(f1, f2)


def test_star_holomorphic_collapses():
    for i in range(3):
        for a in range(3):
            for b in range(3):
                st = star(NCPoly.monomial(i, 0), NCPoly.monomial(a, b), 3)
                assert all(c.is_zero() for c in st.coeffs[1:])
                st = star(NCPoly.monomial(a, b), NCPoly.monomial(0, i), 3)
                assert all(c.is_zero() for c in st.coeffs[1:])


def test_star_zs_z_assembled():
    st = star(ZS, Z, 1)
    assert st.coeffs[0] == nc_mul(ZS, Z)
    assert st.coeffs[1] == ck(1, ZS, Z)


def test_star_matches_horner_route_on_monomial_pairs():
    # every pair z^a zs^b, z^c zs^d with exponents <= 2; a, d > 0 exercise
    # the outer shifts C_k(z^a zs^b, z^c zs^d) = z^a C_k(zs^b, z^c) zs^d
    T = 5
    monomials = [NCPoly.monomial(j, k) for j in range(3) for k in range(3)]
    for f1 in monomials:
        for f2 in monomials:
            want = (nc_mul(f1, f2),) + tuple(ck_horner(k, f1, f2) for k in range(1, T + 1))
            assert star(f1, f2, T).coeffs == want, (f1, f2)


def test_sector_chain_matches_box_tilde_route():
    # _ck_mono runs box on zs^b z^c; the reference takes m0 of the tensor chain
    for b in range(4):
        for c in range(4):
            assert _ck_mono(b, c, 8) == box_tilde_sector_chain(b, c, 8), (b, c)


def test_ck_sectors_share_one_chain():
    # a high order fills the sector's chain; lower orders, asked with the
    # memo cleared, extend nothing and hand out the same C_k objects
    _ck_mono(2, 3, 7)
    u, cs = _SECTORS[(2, 3)]
    high = len(u) - 1  # above 7 if an earlier call went higher
    top = _ck_mono(2, 3, high)
    _ck_mono.cache_clear()
    for order in reversed(range(high + 1)):
        got = _ck_mono(2, 3, order)
        assert got == top[:order], order
        assert all(a is b for a, b in zip(got, top)), order
    assert len(u) == high + 1
    # a higher order extends the same chain by one step
    longer = _ck_mono(2, 3, high + 1)
    assert _SECTORS[(2, 3)] == (u, cs) and len(u) == high + 2
    assert longer[:high] == top
    assert longer == tuple(berezin_horner(2, 3, high + 1)[1:])


def test_sector_chain_matches_sum_formula_route():
    # the terminating j-sum applied by Horner, independent of pk_images
    for b in range(1, 4):
        for c in range(1, 4):
            assert _ck_mono(b, c, 8) == tuple(berezin_horner(b, c, 8)[1:]), (b, c)


def test_star_negative_order_rejected():
    with pytest.raises(ValueError):
        star(Z, ZS, -1)


# -- the series product ---------------------------------------------------------------


def test_m_series_unit():
    psi = star(ZS, Z, 3)
    one = StarSeries.one(3)
    assert m_series(one, psi) == psi
    assert m_series(psi, one) == psi


def test_m_series_single_term_is_star():
    a = StarSeries.from_ncpoly(Z, 3)
    b = StarSeries.from_ncpoly(ZS, 3)
    assert m_series(a, b) == star(Z, ZS, 3)


def test_m_series_order_mismatch():
    with pytest.raises(ValueError):
        m_series(StarSeries.one(2), StarSeries.one(3))


def test_m_series_associative_witness():
    a = StarSeries.from_ncpoly(ZS, 3)
    b = StarSeries.from_ncpoly(Z, 3)
    c = StarSeries.from_ncpoly(ZS, 3)
    assert m_series(m_series(a, b), c) == m_series(a, m_series(b, c))


def test_m_series_associative_grid():
    monos = [NCPoly.monomial(j, k) for j in range(3) for k in range(3)]
    series = [StarSeries.from_ncpoly(f, 2) for f in monos]
    for a in series[:5]:
        for b in series[:5]:
            for c in series[:5]:
                assert m_series(m_series(a, b), c) == m_series(a, m_series(b, c))


def test_m_series_distributes(rng, rand_ncpoly):
    for _ in range(10):
        a = StarSeries.from_ncpoly(rand_ncpoly(rng, 2, 2), 2)
        b = StarSeries.from_ncpoly(rand_ncpoly(rng, 2, 2), 2)
        c = StarSeries.from_ncpoly(rand_ncpoly(rng, 2, 2), 2)
        assert m_series(a, b + c) == m_series(a, b) + m_series(a, c)


# -- series involution ------------------------------------------------------------------


def test_involution_fixes_selfadjoint_star():
    st = star(ZS, Z, 3)
    assert series_involution(st) == st


def test_involution_termwise():
    f = NCPoly.monomial(2, 0) + NCPoly.monomial(0, 1, Q2)
    psi = StarSeries.from_ncpoly(f, 2)
    assert series_involution(psi).coeffs[0] == f.involution()


def test_involution_is_involutive(rng, rand_ncpoly):
    for _ in range(10):
        psi = star(rand_ncpoly(rng, 2, 2), rand_ncpoly(rng, 2, 2), 2)
        assert series_involution(series_involution(psi)) == psi


def test_involution_antihomomorphism(rng, rand_ncpoly):
    for _ in range(30):
        p1 = StarSeries.from_ncpoly(rand_ncpoly(rng, 2, 2), 3)
        p2 = StarSeries.from_ncpoly(rand_ncpoly(rng, 2, 2), 3)
        lhs = series_involution(m_series(p1, p2))
        rhs = m_series(series_involution(p2), series_involution(p1))
        assert lhs == rhs


def _memo_results() -> tuple:
    """Results that fill every memo ``clear_caches`` empties."""
    f1 = NCPoly.monomial(2, 1) + NCPoly.monomial(0, 3, QScalar.q_power(-1))
    f2 = NCPoly.monomial(3, 2, Fraction(1, 2))
    psi = star(f1, f2, 3)
    return psi, [pk(k) for k in range(6)], act(E, f1), act(F, f2), q_map(psi, 8), berezin(1, 2, 4, 8, 2)


def _package_memos() -> set:
    """Every object with ``cache_clear`` in the modules of ``qdisc``."""
    modules = [importlib.import_module(f"qdisc.{info.name}") for info in pkgutil.iter_modules(qdisc.__path__)]
    return {obj for module in modules for obj in vars(module).values() if hasattr(obj, "cache_clear")}


def test_clear_caches_empties_every_memo_and_keeps_results():
    memos = _package_memos()
    assert {qpoly._normal_block, pk, _ck_mono, uqsl2._act_mono, fockrep.i_op, fockrep._column_weight} <= memos
    before = _memo_results()
    assert all(memo.cache_info().currsize for memo in memos)
    assert _SECTORS and len(_X_IMAGES) > 1
    clear_caches()
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)
    assert not _SECTORS and _X_IMAGES == [NCPoly.one()]
    assert _memo_results() == before
