"""No sparse map stores a zero value.

Every element built from a sum over Q(s) in a sparse basis (polynomials,
tensors, the coefficients of truncated star series, operator entries)
leaves out the keys whose sum cancels, so the zero element has an empty
map and equality is dict comparison.  These tests check that invariant on
the outputs of every operation that sums, with forced cancellations next to
hypothesis inputs.
"""

import pytest
from hypothesis import given, settings

from qdisc import (
    NCPoly,
    ONE,
    QScalar,
    StarSeries,
    TSeries,
    TensorPoly,
    Z,
    ZS,
    box,
    box_tilde,
    m0,
    m_series,
    nc_mul,
    star,
    tensor_mul,
)
from qdisc.fockrep import FockOp, i_op_poly
from qdisc.uqsl2 import GENERATORS, act

from conftest import mixed_coefficients, mixed_ncpolys, mixed_tensors

Q2 = QScalar.q_power(2)


def zero_free(x) -> bool:
    terms = x.entries if isinstance(x, FockOp) else x.terms
    return not any(v.is_zero() for v in terms.values())


@settings(max_examples=60, deadline=None)
@given(mixed_ncpolys(), mixed_ncpolys(), mixed_coefficients())
def test_linear_structure_is_zero_free(f, g, c):
    for h in (f + g, f - g, f + (g - f), -f, f.scale(c), c * f):
        assert zero_free(h)
    assert f + (g - f) == g
    assert (f - f).terms == {}


@settings(max_examples=40, deadline=None)
@given(mixed_tensors(max_exp=3, max_terms=4), mixed_tensors(max_exp=3, max_terms=4), mixed_coefficients())
def test_tensor_operations_are_zero_free(F, G, c):
    for H in (F + G, F - G, F + (G - F), F.scale(c), tensor_mul(F, G), box_tilde(F), m0(F)):
        assert zero_free(H)
    assert (F - F).terms == {}


@settings(max_examples=40, deadline=None)
@given(mixed_ncpolys(max_exp=3, max_terms=4), mixed_ncpolys(max_exp=3, max_terms=4))
def test_products_and_operators_are_zero_free(f, g):
    assert zero_free(nc_mul(f, g))
    assert zero_free(box(f))
    for gen in GENERATORS:
        assert zero_free(act(gen, f))


@settings(max_examples=25, deadline=None)
@given(mixed_ncpolys(max_exp=2, max_terms=3), mixed_ncpolys(max_exp=2, max_terms=3))
def test_star_coefficients_are_zero_free(f, g):
    for psi in (star(f, g, 2), m_series(star(f, g, 2), star(g, f, 2))):
        assert all(zero_free(c) for c in psi.coeffs)


@settings(max_examples=25, deadline=None)
@given(mixed_ncpolys(max_exp=2, max_terms=3), mixed_ncpolys(max_exp=2, max_terms=3))
def test_operator_sums_and_products_are_zero_free(f, g):
    A, B = i_op_poly(f, 6, 2), i_op_poly(g, 6, 2)
    for C in (A + B, A - B, A * B, B * A):
        assert zero_free(C)
    assert (A - A).entries == {}


def test_forced_cancellations_are_dropped():
    # (zs + 1)(z + Q - 1) = Q z zs + (Q - 1) zs + z + (1 - Q) + (Q - 1): the constant cancels
    f, g = ZS + NCPoly.one(), Z + NCPoly.scalar(Q2 - ONE)
    assert (0, 0) not in nc_mul(f, g).terms
    left, right = (TensorPoly.from_polys(h, NCPoly.one()) for h in (f, g))
    assert (0, 0, 0, 0) not in tensor_mul(left, right).terms
    assert (0, 0) not in m0(TensorPoly.from_polys(f, g)).terms
    # the stencil of z^2 zs^2 cancels the z zs term outright
    h = NCPoly.monomial(1, 1) + NCPoly.monomial(2, 2, ONE / (ONE + Q2))
    assert (1, 1) not in box(h).terms and zero_free(box(h))
    # the sector terms of zs * z zs and z zs * z zs^2 cancel at z zs^2 in C_1
    f, g = ZS - NCPoly.monomial(1, 1), NCPoly.monomial(1, 1) - NCPoly.monomial(1, 2, ONE + Q2)
    for psi in (star(f, g, 2), m_series(StarSeries.from_ncpoly(f, 2), StarSeries.from_ncpoly(g, 2))):
        assert (1, 2) not in psi.coeffs[1].terms and all(zero_free(c) for c in psi.coeffs)
    one = TSeries.one(2)
    A = FockOp(2, 2, {(0, 0): one, (0, 1): one})
    B = FockOp(2, 2, {(0, 0): one, (1, 0): -one})
    assert (A * B).entries == {}


def test_linear_structures_do_not_mix():
    with pytest.raises(TypeError):
        NCPoly.one() + TensorPoly.from_polys(NCPoly.one(), NCPoly.one())
    with pytest.raises(TypeError):
        TensorPoly.from_polys(NCPoly.one(), NCPoly.one()) - NCPoly.one()
    for order in (0, 2):
        assert StarSeries.zero(order) != TSeries.zero(order)
        assert TSeries.one(order) != StarSeries.one(order)


@pytest.mark.parametrize("other", ["x", 1.5])
def test_products_with_a_non_scalar_are_unsupported(other):
    for element in (NCPoly.zero(), NCPoly.one(), TensorPoly.zero(), TensorPoly.from_polys(Z, ZS)):
        with pytest.raises(TypeError):
            element * other
        with pytest.raises(TypeError):
            other * element
