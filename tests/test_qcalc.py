"""Tests for the partial derivatives, box, its tensor lift, and m0."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from qdisc import (
    NCPoly,
    ONE,
    QScalar,
    TensorPoly,
    Z,
    ZS,
    box,
    box_tilde,
    d_partial,
    m0,
    nc_mul,
    parse_ncpoly,
    tensor_mul,
)

from conftest import (
    box_product_form,
    box_right_form,
    m0_product_form,
    mixed_ncpolys,
    mixed_tensors,
    naive_d_partial,
)

Q2 = QScalar.q_power(2)
QM2 = QScalar.q_power(-2)
SIDES_AND_VARIABLES = [(side, var) for side in ("right", "left") for var in ("z", "zstar")]


# -- partial derivatives -------------------------------------------------------


def test_derivative_of_generator():
    assert d_partial(Z, "right", "z") == NCPoly.one()
    assert d_partial(Z, "left", "z") == NCPoly.one()
    assert d_partial(ZS, "right", "zstar") == NCPoly.one()


def test_derivative_of_square_right():
    # d(z^2) = dz z + z dz, and dz z = q^2 z dz
    assert d_partial(NCPoly.monomial(2, 0), "right", "z") == NCPoly.monomial(1, 0, ONE + Q2)


def test_derivative_of_square_left():
    assert d_partial(NCPoly.monomial(2, 0), "left", "z") == NCPoly.monomial(1, 0, ONE + QM2)


def test_mixed_derivative_vanishes():
    for j in range(4):
        assert d_partial(NCPoly.monomial(j, 0), "right", "zstar").is_zero()
        assert d_partial(NCPoly.monomial(0, j), "left", "z").is_zero()


def test_derivative_of_constant():
    assert d_partial(NCPoly.scalar(QScalar.s_power(5)), "right", "z").is_zero()
    assert d_partial(NCPoly.zero(), "left", "zstar").is_zero()


def test_derivative_is_linear(rng, rand_ncpoly):
    for _ in range(20):
        f = rand_ncpoly(rng)
        g = rand_ncpoly(rng)
        for side in ("left", "right"):
            for var in ("z", "zstar"):
                assert d_partial(f + g, side, var) == d_partial(f, side, var) + d_partial(g, side, var)


def test_closed_forms_match_word_rewriting_on_monomials():
    for j in range(7):
        for k in range(7):
            f = NCPoly.monomial(j, k)
            for side, var in SIDES_AND_VARIABLES:
                assert d_partial(f, side, var) == naive_d_partial(f, side, var), (j, k, side, var)


def test_closed_forms_match_word_rewriting_on_polynomials(rng, rand_ncpoly):
    for _ in range(40):
        f = rand_ncpoly(rng, max_exp=5, nterms=4) + NCPoly.monomial(
            rng.randint(0, 5), rng.randint(0, 5), Fraction(rng.randint(1, 5), rng.randint(2, 7))
        )
        for side, var in SIDES_AND_VARIABLES:
            assert d_partial(f, side, var) == naive_d_partial(f, side, var), (f, side, var)


def test_bad_arguments():
    with pytest.raises(ValueError):
        d_partial(Z, "up", "z")
    with pytest.raises(ValueError):
        d_partial(Z, "left", "w")


def _twist(f: NCPoly, direction: int) -> NCPoly:
    # independent statement of how a differential letter scales a monomial
    return NCPoly(
        {(j, k): c * QScalar.q_power(2 * (j - k) * direction) for (j, k), c in f.terms.items()}
    )


def test_leibniz_rule(rng, rand_ncpoly):
    for _ in range(40):
        f = rand_ncpoly(rng, max_exp=3, nterms=2)
        g = rand_ncpoly(rng, max_exp=3, nterms=2)
        fg = nc_mul(f, g)
        for var in ("z", "zstar"):
            lhs = d_partial(fg, "right", var)
            rhs = nc_mul(d_partial(f, "right", var), _twist(g, 1)) + nc_mul(
                f, d_partial(g, "right", var)
            )
            assert lhs == rhs, ("right", var, f, g)
            lhs = d_partial(fg, "left", var)
            rhs = nc_mul(d_partial(f, "left", var), g) + nc_mul(
                _twist(f, -1), d_partial(g, "left", var)
            )
            assert lhs == rhs, ("left", var, f, g)


# -- box -------------------------------------------------------------------------


def test_box_kills_constants_and_holomorphics():
    assert box(NCPoly.one()).is_zero()
    assert box(Z).is_zero()
    assert box(NCPoly.monomial(3, 0)).is_zero()
    assert box(NCPoly.monomial(0, 2)).is_zero()


def test_box_of_relation_product():
    # composition oracle: assemble the left form by hand
    f = nc_mul(ZS, Z)
    w = NCPoly.one() - NCPoly.monomial(1, 1)
    by_hand = nc_mul(nc_mul(w, w), d_partial(d_partial(f, "left", "z"), "left", "zstar"))
    assert box(f) == by_hand
    # and the right form, built from right derivatives, gives the same
    assert box(f) == box_right_form(f)


def test_box_stencil_matches_product_form_on_monomials():
    for j in range(13):
        for k in range(13):
            f = NCPoly.monomial(j, k)
            assert box(f) == box_product_form(f), (j, k)


@pytest.mark.parametrize(
    "text", ["1/(1-q)*z*zs + 3*z^2*zs - 1/q*z*zs^3", "s*z*zs + 1/2*z^2*zs^2", "z*zs - (1+q)/q^2*z^2*zs^2"]
)
def test_box_stencil_matches_product_form_on_non_laurent_coefficients(text):
    f = parse_ncpoly(text)
    assert box(f) == box_product_form(f)


@settings(max_examples=60, deadline=None)
@given(mixed_ncpolys())
def test_box_stencil_matches_product_form_on_mixed_coefficients(f):
    assert box(f) == box_product_form(f)


def test_box_two_forms_agree_on_monomials():
    for j in range(5):
        for k in range(5):
            f = NCPoly.monomial(j, k)
            assert box(f) == box_right_form(f), (j, k)


# -- box_tilde ---------------------------------------------------------------------


# middle factor of box_tilde: q^-2 (1(x)1 - (1+q^-2) zs(x)z + q^-2 zs^2(x)z^2)
MID = TensorPoly(
    {
        (0, 0, 0, 0): QM2,
        (0, 1, 1, 0): -(ONE + QM2) * QM2,
        (0, 2, 2, 0): QM2 * QM2,
    }
)


def test_box_tilde_kills_holomorphic_first_leg(rng, rand_ncpoly):
    for _ in range(10):
        f = rand_ncpoly(rng)
        assert box_tilde(TensorPoly.from_polys(NCPoly.monomial(2, 0), f)).is_zero()
        assert box_tilde(TensorPoly.from_polys(f, NCPoly.monomial(0, 3))).is_zero()


def test_box_tilde_on_generators_is_middle_factor():
    assert box_tilde(TensorPoly.from_polys(ZS, Z)) == MID


def test_box_tilde_matches_general_route_on_monomial_tensors():
    # (d^r f1/dzs (x) 1) * MID * (1 (x) d^l f2/dz) with rewritten derivatives
    # and general leg-wise products
    one = NCPoly.one()
    for a, b, c, d in itertools.product(range(4), repeat=4):
        da = naive_d_partial(NCPoly.monomial(a, b), "right", "zstar")
        db = naive_d_partial(NCPoly.monomial(c, d), "left", "z")
        want = tensor_mul(tensor_mul(TensorPoly.from_polys(da, one), MID), TensorPoly.from_polys(one, db))
        assert box_tilde(TensorPoly({(a, b, c, d): ONE})) == want, (a, b, c, d)


def test_box_tilde_linear(rng, rand_ncpoly):
    for _ in range(10):
        F = TensorPoly.from_polys(rand_ncpoly(rng, 2, 2), rand_ncpoly(rng, 2, 2))
        G = TensorPoly.from_polys(rand_ncpoly(rng, 2, 2), rand_ncpoly(rng, 2, 2))
        assert box_tilde(F + G) == box_tilde(F) + box_tilde(G)


def test_factorization_identity():
    # box applied to f2(zs) f1(z) equals m0 after box_tilde on f2 (x) f1; the
    # sector chains of star rely on it up to exponent b + T
    for a in range(13):
        for b in range(13):
            f1 = NCPoly.monomial(a, 0)
            f2 = NCPoly.monomial(0, b)
            assert box(nc_mul(f2, f1)) == m0(box_tilde(TensorPoly.from_polys(f2, f1)))


def test_box_tilde_outer_multipliers():
    for g1 in range(3):
        for a in range(3):
            for b in range(3):
                for g2 in range(3):
                    inner = box_tilde(
                        TensorPoly.from_polys(NCPoly.monomial(0, a), NCPoly.monomial(b, 0))
                    )
                    lhs = box_tilde(
                        TensorPoly.from_polys(
                            NCPoly.monomial(g1, a), NCPoly.monomial(b, g2)
                        )
                    )
                    rhs = TensorPoly({(g1, 0, 0, 0): ONE}) * inner * TensorPoly({(0, 0, 0, g2): ONE})
                    assert lhs == rhs


def test_box_tilde_flip_conjugation(rng, rand_ncpoly):
    # leg-flip plus leg-wise involution commutes with box_tilde
    for _ in range(25):
        F = TensorPoly.from_polys(rand_ncpoly(rng, 2, 2), rand_ncpoly(rng, 2, 2))
        conj = lambda T: T.flip().involution_each_leg()  # noqa: E731
        assert conj(box_tilde(conj(F))) == box_tilde(F)


# -- m0 ---------------------------------------------------------------------------


def test_m0_applies_relation():
    assert m0(TensorPoly.from_polys(ZS, Z)) == nc_mul(ZS, Z)


def test_m0_unit_leg():
    f = NCPoly.monomial(2, 1, QScalar.s_power(3)) + NCPoly.one()
    assert m0(TensorPoly.from_polys(NCPoly.one(), f)) == f


def test_m0_ordered_input():
    assert m0(TensorPoly.from_polys(Z, ZS)) == NCPoly.monomial(1, 1)


@settings(max_examples=60, deadline=None)
@given(mixed_tensors())
def test_m0_matches_product_form(F):
    assert m0(F) == m0_product_form(F)
