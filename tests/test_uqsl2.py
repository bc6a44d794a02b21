"""Tests for the quantized symmetry action and its compatibility laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisc import (
    E,
    F,
    GENERATORS,
    K,
    KINV,
    NCPoly,
    ONE,
    QScalar,
    Z,
    ZS,
    act,
    act_series,
    act_word,
    check_box_equivariance,
    check_involution_compat,
    check_module_algebra,
    check_star_equivariance,
    nc_mul,
    star,
)
from qdisc.uqsl2 import (
    check_relation_on,
    coproduct,
    coproduct_word,
    counit,
    counit_word,
    defining_relations,
    star_of_antipode,
)

from conftest import act_sum_form, coproduct_action, mixed_ncpolys

Q2 = QScalar.q_power(2)
S1 = QScalar.s_power(1)


# -- pinned actions -----------------------------------------------------------


def test_action_on_z():
    assert act(K, Z) == NCPoly.monomial(1, 0, Q2)
    assert act(KINV, Z) == NCPoly.monomial(1, 0, QScalar.q_power(-2))
    assert act(F, Z) == NCPoly.scalar(S1)
    assert act(E, Z) == NCPoly.monomial(2, 0, -S1)


def test_action_on_unit_is_counit():
    assert act(F, NCPoly.one()).is_zero()
    assert act(E, NCPoly.one()).is_zero()
    assert act(K, NCPoly.one()) == NCPoly.one()
    assert counit(E).is_zero() and counit(K).is_one()


def test_derived_action_on_zs():
    # frozen regression values, first derived through (S(g))^* conjugation
    assert act(E, ZS) == NCPoly.scalar(QScalar.s_power(-3))
    assert act(F, ZS) == NCPoly.monomial(0, 2, -QScalar.s_power(5))
    assert act(K, ZS) == NCPoly.monomial(0, 1, QScalar.q_power(-2))
    assert act(KINV, ZS) == NCPoly.monomial(0, 1, Q2)


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        act("G", Z)


def test_action_is_linear(rng, rand_ncpoly):
    for g in GENERATORS:
        for _ in range(5):
            f1, f2 = rand_ncpoly(rng), rand_ncpoly(rng)
            assert act(g, f1 + f2) == act(g, f1) + act(g, f2)


# -- words and relations ---------------------------------------------------------


def test_word_composition_order():
    # the leftmost letter acts last: (K E) f = K(E f)
    f = NCPoly.monomial(1, 1)
    assert act_word(((ONE, (K, E)),), f) == act(K, act(E, f))


def test_kk_inverse_relation():
    f = NCPoly.monomial(2, 1) + NCPoly.one()
    assert act_word(((ONE, (K, KINV)),), f) == f
    assert act_word(((ONE, (KINV, K)),), f) == f


def test_commutator_relation_on_z():
    qq = QScalar.q_power(1)
    c = ONE / (qq - ONE / qq)
    lhs = ((ONE, (E, F)), (-ONE, (F, E)))
    rhs = ((c, (K,)), (-c, (KINV,)))
    assert act_word(lhs, Z) == act_word(rhs, Z)


def test_kek_conjugation():
    f = NCPoly.monomial(1, 2)
    assert act_word(((ONE, (K, E, KINV)),), f) == act(E, f).scale(Q2)


def test_all_relations_on_degree_four():
    monos = [
        NCPoly.monomial(j, k) for j in range(5) for k in range(5) if j + k <= 4
    ]
    for name, wa, wb in defining_relations():
        for f in monos:
            assert check_relation_on(wa, wb, f), (name, f)


# -- module algebra ----------------------------------------------------------------


def test_module_algebra_for_k_is_grouplike(rng, rand_ncpoly):
    for _ in range(10):
        f1, f2 = rand_ncpoly(rng, 2, 2), rand_ncpoly(rng, 2, 2)
        assert check_module_algebra(K, f1, f2)
        assert act(K, nc_mul(f1, f2)) == nc_mul(act(K, f1), act(K, f2))


def test_module_algebra_counit_reduction(rng, rand_ncpoly):
    for g in GENERATORS:
        f = rand_ncpoly(rng, 2, 2)
        assert check_module_algebra(g, f, NCPoly.one())


def test_module_algebra_on_relation_pair():
    # action must descend through the commutation relation
    assert check_module_algebra(E, ZS, Z)
    lhs = act(E, nc_mul(ZS, Z))
    rhs = NCPoly.zero()
    for c, left, right in coproduct(E):
        rhs = rhs + nc_mul(act_word(((ONE, left),), ZS), act_word(((ONE, right),), Z)).scale(c)
    assert lhs == rhs


def test_module_algebra_grid():
    grid = [NCPoly.monomial(j, k) for j in range(3) for k in range(3) if j + k <= 2]
    for g in GENERATORS:
        for f1 in grid:
            for f2 in grid:
                assert check_module_algebra(g, f1, f2), (g, f1, f2)


# -- equivariance ---------------------------------------------------------------------


def test_k_scales_star_diagonally():
    psi = star(ZS, Z, 2)
    acted = act_series(((ONE, (K,)),), psi)
    assert acted == psi  # j1+j2-k1-k2 = 0 here, so K acts trivially
    psi2 = star(Z, Z, 2)
    assert act_series(((ONE, (K,)),), psi2) == psi2.scale(QScalar.q_power(4))


def test_star_equivariance_holomorphic_reduces_to_plain():
    for g in GENERATORS:
        assert check_star_equivariance(g, NCPoly.monomial(2, 0), NCPoly.monomial(1, 1), 2)


def test_star_equivariance_generators():
    assert check_star_equivariance(E, ZS, Z, 2)
    assert check_star_equivariance(F, ZS, Z, 2)


def test_star_equivariance_grid():
    grid = [NCPoly.monomial(j, k) for j in range(3) for k in range(3) if j + k <= 2]
    for g in GENERATORS:
        for f1 in grid:
            for f2 in grid:
                assert check_star_equivariance(g, f1, f2, 2), (g, f1, f2)


def test_box_equivariance():
    assert check_box_equivariance(K, NCPoly.monomial(1, 1))
    assert check_box_equivariance(E, nc_mul(ZS, Z))
    for g in GENERATORS:
        for f in [NCPoly.one(), Z, ZS, NCPoly.monomial(2, 2), NCPoly.monomial(1, 2)]:
            assert check_box_equivariance(g, f), (g, f)


# -- involution compatibility -----------------------------------------------------------


def test_involution_compat_k():
    f = NCPoly.monomial(2, 1) + NCPoly.one()
    assert check_involution_compat(K, f)


def test_involution_compat_definitional_roundtrip():
    # the stencil states E on z and on zs; the rule ties the two together
    assert check_involution_compat(E, Z)
    assert check_involution_compat(E, ZS)


def test_involution_compat_grid():
    grid = [NCPoly.monomial(j, k) for j in range(3) for k in range(3) if j + k <= 2]
    for g in GENERATORS:
        for f in grid:
            assert check_involution_compat(g, f), (g, f)


def test_star_of_antipode_values():
    # (S(E))^* = q^-2 F and (S(F))^* = q^2 E, as single-word combinations
    ((c, letters),) = star_of_antipode(E)
    assert letters == (K, F, KINV) and c == ONE
    ((c, letters),) = star_of_antipode(F)
    assert letters == (K, E, KINV) and c == ONE
    # and they act that way
    assert act_word(star_of_antipode(E), Z) == act(F, Z).scale(QScalar.q_power(-2))
    assert act_word(star_of_antipode(F), Z) == act(E, Z).scale(Q2)


# -- Hopf coherence -----------------------------------------------------------------------


def test_counit_law_on_words():
    grid = [NCPoly.monomial(j, k) for j in range(2) for k in range(2)]
    words = [(), (E,), (F,), (K, E), (E, F), (KINV, F)]
    for w in words:
        for f in grid:
            lhs = NCPoly.zero()
            for c, left, right in coproduct_word(w):
                lhs = lhs + act_word(((c * counit_word(left), right),), f)
            assert lhs == act_word(((ONE, w),), f), (w, f)


def test_coproduct_respects_relations():
    from qdisc import TensorPoly

    grid = [NCPoly.monomial(j, k) for j in range(2) for k in range(2)]
    for name, wa, wb in defining_relations():
        for f1 in grid:
            for f2 in grid:
                def image(words):
                    out = TensorPoly.zero()
                    for coeff, letters in words:
                        for c, left, right in coproduct_word(letters):
                            out = out + TensorPoly.from_polys(
                                act_word(((ONE, left),), f1),
                                act_word(((ONE, right),), f2),
                            ).scale(coeff * c)
                    return out

                assert image(wa) == image(wb), (name, f1, f2)


def test_stencil_matches_coproduct_recursion():
    for g in GENERATORS:
        for j in range(9):
            for k in range(9):
                assert act(g, NCPoly.monomial(j, k)) == coproduct_action(g, j, k), (g, j, k)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GENERATORS), mixed_ncpolys(max_exp=3))
def test_act_matches_sum_form(g, f):
    assert act(g, f) == act_sum_form(g, f)
