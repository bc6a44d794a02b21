"""Acceptance gate: every exit criterion at its stated scale and budget.

Each test prints one line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.  All equalities are exact (coefficients in Q(s)); the time
budgets are asserted, not just reported.
"""

import random
import time
from fractions import Fraction

from qdisc import (
    NCPoly,
    ONE,
    QScalar,
    StarSeries,
    TensorPoly,
    box,
    box_tilde,
    eval_numeric,
    i_op_poly,
    m0,
    m_series,
    nc_mul,
    pk,
    q_map,
    series_involution,
    star,
)
from qdisc.scalar import TSeries
from qdisc.star import pk_images
from qdisc.uqsl2 import (
    GENERATORS,
    check_box_equivariance,
    check_involution_compat,
    check_module_algebra,
    check_relation_on,
    check_star_equivariance,
    defining_relations,
)

from conftest import box_right_form

SEED = 20260810
M_CUTOFF = 16
T_ORDER = 3


def _elapsed_line(n: int, desc: str, t0: float, budget: float) -> None:
    dt = time.monotonic() - t0
    print(f"criterion {n} [{desc}]: PASS in {dt:.2f}s (budget {budget:.0f}s)")
    assert dt < budget, f"criterion {n} exceeded its {budget}s budget ({dt:.2f}s)"


def _rand_poly(rng: random.Random, max_exp: int = 2, nterms: int = 2) -> NCPoly:
    out = NCPoly.zero()
    for _ in range(rng.randint(1, nterms)):
        j, k = rng.randint(0, max_exp), rng.randint(0, max_exp)
        c = QScalar.from_int(rng.randint(-3, 3)) * QScalar.q_power(rng.randint(0, 2))
        out = out + NCPoly.monomial(j, k, c)
    return out


_ORACLE_CACHE: list = []


def oracle_matrices():
    """Both sides of the representation check for every pair with exponents <= 2.

    Built once (inside criterion 3, which owns the time budget for it) and
    reused by the numeric spot-check of criterion 9.
    """
    if not _ORACLE_CACHE:
        monos = [(j, k) for j in range(3) for k in range(3)]
        for a, b in monos:
            for c, d in monos:
                f1, f2 = NCPoly.monomial(a, b), NCPoly.monomial(c, d)
                lhs = q_map(star(f1, f2, T_ORDER), M_CUTOFF)
                rhs = i_op_poly(f1, M_CUTOFF, T_ORDER) * i_op_poly(f2, M_CUTOFF, T_ORDER)
                _ORACLE_CACHE.append(((a, b, c, d), lhs, rhs))
    return _ORACLE_CACHE


def test_criterion_1_rewriting_soundness():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    monos = [NCPoly.monomial(j, k) for j in range(5) for k in range(5)]
    for _ in range(10_000):
        a, b, c = rng.choice(monos), rng.choice(monos), rng.choice(monos)
        assert nc_mul(nc_mul(a, b), c) == nc_mul(a, nc_mul(b, c))
    _elapsed_line(1, "rewriting associativity, 10^4 sampled triples", t0, 60)


def test_criterion_2_pk_suite():
    t0 = time.monotonic()
    assert pk(0).coeffs == [ONE]
    assert pk(1).coeffs == [ONE, ONE - QScalar.q_power(2)]
    for k in range(9):
        p = pk(k)
        assert p.degree() == k
        assert p.coeffs[0] == ONE
    _elapsed_line(2, "expansion polynomials p_0..p_8", t0, 5)


def test_criterion_3_representation_oracle():
    t0 = time.monotonic()
    for key, lhs, rhs in oracle_matrices():
        assert lhs.equal_on_valid(rhs), key
    _elapsed_line(3, "operator homomorphism, all pairs with exponents <= 2", t0, 180)


def test_criterion_4_associativity_and_involution():
    t0 = time.monotonic()
    monos = [NCPoly.monomial(j, k) for j in range(3) for k in range(3)]
    series = [StarSeries.from_ncpoly(f, T_ORDER) for f in monos]
    for a in series:
        for b in series:
            for c in series:
                assert m_series(m_series(a, b), c) == m_series(a, m_series(b, c))
    rng = random.Random(SEED)
    for _ in range(100):
        p1 = StarSeries.from_ncpoly(_rand_poly(rng), T_ORDER)
        p2 = StarSeries.from_ncpoly(_rand_poly(rng), T_ORDER)
        assert series_involution(m_series(p1, p2)) == m_series(
            series_involution(p2), series_involution(p1)
        )
    _elapsed_line(4, "series associativity (729 triples) and involution (100 pairs)", t0, 120)


def test_criterion_5_holomorphic_triviality():
    t0 = time.monotonic()
    T = 4
    for i in range(4):
        zi = NCPoly.monomial(i, 0)
        for a in range(4):
            for b in range(4 - a):
                # C_k through box_tilde on the whole tensor, not star's sector skip
                u = pk_images(box_tilde, TensorPoly.from_polys(zi, NCPoly.monomial(a, b)), T)
                assert all(m0(u[k] - u[k - 1]).is_zero() for k in range(1, T + 1)), (i, a, b)
    _elapsed_line(5, "no deformation terms for holomorphic left factors", t0, 10)


def test_criterion_6_transform_agreement():
    t0 = time.monotonic()
    from qdisc import berezin, berezin_expansion

    for j, k in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        terms = berezin_expansion(j, k, 3)
        win = berezin(j, k, 6, M_CUTOFF, 3)
        for n in range(4):
            assert win.t_coefficient(n) == terms[n], (j, k, n)
    _elapsed_line(6, "symbol transform matches its differential expansion", t0, 120)


def test_criterion_7_calculus_identity():
    t0 = time.monotonic()
    for a in range(4):
        for b in range(4):
            f1 = NCPoly.monomial(a, 0)
            f2 = NCPoly.monomial(0, b)
            assert box(nc_mul(f2, f1)) == m0(box_tilde(TensorPoly.from_polys(f2, f1)))
    for j in range(5):
        for k in range(5):
            f = NCPoly.monomial(j, k)
            assert box(f) == box_right_form(f), (j, k)
    _elapsed_line(7, "box factorization and two-form agreement", t0, 30)


def test_criterion_8_symmetry_suite():
    t0 = time.monotonic()
    monos4 = [NCPoly.monomial(j, k) for j in range(5) for k in range(5) if j + k <= 4]
    for name, wa, wb in defining_relations():
        for f in monos4:
            assert check_relation_on(wa, wb, f), (name, f)
    grid = [NCPoly.monomial(j, k) for j in range(3) for k in range(3) if j + k <= 2]
    for g in GENERATORS:
        for f1 in grid:
            assert check_box_equivariance(g, f1), (g, f1)
            assert check_involution_compat(g, f1), (g, f1)
            for f2 in grid:
                assert check_module_algebra(g, f1, f2), (g, f1, f2)
                assert check_star_equivariance(g, f1, f2, 2), (g, f1, f2)
    _elapsed_line(8, "quantized symmetry: relations and four compatibility grids", t0, 180)


def test_criterion_9_numeric_spot_check():
    t0 = time.monotonic()
    s0 = Fraction(7, 10)
    checked = 0
    for key, lhs, rhs in oracle_matrices():
        last = min(lhs.valid_columns(), rhs.valid_columns())
        zero = TSeries.zero(T_ORDER)
        for row, col in set(lhs.entries) | set(rhs.entries):
            if col > last:
                continue
            le = lhs.entries.get((row, col), zero)
            re = rhs.entries.get((row, col), zero)
            for cl, cr in zip(le.coeffs, re.coeffs):
                assert eval_numeric(cl, s0) - eval_numeric(cr, s0) == 0, (key, row, col)
                checked += 1
    assert checked > 0
    print(f"criterion 9 evaluated {checked} residual coefficients at s = 7/10")
    _elapsed_line(9, "numeric spot-check of the homomorphism residuals", t0, 30)
