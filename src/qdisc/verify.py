"""Exact verification suites behind the ``verify`` command.

Each suite runs a family of identities by exhaustion over small grids or
seeded sampling and reports one record per law: name, the identity in
plain operator notation, case count, pass flag, and up to five failing
cases.  Everything is exact equality in Q(s); there are no tolerances
anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .fockrep import berezin, berezin_expansion, covariant_symbol, i_op, i_op_poly, q_map, zhat, zhat_star
from .qcalc import box, box_tilde, d_partial, m0
from .qpoly import NCPoly, TensorPoly, nc_mul, nc_mul_left_z_power, nc_mul_right_zstar_power
from .scalar import ONE, QScalar, TSeries, eval_numeric
from .star import StarSeries, m_series, pk, pk_images, series_involution, star
from . import VERIFY_SUITES, uqsl2


def _check(law: str, statement: str, failures: list, cases: int) -> dict:
    rec = {
        "law": law,
        "statement": statement,
        "cases": cases,
        "passed": not failures,
    }
    if failures:
        rec["failures"] = [str(f) for f in failures[:5]]
        rec["failure_count"] = len(failures)
    return rec


def _monomials(max_exp: int):
    return [(j, k) for j in range(max_exp + 1) for k in range(max_exp + 1)]


def _rand_ncpoly(rng: random.Random, max_exp: int = 3, nterms: int = 3) -> NCPoly:
    # integer-times-q-power coefficients keep the sampling cheap and exact
    out = NCPoly.zero()
    for _ in range(rng.randint(1, nterms)):
        j, k = rng.randint(0, max_exp), rng.randint(0, max_exp)
        c = QScalar.from_int(rng.randint(-3, 3)) * QScalar.q_power(rng.randint(0, 2))
        out = out + NCPoly.monomial(j, k, c)
    return out


def _deformation_terms(f1: NCPoly, f2: NCPoly, order: int) -> list:
    """C_1..C_order(f1, f2) through box_tilde on the whole tensor f1 (x) f2.

    Unlike ``star`` this skips no term pair and shifts no sector result, so
    a law stated on these terms reaches box_tilde and p_k themselves.
    """
    u = pk_images(box_tilde, TensorPoly.from_polys(f1, f2), order)
    return [m0(u[k] - u[k - 1]) for k in range(1, order + 1)]


# ---------------------------------------------------------------------------


def rewrite_suite(seed: int = 0, max_degree: int = 4, samples: int = 10000) -> list:
    rng = random.Random(seed)
    checks = []

    rel = nc_mul(NCPoly.monomial(0, 1), NCPoly.monomial(1, 0))
    want = NCPoly.monomial(1, 1, QScalar.q_power(2)) + NCPoly.scalar(ONE - QScalar.q_power(2))
    checks.append(
        _check(
            "commutation-normal-form",
            "zs*z = q^2*z*zs + (1 - q^2)",
            [] if rel == want else [f"got {rel}"],
            1,
        )
    )

    monos = _monomials(max_degree)
    fails = []
    for _ in range(samples):
        a = NCPoly.monomial(*rng.choice(monos))
        b = NCPoly.monomial(*rng.choice(monos))
        c = NCPoly.monomial(*rng.choice(monos))
        if nc_mul(nc_mul(a, b), c) != nc_mul(a, nc_mul(b, c)):
            fails.append((a, b, c))
    checks.append(_check("product-associativity", "(f*g)*h = f*(g*h)", fails, samples))

    fails = []
    one = NCPoly.one()
    for jk in monos:
        f = NCPoly.monomial(*jk)
        if nc_mul(f, one) != f or nc_mul(one, f) != f:
            fails.append(jk)
    checks.append(_check("product-unit", "f*1 = 1*f = f", fails, len(monos)))

    fails = []
    cases = 0
    for _ in range(200):
        f = _rand_ncpoly(rng)
        g = _rand_ncpoly(rng)
        cases += 1
        if nc_mul(f, g).involution() != nc_mul(g.involution(), f.involution()):
            fails.append((f, g))
        if f.involution().involution() != f:
            fails.append(f)
    checks.append(
        _check("involution-antihomomorphism", "(f*g)^* = g^* * f^*, f^** = f", fails, cases)
    )

    fails = []
    cases = 0
    for a, b in monos:
        for c, d in monos:
            cases += 1
            prod = nc_mul(NCPoly.monomial(a, b), NCPoly.monomial(c, d))
            ok_keys = {(a + c - r, b + d - r) for r in range(min(b, c) + 1)}
            if not set(prod.support()) <= ok_keys:
                fails.append((a, b, c, d))
    checks.append(
        _check(
            "degree-bookkeeping",
            "supp(z^a zs^b * z^c zs^d) within {(a+c-r, b+d-r) : 0 <= r <= min(b,c)}",
            fails,
            cases,
        )
    )

    fails = []
    cases = 0
    for i in range(3):
        for jk in _monomials(2):
            f = NCPoly.monomial(*jk)
            cases += 2
            if nc_mul_left_z_power(i, f) != nc_mul(NCPoly.monomial(i, 0), f):
                fails.append(("left", i, jk))
            if nc_mul_right_zstar_power(i, f) != nc_mul(f, NCPoly.monomial(0, i)):
                fails.append(("right", i, jk))
    checks.append(
        _check("fast-path-powers", "z^i*f and f*zs^i shortcuts match the general product", fails, cases)
    )
    return checks


# ---------------------------------------------------------------------------


def _twist(f: NCPoly, direction: int) -> NCPoly:
    # moving a differential through a monomial scales it by q^(2*(j-k)*direction)
    return NCPoly({(j, k): c * QScalar.q_power(2 * (j - k) * direction) for (j, k), c in f.terms.items()})


def calculus_suite(seed: int = 0, max_degree: int = 4) -> list:
    rng = random.Random(seed)
    checks = []

    fails = []
    cases = 0
    for _ in range(60):
        f = _rand_ncpoly(rng, max_exp=3, nterms=2)
        g = _rand_ncpoly(rng, max_exp=3, nterms=2)
        fg = nc_mul(f, g)
        for var in ("z", "zstar"):
            cases += 2
            lhs_r = d_partial(fg, "right", var)
            rhs_r = nc_mul(d_partial(f, "right", var), _twist(g, 1)) + nc_mul(f, d_partial(g, "right", var))
            if lhs_r != rhs_r:
                fails.append(("right", var, f, g))
            lhs_l = d_partial(fg, "left", var)
            rhs_l = nc_mul(d_partial(f, "left", var), g) + nc_mul(_twist(f, -1), d_partial(g, "left", var))
            if lhs_l != rhs_l:
                fails.append(("left", var, f, g))
    checks.append(
        _check(
            "leibniz-rule",
            "d(f*g) = df*g + f*dg, expanded in either coefficient convention",
            fails,
            cases,
        )
    )

    fails = []
    monos = [(j, k) for j, k in _monomials(max_degree)]
    w = NCPoly.one() - NCPoly.monomial(1, 1)
    w2 = nc_mul(w, w)
    for jk in monos:
        f = NCPoly.monomial(*jk)
        right = nc_mul(d_partial(d_partial(f, "right", "z"), "right", "zstar"), w2)
        if box(f) != right.scale(QScalar.q_power(2)):
            fails.append(jk)
    checks.append(
        _check(
            "box-two-forms",
            "(1-z*zs)^2 d_zs^l d_z^l f = q^2 d_zs^r d_z^r f (1-z*zs)^2",
            fails,
            len(monos),
        )
    )

    fails = []
    cases = 0
    for a in range(4):
        for b in range(4):
            cases += 1
            f1 = NCPoly.monomial(a, 0)
            f2 = NCPoly.monomial(0, b)
            if box(nc_mul(f2, f1)) != m0(box_tilde(TensorPoly.from_polys(f2, f1))):
                fails.append((a, b))
    checks.append(
        _check(
            "box-factorization",
            "box(f2(zs)*f1(z)) = m0(box_tilde(f2 (x) f1)) for pure powers",
            fails,
            cases,
        )
    )

    fails = []
    cases = 0
    for g1 in range(3):
        for a in range(3):
            for b in range(3):
                for g2 in range(3):
                    cases += 1
                    inner = box_tilde(
                        TensorPoly.from_polys(NCPoly.monomial(0, a), NCPoly.monomial(b, 0))
                    )
                    lhs = box_tilde(
                        TensorPoly.from_polys(
                            nc_mul(NCPoly.monomial(g1, 0), NCPoly.monomial(0, a)),
                            nc_mul(NCPoly.monomial(b, 0), NCPoly.monomial(0, g2)),
                        )
                    )
                    rhs = TensorPoly({(g1, 0, 0, 0): ONE}) * inner * TensorPoly({(0, 0, 0, g2): ONE})
                    if lhs != rhs:
                        fails.append((g1, a, b, g2))
    checks.append(
        _check(
            "box-tilde-outer-multipliers",
            "box_tilde(g1(z) f1(zs) (x) f2(z) g2(zs)) = (g1 (x) 1) box_tilde(f1 (x) f2) (1 (x) g2)",
            fails,
            cases,
        )
    )

    fails = []
    cases = 0
    for _ in range(40):
        f = _rand_ncpoly(rng, max_exp=2, nterms=2)
        g = _rand_ncpoly(rng, max_exp=2, nterms=2)
        cases += 1
        F = TensorPoly.from_polys(f, g)
        lhs = box_tilde(F.flip().involution_each_leg()).flip().involution_each_leg()
        if lhs != box_tilde(F):
            fails.append((f, g))
    checks.append(
        _check(
            "box-tilde-flip-conjugation",
            "flipping legs and involuting commutes with box_tilde",
            fails,
            cases,
        )
    )
    return checks


# ---------------------------------------------------------------------------


def star_suite(seed: int = 0, max_degree: int = 2, t_order: int = 3, pairs: int = 100) -> list:
    rng = random.Random(seed)
    checks = []

    fails = []
    for k in range(9):
        p = pk(k)
        if p.degree() != k or not p.coeffs[0].is_one():
            fails.append(k)
    if pk(0).coeffs != [ONE] or pk(1).coeffs != [ONE, ONE - QScalar.q_power(2)]:
        fails.append("explicit p0/p1")
    checks.append(
        _check("pk-shape", "deg p_k = k, p_k(0) = 1, p_0 = 1, p_1 = 1 + (1-q^2) x", fails, 11)
    )

    fails = []
    cases = 0
    small = _monomials(max_degree)
    for i in range(3):
        for a, b in small:
            f = NCPoly.monomial(a, b)
            cases += 2
            if any(not c.is_zero() for c in _deformation_terms(NCPoly.monomial(i, 0), f, t_order)):
                fails.append(("left-hol", i, a, b))
            if any(not c.is_zero() for c in _deformation_terms(f, NCPoly.monomial(0, i), t_order)):
                fails.append(("right-antihol", i, a, b))
    checks.append(
        _check(
            "holomorphic-triviality",
            "star(z^i, f) and star(f, zs^l) have no deformation terms",
            fails,
            cases,
        )
    )

    fails = []
    cases = 0
    for i in range(3):
        for a1, b1 in small:
            for a2, b2 in small:
                f1, f2 = NCPoly.monomial(a1, b1), NCPoly.monomial(a2, b2)
                cases += 2
                lhs = star(nc_mul_left_z_power(i, f1), f2, t_order)
                rhs = StarSeries(
                    tuple(nc_mul_left_z_power(i, c) for c in star(f1, f2, t_order).coeffs), t_order
                )
                if lhs != rhs:
                    fails.append(("left", i, (a1, b1), (a2, b2)))
                lhs = star(f1, nc_mul_right_zstar_power(i, f2), t_order)
                rhs = StarSeries(
                    tuple(nc_mul_right_zstar_power(i, c) for c in star(f1, f2, t_order).coeffs),
                    t_order,
                )
                if lhs != rhs:
                    fails.append(("right", i, (a1, b1), (a2, b2)))
    checks.append(
        _check(
            "holomorphic-factor-pulling",
            "star(z^i*f1, f2) = z^i*star(f1, f2) and star(f1, f2*zs^l) = star(f1, f2)*zs^l",
            fails,
            cases,
        )
    )

    fails = []
    cases = 0
    for a in small:
        for b in small:
            for c in small:
                cases += 1
                pa = StarSeries.from_ncpoly(NCPoly.monomial(*a), t_order)
                pb = StarSeries.from_ncpoly(NCPoly.monomial(*b), t_order)
                pc = StarSeries.from_ncpoly(NCPoly.monomial(*c), t_order)
                if m_series(m_series(pa, pb), pc) != m_series(pa, m_series(pb, pc)):
                    fails.append((a, b, c))
    checks.append(_check("series-associativity", "m(m(a,b),c) = m(a,m(b,c))", fails, cases))

    fails = []
    for _ in range(pairs):
        f = _rand_ncpoly(rng, max_exp=2, nterms=2)
        g = _rand_ncpoly(rng, max_exp=2, nterms=2)
        p1 = StarSeries.from_ncpoly(f, t_order)
        p2 = StarSeries.from_ncpoly(g, t_order)
        if series_involution(m_series(p1, p2)) != m_series(series_involution(p2), series_involution(p1)):
            fails.append((f, g))
    checks.append(
        _check("series-involution", "m(psi1, psi2)^* = m(psi2^*, psi1^*)", fails, pairs)
    )
    return checks


# ---------------------------------------------------------------------------


def oracle_suite(
    seed: int = 0,
    max_degree: int = 2,
    t_order: int = 3,
    cutoff: int = 16,
    eval_s0: Fraction | None = None,
) -> list:
    checks = []
    M, T = cutoff, t_order

    fails = []
    if zhat_star(M, T) != i_op(0, 1, M, T):
        fails.append("entrywise mismatch")
    checks.append(
        _check("adjoint-shift", "zhat_star acts as the k = 1 monomial operator", fails, 1)
    )

    fails = []
    comm = zhat_star(M, T) * zhat(M, T) - (zhat(M, T) * zhat_star(M, T)).scale_series(
        TSeries.constant(QScalar.q_power(2), T)
    )
    for m in range(comm.valid_columns() + 1):
        entry = comm.entry(m, m)
        if entry.coeffs[0] != ONE - QScalar.q_power(2):
            fails.append(m)
    checks.append(
        _check(
            "commutation-at-leading-order",
            "(zhat_star zhat - q^2 zhat zhat_star) = (1 - q^2) id + O(t)",
            fails,
            comm.valid_columns() + 1,
        )
    )

    monos = _monomials(max_degree)
    fails = []
    cases = 0
    residual_entries = []
    for a, b in monos:
        for c, d in monos:
            cases += 1
            f1, f2 = NCPoly.monomial(a, b), NCPoly.monomial(c, d)
            lhs = q_map(star(f1, f2, T), M)
            rhs = i_op_poly(f1, M, T) * i_op_poly(f2, M, T)
            if not lhs.equal_on_valid(rhs):
                fails.append((a, b, c, d))
            if eval_s0 is not None:
                # spot-check both sides agree numerically entry by entry
                last = min(lhs.valid_columns(), rhs.valid_columns())
                keys = set(lhs.entries) | set(rhs.entries)
                zero = TSeries.zero(T)
                for row, col in keys:
                    if col > last:
                        continue
                    le = lhs.entries.get((row, col), zero)
                    re = rhs.entries.get((row, col), zero)
                    for cl, cr in zip(le.coeffs, re.coeffs):
                        residual_entries.append(cl - cr)
    checks.append(
        _check(
            "representation-homomorphism",
            "q_map(star(f1, f2)) = i_op(f1) i_op(f2) entrywise on valid columns",
            fails,
            cases,
        )
    )

    if eval_s0 is not None:
        fails = []
        for x in residual_entries:
            if eval_numeric(x, eval_s0) != 0:
                fails.append(x)
        checks.append(
            _check(
                "numeric-spot-check",
                f"all homomorphism residuals vanish exactly at s = {eval_s0}",
                fails,
                len(residual_entries),
            )
        )
    return checks


# ---------------------------------------------------------------------------


def _maps_back(j: int, k: int, window: int, M: int, T: int) -> bool:
    """Whether q_map of the windowed berezin(j, k) symbol is zhat_star^j zhat^k.

    Columns past the window's last one match only if it holds the whole symbol.
    """
    win = berezin(j, k, window, M, T)
    psi = StarSeries(tuple(win.t_coefficient(n) for n in range(T + 1)), T)
    return q_map(psi, M).equal_on_valid(i_op(0, j, M, T) * i_op(k, 0, M, T))


def berezin_suite(t_order: int = 3, cutoff: int = 16, window: int = 6) -> list:
    checks = []
    M, T, J = cutoff, t_order, window

    fails = []
    cases = 0
    for j, k in _monomials(2):
        cases += 1
        sym = covariant_symbol(i_op(j, k, M, T), J)
        want = {(j, k): TSeries.one(T)}
        if sym.entries != want:
            fails.append((j, k))
    checks.append(
        _check("covariant-round-trip", "covariant_symbol(i_op(f)) = f inside the window", fails, cases)
    )

    fails = []
    cases = 0
    for k in range(3):
        cases += 2
        if berezin(0, k, J, M, T).entries != ({(k, 0): TSeries.one(T)} if k else {(0, 0): TSeries.one(T)}):
            fails.append(("hol", k))
        if berezin(k, 0, J, M, T).entries != ({(0, k): TSeries.one(T)} if k else {(0, 0): TSeries.one(T)}):
            fails.append(("antihol", k))
    checks.append(
        _check(
            "transform-fixes-one-sided",
            "berezin(0,k) = z^k and berezin(j,0) = zs^j",
            fails,
            cases,
        )
    )

    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    fails = []
    cases = 0
    for j, k in pairs:
        terms = berezin_expansion(j, k, T)
        win = berezin(j, k, J, M, T)
        for n in range(T + 1):
            cases += 1
            # the t^n term has degree max(j, k) + n; compare its window part
            in_window = NCPoly({(a, b): c for (a, b), c in terms[n].terms.items() if a <= J and b <= J})
            if win.t_coefficient(n) != in_window:
                fails.append((j, k, n))
    checks.append(
        _check(
            "transform-asymptotic-expansion",
            "t-expansion of berezin(j,k) matches f0 + sum (p_n(box) - p_(n-1)(box)) f0 t^n",
            fails,
            cases,
        )
    )

    # every t^n coefficient up to T lies inside the window max(j, k) + T
    fails = [(j, k) for j, k in pairs if not _maps_back(j, k, max(j, k) + T, M, T)]
    checks.append(
        _check(
            "transform-map-back",
            "q_map(berezin(j,k)) = zhat_star^j zhat^k on valid columns, window max(j,k) + T",
            fails,
            4,
        )
    )

    fails = []
    cases = 0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    cases += 1
                    op = i_op(i, j, M, T) * i_op(k, l, M, T)
                    sym = covariant_symbol(op, J)
                    base = berezin(j, k, J, M, T)
                    ok = True
                    for a in range(J + 1):
                        for b in range(J + 1):
                            want = (
                                base.entry(a - i, b - l)
                                if a >= i and b >= l and a - i <= J and b - l <= J
                                else TSeries.zero(T)
                            )
                            if sym.entry(a, b) != want:
                                ok = False
                    if not ok:
                        fails.append((i, j, k, l))
    checks.append(
        _check(
            "sandwich-covariance",
            "symbol(i_op(z^i zs^j) i_op(z^k zs^l)) = z^i berezin(j,k) zs^l inside the window",
            fails,
            cases,
        )
    )
    return checks


# ---------------------------------------------------------------------------


def uq_suite(max_degree: int = 4, grid_degree: int = 2, t_order: int = 2) -> list:
    checks = []
    monos4 = [NCPoly.monomial(j, k) for j in range(max_degree + 1) for k in range(max_degree + 1) if j + k <= max_degree]
    grid = [NCPoly.monomial(j, k) for j in range(grid_degree + 1) for k in range(grid_degree + 1) if j + k <= grid_degree]

    for name, wa, wb in uqsl2.defining_relations():
        fails = [str(f) for f in monos4 if not uqsl2.check_relation_on(wa, wb, f)]
        checks.append(_check("uq-relation", name, fails, len(monos4)))

    fails = []
    cases = 0
    for g in uqsl2.GENERATORS:
        for f1 in grid:
            for f2 in grid:
                cases += 1
                if not uqsl2.check_module_algebra(g, f1, f2):
                    fails.append((g, f1, f2))
    checks.append(
        _check("uq-module-algebra", "g(f1 f2) = sum g1(f1) g2(f2) via the coproduct", fails, cases)
    )

    fails = []
    cases = 0
    for g in uqsl2.GENERATORS:
        for f in monos4:
            cases += 1
            if not uqsl2.check_box_equivariance(g, f):
                fails.append((g, f))
    checks.append(_check("uq-box-equivariance", "g(box f) = box(g f)", fails, cases))

    fails = []
    cases = 0
    for g in uqsl2.GENERATORS:
        for f1 in grid:
            for f2 in grid:
                cases += 1
                if not uqsl2.check_star_equivariance(g, f1, f2, t_order):
                    fails.append((g, f1, f2))
    checks.append(
        _check(
            "uq-star-equivariance",
            "g(star(f1, f2)) = sum star(g1 f1, g2 f2) mod t^(T+1)",
            fails,
            cases,
        )
    )

    fails = []
    cases = 0
    for g in uqsl2.GENERATORS:
        for f in grid:
            cases += 1
            if not uqsl2.check_involution_compat(g, f):
                fails.append((g, f))
    checks.append(
        _check("uq-involution-compatibility", "(g f)^* = (S(g))^* f^*", fails, cases)
    )

    # counit and coproduct coherence on words of length <= 2
    words = [()] + [(g,) for g in uqsl2.GENERATORS] + [
        (a, b) for a in uqsl2.GENERATORS for b in uqsl2.GENERATORS
    ]
    fails = []
    cases = 0
    for w in words:
        for f in grid:
            cases += 1
            lhs = NCPoly.zero()
            for c, left, right in uqsl2.coproduct_word(w):
                lhs = lhs + uqsl2.act_word(((c * uqsl2.counit_word(left), right),), f)
            if lhs != uqsl2.act_word(((ONE, w),), f):
                fails.append((w, f))
    checks.append(
        _check("uq-counit-law", "(counit (x) id) of the coproduct recovers the action", fails, cases)
    )

    fails = []
    cases = 0
    for name, wa, wb in uqsl2.defining_relations():
        for f1 in grid[:4]:
            for f2 in grid[:4]:
                cases += 1
                lhs = TensorPoly.zero()
                for coeff, letters in wa:
                    for c, left, right in uqsl2.coproduct_word(letters):
                        lhs = lhs + TensorPoly.from_polys(
                            uqsl2.act_word(((ONE, left),), f1),
                            uqsl2.act_word(((ONE, right),), f2),
                        ).scale(coeff * c)
                rhs = TensorPoly.zero()
                for coeff, letters in wb:
                    for c, left, right in uqsl2.coproduct_word(letters):
                        rhs = rhs + TensorPoly.from_polys(
                            uqsl2.act_word(((ONE, left),), f1),
                            uqsl2.act_word(((ONE, right),), f2),
                        ).scale(coeff * c)
                if lhs != rhs:
                    fails.append((name, f1, f2))
    checks.append(
        _check(
            "uq-coproduct-respects-relations",
            "the coproduct images of both sides of each relation act identically",
            fails,
            cases,
        )
    )
    return checks


# ---------------------------------------------------------------------------

SUITES = VERIFY_SUITES


def run_suites(
    names,
    seed: int = 0,
    max_degree: int = 2,
    t_order: int = 3,
    cutoff: int = 16,
    window: int = 6,
    eval_s0: Fraction | None = None,
    assoc_samples: int = 10000,
) -> dict:
    """Run the named suites and assemble the report; 'all' expands to everything."""
    expanded = []
    for n in names:
        if n == "all":
            expanded.extend(SUITES)
        elif n in SUITES:
            expanded.append(n)
        else:
            raise ValueError(f"unknown suite {n!r}")
    report = {"schema": 1, "suites": {}, "passed": True}
    for name in dict.fromkeys(expanded):
        if name == "rewrite":
            checks = rewrite_suite(seed=seed, max_degree=4, samples=assoc_samples)
        elif name == "calculus":
            checks = calculus_suite(seed=seed, max_degree=4)
        elif name == "star":
            checks = star_suite(seed=seed, max_degree=max_degree, t_order=t_order)
        elif name == "oracle":
            checks = oracle_suite(
                seed=seed, max_degree=max_degree, t_order=t_order, cutoff=cutoff, eval_s0=eval_s0
            )
        elif name == "berezin":
            checks = berezin_suite(t_order=t_order, cutoff=cutoff, window=window)
        else:
            checks = uq_suite(max_degree=4, grid_degree=max_degree, t_order=min(t_order, 2))
        report["suites"][name] = checks
        if any(not c["passed"] for c in checks):
            report["passed"] = False
    return report
