"""Exact verification suites behind the ``verify`` command.

Each suite runs a family of identities by exhaustion over small grids or
seeded sampling and reports one record per law: name, the identity in
plain operator notation, case count, pass flag, and up to five failing
cases.  Everything is exact equality in Q(s); there are no tolerances
anywhere.

Most laws are stated once, as a list of cases and a predicate (``_law``).
The cases of a law are built before the next law's, so the seeded draws
come in one fixed order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

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


def _law(law: str, statement: str, cases, holds) -> dict:
    """The record of ``holds(*case)`` over every case (a tuple).

    A failing case is recorded as itself, and a one-element case as its element.
    """
    cases = list(cases)
    fails = [case[0] if len(case) == 1 else case for case in cases if not holds(*case)]
    return _check(law, statement, fails, len(cases))


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


def _rand_pairs(rng: random.Random, count: int, max_exp: int) -> list:
    return [(_rand_ncpoly(rng, max_exp, 2), _rand_ncpoly(rng, max_exp, 2)) for _ in range(count)]


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
    monos = _monomials(max_degree)
    polys = [NCPoly.monomial(*jk) for jk in monos]
    one = NCPoly.one()

    def unit(j, k):
        f = NCPoly.monomial(j, k)
        return nc_mul(f, one) == f and nc_mul(one, f) == f

    def fast_path(side, i, jk):
        f = NCPoly.monomial(*jk)
        if side == "left":
            return nc_mul_left_z_power(i, f) == nc_mul(NCPoly.monomial(i, 0), f)
        return nc_mul_right_zstar_power(i, f) == nc_mul(f, NCPoly.monomial(0, i))

    rel = nc_mul(NCPoly.monomial(0, 1), NCPoly.monomial(1, 0))
    want = NCPoly.monomial(1, 1, QScalar.q_power(2)) + NCPoly.scalar(ONE - QScalar.q_power(2))
    checks = [
        _check(
            "commutation-normal-form",
            "zs*z = q^2*z*zs + (1 - q^2)",
            [] if rel == want else [f"got {rel}"],
            1,
        ),
        _law(
            "product-associativity",
            "(f*g)*h = f*(g*h)",
            [(rng.choice(polys), rng.choice(polys), rng.choice(polys)) for _ in range(samples)],
            lambda a, b, c: nc_mul(nc_mul(a, b), c) == nc_mul(a, nc_mul(b, c)),
        ),
        _law("product-unit", "f*1 = 1*f = f", monos, unit),
    ]

    # two failure kinds per counted case, so this law keeps its own loop
    fails = []
    pairs = [(_rand_ncpoly(rng), _rand_ncpoly(rng)) for _ in range(200)]
    for f, g in pairs:
        if nc_mul(f, g).involution() != nc_mul(g.involution(), f.involution()):
            fails.append((f, g))
        if f.involution().involution() != f:
            fails.append(f)
    checks.append(_check("involution-antihomomorphism", "(f*g)^* = g^* * f^*, f^** = f", fails, len(pairs)))

    return checks + [
        _law(
            "degree-bookkeeping",
            "supp(z^a zs^b * z^c zs^d) within {(a+c-r, b+d-r) : 0 <= r <= min(b,c)}",
            [(a, b, c, d) for a, b in monos for c, d in monos],
            lambda a, b, c, d: set(nc_mul(NCPoly.monomial(a, b), NCPoly.monomial(c, d)).support())
            <= {(a + c - r, b + d - r) for r in range(min(b, c) + 1)},
        ),
        _law(
            "fast-path-powers",
            "z^i*f and f*zs^i shortcuts match the general product",
            [(side, i, jk) for i in range(3) for jk in _monomials(2) for side in ("left", "right")],
            fast_path,
        ),
    ]


# ---------------------------------------------------------------------------


def _twist(f: NCPoly, direction: int) -> NCPoly:
    # moving a differential through a monomial scales it by q^(2*(j-k)*direction)
    return NCPoly({(j, k): c * QScalar.q_power(2 * (j - k) * direction) for (j, k), c in f.terms.items()})


def calculus_suite(seed: int = 0, max_degree: int = 4) -> list:
    rng = random.Random(seed)
    leibniz_pairs = _rand_pairs(rng, 60, 3)
    w = NCPoly.one() - NCPoly.monomial(1, 1)
    w2 = nc_mul(w, w)

    def leibniz(side, var, f, g):
        if side == "right":
            rhs = nc_mul(d_partial(f, "right", var), _twist(g, 1)) + nc_mul(f, d_partial(g, "right", var))
        else:
            rhs = nc_mul(d_partial(f, "left", var), g) + nc_mul(_twist(f, -1), d_partial(g, "left", var))
        return d_partial(nc_mul(f, g), side, var) == rhs

    def two_forms(j, k):
        f = NCPoly.monomial(j, k)
        right = nc_mul(d_partial(d_partial(f, "right", "z"), "right", "zstar"), w2)
        return box(f) == right.scale(QScalar.q_power(2))

    def factorization(a, b):
        f1, f2 = NCPoly.monomial(a, 0), NCPoly.monomial(0, b)
        return box(nc_mul(f2, f1)) == m0(box_tilde(TensorPoly.from_polys(f2, f1)))

    def outer_multipliers(g1, a, b, g2):
        inner = box_tilde(TensorPoly.from_polys(NCPoly.monomial(0, a), NCPoly.monomial(b, 0)))
        f1 = nc_mul(NCPoly.monomial(g1, 0), NCPoly.monomial(0, a))
        f2 = nc_mul(NCPoly.monomial(b, 0), NCPoly.monomial(0, g2))
        lhs = box_tilde(TensorPoly.from_polys(f1, f2))
        return lhs == TensorPoly({(g1, 0, 0, 0): ONE}) * inner * TensorPoly({(0, 0, 0, g2): ONE})

    def flip_conjugation(f, g):
        F = TensorPoly.from_polys(f, g)
        return box_tilde(F.flip().involution_each_leg()).flip().involution_each_leg() == box_tilde(F)

    return [
        _law(
            "leibniz-rule",
            "d(f*g) = df*g + f*dg, expanded in either coefficient convention",
            [(side, var, f, g) for (f, g), var, side in product(leibniz_pairs, ("z", "zstar"), ("right", "left"))],
            leibniz,
        ),
        _law(
            "box-two-forms",
            "(1-z*zs)^2 d_zs^l d_z^l f = q^2 d_zs^r d_z^r f (1-z*zs)^2",
            _monomials(max_degree),
            two_forms,
        ),
        _law(
            "box-factorization",
            "box(f2(zs)*f1(z)) = m0(box_tilde(f2 (x) f1)) for pure powers",
            product(range(4), repeat=2),
            factorization,
        ),
        _law(
            "box-tilde-outer-multipliers",
            "box_tilde(g1(z) f1(zs) (x) f2(z) g2(zs)) = (g1 (x) 1) box_tilde(f1 (x) f2) (1 (x) g2)",
            product(range(3), repeat=4),
            outer_multipliers,
        ),
        _law(
            "box-tilde-flip-conjugation",
            "flipping legs and involuting commutes with box_tilde",
            _rand_pairs(rng, 40, 2),
            flip_conjugation,
        ),
    ]


# ---------------------------------------------------------------------------


def star_suite(seed: int = 0, max_degree: int = 2, t_order: int = 3, pairs: int = 100) -> list:
    rng = random.Random(seed)
    small = _monomials(max_degree)

    fails = [k for k in range(9) if pk(k).degree() != k or not pk(k).coeffs[0].is_one()]
    if pk(0).coeffs != [ONE] or pk(1).coeffs != [ONE, ONE - QScalar.q_power(2)]:
        fails.append("explicit p0/p1")

    def trivial(kind, i, a, b):
        f = NCPoly.monomial(a, b)
        f1, f2 = (NCPoly.monomial(i, 0), f) if kind == "left-hol" else (f, NCPoly.monomial(0, i))
        return all(c.is_zero() for c in _deformation_terms(f1, f2, t_order))

    def pulling(side, i, m1, m2):
        f1, f2 = NCPoly.monomial(*m1), NCPoly.monomial(*m2)
        if side == "left":
            pull, lhs = nc_mul_left_z_power, star(nc_mul_left_z_power(i, f1), f2, t_order)
        else:
            pull, lhs = nc_mul_right_zstar_power, star(f1, nc_mul_right_zstar_power(i, f2), t_order)
        return lhs == StarSeries(tuple(pull(i, c) for c in star(f1, f2, t_order).coeffs), t_order)

    def associativity(a, b, c):
        pa, pb, pc = (StarSeries.from_ncpoly(NCPoly.monomial(*m), t_order) for m in (a, b, c))
        return m_series(m_series(pa, pb), pc) == m_series(pa, m_series(pb, pc))

    def involution(f, g):
        p1, p2 = StarSeries.from_ncpoly(f, t_order), StarSeries.from_ncpoly(g, t_order)
        return series_involution(m_series(p1, p2)) == m_series(series_involution(p2), series_involution(p1))

    return [
        _check("pk-shape", "deg p_k = k, p_k(0) = 1, p_0 = 1, p_1 = 1 + (1-q^2) x", fails, 11),
        _law(
            "holomorphic-triviality",
            "star(z^i, f) and star(f, zs^l) have no deformation terms",
            [(kind, i, a, b) for i in range(3) for a, b in small for kind in ("left-hol", "right-antihol")],
            trivial,
        ),
        _law(
            "holomorphic-factor-pulling",
            "star(z^i*f1, f2) = z^i*star(f1, f2) and star(f1, f2*zs^l) = star(f1, f2)*zs^l",
            [(side, i, m1, m2) for i, m1, m2 in product(range(3), small, small) for side in ("left", "right")],
            pulling,
        ),
        _law("series-associativity", "m(m(a,b),c) = m(a,m(b,c))", product(small, repeat=3), associativity),
        _law(
            "series-involution",
            "m(psi1, psi2)^* = m(psi2^*, psi1^*)",
            _rand_pairs(rng, pairs, 2),
            involution,
        ),
    ]


# ---------------------------------------------------------------------------


def oracle_suite(
    seed: int = 0,
    max_degree: int = 2,
    t_order: int = 3,
    cutoff: int = 16,
    eval_s0: Fraction | None = None,
) -> list:
    M, T = cutoff, t_order
    q2 = TSeries.constant(QScalar.q_power(2), T)
    comm = zhat_star(M, T) * zhat(M, T) - (zhat(M, T) * zhat_star(M, T)).scale_series(q2)
    residuals = []

    def homomorphism(a, b, c, d):
        f1, f2 = NCPoly.monomial(a, b), NCPoly.monomial(c, d)
        lhs = q_map(star(f1, f2, T), M)
        rhs = i_op_poly(f1, M, T) * i_op_poly(f2, M, T)
        if eval_s0 is not None:
            # spot-check both sides agree numerically entry by entry
            last = min(lhs.valid_columns(), rhs.valid_columns())
            zero = TSeries.zero(T)
            for row, col in set(lhs.entries) | set(rhs.entries):
                if col <= last:
                    le, re = lhs.entries.get((row, col), zero), rhs.entries.get((row, col), zero)
                    residuals.extend(cl - cr for cl, cr in zip(le.coeffs, re.coeffs))
        return lhs.equal_on_valid(rhs)

    checks = [
        _check(
            "adjoint-shift",
            "zhat_star acts as the k = 1 monomial operator",
            [] if zhat_star(M, T) == i_op(0, 1, M, T) else ["entrywise mismatch"],
            1,
        ),
        _law(
            "commutation-at-leading-order",
            "(zhat_star zhat - q^2 zhat zhat_star) = (1 - q^2) id + O(t)",
            [(m,) for m in range(comm.valid_columns() + 1)],
            lambda m: comm.entry(m, m).coeffs[0] == ONE - QScalar.q_power(2),
        ),
        _law(
            "representation-homomorphism",
            "q_map(star(f1, f2)) = i_op(f1) i_op(f2) entrywise on valid columns",
            [ab + cd for ab, cd in product(_monomials(max_degree), repeat=2)],
            homomorphism,
        ),
    ]
    if eval_s0 is not None:
        checks.append(
            _law(
                "numeric-spot-check",
                f"all homomorphism residuals vanish exactly at s = {eval_s0}",
                [(x,) for x in residuals],
                lambda x: eval_numeric(x, eval_s0) == 0,
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
    M, T, J = cutoff, t_order, window
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    expansions = {(j, k): (berezin_expansion(j, k, T), berezin(j, k, J, M, T)) for j, k in pairs}

    def one_sided(kind, k):
        jk = (0, k) if kind == "hol" else (k, 0)
        return berezin(*jk, J, M, T).entries == {jk[::-1]: TSeries.one(T)}

    def expansion(j, k, n):
        terms, win = expansions[j, k]
        # the t^n term has degree max(j, k) + n; compare its window part
        in_window = NCPoly({(a, b): c for (a, b), c in terms[n].terms.items() if a <= J and b <= J})
        return win.t_coefficient(n) == in_window

    def sandwich(i, j, k, l):
        sym = covariant_symbol(i_op(i, j, M, T) * i_op(k, l, M, T), J)
        base = berezin(j, k, J, M, T)
        return all(
            sym.entry(a, b) == (base.entry(a - i, b - l) if a >= i and b >= l else TSeries.zero(T))
            for a in range(J + 1)
            for b in range(J + 1)
        )

    return [
        _law(
            "covariant-round-trip",
            "covariant_symbol(i_op(f)) = f inside the window",
            _monomials(2),
            lambda j, k: covariant_symbol(i_op(j, k, M, T), J).entries == {(j, k): TSeries.one(T)},
        ),
        _law(
            "transform-fixes-one-sided",
            "berezin(0,k) = z^k and berezin(j,0) = zs^j",
            [(kind, k) for k in range(3) for kind in ("hol", "antihol")],
            one_sided,
        ),
        _law(
            "transform-asymptotic-expansion",
            "t-expansion of berezin(j,k) matches f0 + sum (p_n(box) - p_(n-1)(box)) f0 t^n",
            [(j, k, n) for j, k in pairs for n in range(T + 1)],
            expansion,
        ),
        # every t^n coefficient up to T lies inside the window max(j, k) + T
        _law(
            "transform-map-back",
            "q_map(berezin(j,k)) = zhat_star^j zhat^k on valid columns, window max(j,k) + T",
            pairs,
            lambda j, k: _maps_back(j, k, max(j, k) + T, M, T),
        ),
        _law(
            "sandwich-covariance",
            "symbol(i_op(z^i zs^j) i_op(z^k zs^l)) = z^i berezin(j,k) zs^l inside the window",
            product(range(2), repeat=4),
            sandwich,
        ),
    ]


# ---------------------------------------------------------------------------


def uq_suite(max_degree: int = 4, grid_degree: int = 2, t_order: int = 2) -> list:
    gens = uqsl2.GENERATORS
    monos4 = [NCPoly.monomial(j, k) for j, k in _monomials(max_degree) if j + k <= max_degree]
    grid = [NCPoly.monomial(j, k) for j, k in _monomials(grid_degree) if j + k <= grid_degree]
    relations = {name: (wa, wb) for name, wa, wb in uqsl2.defining_relations()}
    # counit and coproduct coherence on words of length <= 2
    words = [()] + [(g,) for g in gens] + [(a, b) for a in gens for b in gens]

    def counit(w, f):
        lhs = NCPoly.zero()
        for c, left, right in uqsl2.coproduct_word(w):
            lhs = lhs + uqsl2.act_word(((c * uqsl2.counit_word(left), right),), f)
        return lhs == uqsl2.act_word(((ONE, w),), f)

    def coproduct_image(combo, f1, f2):
        out = TensorPoly.zero()
        for coeff, letters in combo:
            for c, left, right in uqsl2.coproduct_word(letters):
                out = out + TensorPoly.from_polys(
                    uqsl2.act_word(((ONE, left),), f1),
                    uqsl2.act_word(((ONE, right),), f2),
                ).scale(coeff * c)
        return out

    def respects(name, f1, f2):
        wa, wb = relations[name]
        return coproduct_image(wa, f1, f2) == coproduct_image(wb, f1, f2)

    return [
        _law("uq-relation", name, [(f,) for f in monos4], lambda f: uqsl2.check_relation_on(wa, wb, f))
        for name, (wa, wb) in relations.items()
    ] + [
        _law(
            "uq-module-algebra",
            "g(f1 f2) = sum g1(f1) g2(f2) via the coproduct",
            product(gens, grid, grid),
            uqsl2.check_module_algebra,
        ),
        _law(
            "uq-box-equivariance",
            "g(box f) = box(g f)",
            product(gens, monos4),
            uqsl2.check_box_equivariance,
        ),
        _law(
            "uq-star-equivariance",
            "g(star(f1, f2)) = sum star(g1 f1, g2 f2) mod t^(T+1)",
            product(gens, grid, grid),
            lambda g, f1, f2: uqsl2.check_star_equivariance(g, f1, f2, t_order),
        ),
        _law(
            "uq-involution-compatibility",
            "(g f)^* = (S(g))^* f^*",
            product(gens, grid),
            uqsl2.check_involution_compat,
        ),
        _law(
            "uq-counit-law",
            "(counit (x) id) of the coproduct recovers the action",
            product(words, grid),
            counit,
        ),
        _law(
            "uq-coproduct-respects-relations",
            "the coproduct images of both sides of each relation act identically",
            product(relations, grid[:4], grid[:4]),
            respects,
        ),
    ]


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
    for n in names:
        if n != "all" and n not in SUITES:
            raise ValueError(f"unknown suite {n!r}")
    runs = {
        "rewrite": lambda: rewrite_suite(seed=seed, max_degree=4, samples=assoc_samples),
        "calculus": lambda: calculus_suite(seed=seed, max_degree=4),
        "star": lambda: star_suite(seed=seed, max_degree=max_degree, t_order=t_order),
        "oracle": lambda: oracle_suite(
            seed=seed, max_degree=max_degree, t_order=t_order, cutoff=cutoff, eval_s0=eval_s0
        ),
        "berezin": lambda: berezin_suite(t_order=t_order, cutoff=cutoff, window=window),
        "uq": lambda: uq_suite(max_degree=4, grid_degree=max_degree, t_order=min(t_order, 2)),
    }
    expanded = [s for n in names for s in (SUITES if n == "all" else (n,))]
    suites = {name: runs[name]() for name in dict.fromkeys(expanded)}
    passed = all(c["passed"] for checks in suites.values() for c in checks)
    return {"schema": 1, "suites": suites, "passed": passed}
