"""Shared test helpers: independent word-rewriting oracles, test-only helpers and generators."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import strategies as st

from qdisc import (
    FockOp,
    NCPoly,
    PkPolynomial,
    QScalar,
    TSeries,
    TensorPoly,
    WindowedSeries,
    Z,
    ZS,
    box,
    box_tilde,
    d_partial,
    m0,
    nc_mul,
    zhat,
    zhat_star,
)
from qdisc.scalar import ONE, ZERO
from qdisc.uqsl2 import E, F, K, KINV, coproduct, counit, star_of_antipode
from qdisc.verify import _deformation_terms

Q2 = QScalar.q_power(2)
ONE_MINUS_Q2 = QScalar.from_int(1) - Q2


def qpochhammer(a, base_exponent: int, n: int) -> QScalar:
    """The shifted factorial prod_{i<n} (1 - a * q**(base_exponent*i)).

    ``base_exponent`` may be negative; ``n`` must be >= 0 (n = 0 gives 1).
    """
    if n < 0:
        raise ValueError("qpochhammer needs n >= 0")
    out = ONE
    for i in range(n):
        out = out * (ONE - a * QScalar.q_power(base_exponent * i))
    return out


def tseries_inverse(a: TSeries) -> TSeries:
    """The multiplicative inverse of a mod t**(order+1); the constant term must be nonzero."""
    c0 = a.coeffs[0]
    if c0.is_zero():
        raise ValueError("TSeries with zero constant term has no inverse")
    inv0 = ONE / c0
    out = [inv0] + [ZERO] * a.order
    for n in range(1, a.order + 1):
        acc = ZERO
        for k in range(1, n + 1):
            ck = a.coeffs[k]
            if not ck.is_zero():
                acc = acc + ck * out[n - k]
        out[n] = -inv0 * acc
    return TSeries(out, a.order)


def tshift(a: TSeries, j: int) -> TSeries:
    """a times t**j, dropping what falls past the truncation order."""
    if j < 0:
        raise ValueError("tshift needs j >= 0")
    out = (ZERO,) * min(j, a.order + 1) + a.coeffs[: max(a.order + 1 - j, 0)]
    return TSeries(out, a.order)


def naive_normal_order(word: tuple, coeff: QScalar) -> dict:
    """Normal-order a word of 'z'/'zs' letters by brute-force rewriting.

    Repeatedly replaces the leftmost adjacent ('zs', 'z') pair using
    zs z -> q^2 z zs + (1 - q^2) until every word is sorted.  Deliberately
    knows nothing about the production rewriter: this is the oracle.
    """
    result: dict = {}
    work = [(word, coeff)]
    while work:
        w, c = work.pop()
        for i in range(len(w) - 1):
            if w[i] == "zs" and w[i + 1] == "z":
                swapped = w[:i] + ("z", "zs") + w[i + 2 :]
                dropped = w[:i] + w[i + 2 :]
                work.append((swapped, c * Q2))
                work.append((dropped, c * ONE_MINUS_Q2))
                break
        else:
            key = (w.count("z"), w.count("zs"))
            prev = result.get(key)
            v = c if prev is None else prev + c
            if v.is_zero():
                result.pop(key, None)
            else:
                result[key] = v
    return result


def naive_monomial_product(a: int, b: int, c: int, d: int) -> NCPoly:
    """z^a zs^b * z^c zs^d via the brute-force rewriter."""
    word = ("z",) * a + ("zs",) * b + ("z",) * c + ("zs",) * d
    return NCPoly(naive_normal_order(word, QScalar.from_int(1)))


def _zstar_block_z(b: int) -> tuple:
    """Normal form of zs^b * z: q^2b z zs^b + (1 - q^2b) zs^(b-1).

    Moving the single z left one swap at a time gives this by induction on b.
    """
    if b == 0:
        return (((1, 0), ONE),)
    q2b = QScalar.q_power(2 * b)
    return (((1, b), q2b), ((0, b - 1), ONE - q2b))


@lru_cache(maxsize=None)
def _recursive_block(b: int, c: int) -> tuple:
    if b == 0:
        return (((c, 0), ONE),)
    if c == 0:
        return (((0, b), ONE),)
    out: dict = {}
    for (j, k), w in _zstar_block_z(b):
        for (j2, k2), w2 in _recursive_block(k, c - 1):
            key = (j + j2, k2)
            v = w * w2
            prev = out.get(key)
            v = v if prev is None else prev + v
            if v.is_zero():
                out.pop(key, None)
            else:
                out[key] = v
    return tuple(out.items())


def recursive_normal_block(b: int, c: int) -> tuple:
    """Normal form of zs^b * z^c by recursion on c, as ((j, k), coeff) pairs.

    zs^b z^c = sum w * z^j (zs^k z^(c-1)) over the terms of zs^b z, so the
    block needs (b, c-1) and (b-1, c-1).  The blocks below are memoized
    first, lowest c first, so no call nests more than one level deep.  Knows
    no q-binomial: this is the oracle for ``qpoly._normal_block``.
    """
    for c2 in range(1, c):
        for b2 in range(max(b - c + c2, 0), b + 1):
            _recursive_block(b2, c2)
    return _recursive_block(b, c)


# cost of swapping a differential letter rightward past a generator:
#   dz * z   -> q^2  z  * dz        dz * zs  -> q^-2 zs * dz
#   dzs * z  -> q^2  z  * dzs       dzs * zs -> q^-2 zs * dzs
# (each line is one of the four bimodule relations read right-to-left)
_RIGHT_COST = {"z": Q2, "zs": QScalar.q_power(-2)}
_LEFT_COST = {"z": QScalar.q_power(-2), "zs": Q2}


def naive_d_partial(f: NCPoly, side: str, variable: str) -> NCPoly:
    """A partial derivative by rewriting d(word) one swap at a time.

    Spells each monomial out as its letter word, applies the Leibniz rule
    letter by letter and pushes the differential to the far right (right
    derivatives) or far left (left) one bimodule relation at a time.  Knows
    no closed-form coefficient: this is the oracle for ``d_partial``.
    """
    out = NCPoly.zero()
    wrt = "z" if variable == "z" else "zs"
    costs = _RIGHT_COST if side == "right" else _LEFT_COST
    for (j, k), c in f.terms.items():
        word = ("z",) * j + ("zs",) * k
        for pos, letter in enumerate(word):
            if letter != wrt:
                continue
            coeff = c
            for g in word[pos + 1 :] if side == "right" else word[:pos]:
                coeff = coeff * costs[g]
            rest = word[:pos] + word[pos + 1 :]
            # removing one letter from a sorted word leaves it sorted
            out = out + NCPoly.monomial(rest.count("z"), rest.count("zs"), coeff)
    return out


def box_right_form(f: NCPoly) -> NCPoly:
    """q^2 (d^r_zs d^r_z f)(1 - z zs)^2, the second defining form of box."""
    w = NCPoly.one() - NCPoly.monomial(1, 1)
    inner = d_partial(d_partial(f, "right", "z"), "right", "zstar")
    return nc_mul(inner, nc_mul(w, w)).scale(Q2)


def box_product_form(f: NCPoly) -> NCPoly:
    """(1 - z zs)^2 * (d^l_zs d^l_z f), the left form of box as two algebra products.

    Knows no stencil: the oracle for the three-term form in ``box``.
    """
    w = NCPoly.one() - NCPoly.monomial(1, 1)
    return nc_mul(nc_mul(w, w), d_partial(d_partial(f, "left", "z"), "left", "zstar"))


def m0_product_form(F: TensorPoly) -> NCPoly:
    """Sum over the terms of F of c * nc_mul(z^j1 zs^k1, z^j2 zs^k2), through ``NCPoly.__add__``.

    The oracle for ``m0``, which reads each middle block straight off the memo.
    """
    out = NCPoly.zero()
    for (j1, k1, j2, k2), c in F.terms.items():
        out = out + nc_mul(NCPoly.monomial(j1, k1), NCPoly.monomial(j2, k2)).scale(c)
    return out


# the action pinned on z, where the coproduct recursion starts
_Z_ACTION = {
    K: NCPoly.monomial(1, 0, Q2),
    KINV: NCPoly.monomial(1, 0, QScalar.q_power(-2)),
    F: NCPoly.scalar(QScalar.s_power(1)),
    E: NCPoly.monomial(2, 0, -QScalar.s_power(1)),
}


def _coproduct_word(letters: tuple, f: NCPoly) -> NCPoly:
    """The oracle's letter actions composed; the leftmost letter acts last."""
    for g in reversed(letters):
        f = act_sum_form(g, f)
    return f


@lru_cache(maxsize=None)
def coproduct_action(g: str, j: int, k: int) -> NCPoly:
    """g on z^j zs^k through the coproduct, one letter at a time.

    The action is pinned on z and given on the unit by the counit.  On zs
    it follows from the involution rule g zs = ((S(g))* z)*.  A longer
    monomial x * rest, with x = z for j > 0 and x = zs for j = 0, goes
    through D(g) = sum c g1 (x) g2 as sum c nc_mul(g1 x, g2 rest).  Knows
    no q-number: the oracle for the stencil in ``uqsl2._act_mono``.
    """
    if (j, k) == (0, 0):
        return NCPoly.scalar(counit(g))
    if (j, k) == (1, 0):
        return _Z_ACTION[g]
    if (j, k) == (0, 1):
        c, letters = star_of_antipode(g)[0]
        return _coproduct_word(letters, Z).scale(c).involution()
    head, rest = (Z, NCPoly.monomial(j - 1, k)) if j else (ZS, NCPoly.monomial(0, k - 1))
    out = NCPoly.zero()
    for c, left, right in coproduct(g):
        out = out + nc_mul(_coproduct_word(left, head), _coproduct_word(right, rest)).scale(c)
    return out


def act_sum_form(g: str, f: NCPoly) -> NCPoly:
    """Sum over the terms of f of c * coproduct_action(g, j, k), through ``NCPoly.__add__``.

    The oracle for ``uqsl2.act``: its stencil and its one-dict sum.
    """
    out = NCPoly.zero()
    for (j, k), c in f.terms.items():
        out = out + coproduct_action(g, j, k).scale(c)
    return out


def pstr_reference(a: dict) -> str:
    """The canonical text of an {exponent: int or Fraction} dict, spelled out term by term.

    The oracle for ``scalar._pstr`` and its cached powers of s.
    """
    if not a:
        return "0"
    parts = []
    for e in sorted(a):
        c = a[e]
        neg = c < 0
        mag = -c if neg else c
        mag_text = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if e == 0:
            body = mag_text
        else:
            var = "s" if e == 1 else f"s^{e}"
            body = var if mag == 1 else f"{mag_text}*{var}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


@lru_cache(maxsize=None)
def pk_sum_formula(k: int) -> PkPolynomial:
    """p_k from its terminating basic hypergeometric sum, expanded in x.

    p_k(x) = sum_{j=0}^{k} (q^-2k; q^2)_j / (q^2; q^2)_j^2 * q^2j
             * prod_{i=0}^{j-1} (1 - q^2i ((1-q^2)^2 x + 1 + q^2) + q^(4i+2)).

    Knows nothing of the three-term recurrence: this is the oracle for ``pk``.
    """
    one_minus_q2_sq = (ONE - Q2) ** 2
    total = [ZERO] * (k + 1)
    for j in range(k + 1):
        outer = qpochhammer(QScalar.q_power(-2 * k), 2, j)
        if outer.is_zero():
            continue
        scale = outer / qpochhammer(Q2, 2, j) ** 2 * QScalar.q_power(2 * j)
        prod = [ONE]  # the inner product as coefficients of x^0, x^1, ...
        for i in range(j):
            q2i = QScalar.q_power(2 * i)
            const = ONE - q2i * (ONE + Q2) + QScalar.q_power(4 * i + 2)
            linear = -(q2i * one_minus_q2_sq)
            prod = [
                (prod[n] * const if n < len(prod) else ZERO) + (prod[n - 1] * linear if n else ZERO)
                for n in range(len(prod) + 1)
            ]
        for n, c in enumerate(prod):
            total[n] = total[n] + scale * c
    return PkPolynomial(k, total)


def horner_pk_diff(k: int, op, f):
    """(p_k - p_(k-1))(op) f by Horner: k applications of op, k >= 1."""
    a, b = pk_sum_formula(k).coeffs, pk_sum_formula(k - 1).coeffs + [ZERO]
    coeffs = [x - y for x, y in zip(a, b)]
    out = f.scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out = op(out) + f.scale(c)
    return out


def ck_horner(k: int, f1: NCPoly, f2: NCPoly) -> NCPoly:
    """C_k(f1, f2) = m0((p_k - p_(k-1))(box_tilde) (f1 (x) f2)) on the whole tensor."""
    return m0(horner_pk_diff(k, box_tilde, TensorPoly.from_polys(f1, f2)))


def berezin_horner(j: int, k: int, terms: int) -> list:
    """The berezin expansion terms with (p_n - p_(n-1))(box) applied by Horner.

    The p_n come from ``pk_sum_formula``, so this route shares no code with
    the recurrence in ``star.pk_images``.
    """
    f0 = nc_mul(NCPoly.monomial(0, j), NCPoly.monomial(k, 0))
    return [f0] + [horner_pk_diff(n, box, f0) for n in range(1, terms + 1)]


def box_tilde_sector_chain(b: int, c: int, order: int) -> tuple:
    """(C_1, ..., C_order)(zs^b, z^c) as m0 of the box_tilde chain on zs^b (x) z^c.

    The definition of C_k on the tensor, through ``verify._deformation_terms``:
    the reference route for ``star._ck_mono``, which runs box on zs^b z^c.
    Both routes run ``pk_images``, so this checks the sector reduction, not
    the recurrence; ``berezin_horner`` is the check of the recurrence.
    """
    return tuple(_deformation_terms(NCPoly.monomial(0, b), NCPoly.monomial(c, 0), order))


def tseries_mul_reference(a: TSeries, b: TSeries) -> TSeries:
    """The truncated product term by term through ``QScalar`` arithmetic, with no shortcut.

    Each nonzero term product a_i b_j with i + j <= order is added to the
    coefficient of t^(i+j) as a ``QScalar``: the oracle for the Laurent
    kernel and the unit-series shortcuts of ``TSeries.__mul__``.
    """
    if a.order != b.order:
        raise ValueError(f"truncation order mismatch: {a.order} vs {b.order}")
    out = [ZERO] * (a.order + 1)
    for i, x in enumerate(a.coeffs):
        if x.is_zero():
            continue
        for j in range(a.order + 1 - i):
            y = b.coeffs[j]
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return TSeries(out, a.order)


def geometric(c, order: int) -> TSeries:
    """1 / (1 - c*t) truncated: coefficients 1, c, c^2, ..."""
    coeffs = [ONE]
    for _ in range(order):
        coeffs.append(coeffs[-1] * c)
    return TSeries(coeffs, order)


def from_rational(num: list, den: list, order: int) -> TSeries:
    """Taylor expansion of num(t)/den(t), through ``tseries_inverse``; den must not vanish at t = 0."""
    if not den or den[0].is_zero():
        raise ValueError("denominator vanishes at t = 0: not a formal power series")
    n = TSeries([num[i] if i < len(num) else ZERO for i in range(order + 1)], order)
    d = TSeries([den[i] if i < len(den) else ZERO for i in range(order + 1)], order)
    return n * tseries_inverse(d)


@lru_cache(maxsize=None)
def column_series(k: int, m: int, order: int) -> TSeries:
    """(q^2m; q^-2)_k / (t q^2m; q^-2)_k as qpochhammer times k geometric series.

    Knows nothing of ``fockrep._column_poly``: this is the oracle for the
    column values of the monomial action.
    """
    out = TSeries.constant(qpochhammer(QScalar.q_power(2 * m), -2, k), order)
    for i in range(k):
        # 1/(1 - t q^(2(m-i))) as a geometric series
        out = out * geometric(QScalar.q_power(2 * (m - i)), order)
    return out


def _t_linear_product(factors: list, order: int) -> TSeries:
    """prod (a + b t) over the (a, b) pairs of ``factors``, truncated."""
    out = TSeries.one(order)
    for a, b in factors:
        out = out * TSeries(([a, b] + [ZERO] * order)[: order + 1], order)
    return out


def qbinomial_covariant_symbol(A: FockOp, window: int) -> WindowedSeries:
    """The symbol ``covariant_symbol`` solves for, by the q-binomial theorem.

    With Q = q^2, column m of z^(k+d) zs^k carries
    (Q;Q)_m (tQ;Q)_(m-k) / ((tQ;Q)_m (Q;Q)_(m-k)).  Scaling column m of
    shift d by (tQ;Q)_m / (Q;Q)_m turns the triangular system into a
    convolution with g_j = (tQ;Q)_j / (Q;Q)_j, and the q-binomial theorem
    (Gasper-Rahman, *Basic Hypergeometric Series*, section 1.3) inverts
    sum_j g_j u^j as sum_j pi_j(t) u^j / (Q;Q)_j with
    pi_j(t) = prod_(i<j) (tQ - Q^i).  So, with A_m = A.entry(m + d, m),

        (Q;Q)_k a_k = sum_(m=k_min)^k [k, m]_Q (tQ;Q)_m pi_(k-m)(t) A_m.

    No column value, no column inverse and no solve: the oracle for
    ``covariant_symbol``.
    """
    order = A.order
    Q = QScalar.q_power(2)

    def qq(n):  # (Q;Q)_n
        return qpochhammer(Q, 2, n)

    out = {}
    for d in sorted({row - col for row, col in A.entries}):
        k_min, k_max = max(0, -d), window - max(d, 0)
        for k in range(k_min, k_max + 1):
            acc = TSeries.zero(order)
            for m in range(k_min, k + 1):
                weight = _t_linear_product([(ONE, -(Q ** (i + 1))) for i in range(m)], order)
                pi = _t_linear_product([(-(Q**i), Q) for i in range(k - m)], order)
                gauss = qq(k) / (qq(m) * qq(k - m))
                acc = acc + weight * pi * A.entry(m + d, m) * gauss
            a = acc * (ONE / qq(k))
            if not a.is_zero():
                out[(k + d, k)] = a
    return WindowedSeries(window, order, out)


def naive_i_op(j: int, k: int, M: int, order: int) -> FockOp:
    """The image of z^j zs^k built column by column from ``column_series``."""
    entries = {}
    for m in range(k, M + 1):
        if m - k + j <= M:
            entries[(m - k + j, m)] = column_series(k, m, order)
    return FockOp(M, order, entries, max(j - k, 0))


def naive_i_op_poly(f: NCPoly, M: int, order: int) -> FockOp:
    """Sum of c * naive_i_op(j, k) over the terms of f, through ``FockOp.__add__``."""
    out = FockOp.zero(M, order)
    for (j, k), c in f.terms.items():
        op = naive_i_op(j, k, M, order)
        if not c.is_one():
            op = FockOp(M, order, {key: v * c for key, v in op.entries.items()}, op.raise_bound)
        out = out + op
    return out


def naive_berezin_op(j: int, k: int, M: int, order: int) -> FockOp:
    """zhat_star^j zhat^k by repeated ``FockOp.__mul__`` from the identity."""
    out = FockOp.identity(M, order)
    for _ in range(j):
        out = out * zhat_star(M, order)
    for _ in range(k):
        out = out * zhat(M, order)
    return out


def naive_q_map(psi, M: int) -> FockOp:
    """Sum over n of t^n times the whole image of the t^n coefficient.

    Scales every entry in full and only then drops what the shift pushes past
    the truncation order: the oracle for ``q_map``, which sums each diagonal
    once as a polynomial in x = q^2m.
    """
    order = psi.order
    out = FockOp.zero(M, order)
    for n, f in enumerate(psi.coeffs):
        if f.is_zero():
            continue
        op = naive_i_op_poly(f, M, order)
        out = out + FockOp(M, order, {key: tshift(v, n) for key, v in op.entries.items()}, op.raise_bound)
    return out


# Laurent values next to values whose denominator is prime to s, and user rationals
MIXED_COEFFS = (
    ONE,
    QScalar.q_power(-1),
    QScalar.s_power(1),
    ONE / (ONE - QScalar.q_power(1)),
    QScalar.from_fraction(Fraction(1, 2)),
    QScalar.from_int(2) / (QScalar.from_int(3) - Q2),
)


def mixed_coefficients():
    """Sums of one or two small multiples of ``MIXED_COEFFS``; zero is possible."""
    term = st.builds(lambda n, c: c * n, st.integers(-3, 3).filter(bool), st.sampled_from(MIXED_COEFFS))
    return st.lists(term, min_size=1, max_size=2).map(lambda cs: sum(cs[1:], cs[0]))


def mixed_ncpolys(max_exp: int = 5, max_terms: int = 5):
    """Polynomials whose coefficients mix Laurent and non-Laurent values."""
    keys = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    raw = st.dictionaries(keys, mixed_coefficients(), max_size=max_terms)
    return raw.map(lambda d: NCPoly({key: c for key, c in d.items() if not c.is_zero()}))


def mixed_tensors(max_exp: int = 4, max_terms: int = 5):
    """Tensors whose coefficients mix Laurent and non-Laurent values."""
    keys = st.tuples(*[st.integers(0, max_exp)] * 4)
    raw = st.dictionaries(keys, mixed_coefficients(), max_size=max_terms)
    return raw.map(lambda d: TensorPoly({key: c for key, c in d.items() if not c.is_zero()}))


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def rand_ncpoly():
    def make(rng: random.Random, max_exp: int = 3, nterms: int = 3) -> NCPoly:
        out = NCPoly.zero()
        for _ in range(rng.randint(1, nterms)):
            j, k = rng.randint(0, max_exp), rng.randint(0, max_exp)
            c = QScalar.from_int(rng.randint(-3, 3)) * QScalar.q_power(rng.randint(0, 2))
            out = out + NCPoly.monomial(j, k, c)
        return out

    return make
