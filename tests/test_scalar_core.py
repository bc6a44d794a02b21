"""Oracles for the integer Q(s) core.

sympy serves as an independent Q(s) implementation here only; the package
itself never imports it.  The properties cover inputs carrying Fractions
(whose denominators are cleared on input), non-unit leading coefficients,
and the one canonical form: ``int`` coefficients only, a numerator in
Z[s, 1/s] over a denominator with a constant term, gcd(num, den) = 1 over
Q[s, 1/s], a positive leading coefficient of ``den`` and integer content 1.
sympy's reduced fractions are pairs over Z[s], so they are compared with
the polynomial view ``_poly()``, which multiplies both halves by the power
of s that clears the numerator's negative exponents.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdisc import NCPoly, QScalar, TSeries, eval_numeric, parse_scalar, star
from qdisc.scalar import (
    _canonical,
    _div_poly,
    _exponents,
    _mul_reduced,
    _padd,
    _pgcd,
    _pmul,
    _pquo,
    _pstr,
)

from conftest import pstr_reference

SYM_S = sympy.Symbol("s")


# -- strategies ------------------------------------------------------------------


def _coeffs(fractions: bool):
    ints = st.integers(min_value=-6, max_value=6)
    if not fractions:
        return ints
    return st.one_of(ints, st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _poly(fractions: bool, max_terms: int = 4, nonzero: bool = False):
    raw = st.dictionaries(st.integers(min_value=0, max_value=6), _coeffs(fractions), max_size=max_terms)
    poly = raw.map(lambda d: {e: c for e, c in d.items() if c})
    return poly.filter(bool) if nonzero else poly


@st.composite
def qscalars(draw, fractions: bool = True):
    return QScalar(draw(_poly(fractions)), draw(_poly(fractions, nonzero=True)))


# -- helpers ----------------------------------------------------------------------


def to_sympy(x: QScalar):
    def poly(p):
        return sum((sympy.Integer(c) * SYM_S**e for e, c in p.items()), sympy.Integer(0))

    return poly(x.num) / poly(x.den)


def _rational_coeffs(p) -> dict:
    return {m[0]: Fraction(str(c)) for m, c in p.terms() if c != 0}


def _integral_primitive(num: dict, den: dict) -> tuple[dict, dict]:
    """num/den rescaled to integer coefficients with gcd 1 and lc(den) > 0."""
    values = list(num.values()) + list(den.values())
    scale = Fraction(lcm(*(c.denominator for c in values)), gcd(*(c.numerator for c in values)))
    if den[max(den)] < 0:
        scale = -scale
    return ({e: int(c * scale) for e, c in num.items()}, {e: int(c * scale) for e, c in den.items()})


def canonical_from_sympy(expr):
    """The (num, den) coefficient dicts of expr in QScalar's canonical form."""
    n, d = sympy.fraction(sympy.cancel(expr))
    pn, pd = sympy.Poly(n, SYM_S, domain="QQ"), sympy.Poly(d, SYM_S, domain="QQ")
    return _integral_primitive(_rational_coeffs(pn), _rational_coeffs(pd))


def assert_int_coefficients(x: QScalar):
    for c in list(x.num.values()) + list(x.den.values()):
        assert type(c) is int, (x, c)


def assert_canonical(x: QScalar):
    assert_int_coefficients(x)
    assert min(x.den) == 0 and x.den[0] != 0, x
    assert x.den[max(x.den)] > 0, x
    assert gcd(*x.num.values(), *x.den.values()) == 1, x


# -- QScalar against sympy.cancel ----------------------------------------------------


OPS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


@settings(max_examples=120, deadline=None)
@given(qscalars(), qscalars(), st.sampled_from(sorted(OPS)))
def test_arithmetic_matches_sympy_cancel(a, b, op):
    assume(op != "/" or not b.is_zero())
    got = OPS[op](a, b)
    assert got._poly() == canonical_from_sympy(OPS[op](to_sympy(a), to_sympy(b)))
    assert_canonical(got)


@settings(max_examples=80, deadline=None)
@given(qscalars(fractions=False), qscalars(fractions=False))
def test_integer_inputs_match_sympy_cancel(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    for got, expected in ((a * b, sa * sb), (a + b, sa + sb)):
        assert got._poly() == canonical_from_sympy(expected)
        assert_canonical(got)


# -- Laurent values: numerators in Z[s, 1/s] over 1 --------------------------------------


@st.composite
def laurent_qscalars(draw):
    """num / s^E over Z, with numerators that s may divide, so part of the power cancels."""
    low = draw(st.integers(min_value=0, max_value=3))
    num = {e + low: c for e, c in draw(_poly(False)).items()}
    return QScalar(num, {draw(st.integers(min_value=0, max_value=6)): 1})


# monomials whose leading coefficient is not 1 (1/(2q) and 1/7), and binomials
OTHER_DENS = ({2: 2}, {0: 7}, {0: 1, 2: -1}, {0: 1, 4: 1}, {1: 3, 2: 1})


@st.composite
def other_den_qscalars(draw):
    return QScalar(draw(_poly(True)), draw(st.sampled_from(OTHER_DENS)))


def _check_against_sympy_and_general_product(a, b, op):
    got = OPS[op](a, b)
    assert got._poly() == canonical_from_sympy(OPS[op](to_sympy(a), to_sympy(b)))
    assert_canonical(got)
    if op == "*":
        want = _mul_reduced(a.num, a.den, b.num, b.den)
        assert (got.num, got.den) == (want.num, want.den)


@settings(max_examples=200, deadline=None)
@given(laurent_qscalars(), laurent_qscalars(), st.sampled_from(["+", "-", "*"]))
def test_laurent_arithmetic_matches_sympy_cancel(a, b, op):
    assert a.den == {0: 1}
    _check_against_sympy_and_general_product(a, b, op)


@settings(max_examples=200, deadline=None)
@given(
    laurent_qscalars(),
    st.one_of(other_den_qscalars(), qscalars()),
    st.sampled_from(["+", "-", "*"]),
    st.booleans(),
)
def test_laurent_mixed_with_other_denominators_matches_sympy_cancel(a, b, op, swap):
    if swap:
        a, b = b, a
    _check_against_sympy_and_general_product(a, b, op)


def test_laurent_power_of_s_cancels():
    s = QScalar.s_power(1)
    # s^2 * s^-3 = 1/s, and (1 + s)/s^2 + (s - 1)/s^2 = 2/s
    got = QScalar.s_power(2) * QScalar.s_power(-3)
    assert got._poly() == ({0: 1}, {1: 1})
    got = (1 + s) / s**2 + (s - 1) / s**2
    assert got._poly() == ({0: 2}, {1: 1})
    # (s + s^3)/s^2 = 1/s + s; a numerator s^4 cancels the whole power
    got = (s + s**3) * QScalar.s_power(-2)
    assert got._poly() == ({0: 1, 2: 1}, {1: 1})
    assert (s**4 * QScalar.s_power(-4)).den == {0: 1}
    # sums that cancel to zero leave the canonical zero
    x = (1 + s) / s**3
    for got in (x - x, x + (-x), x * s - (s + s**2) / s**3):
        assert got._poly() == ({}, {0: 1})


def test_monomials_with_a_non_unit_lead_are_not_powers_of_s():
    # 1/(2q) = 1/(2 s^2) and 1/7 keep their leading coefficient
    half_q = QScalar({0: 1}, {2: 2})
    seventh = QScalar.from_int(1) / 7
    s2 = QScalar.s_power(-2)
    assert (half_q * s2)._poly() == ({0: 1}, {4: 2})
    assert (half_q + s2)._poly() == ({0: 3}, {2: 2})
    assert (seventh * s2)._poly() == ({0: 1}, {2: 7})
    assert (seventh + s2)._poly() == ({0: 7, 2: 1}, {2: 7})


# -- the Laurent form: negative exponents live in the numerator ----------------------------


@st.composite
def negative_laurent_qscalars(draw):
    """Zero-free dicts with exponents in -8..6 over {0: 1}: canonical as they stand."""
    raw = draw(st.dictionaries(st.integers(min_value=-8, max_value=6), _coeffs(False), max_size=4))
    return QScalar({e: c for e, c in raw.items() if c}, None, _canonical=True)


def _laurent_mix():
    return st.one_of(negative_laurent_qscalars(), other_den_qscalars(), qscalars())


@settings(max_examples=250, deadline=None)
@given(_laurent_mix(), _laurent_mix(), st.sampled_from(sorted(OPS)))
def test_laurent_form_invariants(a, b, op):
    assume(op != "/" or not b.is_zero())
    got = OPS[op](a, b)
    assert got._poly() == canonical_from_sympy(OPS[op](to_sympy(a), to_sympy(b)))
    assert_canonical(got)
    # Laurent over Z exactly when the reduced denominator over Z[s] is a power of s
    _, den = got._poly()
    assert (got.den == {0: 1}) == (len(den) == 1 and list(den.values()) == [1])
    assert parse_scalar(str(got)) == got
    # the same value by other routes: equal, with equal hashes
    routes = [QScalar(*got._poly())]
    if op in "+*":
        routes.append(OPS[op](b, a))
    for other in routes:
        assert (other.num, other.den) == (got.num, got.den)
        assert hash(other) == hash(got)


@settings(max_examples=150, deadline=None)
@given(_laurent_mix(), st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_laurent_values_cancelling_to_a_constant_hash_like_the_fraction(x, c):
    assume(not x.is_zero())
    got = x * c / x
    assert got == c
    assert hash(got) == hash(c)
    assert_canonical(got)


@settings(max_examples=150, deadline=None)
@given(negative_laurent_qscalars(), st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
def test_eval_numeric_reads_the_laurent_form(x, s0):
    if x.num and min(x.num) < 0:
        with pytest.raises(ZeroDivisionError, match="pole at s = 0"):
            eval_numeric(x, Fraction(0))
    want = to_sympy(x).subs(SYM_S, sympy.Rational(s0.numerator, s0.denominator))
    assert eval_numeric(x, s0) == Fraction(str(want))


# -- the canonical form over a monomial denominator -------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    _poly(False, max_terms=5),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=9),
    st.booleans(),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=12),
)
def test_canonical_over_a_monomial_matches_the_gcd(num, low, content, share, c, E):
    # num / (c s^E) is the Laurent numerator num s^-E over the constant c; numerators
    # that s^low divides and whose content may share a factor with c; {} is zero
    factor = content * (c if share else 1)
    num = {e + low: v * factor for e, v in num.items()}
    got = _canonical({e - E: v for e, v in num.items()}, {0: c})
    want = QScalar(num, {E: c})  # the general constructor, with its gcds
    assert (got.num, got.den) == (want.num, want.den)
    assert got._poly() == canonical_from_sympy(to_sympy(QScalar(num, None, _canonical=True)) / (c * SYM_S**E))
    assert (got.den == {0: 1}) == (not num or gcd(*num.values()) % c == 0)
    assert_canonical(got)


# -- exact division by a polynomial -------------------------------------------------------

# (q^4; q^-2)_1, (q^6; q^-2)_2 and divisors that are not of that shape; s - s^3 has a
# factor s, which the exact division leaves to the general quotient
DIVISORS = ({0: 1, 4: -1}, {0: 1, 4: -1, 8: -1, 12: 1}, {0: 2, 1: 1}, {1: 1, 3: -1})


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(laurent_qscalars(), other_den_qscalars(), qscalars()),
    st.sampled_from(DIVISORS),
    st.booleans(),
)
def test_div_poly_matches_the_general_quotient(x, d, multiple):
    as_scalar = QScalar(d, None, _canonical=True)
    if multiple:  # d divides the numerator, so a Laurent x takes the exact division
        x = x * as_scalar
    got = _div_poly(x, d)
    want = x / as_scalar
    assert (got.num, got.den) == (want.num, want.den)
    assert_canonical(got)


def test_exact_quotient_checks_its_remainder():
    d = {0: 1, 4: -1}
    assert _pquo(_pmul({0: 3, 1: -1, 9: 2}, d), d) == {0: 3, 1: -1, 9: 2}
    assert _pquo({0: 1}, d) is None
    assert _pquo(_padd(_pmul({5: 1}, d), {0: 1}), d) is None  # a remainder below deg d
    assert _pquo({4: 3}, {4: 2}) is None  # the leading coefficients do not divide


# -- the unit series ----------------------------------------------------------------------


def _convolve(a: TSeries, b: TSeries) -> TSeries:
    """The truncated product coefficient by coefficient, with no shortcut."""
    out = []
    for n in range(a.order + 1):
        acc = QScalar({})
        for i in range(n + 1):
            acc = acc + a.coeffs[i] * b.coeffs[n - i]
        out.append(acc)
    return TSeries(out, a.order)


def _tseries(order: int):
    coeffs = st.one_of(laurent_qscalars(), other_den_qscalars(), qscalars())
    return st.lists(coeffs, min_size=order + 1, max_size=order + 1).map(TSeries)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=3).flatmap(_tseries), st.booleans())
def test_unit_series_product_matches_the_convolution(a, swap):
    one = TSeries.one(a.order)
    # the unit as a value built by arithmetic, not only by the constructor
    for u in (one, (one + one) - one):
        got = u * a if swap else a * u
        assert got == _convolve(u, a) == a


def test_unit_constant_term_with_a_higher_term_is_not_the_unit():
    s, T = QScalar.s_power(1), 3
    one = QScalar.from_int(1)
    zero = QScalar({})
    a = TSeries([QScalar.s_power(-2), one / 7, zero, s], T)
    for u in (TSeries([one, s, zero, zero], T), TSeries([one, zero, zero, s], T)):
        assert not u.is_one()
        for x, y in ((u, a), (a, u), (u, u)):
            assert x * y == _convolve(x, y)
        assert u * a != a and a * u != a


# -- one value, one form ------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    _poly(True),
    _poly(True, nonzero=True),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
)
def test_rescaled_input_gives_one_form(num, den, lam):
    x = QScalar(num, den)
    y = QScalar({e: lam * c for e, c in num.items()}, {e: lam * c for e, c in den.items()})
    assert (x.num, x.den) == (y.num, y.den)
    assert hash(x) == hash(y)
    assert str(x) == str(y)
    assert_canonical(x)
    assert parse_scalar(str(x)) == x


# -- the gcd ---------------------------------------------------------------------------


def _primitive_sympy_gcd(a: dict, b: dict) -> dict:
    pa = sympy.Poly({(e,): c for e, c in a.items()}, SYM_S, domain="QQ")
    pb = sympy.Poly({(e,): c for e, c in b.items()}, SYM_S, domain="QQ")
    g = _rational_coeffs(sympy.gcd(pa, pb))
    # as both halves of a pair, g comes out primitive with a positive leading coefficient
    return _integral_primitive(g, g)[0]


@settings(max_examples=150, deadline=None)
@given(
    _poly(False, nonzero=True),
    _poly(False, nonzero=True),
    _poly(False, max_terms=3, nonzero=True),
    st.integers(min_value=-6, max_value=6),
)
def test_z_gcd_matches_q_euclid(f, g, common, shift):
    # a shared factor makes the gcd nontrivial in most draws; over Q[s, 1/s] s is a
    # unit, so the gcd is sympy's with its power of s taken out, whatever the shift
    a, b = _pmul(f, common), _pmul(g, common)
    want = _primitive_sympy_gcd(a, b)
    want = {e - min(want): c for e, c in want.items()}
    got = _pgcd(a, b)
    assert got == want
    assert _pgcd(_pmul(a, {shift: 1}), b) == got
    assert got[0] != 0
    assert got[max(got)] > 0
    assert gcd(*got.values()) == 1


def test_gcd_is_primitive_whatever_the_content():
    a = {0: 1, 2: -1}  # 1 - s^2
    b = {0: 1, 1: 1}  # 1 + s
    assert _pgcd(a, b) == {0: 1, 1: 1}
    assert _pgcd({e: 2 * c for e, c in a.items()}, {e: -3 * c for e, c in b.items()}) == {0: 1, 1: 1}


def test_z_gcd_with_non_unit_leading_coefficients():
    # gcd(2s + 1, 4s^2 - 1) = 2s + 1, primitive rather than monic
    a = {0: 1, 1: 2}
    b = {0: -1, 2: 4}
    assert _pgcd(a, b) == {0: 1, 1: 2}


# -- coefficient types -----------------------------------------------------------------


@st.composite
def unit_lead_qscalars(draw):
    """Integer polynomials over integer polynomials with leading coefficient +-1."""

    def unit_lead(nonzero):
        p = draw(_poly(False, nonzero=nonzero))
        if p:
            p[max(p)] = draw(st.sampled_from([1, -1]))
        return p

    return QScalar(unit_lead(False), unit_lead(True))


@settings(max_examples=150, deadline=None)
@given(unit_lead_qscalars(), unit_lead_qscalars())
def test_integer_arithmetic_stays_int(a, b):
    assert_int_coefficients(a)
    assert_int_coefficients(b)
    results = [a + b, a - b, a * b, -a]
    if not b.is_zero():
        results.append(a / b)
    for x in results:
        assert_int_coefficients(x)


def test_integral_fraction_input_becomes_int():
    x = QScalar({0: Fraction(4, 2), 1: Fraction(6, 3)}, {0: Fraction(1), 2: Fraction(1)})
    assert x.num == {0: 2, 1: 2}
    assert_int_coefficients(x)
    half = QScalar.from_fraction(Fraction(1, 2))
    two = half + half + half + half
    assert two == QScalar.from_int(2)
    assert_int_coefficients(two)
    assert_int_coefficients(half * QScalar.from_int(2))
    assert (half.num, half.den) == ({0: 1}, {0: 2})
    assert hash(QScalar.from_int(3)) == hash(QScalar({0: Fraction(3)}))


@settings(max_examples=80, deadline=None)
@given(qscalars(), st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_fraction_operands_leave_int_coefficients(a, c):
    fc = QScalar.from_fraction(c)
    results = [a + c, c + a, a - c, c - a, a * c, c * a]
    expected = [a + fc, fc + a, a - fc, fc - a, a * fc, fc * a]
    if c:
        results.append(a / c)
        expected.append(a / fc)
    if not a.is_zero():
        results.append(c / a)
        expected.append(fc / a)
    assert results == expected
    for x in results:
        assert_canonical(x)


def test_constants_hash_like_int_and_fraction():
    three, half = QScalar.from_int(3), QScalar.from_fraction(Fraction(1, 2))
    assert len({three, 3}) == 1
    assert len({half, Fraction(1, 2)}) == 1
    assert hash(QScalar.from_int(0)) == hash(0)
    table = {3: "three", Fraction(1, 2): "half", Fraction(-2, 3): "minus two thirds"}
    assert table[three] == "three"
    assert table[half] == "half"
    assert table[QScalar.from_int(-2) / 3] == "minus two thirds"
    assert {three: 1}[3] == 1
    assert {half: 1}[Fraction(2, 4)] == 1
    # a constant that came out of arithmetic on polynomials
    x = (QScalar.s_power(1) + 1) / (QScalar.s_power(2) * 4 - 4)
    y = x * (QScalar.s_power(1) - 1)
    assert y == Fraction(1, 4)
    assert hash(y) == hash(Fraction(1, 4))


def test_star_coefficients_are_ints():
    f = NCPoly.monomial(2, 2)
    psi = star(f, f, 3)
    seen = 0
    for coeff in psi.coeffs:
        for c in coeff.terms.values():
            assert_int_coefficients(c)
            seen += 1
    assert seen > 0


# -- canonical text and the shared exponents -----------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=60), _coeffs(fractions=True), max_size=6))
def test_pstr_matches_reference(raw):
    p = {e: c for e, c in raw.items() if c}
    assert _pstr(p) == pstr_reference(p)


@settings(max_examples=200, deadline=None)
@given(qscalars())
def test_pstr_matches_reference_on_monic_forms(x):
    # monic() divides by a non-unit leading coefficient, so Fractions reach the text
    for p in x.monic():
        assert _pstr(p) == pstr_reference(p)


def test_exponent_table_raises_on_a_bad_index():
    exps = _exponents(8)
    assert exps[8] == 8 and exps[-8] == -8
    with pytest.raises(KeyError):
        exps[len(exps)]
    with pytest.raises(KeyError):
        exps[-len(exps)]
    # a product beyond the table extends it on both sides and keys on its objects
    top = len(exps)
    got = _pmul({-top: 1, 1: 1}, {-top: 2, 2: 1})
    assert got == {-2 * top: 2, 1 - top: 2, 2 - top: 1, 3: 1}
    assert all(_exponents(0)[e] is e for e in got)
