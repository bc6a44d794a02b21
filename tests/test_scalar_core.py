"""Oracles for the integer Q(s) core.

sympy serves as an independent Q(s) implementation here only; the package
itself never imports it.  The properties cover inputs carrying Fractions
(whose denominators are cleared on input), non-unit leading coefficients,
and the one canonical form: ``int`` coefficients only, gcd(num, den) = 1
over Q, a positive leading coefficient of ``den`` and integer content 1.
"""

from fractions import Fraction
from math import gcd, lcm

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdisc import NCPoly, QScalar, parse_scalar, star
from qdisc.scalar import _pgcd, _pmul

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
    assert (got.num, got.den) == canonical_from_sympy(OPS[op](to_sympy(a), to_sympy(b)))
    assert_canonical(got)


@settings(max_examples=80, deadline=None)
@given(qscalars(fractions=False), qscalars(fractions=False))
def test_integer_inputs_match_sympy_cancel(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    for got, expected in ((a * b, sa * sb), (a + b, sa + sb)):
        assert (got.num, got.den) == canonical_from_sympy(expected)
        assert_canonical(got)


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
)
def test_z_gcd_matches_q_euclid(f, g, common):
    # a shared factor makes the gcd nontrivial in most draws
    a, b = _pmul(f, common), _pmul(g, common)
    got = _pgcd(a, b)
    assert got == _primitive_sympy_gcd(a, b)
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
