"""Oracles for the integer-coefficient Q(s) core.

sympy serves as an independent Q(s) implementation here only; the package
itself never imports it.  The properties cover both gcd routes (integer
inputs take the primitive remainder sequence over Z[s], inputs carrying a
Fraction take the Euclid over Q), non-unit leading coefficients (which the
monic normalization divides out), and the coefficient types: an integral
coefficient must be an ``int``, never an integral ``Fraction``.
"""

from fractions import Fraction

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdisc import NCPoly, QScalar, star
from qdisc.scalar import _pgcd, _pgcd_q, _pgcd_z, _pmul

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
        return sum((sympy.Rational(c.numerator, c.denominator) * SYM_S**e for e, c in p.items()), sympy.Integer(0))

    return poly(x.num) / poly(x.den)


def canonical_from_sympy(expr):
    """The (num, den) coefficient dicts of expr in QScalar's canonical form."""
    n, d = sympy.fraction(sympy.cancel(expr))
    pn, pd = sympy.Poly(n, SYM_S), sympy.Poly(d, SYM_S)
    lc = Fraction(str(pd.LC()))

    def dict_of(p):
        return {m[0]: Fraction(str(c)) / lc for m, c in p.terms() if c != 0}

    return dict_of(pn) if not pn.is_zero else {}, dict_of(pd)


def assert_no_integral_fraction(x: QScalar):
    for c in list(x.num.values()) + list(x.den.values()):
        assert type(c) is int or c.denominator != 1, (x, c)


def assert_int_coefficients(x: QScalar):
    for c in list(x.num.values()) + list(x.den.values()):
        assert type(c) is int, (x, c)


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
    assert got.den[max(got.den)] == 1
    assert_no_integral_fraction(got)


@settings(max_examples=80, deadline=None)
@given(qscalars(fractions=False), qscalars(fractions=False))
def test_integer_inputs_match_sympy_cancel(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    for got, expected in ((a * b, sa * sb), (a + b, sa + sb)):
        assert (got.num, got.den) == canonical_from_sympy(expected)
        assert_no_integral_fraction(got)


# -- the two gcd routes ----------------------------------------------------------------


def _monic_sympy_gcd(a: dict, b: dict) -> dict:
    pa = sympy.Poly({(e,): c for e, c in a.items()}, SYM_S, domain="QQ")
    pb = sympy.Poly({(e,): c for e, c in b.items()}, SYM_S, domain="QQ")
    g = sympy.gcd(pa, pb).monic()
    return {m[0]: Fraction(str(c)) for m, c in g.terms() if c != 0}


@settings(max_examples=150, deadline=None)
@given(
    _poly(False, nonzero=True),
    _poly(False, nonzero=True),
    _poly(False, max_terms=3, nonzero=True),
)
def test_z_gcd_matches_q_euclid(f, g, common):
    # a shared factor makes the gcd nontrivial in most draws
    a, b = _pmul(f, common), _pmul(g, common)
    got = _pgcd_z(a, b)
    assert got == _pgcd_q(a, b)
    assert got == _monic_sympy_gcd(a, b)
    assert got[max(got)] == 1


def test_gcd_dispatch_on_coefficient_type():
    a = {0: 1, 2: -1}  # 1 - s^2
    b = {0: 1, 1: 1}  # 1 + s
    assert _pgcd(a, b) == {0: 1, 1: 1}
    half = {e: Fraction(c, 2) for e, c in a.items()}
    assert _pgcd(half, b) == {0: 1, 1: 1}


def test_z_gcd_with_non_unit_leading_coefficients():
    # gcd(2s + 1, 4s^2 - 1) = s + 1/2 once made monic
    a = {0: 1, 1: 2}
    b = {0: -1, 2: 4}
    assert _pgcd_z(a, b) == {0: Fraction(1, 2), 1: 1}
    assert _pgcd_q(a, b) == {0: Fraction(1, 2), 1: 1}


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
    assert hash(QScalar.from_int(3)) == hash(QScalar({0: Fraction(3)}))


def test_star_coefficients_are_ints():
    f = NCPoly.monomial(2, 2)
    psi = star(f, f, 3)
    seen = 0
    for coeff in psi.coeffs:
        for c in coeff.terms.values():
            assert_int_coefficients(c)
            seen += 1
    assert seen > 0
