"""Tests for the expression grammar, evaluation, and round-tripping."""

import pytest

from qdisc import (
    EvalError,
    NCPoly,
    ONE,
    ParseError,
    QScalar,
    Z,
    ZS,
    nc_mul,
    parse,
    parse_ncpoly,
    parse_scalar,
)
from qdisc.expr import MAX_NESTING

Q2 = QScalar.q_power(2)


def test_relation_through_parser():
    assert parse_ncpoly("zs*z") == nc_mul(ZS, Z)


def test_powers():
    assert parse_ncpoly("z^2") == NCPoly.monomial(2, 0)
    assert parse_ncpoly("zs^0") == NCPoly.one()


@pytest.mark.parametrize("base", ["q", "2*z^2", "zs^3", "1/(1-q)", "(z + zs)"])
def test_closed_form_powers_match_the_repeated_product(base):
    f = parse_ncpoly(base)
    want = NCPoly.one()
    for n in range(7):
        assert parse_ncpoly(f"({base})^{n}") == want, n
        want = nc_mul(want, f)


def test_huge_powers_of_pure_bases_are_written_down():
    assert parse_ncpoly("z^99999999999") == NCPoly.monomial(99999999999, 0)
    assert parse_ncpoly("(3*zs)^40") == NCPoly.monomial(0, 40, 3**40)
    assert parse_scalar("q^99999999999") == QScalar.q_power(99999999999)


@pytest.mark.parametrize("text, position", [("z^\u00b2", 2), ("z^\u0663", 2), ("3\u00b2*z", 1)])
def test_digits_are_ascii_only(text, position):
    # str.isdigit takes superscript two and Arabic-Indic three; the grammar does not
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position


def test_scalar_prefix():
    got = parse_ncpoly("(1-q^2)*z*zs")
    assert got == NCPoly.monomial(1, 1, ONE - Q2)


def test_written_order_matters():
    assert parse_ncpoly("zs*z") != parse_ncpoly("z*zs")


def test_q_is_s_squared():
    assert parse_scalar("q") == QScalar.s_power(2)
    assert parse_scalar("s^2") == QScalar.s_power(2)


def test_rational_scalars():
    assert parse_scalar("7/10") == QScalar.from_int(7) / QScalar.from_int(10)
    assert parse_scalar("(1 - s^4)/(s^2)") == (ONE - QScalar.s_power(4)) / QScalar.s_power(2)


def test_unary_minus():
    assert parse_ncpoly("-z") == NCPoly.monomial(1, 0, -ONE)
    assert parse_ncpoly("1 - -1") == NCPoly.scalar(QScalar.from_int(2))


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("z +* zs")
    assert err.value.position == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of input (at position 0)"),
        ("z +", "unexpected end of input (at position 3)"),
        ("2*", "unexpected end of input (at position 2)"),
        ("(z", "expected ')', found end of input (at position 2)"),
        ("z^", "expected 'int', found end of input (at position 2)"),
    ],
)
def test_end_of_input_is_named(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    assert err.value.position == len(text)


def test_unknown_symbol():
    with pytest.raises(ParseError):
        parse("w + 1")


def test_trailing_input():
    with pytest.raises(ParseError):
        parse("z z")


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse("z^-1")


def test_non_scalar_divisor_rejected():
    with pytest.raises(EvalError):
        parse_ncpoly("1/z")


def test_division_by_zero_rejected():
    with pytest.raises(EvalError):
        parse_ncpoly("z/(1-1)")


def test_roundtrip_on_canonical_forms(rng, rand_ncpoly):
    for _ in range(40):
        f = rand_ncpoly(rng)
        assert parse_ncpoly(str(f)) == f
        # printing is stable: print(parse(print(f))) == print(f)
        assert str(parse_ncpoly(str(f))) == str(f)


def test_roundtrip_with_fraction_coefficients():
    f = NCPoly.monomial(1, 2, (ONE - Q2) / QScalar.s_power(3)) + NCPoly.scalar(
        QScalar.q_power(-2)
    )
    assert parse_ncpoly(str(f)) == f
    assert str(parse_ncpoly(str(f))) == str(f)


def test_roundtrip_star_coefficients():
    from qdisc import star

    st = star(ZS, Z, 2)
    for coeff in st.coeffs:
        assert parse_ncpoly(str(coeff)) == coeff


# -- long and deep input ----------------------------------------------------------


def test_long_sums_and_products_evaluate():
    assert parse_ncpoly(" + ".join(["z"] * 3000)) == NCPoly.monomial(1, 0, QScalar.from_int(3000))
    assert parse_ncpoly("*".join(["z"] * 1200)) == NCPoly.monomial(1200, 0)
    assert parse_ncpoly("1" + "/2" * 1200) == NCPoly.scalar(QScalar.from_int(1) / 2**1200)
    assert parse_ncpoly("z" + " - z" * 2000) == NCPoly.monomial(1, 0, QScalar.from_int(-1999))


def test_nesting_up_to_the_bound_evaluates():
    n = MAX_NESTING
    assert parse_ncpoly("(" * n + "z + 1" + ")" * n) == Z + NCPoly.one()
    # right-nested products recurse once per level
    assert parse_ncpoly("z*(" * (n - 1) + "z" + ")" * (n - 1)) == NCPoly.monomial(n, 0)
    assert parse_ncpoly("-" * n + "z") == Z


def test_deeper_nesting_is_a_parse_error():
    n = MAX_NESTING + 1
    with pytest.raises(ParseError) as err:
        parse("(" * n + "z" + ")" * n)
    assert err.value.position == n - 1
    with pytest.raises(ParseError):
        parse("-" * n + "z")
