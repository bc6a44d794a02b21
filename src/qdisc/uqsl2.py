"""Quantized sl2 symmetry of the quantum disc.

The Hopf algebra with generators E, F, K, K^-1 acts on the disc algebra as
a module algebra, xi(f g) = sum xi_1(f) xi_2(g), with the coproduct

    D(K)  = K (x) K,   D(E) = E (x) 1 + K (x) E,   D(F) = F (x) K^-1 + 1 (x) F,

by the counit on the unit, and on the normal-ordered basis, with
[n] = [n]_{q^2} and q^(1/2) = s, by the two-term stencil

    K^(+-1) z^j zs^k = q^(+-2(j-k)) z^j zs^k
    E z^j zs^k = q^(2(j-k)+1/2) [k] z^j zs^(k-1) - q^(1/2) [j] z^(j+1) zs^k
    F z^j zs^k = q^(2(k-j)+5/2) [j] z^(j-1) zs^k - q^(5/2) [k] z^j zs^(k+1)

On z it reads K z = q^2 z, E z = -q^(1/2) z^2, F z = q^(1/2).  On zs it is
what the involution rule (xi f)* = (S(xi))* f* gives from z, with
E* = -KF, F* = -EK^-1, K* = K; the ``uq-involution-compatibility`` law
checks that.  Proof by induction on j + k: write z^j zs^k = x g with
x = z for j > 0 and x = zs for j = 0, so every product stays normal-ordered.
D(E) gives E(x) g + K(x) E(g) and D(F) gives F(x) K^-1(g) + x F(g); the
terms land on the stencil's two monomials, and their coefficients add up
through [n] = 1 + q^2 [n-1] (x = z) and [n] = [n-1] + q^(2(n-1)) (x = zs).
The tests keep this recursion, letter by letter, as the stencil's oracle.

The ``check_*`` functions decide, by exact computation, whether a given
generator respects the plain product, the deformed product, the box
operator, and the involution; the verification suites run them on grids.
"""

from __future__ import annotations

from functools import lru_cache

from .qcalc import _qnum, box
from .qpoly import NCPoly, _add_terms, nc_mul
from .scalar import ONE, QScalar
from .star import StarSeries, star

E = "E"
F = "F"
K = "K"
KINV = "Kinv"

GENERATORS = (E, F, K, KINV)

# words: (coefficient, tuple-of-letters); combinations: tuple of words
Word = tuple
WordCombo = tuple


def _check_gen(g: str) -> None:
    if g not in GENERATORS:
        raise ValueError(f"unknown generator {g!r}")


# -- Hopf structure on letters and words -------------------------------------


def counit(g: str) -> QScalar:
    _check_gen(g)
    return ONE if g in (K, KINV) else QScalar.from_int(0)


def counit_word(letters: tuple) -> QScalar:
    out = ONE
    for g in letters:
        out = out * counit(g)
    return out


_ANTIPODE = {
    K: (ONE, (KINV,)),
    KINV: (ONE, (K,)),
    E: (-ONE, (KINV, E)),
    F: (-ONE, (F, K)),
}

_STAR = {
    K: (ONE, (K,)),
    KINV: (ONE, (KINV,)),
    E: (-ONE, (K, F)),
    F: (-ONE, (E, KINV)),
}


def _map_word_anti(table: dict, coeff: QScalar, letters: tuple) -> Word:
    """Apply a letter table as an antihomomorphism (reverse and map)."""
    out_letters: list = []
    for g in reversed(letters):
        c, ls = table[g]
        coeff = coeff * c
        out_letters.extend(ls)
    return (coeff, tuple(out_letters))


def antipode_word(word: Word) -> Word:
    return _map_word_anti(_ANTIPODE, word[0], word[1])


def star_word(word: Word) -> Word:
    # scalars are real here, so the antilinear part is the identity
    return _map_word_anti(_STAR, word[0], word[1])


def star_of_antipode(g: str) -> WordCombo:
    """(S(g))* as a one-word combination; the conjugation used by the
    involution-compatibility rule."""
    _check_gen(g)
    return (star_word(antipode_word((ONE, (g,)))),)


def coproduct(g: str) -> tuple:
    """D(g) as a list of (coeff, left-letters, right-letters)."""
    _check_gen(g)
    if g == K:
        return ((ONE, (K,), (K,)),)
    if g == KINV:
        return ((ONE, (KINV,), (KINV,)),)
    if g == E:
        return ((ONE, (E,), ()), (ONE, (K,), (E,)))
    return ((ONE, (F,), (KINV,)), (ONE, (), (F,)))


def coproduct_word(letters: tuple) -> tuple:
    """D extended multiplicatively to a word, legs concatenated."""
    out = ((ONE, (), ()),)
    for g in letters:
        nxt = []
        for c, l1, r1 in out:
            for c2, l2, r2 in coproduct(g):
                nxt.append((c * c2, l1 + l2, r1 + r2))
        out = tuple(nxt)
    return out


# -- the action ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _act_mono(g: str, j: int, k: int) -> tuple:
    """Action of one generator on z^j zs^k as ((j', k'), coeff) pairs: the stencil above."""
    if g in (K, KINV):
        e = 4 * (j - k)
        return (((j, k), QScalar.s_power(e if g == K else -e)),)
    # each stencil term as (monomial, n of [n], power of s = q^(1/2), sign)
    if g == E:
        terms =(((j, k - 1), k, 4 * (j - k) + 1, ONE), ((j + 1, k), j, 1, -ONE))
    else:
        terms = (((j - 1, k), j, 4 * (k - j) + 5, ONE), ((j, k + 1), k, 5, -ONE))
    return tuple((key, sign * QScalar.s_power(e) * _qnum(n, 0)) for key, n, e, sign in terms if n)


def _act_word_letters(letters: tuple, f: NCPoly) -> NCPoly:
    """Compose letter actions; the leftmost letter acts last."""
    for g in reversed(letters):
        f = act(g, f)
    return f


def act(g: str, f: NCPoly) -> NCPoly:
    """Action of a single generator on a polynomial, extended linearly."""
    _check_gen(g)
    return NCPoly(_add_terms((
        (key, w * c) for (j, k), c in f.terms.items() for key, w in _act_mono(g, j, k)
    ), {}))


def act_word(words: WordCombo, f: NCPoly) -> NCPoly:
    """Action of a linear combination of generator words."""
    out = NCPoly.zero()
    for coeff, letters in words:
        out = out + _act_word_letters(letters, f).scale(coeff)
    return out


def act_series(words: WordCombo, psi: StarSeries) -> StarSeries:
    """Termwise action on a truncated series; t is central and untouched."""
    return StarSeries(tuple(act_word(words, c) for c in psi.coeffs), psi.order)


# -- the compatibility checks --------------------------------------------------


def check_module_algebra(g: str, f1: NCPoly, f2: NCPoly) -> bool:
    """Does g(f1 f2) match the coproduct expansion sum g1(f1) g2(f2)?"""
    lhs = act(g, nc_mul(f1, f2))
    rhs = NCPoly.zero()
    for c, left, right in coproduct(g):
        rhs = rhs + nc_mul(_act_word_letters(left, f1), _act_word_letters(right, f2)).scale(c)
    return lhs == rhs


def check_star_equivariance(g: str, f1: NCPoly, f2: NCPoly, order: int) -> bool:
    """Same as check_module_algebra but for the deformed product, mod t^(order+1)."""
    lhs = act_series(((ONE, (g,)),), star(f1, f2, order))
    rhs = StarSeries.zero(order)
    for c, left, right in coproduct(g):
        rhs = rhs + star(_act_word_letters(left, f1), _act_word_letters(right, f2), order).scale(c)
    return lhs == rhs


def check_box_equivariance(g: str, f: NCPoly) -> bool:
    """Does the generator commute with the box operator on f?"""
    return act(g, box(f)) == box(act(g, f))


def check_involution_compat(g: str, f: NCPoly) -> bool:
    """(g f)* = (S(g))* f*, the real-form compatibility."""
    lhs = act(g, f).involution()
    rhs = act_word(star_of_antipode(g), f.involution())
    return lhs == rhs


def defining_relations() -> list:
    """The defining relations as pairs of word combinations to compare."""
    qq = QScalar.q_power(1)
    c = ONE / (qq - ONE / qq)
    return [
        ("K K^-1 = 1", ((ONE, (K, KINV)),), ((ONE, ()),)),
        ("K^-1 K = 1", ((ONE, (KINV, K)),), ((ONE, ()),)),
        ("K E = q^2 E K", ((ONE, (K, E)),), ((QScalar.q_power(2), (E, K)),)),
        ("K^-1 E = q^-2 E K^-1", ((ONE, (KINV, E)),), ((QScalar.q_power(-2), (E, KINV)),)),
        ("K F = q^-2 F K", ((ONE, (K, F)),), ((QScalar.q_power(-2), (F, K)),)),
        ("K^-1 F = q^2 F K^-1", ((ONE, (KINV, F)),), ((QScalar.q_power(2), (F, KINV)),)),
        (
            "E F - F E = (K - K^-1)/(q - q^-1)",
            ((ONE, (E, F)), (-ONE, (F, E))),
            ((c, (K,)), (-c, (KINV,))),
        ),
    ]


def check_relation_on(words_a: WordCombo, words_b: WordCombo, f: NCPoly) -> bool:
    return act_word(words_a, f) == act_word(words_b, f)
