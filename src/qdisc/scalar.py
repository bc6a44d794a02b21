"""Exact scalar arithmetic for the quantum disc tower.

Every coefficient in this package is an element of Q(s), the field of
rational functions in one indeterminate ``s`` over the rationals.  The
deformation parameter ``q`` is ``s**2``, so half-integer powers of ``q``
stay polynomial.  On top of Q(s) sits :class:`TSeries`, a power series in a
second formal parameter ``t`` truncated at a run-wide order.

By Gauss's lemma every value of Q(s) is N/D with N a Laurent polynomial in
Z[s, 1/s] and D a polynomial in Z[s] with D(0) != 0, so polynomial
coefficients are plain Python ``int``s throughout, and every value has one
canonical pair.  Nearly every coefficient the package builds is Laurent:
its numerator over 1, whose arithmetic is that of the numerators alone.  A
constant denominator, as in 1/7, costs one content division.  Any other
denominator takes the gcd over Q[s, 1/s], a primitive pseudo-remainder
sequence over Z[s] of the parts prime to s (W. S. Brown, "On Euclid's
Algorithm and the Computation of Polynomial Greatest Common Divisors",
J. ACM 18, 1971).  A :class:`fractions.Fraction` appears only at the edges:
rational input has its denominators cleared, and the text divides by the
leading coefficient of the denominator when it prints.

There is no floating point anywhere: numeric instantiation substitutes an
exact rational for ``s`` and returns a :class:`fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union


# ---------------------------------------------------------------------------
# sparse Laurent polynomials over Z: {exponent: int coefficient}, no zero
# values; a denominator is one with exponents >= 0 and a constant term
# ---------------------------------------------------------------------------

_F0 = Fraction(0)


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def _pneg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


# One shared int object per exponent: ints outside -5..256 are not cached
# by the interpreter, and memoized products would otherwise keep a separate
# exponent object in every dict entry.  A dict {e: e}, so that an exponent
# outside the table raises KeyError rather than wrapping round.
_EXPONENTS: dict = {0: 0}


def _exponents(bound: int) -> dict:
    """The shared exponent objects, keyed by themselves, covering -bound..bound."""
    top = len(_EXPONENTS) // 2
    if bound > top:
        _EXPONENTS.update((x, x) for e in range(top + 1, bound + 1) for x in (e, -e))
    return _EXPONENTS


def _shifted(a: dict, k: int = 0, c: int = 1) -> dict:
    """c s^k a without its zero values, keyed on the shared exponent objects."""
    try:
        return {_EXPONENTS[e + k]: v * c for e, v in a.items() if v}
    except KeyError:  # the table grows on a miss, so a hit needs no bound taken first
        _exponents(max(max(a), -min(a)) + abs(k))
        return {_EXPONENTS[e + k]: v * c for e, v in a.items() if v}


def _madd(acc: dict, a: dict, b: dict) -> None:
    """acc += a * b for Laurent dicts, in place; zero values may stay in acc.

    The multiply-add of ``_pmul``, the Laurent kernel of ``_sum_of_products``
    and ``fockrep._image``: ``_shifted`` drops the zeros once, after the
    last term.  The outer loop runs over the shorter factor.
    """
    if len(a) < len(b):
        a, b = b, a
    get = acc.get
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = ea + eb
            acc[e] = get(e, 0) + ca * cb


def _pmul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        ((eb, cb),) = b.items()
        if not eb:  # a constant keeps a's exponent objects
            return {ea: ca * cb for ea, ca in a.items()}
        return _shifted(a, eb, cb)
    out: dict = {}
    _madd(out, a, b)
    return _shifted(out)


def _psubmul(r: dict, factor, shift: int, b: dict) -> None:
    """r -= factor * s**shift * b, in place."""
    for e, c in b.items():
        e2 = e + shift
        v = r.get(e2, 0) - factor * c
        if v:
            r[e2] = v
        else:
            del r[e2]


def _pquo(a: dict, g: dict) -> dict | None:
    """a / g when g divides a in Z[s, 1/s], else None, for a nonzero and g(0) != 0.

    Long division from the top with a remainder check.  The quotient runs
    from s^(deg a - deg g) down to s^(val a), so the loop stops at
    val(a) + deg(g).  After a gcd, g is primitive and divides a over Q, so
    by Gauss's lemma the quotient lies in Z[s, 1/s] and is always found.
    """
    if g == _ONE_P:
        return a
    dg = max(g)
    lg = g[dg]
    low, top = min(a), max(a)
    q: dict = {}
    r = dict(a)
    for dr in range(top, low + dg - 1, -1):
        lr = r.get(dr)
        if lr is not None:
            factor, rest = divmod(lr, lg)
            if rest:
                return None
            q[dr - dg] = factor
            _psubmul(r, factor, dr - dg, g)
    return None if r else _shifted(q)


def _pprimitive(a: dict) -> dict:
    """a divided by its content, with a positive leading coefficient."""
    g = gcd(*a.values())
    if a[max(a)] < 0:
        g = -g
    if g == 1:
        return a
    return {e: c // g for e, c in a.items()}


def _pprem(a: dict, b: dict) -> dict:
    """A pseudo-remainder of a by b in Z[s]: a nonzero integer multiple of a mod b.

    Each step scales r by lc(b) only when lc(b) does not divide lc(r), so
    with a unit leading coefficient this is the plain remainder.
    """
    db = max(b)
    lb = b[db]
    r = dict(a)
    for dr in range(max(a), db - 1, -1):
        lr = r.get(dr)
        if lr is None:
            continue
        factor, rest = divmod(lr, lb)
        if rest:
            r = {e: c * lb for e, c in r.items()}
            factor = lr
        _psubmul(r, factor, dr - db, b)
    return r


def _sfree(a: dict) -> dict:
    """a divided by s^val(a): its part prime to s, a polynomial with a constant term."""
    low = min(a)
    return {e - low: c for e, c in a.items()} if low else a


def _pgcd(a: dict, b: dict) -> dict:
    """The gcd over Q[s, 1/s] of nonzero a and b, as a primitive polynomial
    with a constant term and a positive leading coefficient.

    s is a unit there, so a monomial shares nothing with any value and the
    gcd is that of the parts prime to s: a primitive remainder sequence.
    The content is removed after every step, so the coefficients stay those
    of Z[s] divisors of the inputs.
    """
    if len(a) == 1 or len(b) == 1:
        return _ONE_P
    a, b = _pprimitive(_sfree(a)), _pprimitive(_sfree(b))
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _pprem(a, b)
        a, b = b, (_pprimitive(r) if r else r)
    return a


def _normal(num: dict, den: dict) -> tuple[dict, dict]:
    """num/den scaled so that lc(den) > 0 and all coefficients have gcd 1."""
    lc = den[max(den)]
    if lc == 1:
        return num, den
    g = gcd(*num.values(), *den.values())
    if lc < 0:
        g = -g
    if g == 1:
        return num, den
    return {e: c // g for e, c in num.items()}, {e: c // g for e, c in den.items()}


def _peval(a: dict, x: Fraction) -> Fraction:
    total = _F0
    for e, c in a.items():
        total += c * x**e
    return total


def _frac_str(c: int | Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


# "s", "s^2", ... keyed by exponent >= 1, as _pstr writes them
_S_TEXT: dict = {1: "s"}


def _pstr(a: dict) -> str:
    """Canonical text: terms by ascending power of s, sign-aware joins."""
    if not a:
        return "0"
    es = sorted(a)
    if es[-1] > len(_S_TEXT):
        _S_TEXT.update((e, f"s^{e}") for e in range(len(_S_TEXT) + 1, es[-1] + 1))
    parts = []
    for e in es:
        c = a[e]
        neg = c < 0
        mag = -c if neg else c
        body = str(mag) if type(mag) is int else _frac_str(mag)
        if e:
            body = _S_TEXT[e] if mag == 1 else f"{body}*{_S_TEXT[e]}"
        if parts:
            parts.append(("- " if neg else "+ ") + body)
        else:
            parts.append("-" + body if neg else body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# QScalar: the field Q(s), q = s^2
# ---------------------------------------------------------------------------

_ONE_P = {0: 1}

ScalarLike = Union["QScalar", int, Fraction]


class QScalar:
    """A rational function in ``s`` over Q, kept in one canonical form.

    ``num`` is an ``{exponent: int}`` dict whose exponents may be negative,
    an element of Z[s, 1/s].  ``den`` is a polynomial with a nonzero
    constant term and a positive leading coefficient; its coefficients and
    those of ``num`` together have gcd 1, and gcd(num, den) = 1 over
    Q[s, 1/s].  Zero is ``{}`` over ``{0: 1}``.  By Gauss's lemma every
    value has exactly one such form, so equality is plain syntactic
    comparison, and a constant p/q, stored as ``{0: p}`` over ``{0: q}``,
    hashes like ``Fraction(p, q)``.  A value is Laurent exactly when ``den
    == {0: 1}``, and every zero-free dict over ``{0: 1}`` is canonical as it
    stands, so Laurent sums and products are those of the numerators.
    Only rational input such as ``1/2`` or ``1/(2 - 3*q)`` gives ``den`` a
    leading coefficient other than 1, which the text divides out (see
    :meth:`monic`).  Products over other denominators cancel gcd(a, d) and
    gcd(c, b) before multiplying a/b by c/d, and sums with different
    denominators only test the gcd of the two denominators against the new
    numerator.  Values are immutable, so arithmetic may return an operand
    itself (x + 0 is x).  Conjugation is the identity (the coefficient
    field models real-valued functions of real q), so the algebra
    involutions never touch scalars.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: dict, den: dict | None = None, _canonical: bool = False):
        if den is None:
            den = _ONE_P
        if not _canonical:
            # int or Fraction coefficients: clear their denominators
            m = lcm(*(c.denominator for c in (*num.values(), *den.values())))
            num = {e: int(c * m) for e, c in num.items() if c}
            den = {e: int(c * m) for e, c in den.items() if c}
            if not den:
                raise ZeroDivisionError("QScalar with zero denominator")
            x = _mul_reduced(num, _ONE_P, _ONE_P, den)
            num, den = x.num, x.den
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "QScalar":
        return QScalar({0: n} if n else {}, None, _canonical=True)

    @staticmethod
    def from_fraction(c: Fraction) -> "QScalar":
        return QScalar({0: c.numerator} if c else {}, {0: c.denominator}, _canonical=True)

    @staticmethod
    def s_power(n: int) -> "QScalar":
        """s**n, a Laurent monomial for any integer n."""
        return QScalar({n: 1}, None, _canonical=True)

    @staticmethod
    def q_power(n: int) -> "QScalar":
        """q**n = s**(2n)."""
        return QScalar.s_power(2 * n)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == _ONE_P and self.den == _ONE_P

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "QScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        b, d = self.den, other.den
        if b == d:
            return _canonical(_padd(self.num, other.num), b)
        # a/b + c/d = (a d' + c b') / (b d') with g = gcd(b, d), b = g b', d = g d';
        # only gcd(numerator, g) can cancel
        g = _pgcd(b, d)
        b1, d1 = _pquo(b, g), _pquo(d, g)
        num = _padd(_pmul(self.num, d1), _pmul(other.num, b1))
        den = _pmul(b, d1)
        if not num:
            return ZERO
        g2 = _pgcd(num, g)
        return QScalar(*_normal(_pquo(num, g2), _pquo(den, g2)), _canonical=True)

    __radd__ = __add__

    def __neg__(self) -> "QScalar":
        return QScalar(_pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other: ScalarLike) -> "QScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other: ScalarLike) -> "QScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__add__(-self)

    def __mul__(self, other: ScalarLike) -> "QScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        b, d = self.den, other.den
        if len(b) == 1 and len(d) == 1:
            # constant denominators: no gcd, at most a content division
            return _canonical(_pmul(self.num, other.num), b if d == _ONE_P else _pmul(b, d))
        return _mul_reduced(self.num, b, other.num, d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "QScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("QScalar division by zero")
        return _mul_reduced(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other: ScalarLike) -> "QScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n: int) -> "QScalar":
        if n < 0:
            return (ONE / self) ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, QScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            num, den = self.num, self.den
            if len(den) == 1 and num.keys() <= {0}:
                # a constant hashes like the equal int or Fraction
                h = hash(Fraction(num.get(0, 0), den[0]))
            else:
                h = hash((tuple(sorted(num.items())), tuple(sorted(den.items()))))
            self._hash = h
        return h

    # -- output -------------------------------------------------------------

    def _poly(self) -> tuple[dict, dict]:
        """(num s^v, den s^v), v = max(0, -val num): the reduced pair over Z[s] that the text reads."""
        num, den = self.num, self.den
        v = -min(num, default=0)
        if v <= 0:
            return num, den
        return {e + v: c for e, c in num.items()}, {e + v: c for e, c in den.items()}

    def monic(self) -> tuple[dict, dict]:
        """The polynomial pair (:meth:`_poly`) divided by lc(den): the form the text shows.

        The coefficients are ``int``s or ``Fraction``s; this is for
        presentation only.
        """
        num, den = self._poly()
        lc = den[max(den)]
        if lc == 1:
            return num, den
        return (
            {e: Fraction(c, lc) for e, c in num.items()},
            {e: Fraction(c, lc) for e, c in den.items()},
        )

    def __str__(self) -> str:
        num, den = self.monic()
        if den == _ONE_P:
            return _pstr(num)
        return f"({_pstr(num)})/({_pstr(den)})"

    def __repr__(self) -> str:
        return f"QScalar({self})"


def _canonical(num: dict, den: dict) -> "QScalar":
    """num/den in canonical form, for num in Z[s, 1/s] and den in Z[s] with den(0) != 0.

    Over 1, num is canonical as it stands; over a constant, ``_normal``
    divides out the content; any other denominator takes the gcd.
    """
    if den == _ONE_P:
        return QScalar(num, _ONE_P, _canonical=True)
    if len(den) > 1 and num:
        g = _pgcd(num, den)
        num, den = _pquo(num, g), _pquo(den, g)
    return QScalar(*_normal(num, den), _canonical=True) if num else ZERO


def _div_poly(x: "QScalar", d: dict) -> "QScalar":
    """x / d for a nonzero polynomial d in Z[s].

    When x has a constant denominator and d divides its numerator in
    Z[s, 1/s], the quotient over that denominator is canonical as it
    stands: one exact division and no gcd.  For a d prime to s, as
    (Q^m; Q^-1)_k is, the division of a Laurent x is exact exactly when the
    quotient is Laurent.  Otherwise, and for a d with a factor s, the
    general quotient runs, with its gcds.
    """
    if not x.num or d == _ONE_P:
        return x
    if len(x.den) == 1:
        quo = _pquo(x.num, d)
        if quo is not None:
            return QScalar(quo, x.den, _canonical=True)
    return _mul_reduced(x.num, x.den, _ONE_P, d)


def _mul_reduced(a: dict, b: dict, c: dict, d: dict) -> "QScalar":
    """(a/b) * (c/d) for a/b and c/d each reduced over Q[s, 1/s].

    Cancelling gcd(a, d) and gcd(c, b) first leaves a reduced product, so
    no gcd of the full product is needed.  b and d may be any nonzero
    Laurent polynomials, of any sign and integer content: this is the one
    place where a power of s leaves a denominator for the numerator, and
    ``_normal`` fixes the sign and content last.
    """
    if not a or not c:
        return ZERO
    g1, g2 = _pgcd(a, d), _pgcd(c, b)
    num = _pmul(_pquo(a, g1), _pquo(c, g2))
    den = _pmul(_pquo(b, g2), _pquo(d, g1))
    low = min(den)
    if low:
        num, den = _shifted(num, -low), _shifted(den, -low)
    return QScalar(*_normal(num, den), _canonical=True)


def _coerce(x) -> "QScalar":
    if isinstance(x, QScalar):
        return x
    if isinstance(x, int):
        return QScalar.from_int(x)
    if isinstance(x, Fraction):
        return QScalar.from_fraction(x)
    return NotImplemented


ZERO = QScalar({}, None, _canonical=True)
ONE = QScalar.from_int(1)
S = QScalar.s_power(1)
Q = QScalar.q_power(1)


def eval_numeric(x: QScalar, s0: Fraction) -> Fraction:
    """Substitute the exact rational s0 for s.  Raises on a pole."""
    s0 = Fraction(s0)
    num, den = x._poly()
    den = _peval(den, s0)
    if den == 0:
        raise ZeroDivisionError(f"pole at s = {s0}")
    return _peval(num, s0) / den


# ---------------------------------------------------------------------------
# TSeries: truncated power series in t over Q(s)
# ---------------------------------------------------------------------------


class _Truncated:
    """A series in t truncated at t**order, as its ``order + 1`` coefficients.

    ``coeffs[n]`` is the coefficient of t**n.  Orders are rigid: combining
    series of different truncation orders raises rather than silently
    truncating to the shorter one.  Subclasses set ``_T``, the text between
    a coefficient and its power of t.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable, order: int | None = None):
        coeffs = tuple(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    def _check(self, other) -> None:
        if self.order != other.order:
            raise ValueError(f"truncation order mismatch: {self.order} vs {other.order}")

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs), self.order)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            tpow = "" if n == 0 else (self._T if n == 1 else f"{self._T}^{n}")
            parts.append(f"({c}){tpow}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}[{self.order}]({self})"


class TSeries(_Truncated):
    """A power series in the formal parameter t with Q(s) coefficients.

    All arithmetic is modulo t**(order+1), and the order is fixed per run.
    """

    __slots__ = ()
    _T = "*t"

    @staticmethod
    def zero(order: int) -> "TSeries":
        return TSeries((ZERO,) * (order + 1), order)

    @staticmethod
    def one(order: int) -> "TSeries":
        return TSeries((ONE,) + (ZERO,) * order, order)

    @staticmethod
    def constant(c: ScalarLike, order: int) -> "TSeries":
        return TSeries((_coerce(c),) + (ZERO,) * order, order)

    def is_one(self) -> bool:
        """Whether this is the unit series: constant term 1 and every other coefficient 0."""
        c = self.coeffs
        return c[0].is_one() and not any(x.num for x in c[1:])

    def __add__(self, other):
        if isinstance(other, TSeries):
            self._check(other)
            return TSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order)
        c = _coerce(other)
        if c is NotImplemented:
            return NotImplemented
        head = (self.coeffs[0] + c,) + self.coeffs[1:]
        return TSeries(head, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TSeries):
            self._check(other)
            return TSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.order)
        c = _coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return self.__add__(-c)

    def __rsub__(self, other):
        c = _coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return (-self).__add__(c)

    def __mul__(self, other):
        """The truncated product.

        A factor equal to the unit series gives back the other factor: the
        test is on the values, so 1 + c t with c nonzero takes the
        convolution, ``_sum_of_products`` of the one pair.
        """
        if isinstance(other, TSeries):
            self._check(other)
            if other.is_one():
                return self
            if self.is_one():
                return other
            return _sum_of_products([(self, other)], self.order)
        c = _coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return TSeries(tuple(a * c for a in self.coeffs), self.order)

    __rmul__ = __mul__

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))


def _sum_of_products(pairs: list, order: int) -> TSeries:
    """The sum of a * b over the (a, b) pairs of series of one truncation order.

    When every coefficient of every pair is Laurent (``den == {0: 1}``),
    each t-order is one integer dict, summed by ``_madd`` over its term
    products, and one canonical ``QScalar`` is built per t-order: its
    zero-free numerator over 1, or ``ZERO``.  A single coefficient that is
    not Laurent, such as 1/(1 - q), sends the whole sum through ``QScalar``
    arithmetic term by term.
    """
    terms = [
        (i + j, x, y)
        for a, b in pairs
        for i, x in enumerate(a.coeffs)
        if x.num
        for j, y in enumerate(b.coeffs[: order + 1 - i])
        if y.num
    ]
    if all(c.den == _ONE_P for a, b in pairs for c in a.coeffs + b.coeffs):
        accs = [{} for _ in range(order + 1)]
        for n, x, y in terms:
            _madd(accs[n], x.num, y.num)
        return TSeries([QScalar(num, _ONE_P, _canonical=True) if num else ZERO for num in map(_shifted, accs)], order)
    out = [ZERO] * (order + 1)
    for n, x, y in terms:
        out[n] = out[n] + x * y
    return TSeries(out, order)
