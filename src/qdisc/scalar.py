"""Exact scalar arithmetic for the quantum disc tower.

Every coefficient in this package is an element of Q(s), the field of
rational functions in one indeterminate ``s`` over the rationals.  The
deformation parameter ``q`` is ``s**2``, so half-integer powers of ``q``
stay polynomial.  On top of Q(s) sits :class:`TSeries`, a power series in a
second formal parameter ``t`` truncated at a run-wide order.

Polynomial coefficients are plain Python ``int``s whenever they are
integral, which is almost always: every denominator the package builds is a
product of (q^a; q^b) factors with unit leading coefficient.  A
:class:`fractions.Fraction` appears only for a coefficient that really is
non-integral, such as user input ``1/2``.  The gcd that keeps quotients
reduced is a primitive pseudo-remainder sequence over Z[s] (W. S. Brown,
"On Euclid's Algorithm and the Computation of Polynomial Greatest Common
Divisors", J. ACM 18, 1971) when both operands have integer coefficients,
and the monic Euclid over Q otherwise.

There is no floating point anywhere: numeric instantiation substitutes an
exact rational for ``s`` and returns a :class:`fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union


# ---------------------------------------------------------------------------
# sparse univariate polynomials over Q: {exponent: coefficient}, no zero
# values; a coefficient is an int when integral, else a Fraction
# ---------------------------------------------------------------------------

_F0 = Fraction(0)


def _div(a, b):
    """Exact quotient a / b of two coefficients: an int whenever integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


def _is_zpoly(a: dict) -> bool:
    return Fraction not in map(type, a.values())


def _pint(a: dict) -> dict:
    """``a`` with every integral Fraction coefficient turned into an int."""
    if _is_zpoly(a):
        return a
    return {e: (c.numerator if type(c) is Fraction and c.denominator == 1 else c) for e, c in a.items()}


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


# One shared int object per exponent: ints above 256 are not cached by the
# interpreter, and memoized products would otherwise keep a separate
# exponent object in every dict entry.
_EXPONENTS: list = []


def _exponents(top: int) -> list:
    """The shared exponent objects, covering 0..top."""
    if top >= len(_EXPONENTS):
        _EXPONENTS.extend(range(len(_EXPONENTS), top + 1))
    return _EXPONENTS


def _pmul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    exps = _exponents(max(a) + max(b))
    if len(b) == 1:
        ((eb, cb),) = b.items()
        return {exps[ea + eb]: ca * cb for ea, ca in a.items()}
    out: dict = {}
    get = out.get
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return {exps[e]: c for e, c in out.items() if c}


def _pdeg(a: dict) -> int:
    return max(a) if a else -1


def _pval(a: dict) -> int:
    return min(a) if a else 0


def _pdivc(a: dict, c) -> dict:
    """a with every coefficient divided by the nonzero constant c."""
    if c == 1:
        return _pint(a)
    return {e: _div(v, c) for e, v in a.items()}


def _pmonic(a: dict) -> dict:
    return _pdivc(a, a[max(a)]) if a else {}


def _psubmul(r: dict, factor, shift: int, b: dict) -> None:
    """r -= factor * s**shift * b, in place."""
    for e, c in b.items():
        e2 = e + shift
        v = r.get(e2, 0) - factor * c
        if v:
            r[e2] = v
        else:
            del r[e2]


def _pdivmod(a: dict, b: dict) -> tuple[dict, dict]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = max(b)
    lb = b[db]
    if len(b) == 1:
        q = {e - db: _div(c, lb) for e, c in a.items() if e >= db}
        return q, {e: c for e, c in a.items() if e < db}
    q: dict = {}
    r = dict(a)
    for dr in range(_pdeg(r), db - 1, -1):
        lr = r.get(dr)
        if lr is not None:
            factor = q[dr - db] = _div(lr, lb)
            _psubmul(r, factor, dr - db, b)
    return q, _pint(r)


def _pquo(a: dict, g: dict) -> dict:
    """The exact quotient a / g for a monic g dividing a."""
    if g == _ONE_P:
        return a
    return _pdivmod(a, g)[0]


def _pprimitive(a: dict) -> dict:
    """a divided by its content, with a positive leading coefficient (a in Z[s])."""
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
    for dr in range(_pdeg(r), db - 1, -1):
        lr = r.get(dr)
        if lr is None:
            continue
        factor, rest = divmod(lr, lb)
        if rest:
            r = {e: c * lb for e, c in r.items()}
            factor = lr
        _psubmul(r, factor, dr - db, b)
    return r


def _pgcd_z(a: dict, b: dict) -> dict:
    """Monic gcd of two nonzero polynomials in Z[s]: a primitive remainder sequence.

    The content is removed after every step, so the coefficients stay those
    of Z[s] divisors of the inputs; the result is made monic only at the end.
    """
    a, b = _pprimitive(a), _pprimitive(b)
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _pprem(a, b)
        a, b = b, (_pprimitive(r) if r else r)
    return _pmonic(a)


def _pgcd(a: dict, b: dict) -> dict:
    """Monic gcd: a primitive remainder sequence for integer coefficients, else Euclid."""
    if not a:
        return _pmonic(b)
    if not b:
        return _pmonic(a)
    # monomial fast path: gcd(p, c*s^k) = s^min(val p, k)
    if len(a) == 1 or len(b) == 1:
        e = min(_pval(a), _pval(b))
        return {e: 1}
    if _is_zpoly(a) and _is_zpoly(b):
        return _pgcd_z(a, b)
    return _pgcd_q(a, b)


def _pgcd_q(a: dict, b: dict) -> dict:
    """Monic gcd of two nonzero polynomials over Q: Euclid with monic remainders."""
    a, b = _pmonic(a), _pmonic(b)
    while b:
        a, b = b, _pmonic(_pdivmod(a, b)[1])
    return a


def _peval(a: dict, x: Fraction) -> Fraction:
    total = _F0
    for e, c in a.items():
        total += c * x**e
    return total


def _frac_str(c: int | Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _pstr(a: dict) -> str:
    """Canonical text: terms by ascending power of s, sign-aware joins."""
    if not a:
        return "0"
    parts = []
    for e in sorted(a):
        c = a[e]
        neg = c < 0
        mag = -c if neg else c
        if e == 0:
            body = _frac_str(mag)
        else:
            var = "s" if e == 1 else f"s^{e}"
            body = var if mag == 1 else f"{_frac_str(mag)}*{var}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# QScalar: the field Q(s), q = s^2
# ---------------------------------------------------------------------------

_ONE_P = {0: 1}

ScalarLike = Union["QScalar", int, Fraction]


class QScalar:
    """A rational function in ``s`` over Q, kept in canonical form.

    Canonical means: gcd(numerator, denominator) = 1, denominator monic and
    nonzero, zero stored as 0/1.  ``num`` and ``den`` are ``{exponent:
    coefficient}`` dicts whose integral coefficients are ``int``s; a
    ``Fraction`` stands only for a non-integral one, and since an ``int``
    equals and hashes like the equal ``Fraction``, equality is plain
    syntactic comparison.  Products cancel gcd(a, d) and gcd(c, b) before
    multiplying a/b by c/d, and sums with different denominators only test
    the gcd of the two denominators against the new numerator; the gcds are
    primitive remainder sequences over Z[s] for integer coefficients.
    Values are immutable, so arithmetic may return an operand itself (x + 0
    is x).  Conjugation is the identity (the coefficient field models real-valued
    functions of real q), so the algebra involutions never touch scalars.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: dict, den: dict | None = None, _canonical: bool = False):
        if den is None:
            den = _ONE_P
        if _canonical:
            self.num = num
            self.den = den
            self._hash = None
            return
        if not den:
            raise ZeroDivisionError("QScalar with zero denominator")
        if not num:
            self.num = {}
            self.den = _ONE_P
            self._hash = None
            return
        if den == _ONE_P:
            clean = _pint(num)
            self.num = dict(num) if clean is num else clean
            self.den = _ONE_P
        else:
            g = _pgcd(num, den)
            if _pdeg(g) > 0:
                num, _ = _pdivmod(num, g)
                den, _ = _pdivmod(den, g)
            lc = den[max(den)]
            self.num = _pdivc(num, lc)
            self.den = _pdivc(den, lc)
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "QScalar":
        return QScalar({0: n} if n else {})

    @staticmethod
    def from_fraction(c: Fraction) -> "QScalar":
        return QScalar({0: Fraction(c)} if c else {})

    @staticmethod
    def s_power(n: int) -> "QScalar":
        """s**n, with negative n landing in the denominator."""
        if n >= 0:
            return QScalar({n: 1}, None, _canonical=True)
        return QScalar(dict(_ONE_P), {-n: 1}, _canonical=True)

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
        if self.den == other.den:
            num = _padd(self.num, other.num)
            if self.den == _ONE_P:
                return QScalar(_pint(num), None, _canonical=True)
            return QScalar(num, self.den)
        # a/b + c/d = (a d' + c b') / (b d') with g = gcd(b, d), b = g b', d = g d';
        # only gcd(numerator, g) can cancel
        g = _pgcd(self.den, other.den)
        b1, d1 = _pquo(self.den, g), _pquo(other.den, g)
        num = _pint(_padd(_pmul(self.num, d1), _pmul(other.num, b1)))
        den = _pmul(self.den, d1)
        if not num:
            return ZERO
        g2 = _pgcd(num, g)
        return QScalar(_pquo(num, g2), _pint(_pquo(den, g2)), _canonical=True)

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
        if self.den == _ONE_P and other.den == _ONE_P:
            return QScalar(_pint(_pmul(self.num, other.num)), None, _canonical=True)
        return _mul_reduced(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "QScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("QScalar division by zero")
        lc = other.num[max(other.num)]
        return _mul_reduced(self.num, self.den, _pdivc(other.den, lc), _pdivc(other.num, lc))

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
            h = hash((tuple(sorted(self.num.items())), tuple(sorted(self.den.items()))))
            self._hash = h
        return h

    # -- output -------------------------------------------------------------

    def __str__(self) -> str:
        if self.den == _ONE_P:
            return _pstr(self.num)
        return f"({_pstr(self.num)})/({_pstr(self.den)})"

    def __repr__(self) -> str:
        return f"QScalar({self})"


def _mul_reduced(a: dict, b: dict, c: dict, d: dict) -> "QScalar":
    """(a/b) * (c/d) for reduced fractions a/b and c/d with monic b and d.

    Cancelling gcd(a, d) and gcd(c, b) first leaves a reduced product with
    a monic denominator, so no gcd of the full product is needed.
    """
    if not a or not c:
        return ZERO
    g1, g2 = _pgcd(a, d), _pgcd(c, b)
    num = _pint(_pmul(_pquo(a, g1), _pquo(c, g2)))
    den = _pint(_pmul(_pquo(b, g2), _pquo(d, g1)))
    return QScalar(num, den, _canonical=True)


def _coerce(x) -> "QScalar":
    if isinstance(x, QScalar):
        return x
    if isinstance(x, int):
        return QScalar.from_int(x)
    if isinstance(x, Fraction):
        return QScalar.from_fraction(x)
    return NotImplemented


ZERO = QScalar({})
ONE = QScalar.from_int(1)
S = QScalar.s_power(1)
Q = QScalar.q_power(1)


def qpochhammer(a: ScalarLike, base_exponent: int, n: int) -> QScalar:
    """The shifted factorial prod_{i<n} (1 - a * q**(base_exponent*i)).

    ``base_exponent`` may be negative; ``n`` must be >= 0 (n = 0 gives 1).
    """
    if n < 0:
        raise ValueError("qpochhammer needs n >= 0")
    a = _coerce(a)
    out = ONE
    for i in range(n):
        out = out * (ONE - a * QScalar.q_power(base_exponent * i))
    return out


def eval_numeric(x: QScalar, s0: Fraction) -> Fraction:
    """Substitute the exact rational s0 for s.  Raises on a pole."""
    s0 = Fraction(s0)
    den = _peval(x.den, s0)
    if den == 0:
        raise ZeroDivisionError(f"pole at s = {s0}")
    return _peval(x.num, s0) / den


# ---------------------------------------------------------------------------
# TSeries: truncated power series in t over Q(s)
# ---------------------------------------------------------------------------


class TSeries:
    """A power series in the formal parameter t, truncated at t**order.

    ``coeffs[n]`` is the coefficient of t**n; the tuple always has
    ``order + 1`` entries.  All arithmetic is modulo t**(order+1) and the
    order is fixed per run: combining series of different orders raises
    rather than silently truncating to the shorter one.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[QScalar], order: int | None = None):
        coeffs = tuple(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    @staticmethod
    def zero(order: int) -> "TSeries":
        return TSeries((ZERO,) * (order + 1), order)

    @staticmethod
    def one(order: int) -> "TSeries":
        return TSeries((ONE,) + (ZERO,) * order, order)

    @staticmethod
    def constant(c: ScalarLike, order: int) -> "TSeries":
        return TSeries((_coerce(c),) + (ZERO,) * order, order)

    @staticmethod
    def geometric(c: ScalarLike, order: int) -> "TSeries":
        """1 / (1 - c*t) truncated: coefficients 1, c, c^2, ..."""
        c = _coerce(c)
        coeffs = [ONE]
        for _ in range(order):
            coeffs.append(coeffs[-1] * c)
        return TSeries(coeffs, order)

    @staticmethod
    def from_rational(num: Sequence[ScalarLike], den: Sequence[ScalarLike], order: int) -> "TSeries":
        """Taylor expansion of num(t)/den(t); den must not vanish at t = 0."""
        num_c = [_coerce(c) for c in num]
        den_c = [_coerce(c) for c in den]
        if not den_c or den_c[0].is_zero():
            raise ValueError("denominator vanishes at t = 0: not a formal power series")
        n = TSeries([num_c[i] if i < len(num_c) else ZERO for i in range(order + 1)], order)
        d = TSeries([den_c[i] if i < len(den_c) else ZERO for i in range(order + 1)], order)
        return n * d.inverse()

    def _check(self, other: "TSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"truncation order mismatch: {self.order} vs {other.order}")

    def constant_term(self) -> QScalar:
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

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

    def __neg__(self):
        return TSeries(tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        if isinstance(other, TSeries):
            self._check(other)
            return TSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.order)
        return self.__add__(-_coerce(other))

    def __mul__(self, other):
        if isinstance(other, TSeries):
            self._check(other)
            out = [ZERO] * (self.order + 1)
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for j in range(self.order + 1 - i):
                    b = other.coeffs[j]
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
            return TSeries(out, self.order)
        c = _coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return TSeries(tuple(a * c for a in self.coeffs), self.order)

    __rmul__ = __mul__

    def inverse(self) -> "TSeries":
        """Multiplicative inverse mod t**(order+1); constant term must be nonzero."""
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise ValueError("TSeries with zero constant term has no inverse")
        inv0 = ONE / c0
        out = [inv0] + [ZERO] * self.order
        for n in range(1, self.order + 1):
            acc = ZERO
            for k in range(1, n + 1):
                ck = self.coeffs[k]
                if not ck.is_zero():
                    acc = acc + ck * out[n - k]
            out[n] = -inv0 * acc
        return TSeries(out, self.order)

    def __truediv__(self, other):
        if isinstance(other, TSeries):
            self._check(other)
            return self * other.inverse()
        c = _coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return self * (ONE / c)

    def tshift(self, j: int) -> "TSeries":
        """Multiply by t**j, dropping what falls past the truncation order."""
        if j < 0:
            raise ValueError("tshift needs j >= 0")
        if j == 0:
            return self
        out = (ZERO,) * min(j, self.order + 1) + self.coeffs[: max(self.order + 1 - j, 0)]
        return TSeries(out, self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            tpow = "" if n == 0 else ("*t" if n == 1 else f"*t^{n}")
            parts.append(f"({c}){tpow}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TSeries[{self.order}]({self})"
