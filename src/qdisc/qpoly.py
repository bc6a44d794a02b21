"""The quantum disc algebra in its normal-ordered basis.

Elements are finite sums  sum a_{jk} z^j zs^k  where ``zs`` denotes the
adjoint generator and the two generators satisfy the single commutation
relation  zs*z = q^2 z*zs + (1 - q^2).  Multiplication needs the normal
form of each misordered block zs^b z^c, and that has a closed form: with
Q = q^2 the generators are a rescaled q-oscillator, and q-boson normal
ordering (Katriel and Kibler, J. Phys. A 25 (1992) 2683) writes the block
as a sum over r <= min(b, c) of Q^((b-r)(c-r)) [b r]_Q [c r]_Q (Q; Q)_r
z^(c-r) zs^(b-r).  Each block asked for is memoized, and the blocks
(b, c) and (c, b) share their coefficient objects; no swap-by-swap
rewriting takes place.

Every element here is a sparse sum over Q(s): a dict from a monomial key
to a nonzero coefficient.  ``_add_terms`` is the one place that adds
(key, value) pairs into such a dict and leaves out the keys whose sum is
zero; ``_SparseSum`` gives ``NCPoly`` and ``TensorPoly`` their common
linear structure on top of it.  The truncated t-series share their base
in ``scalar``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Union

from .scalar import ONE, QScalar, TSeries, ZERO, _coerce, _shifted, _value

CoeffLike = Union[QScalar, int, Fraction]


def _add_terms(pairs, out: dict) -> dict:
    """Add the (key, value) pairs into ``out`` and return it.

    A key whose sum is zero is left out, so no sparse map ever stores a
    zero value.  The values need ``+`` and ``is_zero``.
    """
    for key, v in pairs:
        prev = out.get(key)
        if prev is not None:
            v = prev + v
        if v.is_zero():
            out.pop(key, None)
        else:
            out[key] = v
    return out


def _mono_key(jk: tuple) -> tuple:
    """The canonical order of monomials z^j zs^k: by total degree, then by j."""
    return (jk[0] + jk[1], jk[0])


class _SparseSum:
    """The linear structure of a sparse sum ``terms`` = {key: nonzero coefficient}.

    Zero coefficients are never stored, so the zero element has an empty
    map and equality is plain dict comparison.  Instances are immutable by
    convention.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms or {}

    @classmethod
    def zero(cls):
        return cls({})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(_add_terms(other.terms.items(), dict(self.terms)))

    def __neg__(self):
        return type(self)({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, c: CoeffLike):
        c = _coerce(c)
        if c is NotImplemented:
            return NotImplemented
        if c.is_zero():
            return type(self)({})
        return type(self)({key: v * c for key, v in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything; products of two elements go via __mul__
        return self.scale(other)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms


class NCPoly(_SparseSum):
    """An element of the quantum disc algebra, normal-ordered.

    ``terms`` maps (j, k) to the coefficient of z^j zs^k.
    """

    __slots__ = ()

    # -- constructors --------------------------------------------------------

    @staticmethod
    def one() -> "NCPoly":
        return NCPoly({(0, 0): ONE})

    @staticmethod
    def monomial(j: int, k: int, coeff: CoeffLike = 1) -> "NCPoly":
        if j < 0 or k < 0:
            raise ValueError("monomial exponents must be >= 0")
        c = _coerce(coeff)
        if c.is_zero():
            return NCPoly({})
        return NCPoly({(j, k): c})

    @staticmethod
    def scalar(c: CoeffLike) -> "NCPoly":
        return NCPoly.monomial(0, 0, c)

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            return nc_mul(self, other)
        return self.scale(other)

    # -- involution and inspection -------------------------------------------

    def involution(self) -> "NCPoly":
        """The algebra involution: (z^j zs^k)* = z^k zs^j, scalars fixed."""
        return NCPoly({(k, j): c for (j, k), c in self.terms.items()})

    def coefficient(self, j: int, k: int) -> QScalar:
        return self.terms.get((j, k), ZERO)

    def support(self):
        return self.terms.keys()

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- canonical text -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(_term_str(j, k, self.terms[(j, k)]) for j, k in sorted(self.terms, key=_mono_key))

    def __repr__(self) -> str:
        return f"NCPoly({self})"


def _mono_str(j: int, k: int) -> str:
    factors = []
    if j:
        factors.append("z" if j == 1 else f"z^{j}")
    if k:
        factors.append("zs" if k == 1 else f"zs^{k}")
    return "*".join(factors)


def _term_str(j: int, k: int, c: QScalar) -> str:
    cs = str(c)
    wrapped = f"({cs})" if (" + " in cs or " - " in cs) else cs
    mono = _mono_str(j, k)
    if not mono:
        return wrapped
    if c.is_one():
        return mono
    if c == QScalar.from_int(-1):
        return f"-{mono}"
    return f"{wrapped}*{mono}"


# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _normal_block(b: int, c: int) -> tuple:
    """Normal form of zs^b * z^c as ((j, k), coeff) pairs, r = 0, 1, ... in turn.

    With Q = q^2 the relation reads zs z = Q z zs + (1 - Q), and q-boson
    normal ordering (Katriel and Kibler, J. Phys. A 25 (1992) 2683; q-binomials
    as in Gasper and Rahman, Basic Hypergeometric Series, ch. 1) gives

        zs^b z^c = sum_{r <= min(b, c)} Q^((b-r)(c-r)) [b r]_Q [c r]_Q (Q; Q)_r z^(c-r) zs^(b-r).

    The factor core_r = [b r]_Q [c r]_Q (Q; Q)_r is an integer polynomial in Q,
    built from core_0 = 1 as core_(r-1) (1 - Q^(b-r+1)) (1 - Q^(c-r+1)) / (1 - Q^r).
    The division is exact, so it is the running sum q_e = p_e + q_(e-r) over
    the coefficient list in Q, and its top r entries come out zero.

    The coefficient is symmetric in (b, c), so for b > c the block is the
    (c, b) block with each key (j, k) read as (k, j), holding the same
    ``QScalar`` objects.
    """
    if b > c:
        return tuple(((k, j), w) for (j, k), w in _normal_block(c, b))
    core = [1]
    out = []
    for r in range(min(b, c) + 1):
        if r:
            for m in (b - r + 1, c - r + 1):
                core = [x - y for x, y in zip(core + [0] * m, [0] * m + core)]
            for i in range(r):
                core[i::r] = accumulate(core[i::r])
            del core[-r:]
        shift = (b - r) * (c - r)
        num = _shifted({4 * (shift + e): v for e, v in enumerate(core)})
        out.append(((c - r, b - r), _value(num)))
    return tuple(out)


def nc_mul(f: NCPoly, g: NCPoly) -> NCPoly:
    """Product in the quantum disc algebra, result normal-ordered."""
    return NCPoly(_add_terms((
        ((a + j, k + d), coeff * w)
        for (a, b), ca in f.terms.items()
        for (c, d), cb in g.terms.items()
        for coeff in (ca * cb,)
        for (j, k), w in _normal_block(b, c)
    ), {}))


def nc_mul_left_z_power(i: int, f: NCPoly) -> NCPoly:
    """z^i * f without rewriting: a holomorphic left factor only shifts j."""
    if i < 0:
        raise ValueError("power must be >= 0")
    if i == 0:
        return f
    return NCPoly({(j + i, k): c for (j, k), c in f.terms.items()})


def nc_mul_right_zstar_power(i: int, f: NCPoly) -> NCPoly:
    """f * zs^i without rewriting: an antiholomorphic right factor shifts k."""
    if i < 0:
        raise ValueError("power must be >= 0")
    if i == 0:
        return f
    return NCPoly({(j, k + i): c for (j, k), c in f.terms.items()})


Z = NCPoly.monomial(1, 0)
ZS = NCPoly.monomial(0, 1)


# ---------------------------------------------------------------------------
# tensor square
# ---------------------------------------------------------------------------


class TensorPoly(_SparseSum):
    """An element of the tensor square of the quantum disc algebra.

    ``terms`` maps (j1, k1, j2, k2) to the coefficient of
    z^j1 zs^k1 (x) z^j2 zs^k2, each leg normal-ordered.
    """

    __slots__ = ()

    @staticmethod
    def from_polys(f: NCPoly, g: NCPoly) -> "TensorPoly":
        out = {}
        for (j1, k1), c1 in f.terms.items():
            for (j2, k2), c2 in g.terms.items():
                out[(j1, k1, j2, k2)] = c1 * c2
        return TensorPoly(out)

    def __mul__(self, other):
        if isinstance(other, TensorPoly):
            return tensor_mul(self, other)
        return self.scale(other)

    def flip(self) -> "TensorPoly":
        """Swap the tensor legs."""
        return TensorPoly({(j2, k2, j1, k1): c for (j1, k1, j2, k2), c in self.terms.items()})

    def involution_each_leg(self) -> "TensorPoly":
        return TensorPoly({(k1, j1, k2, j2): c for (j1, k1, j2, k2), c in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "TensorPoly(0)"
        bits = []
        for (j1, k1, j2, k2) in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[(j1, k1, j2, k2)]
            bits.append(f"({c})*[{_mono_str(j1, k1) or '1'} (x) {_mono_str(j2, k2) or '1'}]")
        return "TensorPoly(" + " + ".join(bits) + ")"


def tensor_mul(F: TensorPoly, G: TensorPoly) -> TensorPoly:
    """Leg-wise product on the tensor square."""
    return TensorPoly(_add_terms((
        ((a1 + j1, k1 + d1, a2 + j2, k2 + d2), cw * w2)
        for (a1, b1, a2, b2), cf in F.terms.items()
        for (c1, d1, c2, d2), cg in G.terms.items()
        for coeff in (cf * cg,)
        for (j1, k1), w1 in _normal_block(b1, c1)
        for cw in (coeff * w1,)
        for (j2, k2), w2 in _normal_block(b2, c2)
    ), {}))


# ---------------------------------------------------------------------------
# windowed formal series
# ---------------------------------------------------------------------------


class WindowError(ValueError):
    """Raised when a windowed series is read outside its window."""


class WindowedSeries:
    """A formal series sum a_{jk}(t) z^j zs^k known only for j, k <= window.

    Berezin-type symbols of operators are genuine infinite series; an
    instance of this class is the honest finite restriction, and every
    comparison or read beyond the window is an error rather than a guess.
    Entries are t-series of one common truncation order.
    """

    __slots__ = ("window", "order", "entries")

    def __init__(self, window: int, order: int, entries: dict | None = None):
        self.window = window
        self.order = order
        self.entries = {}
        for (j, k), ts in (entries or {}).items():
            if j > window or k > window:
                raise WindowError(f"entry ({j},{k}) outside window {window}")
            if ts.order != order:
                raise ValueError("mixed truncation orders in WindowedSeries")
            if not ts.is_zero():
                self.entries[(j, k)] = ts

    def entry(self, j: int, k: int) -> TSeries:
        if j > self.window or k > self.window or j < 0 or k < 0:
            raise WindowError(f"({j},{k}) outside window {self.window}")
        got = self.entries.get((j, k))
        return got if got is not None else TSeries.zero(self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowedSeries):
            return NotImplemented
        return (
            self.window == other.window
            and self.order == other.order
            and self.entries == other.entries
        )

    def t_coefficient(self, n: int) -> NCPoly:
        """The NCPoly restriction of the t^n coefficient (window part only)."""
        out = {}
        for key, ts in self.entries.items():
            c = ts.coeffs[n]
            if not c.is_zero():
                out[key] = c
        return NCPoly(out)

    def __repr__(self) -> str:
        return f"WindowedSeries(window={self.window}, entries={len(self.entries)})"
