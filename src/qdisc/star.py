"""The deformed product on the quantum disc.

The product is  f1 * f2 = f1 f2 + sum_{k>=1} C_k(f1, f2) t^k, where each
bidifferential coefficient C_k is obtained by feeding the tensor lift of
the q-Laplace-Beltrami operator into a difference of the expansion
polynomials p_k and multiplying the legs back together:

    C_k(f1, f2) = m0( (p_k(box_tilde) - p_{k-1}(box_tilde)) (f1 (x) f2) ).

Truncations at a run-wide t-order are the only objects ever materialized;
the Cauchy product of truncations (``m_series``) and the termwise
involution make the truncated series ring a *-algebra.
"""

from __future__ import annotations

from functools import lru_cache

from .qcalc import box_tilde, m0
from .qpoly import NCPoly, TensorPoly, nc_mul
from .scalar import ONE, QScalar, ZERO, qpochhammer


class PkPolynomial:
    """A polynomial in one commuting variable x with QScalar coefficients.

    ``coeffs[i]`` is the coefficient of x^i.  Used for the degree-k
    expansion polynomials and their differences; the x slot is where the
    box operators get substituted.
    """

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs: list):
        if len(coeffs) != k + 1:
            raise ValueError("coefficient list must have length k + 1")
        self.k = k
        self.coeffs = list(coeffs)

    def degree(self) -> int:
        d = -1
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                d = i
        return d

    def __call__(self, x: QScalar) -> QScalar:
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PkPolynomial):
            return NotImplemented
        return self.k == other.k and self.coeffs == other.coeffs

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            xs = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            cs = str(c)
            if " + " in cs or " - " in cs:
                cs = f"({cs})"
            parts.append(cs if not xs else (xs if c.is_one() else f"{cs}*{xs}"))
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"PkPolynomial({self})"


def _poly_x_mul(a: list, b: list) -> list:
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


@lru_cache(maxsize=None)
def pk(k: int) -> PkPolynomial:
    """The degree-k expansion polynomial.

    p_k(x) = sum_{j=0}^{k} (q^-2k; q^2)_j / (q^2; q^2)_j^2 * q^2j
             * prod_{i=0}^{j-1} (1 - q^2i ((1-q^2)^2 x + 1 + q^2) + q^(4i+2)).

    The j-sum stops at k because (q^-2k; q^2)_j vanishes for j > k, which
    is what pins the degree to exactly k; p_k(0) = 1 because the i = 0
    factor vanishes at x = 0 for every j >= 1.
    """
    if k < 0:
        raise ValueError("pk needs k >= 0")
    one_minus_q2_sq = (ONE - QScalar.q_power(2)) ** 2
    total = [ZERO] * (k + 1)
    for j in range(k + 1):
        outer = qpochhammer(QScalar.q_power(-2 * k), 2, j)
        if outer.is_zero():
            continue
        denom = qpochhammer(QScalar.q_power(2), 2, j) ** 2
        scale = outer / denom * QScalar.q_power(2 * j)
        # the inner product expanded symbolically in x
        prod = [ONE]
        for i in range(j):
            q2i = QScalar.q_power(2 * i)
            const = ONE - q2i * (ONE + QScalar.q_power(2)) + QScalar.q_power(4 * i + 2)
            linear = -(q2i * one_minus_q2_sq)
            prod = _poly_x_mul(prod, [const, linear])
        for i, c in enumerate(prod):
            total[i] = total[i] + scale * c
    return PkPolynomial(k, total)


@lru_cache(maxsize=None)
def pk_diff_coeffs(k: int) -> tuple:
    """Coefficients of p_k - p_{k-1}, padded to degree k; k >= 1."""
    a = pk(k).coeffs
    b = pk(k - 1).coeffs + [ZERO]
    return tuple(x - y for x, y in zip(a, b))


def apply_poly(coeffs: tuple, op, f):
    """sum_i coeffs[i] op^i(f) by Horner: k applications of op for degree k."""
    out = f.scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out = op(out) + f.scale(c)
    return out


@lru_cache(maxsize=None)
def _ck_mono(k: int, j1: int, k1: int, j2: int, k2: int) -> NCPoly:
    F = TensorPoly({(j1, k1, j2, k2): ONE})
    return m0(apply_poly(pk_diff_coeffs(k), box_tilde, F))


def ck(k: int, f1: NCPoly, f2: NCPoly) -> NCPoly:
    """The k-th bidifferential coefficient of the deformed product, k >= 1.

    There is no C_0: the zeroth term of the product is the plain algebra
    product, not a bidifferential operator.
    """
    if k < 1:
        raise ValueError("ck is defined for k >= 1 only")
    out = NCPoly.zero()
    for (j1, k1), c1 in f1.terms.items():
        for (j2, k2), c2 in f2.terms.items():
            out = out + _ck_mono(k, j1, k1, j2, k2).scale(c1 * c2)
    return out


class StarSeries:
    """A truncated element of the deformed algebra: T + 1 polynomial coefficients.

    ``coeffs[n]`` is the NCPoly coefficient of t^n.  Orders are rigid:
    combining series of different truncation orders is an error.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = tuple(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    @staticmethod
    def from_ncpoly(f: NCPoly, order: int) -> "StarSeries":
        return StarSeries((f,) + (NCPoly.zero(),) * order, order)

    @staticmethod
    def one(order: int) -> "StarSeries":
        return StarSeries.from_ncpoly(NCPoly.one(), order)

    @staticmethod
    def zero(order: int) -> "StarSeries":
        return StarSeries((NCPoly.zero(),) * (order + 1), order)

    def _check(self, other: "StarSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"truncation order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "StarSeries") -> "StarSeries":
        if not isinstance(other, StarSeries):
            return NotImplemented
        self._check(other)
        return StarSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __neg__(self) -> "StarSeries":
        return StarSeries(tuple(-a for a in self.coeffs), self.order)

    def __sub__(self, other: "StarSeries") -> "StarSeries":
        if not isinstance(other, StarSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "StarSeries":
        return StarSeries(tuple(a.scale(c) for a in self.coeffs), self.order)

    def involution(self) -> "StarSeries":
        """Termwise involution; t is a real central parameter and stays put."""
        return StarSeries(tuple(a.involution() for a in self.coeffs), self.order)

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StarSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __str__(self) -> str:
        parts = []
        for n, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            tpow = "" if n == 0 else (" t" if n == 1 else f" t^{n}")
            parts.append(f"({a}){tpow}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"StarSeries[{self.order}]({self})"


def star(f1: NCPoly, f2: NCPoly, order: int) -> StarSeries:
    """The deformed product of two polynomials, truncated at t^order."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    coeffs = [nc_mul(f1, f2)]
    for k in range(1, order + 1):
        coeffs.append(ck(k, f1, f2))
    return StarSeries(coeffs, order)


def m_series(psi1: StarSeries, psi2: StarSeries) -> StarSeries:
    """Cauchy product of truncated series, each cross term deformed.

    The t^n coefficient collects C_r(a_j, b_k) over j + k + r = n (with
    C_0 the plain product), so the result is again exact mod t^(order+1).
    """
    psi1._check(psi2)
    T = psi1.order
    out = [NCPoly.zero() for _ in range(T + 1)]
    for j, a in enumerate(psi1.coeffs):
        if a.is_zero():
            continue
        for k in range(T + 1 - j):
            b = psi2.coeffs[k]
            if b.is_zero():
                continue
            partial = star(a, b, T - j - k)
            for r, c in enumerate(partial.coeffs):
                out[j + k + r] = out[j + k + r] + c
    return StarSeries(out, T)


def series_involution(psi: StarSeries) -> StarSeries:
    return psi.involution()
