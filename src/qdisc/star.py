"""The deformed product on the quantum disc.

The product is  f1 * f2 = f1 f2 + sum_{k>=1} C_k(f1, f2) t^k, where each
bidifferential coefficient C_k is obtained by feeding the tensor lift of
the q-Laplace-Beltrami operator into a difference of the expansion
polynomials p_k and multiplying the legs back together:

    C_k(f1, f2) = m0( (p_k(box_tilde) - p_{k-1}(box_tilde)) (f1 (x) f2) ).

All p_k(op) come from one three-term recurrence (``pk_images``), whose
step divides by 1 - q^(2k+2); on a sector that division is exact in
Z[s, 1/s], one long division with a remainder check and no gcd.  As
C_k(z^a zs^b, z^c zs^d) = z^a C_k(zs^b, z^c) zs^d, one chain per sector
(zs^b, z^c), extended as far as the highest order asked for, gives C_1..C_T
and star costs a polynomial in T.  The chain stays on pure-power tensors
zs^b' (x) z^c', where m0 box_tilde = box m0, so it runs box on zs^b z^c.
The identity is the ``box-factorization`` law;
tests/test_qcalc.py::test_factorization_identity checks it to exponent 12,
and tests/test_star.py::test_sector_chain_matches_box_tilde_route the chains.

Truncations at a run-wide t-order are the only objects ever materialized;
the Cauchy product of truncations (``m_series``) and the termwise
involution make the truncated series ring a *-algebra.
"""

from __future__ import annotations

from functools import lru_cache

from .qcalc import box
from .qpoly import NCPoly, _add_terms, nc_mul, nc_mul_left_z_power
from .scalar import ONE, QScalar, _Truncated, _div_poly

_Q = QScalar.q_power(2)
_ONE_MINUS_Q_SQ = (ONE - _Q) ** 2


def pk_images(op, chain: list, order: int) -> list:
    """Extend ``chain`` = [p_0(op) f, ..., p_i(op) f] in place through p_order(op) f; return it.

    With Q = q^2, p_0 = 1 and p_-1 = 0 the p_k obey the Al-Salam-Chihara
    recurrence (Koekoek-Lesky-Swarttouw, section 14.8)

        (1 - Q^(k+1)) p_(k+1) = ((1-Q)^2 x + 1 + Q - 2 Q^(k+1)) p_k - Q (1 - Q^k) p_(k-1),

    run as written, one application of the linear op per order.  Each step
    ends by dividing every coefficient by the binomial 1 - Q^(k+1)
    (``_div_poly``).  On a sector of ``box`` every image is Laurent, so that
    is one exact division in Z[s, 1/s] with a remainder check; the x-chain
    of ``pk`` and input that is not Laurent take the general quotient.
    The images need ``+``, ``-``, ``.scale`` and ``.terms``, and keep their type.
    """
    for k in range(len(chain) - 1, order):
        qk1 = QScalar.q_power(2 * k + 2)
        nxt = op(chain[k]).scale(_ONE_MINUS_Q_SQ) + chain[k].scale(ONE + _Q - qk1 - qk1)
        if k:
            nxt = nxt - chain[k - 1].scale(_Q * (ONE - QScalar.q_power(2 * k)))
        den = {0: 1, 4 * k + 4: -1}
        chain.append(type(nxt)({key: _div_poly(v, den) for key, v in nxt.terms.items()}))
    return chain


# p_0(x), p_1(x), ... as polynomials in z, the one chain behind every ``pk``
_X_IMAGES = [NCPoly.one()]


@lru_cache(maxsize=None)
def pk(k: int) -> tuple:
    """The coefficients of the degree-k expansion polynomial, of x^0 first: ``pk_images`` with op = x.

    The z^i form a commutative ring, so left multiplication by z stands in
    for x.  All degrees share one chain, which a call extends only past the
    highest degree computed so far.  The tests check p_k against its
    terminating j-sum for k <= 12.
    """
    if k < 0:
        raise ValueError("pk needs k >= 0")
    xk = pk_images(lambda g: nc_mul_left_z_power(1, g), _X_IMAGES, k)[k]
    return tuple(xk.coefficient(i, 0) for i in range(k + 1))


# (b, c) -> ([u_0, u_1, ...], [C_1, C_2, ...]), the one chain of each sector
_SECTORS: dict = {}


@lru_cache(maxsize=None)
def _ck_mono(b: int, c: int, order: int) -> tuple:
    """(C_1, ..., C_order)(zs^b, z^c) for b, c >= 1.

    C_k = u_k - u_(k-1) with u_k = p_k(box)(zs^b z^c) = m0 p_k(box_tilde)(zs^b (x) z^c),
    as m0 box_tilde = box m0 on pure-power tensors (``box-factorization``).
    All orders of a sector share one chain, which a call extends only past
    the highest order computed so far, and every order's tuple holds the
    same C_k objects.
    """
    sector = _SECTORS.get((b, c))
    if sector is None:
        sector = _SECTORS[(b, c)] = ([nc_mul(NCPoly.monomial(0, b), NCPoly.monomial(c, 0))], [])
    u, cs = sector
    pk_images(box, u, order)
    cs.extend(u[k] - u[k - 1] for k in range(len(cs) + 1, order + 1))
    return tuple(cs[:order])


def ck(k: int, f1: NCPoly, f2: NCPoly) -> NCPoly:
    """The k-th bidifferential coefficient of the deformed product, k >= 1.

    There is no C_0: the zeroth term of the product is the plain algebra
    product, not a bidifferential operator.
    """
    if k < 1:
        raise ValueError("ck is defined for k >= 1 only")
    return star(f1, f2, k).coeffs[k]


class StarSeries(_Truncated):
    """A truncated element of the deformed algebra: T + 1 polynomial coefficients.

    ``coeffs[n]`` is the NCPoly coefficient of t^n.  Orders are rigid:
    combining series of different truncation orders is an error.
    """

    __slots__ = ()
    _T = " t"

    @staticmethod
    def from_ncpoly(f: NCPoly, order: int) -> "StarSeries":
        return StarSeries((f,) + (NCPoly.zero(),) * order, order)

    @staticmethod
    def zero(order: int) -> "StarSeries":
        return StarSeries((NCPoly.zero(),) * (order + 1), order)

    def __add__(self, other: "StarSeries") -> "StarSeries":
        if not isinstance(other, StarSeries):
            return NotImplemented
        self._check(other)
        return StarSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __sub__(self, other: "StarSeries") -> "StarSeries":
        if not isinstance(other, StarSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "StarSeries":
        return StarSeries(tuple(a.scale(c) for a in self.coeffs), self.order)

    def involution(self) -> "StarSeries":
        """Termwise involution; t is a real central parameter and stays put."""
        return StarSeries(tuple(a.involution() for a in self.coeffs), self.order)


def star(f1: NCPoly, f2: NCPoly, order: int) -> StarSeries:
    """The deformed product of two polynomials, truncated at t^order.

    Term pairs z^a zs^b, z^c zs^d with b = 0 or c = 0 are skipped: box_tilde
    kills them and (p_k - p_(k-1))(0) = 0.  As C_k(z^a zs^b, z^c zs^d) =
    z^a C_k(zs^b, z^c) zs^d, each sector term z^j zs^k of a pair goes into
    the sum of its order as z^(a+j) zs^(k+d), scaled by the pair's coefficient.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    sums = [{} for _ in range(order)]
    for (a, b), c1 in f1.terms.items():
        if b == 0:
            continue
        for (c, d), c2 in f2.terms.items():
            if c == 0:
                continue
            w = c1 * c2
            for out, sector in zip(sums, _ck_mono(b, c, order)):
                _add_terms((((a + j, k + d), v * w) for (j, k), v in sector.terms.items()), out)
    return StarSeries([nc_mul(f1, f2)] + [NCPoly(out) for out in sums], order)


def m_series(psi1: StarSeries, psi2: StarSeries) -> StarSeries:
    """Cauchy product of truncated series, each cross term deformed.

    The t^n coefficient collects C_r(a_j, b_k) over j + k + r = n (with
    C_0 the plain product), so the result is again exact mod t^(order+1).
    Each cross term's product is summed on its own first: its coefficients
    are small next to the running sums.
    """
    psi1._check(psi2)
    T = psi1.order
    sums = [{} for _ in range(T + 1)]
    for j, a in enumerate(psi1.coeffs):
        if a.is_zero():
            continue
        for k in range(T + 1 - j):
            b = psi2.coeffs[k]
            if b.is_zero():
                continue
            for r, c in enumerate(star(a, b, T - j - k).coeffs):
                _add_terms(c.terms.items(), sums[j + k + r])
    return StarSeries([NCPoly(out) for out in sums], T)


def series_involution(psi: StarSeries) -> StarSeries:
    return psi.involution()
