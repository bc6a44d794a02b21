"""First-order differential calculus on the quantum disc.

The calculus is generated by the one-forms dz, dzs and the four bimodule
relations

    z * dz  = q^-2 dz * z        zs * dz  = q^2  dz * zs
    z * dzs = q^-2 dzs * z       zs * dzs = q^2  dzs * zs

Writing d(z^j zs^k) with the Leibniz rule and moving each differential to
the far right (right derivatives) or far left (left derivatives) costs q^2
or q^-2 per letter passed; summing over the letter positions gives a
q-number [n]_x = 1 + x + ... + x^(n-1).  So each derivative of a monomial
is one q-number times one monomial:

    right d_z   z^j zs^k = q^-2k [j]_{q^2}  z^(j-1) zs^k
    right d_zs  z^j zs^k = [k]_{q^-2}       z^j zs^(k-1)
    left  d_z   z^j zs^k = [j]_{q^-2}       z^(j-1) zs^k
    left  d_zs  z^j zs^k = q^-2j [k]_{q^2}  z^j zs^(k-1)

The letter-by-letter rewriting is kept in the tests as their oracle.

On top of the derivatives sit the second-order operator ``box`` (the
q-deformed Laplace-Beltrami operator of the disc), its lift ``box_tilde``
to the tensor square, and the multiplication map ``m0``.
"""

from __future__ import annotations

from .qpoly import NCPoly, TensorPoly, _add_terms, _normal_block
from .scalar import ONE, QScalar, _shifted, _value


def _qnum(n: int, m: int, n2: int = 1) -> QScalar:
    """q^-2m [n]_{q^2} [n2]_{q^2} for n, n2 >= 1; q^-2m [n]_{q^2} is [n]_{q^-2} for m = n - 1.

    With Q = q^2 = s^4 the coefficient of Q^e in [n]_Q [n2]_Q counts the
    a < n, b < n2 with a + b = e: min(e + 1, n, n2, n + n2 - 1 - e).  The
    factor q^-2m = s^-4m shifts the exponents down, so the value is a
    Laurent numerator over 1, canonical as it stands.
    """
    num = _shifted({4 * (e - m): min(e + 1, n, n2, n + n2 - 1 - e) for e in range(n + n2 - 1)})
    return _value(num)


def d_partial(f: NCPoly, side: str, variable: str) -> NCPoly:
    """One of the four partial derivatives of the calculus.

    ``side`` is "right" or "left" (which defining expansion of df the
    coefficient is read from), ``variable`` is "z" or "zstar".
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if variable not in ("z", "zstar"):
        raise ValueError(f"variable must be 'z' or 'zstar', got {variable!r}")
    wrt_z = variable == "z"
    out = {}
    for (j, k), c in f.terms.items():
        n = j if wrt_z else k
        if n == 0:
            continue
        jj, kk = (j - 1, k) if wrt_z else (j, k - 1)
        # the four forms above are q^-2m [n]_{q^2}, m the zs (right) or z (left) count left
        out[(jj, kk)] = c * _qnum(n, kk if side == "right" else jj)
    return NCPoly(out)


# weights w_i of box_tilde's middle factor sum_i w_i zs^i (x) z^i,
# q^-2 (1(x)1 - (1+q^-2) zs(x)z + q^-2 zs^2(x)z^2)
_QM2 = QScalar.q_power(-2)
_MID_W = (_QM2, -(ONE + _QM2) * _QM2, _QM2 * _QM2)

# box's stencil weights on z^j zs^k and z^(j+1) zs^(k+1), with Q = q^2
_Q = QScalar.q_power(2)
_MINUS_ONE_PLUS_Q = -(ONE + _Q)


def box(f: NCPoly) -> NCPoly:
    """The invariant second-order operator (1 - z zs)^2 d_zs d_z (left form).

    With Q = q^2 the left derivatives give
    d^l_zs d^l_z z^j zs^k = Q^(2-2j) [j]_Q [k]_Q z^(j-1) zs^(k-1), and as
    zs z^n = Q^n z^n zs + (1 - Q^n) z^(n-1), left multiplication by
    1 - z zs sends z^n zs^m to Q^n (z^n zs^m - z^(n+1) zs^(m+1)).  Twice,
    from n = j - 1, that is a three-term stencil on the diagonal of (j, k):

        box(z^j zs^k) = [j]_Q [k]_Q (z^(j-1) zs^(k-1) - (1 + Q) z^j zs^k + Q z^(j+1) zs^(k+1)),

    and box(z^j zs^k) = 0 when j = 0 or k = 0.  It equals the right form
    q^2 (d^r_zs d^r_z f)(1 - z zs)^2; that is the ``box-two-forms`` verify
    law, not a second computation on every call.
    """
    return NCPoly(_add_terms((
        pair
        for (j, k), c in f.terms.items() if j and k
        for cjk in (c * _qnum(j, 0, k),)
        for pair in (((j - 1, k - 1), cjk), ((j, k), cjk * _MINUS_ONE_PLUS_Q), ((j + 1, k + 1), cjk * _Q))
    ), {}))


def box_tilde(F: TensorPoly) -> TensorPoly:
    """Lift of box to the tensor square.

    Term by term it is (d^(r)f1/dzs (x) 1) * MID * (1 (x) d^(l)f2/dz), with
    the fixed middle factor MID = sum_i w_i zs^i (x) z^i above and products
    taken leg-wise.  Each leg product only appends zs^i after zs^(b-1) or
    puts z^i before z^(c-1), so on a monomial tensor

        box_tilde(z^a zs^b (x) z^c zs^d)
            = [b]_{q^-2} [c]_{q^-2} sum_{i=0..2} w_i z^a zs^(b-1+i) (x) z^(c-1+i) zs^d.
    """
    return TensorPoly(_add_terms((
        ((a, b - 1 + i, c - 1 + i, d), cb * w)
        for (a, b, c, d), coeff in F.terms.items() if b and c
        for cb in (coeff * _qnum(b, b + c - 2, c),)
        for i, w in enumerate(_MID_W)
    ), {}))


def m0(F: TensorPoly) -> NCPoly:
    """Multiply the two tensor legs back together.

    z^j1 zs^k1 * z^j2 zs^k2 = z^j1 (zs^k1 z^j2) zs^k2, so each term reads the
    normal form of its middle block zs^k1 z^j2 off ``_normal_block``.
    """
    return NCPoly(_add_terms((
        ((j1 + j, k + k2), w * c)
        for (j1, k1, j2, k2), c in F.terms.items()
        for (j, k), w in _normal_block(k1, j2)
    ), {}))
