"""Operator-side oracle on the weighted holomorphic polynomials.

Normal-ordered monomials act on the basis {z^m : 0 <= m <= M} by graded
shifts with rational-in-t matrix elements,

    z^j zs^k :  z^m  ->  (q^2m; q^-2)_k / (t q^2m; q^-2)_k  z^(m-k+j),

Taylor-expanded in t to the run order.  Composing these finite matrices is
exact, which turns the deformed product's coefficient formulas into a
finite equality check: mapping a truncated star series through ``q_map``
must agree with the matrix product of the factors' images.  ``q_map`` and
``i_op_poly`` add every term into one accumulator of coefficient lists, and
the t^n coefficient of a series scales only the t-orders 0..order-n of each
column value, the ones its shift by t^n keeps.

``covariant_symbol`` inverts the picture (unique coefficients within a
declared window), dividing by the closed-form column inverse
(t q^2m; q^-2)_k / (q^2m; q^-2)_k rather than inverting a series.  The
solve matches the operator on the window's columns by construction; the
``transform-map-back`` verify law checks the columns beyond.  ``berezin``
and ``berezin_expansion`` give the two independent routes to the symbol of
zhat_star^j zhat^k: the operator solve here, and the differential route,
which is the deformed product zs^j * z^k that ``star`` computes.
"""

from __future__ import annotations

from functools import lru_cache

from .qpoly import NCPoly, WindowedSeries
from .scalar import ONE, ZERO, QScalar, TSeries, qpochhammer
from .star import StarSeries, star


class ValidityError(ValueError):
    """A read or comparison touched columns the cutoff cannot vouch for."""


class InsufficientCutoffError(ValueError):
    """The requested window needs a larger basis cutoff M."""


class FockOp:
    """A linear operator on span{z^m : 0 <= m <= M} with truncated-series entries.

    ``entries`` maps (row, col) to a TSeries; absent entries are zero.
    ``raise_bound`` is the largest degree-raising of any term used to build
    the operator, floored at zero, and products add the bounds.  Columns
    above M - raise_bound may have been clipped by the cutoff, so reads and
    comparisons there raise instead of silently lying.
    """

    __slots__ = ("M", "order", "entries", "raise_bound")

    def __init__(self, M: int, order: int, entries: dict | None = None, raise_bound: int = 0):
        self.M = M
        self.order = order
        self.entries = {}
        for key, ts in (entries or {}).items():
            if ts.order != order:
                raise ValueError("mixed truncation orders in FockOp")
            if not ts.is_zero():
                self.entries[key] = ts
        self.raise_bound = max(raise_bound, 0)

    @staticmethod
    def identity(M: int, order: int) -> "FockOp":
        one = TSeries.one(order)
        return FockOp(M, order, {(m, m): one for m in range(M + 1)})

    @staticmethod
    def zero(M: int, order: int) -> "FockOp":
        return FockOp(M, order, {})

    def valid_columns(self) -> int:
        """Largest column index this operator is exact on."""
        return self.M - self.raise_bound

    def entry(self, row: int, col: int) -> TSeries:
        if col > self.valid_columns():
            raise ValidityError(
                f"column {col} beyond valid range {self.valid_columns()} (M={self.M}, "
                f"raise={self.raise_bound})"
            )
        got = self.entries.get((row, col))
        return got if got is not None else TSeries.zero(self.order)

    def _check(self, other: "FockOp") -> None:
        if self.M != other.M or self.order != other.order:
            raise ValueError("FockOp shape/order mismatch")

    def __add__(self, other: "FockOp") -> "FockOp":
        if not isinstance(other, FockOp):
            return NotImplemented
        self._check(other)
        out = dict(self.entries)
        for key, ts in other.entries.items():
            cur = out.get(key)
            ts2 = ts if cur is None else cur + ts
            if ts2.is_zero():
                out.pop(key, None)
            else:
                out[key] = ts2
        return FockOp(self.M, self.order, out, max(self.raise_bound, other.raise_bound))

    def __sub__(self, other: "FockOp") -> "FockOp":
        if not isinstance(other, FockOp):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "FockOp":
        return FockOp(self.M, self.order, {key: -v for key, v in self.entries.items()}, self.raise_bound)

    def scale_series(self, ts: TSeries) -> "FockOp":
        if ts.order != self.order:
            raise ValueError("truncation order mismatch")
        return FockOp(
            self.M,
            self.order,
            {key: v * ts for key, v in self.entries.items()},
            self.raise_bound,
        )

    def __mul__(self, other: "FockOp") -> "FockOp":
        """Composition self after other; validity bounds add."""
        if not isinstance(other, FockOp):
            return NotImplemented
        self._check(other)
        by_col: dict = {}
        for (r, c), ts in self.entries.items():
            by_col.setdefault(c, []).append((r, ts))
        out: dict = {}
        for (mid, col), ts_b in other.entries.items():
            for row, ts_a in by_col.get(mid, ()):
                key = (row, col)
                v = ts_a * ts_b
                prev = out.get(key)
                v = v if prev is None else prev + v
                if v.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = v
        return FockOp(self.M, self.order, out, self.raise_bound + other.raise_bound)

    def equal_on_valid(self, other: "FockOp") -> bool:
        """Entrywise equality over the columns both sides are exact on."""
        self._check(other)
        last = min(self.valid_columns(), other.valid_columns())
        if last < 0:
            raise ValidityError("no commonly valid columns to compare on")
        keys = set(self.entries) | set(other.entries)
        zero = TSeries.zero(self.order)
        for row, col in keys:
            if col > last:
                continue
            if self.entries.get((row, col), zero) != other.entries.get((row, col), zero):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockOp):
            return NotImplemented
        return (
            self.M == other.M
            and self.order == other.order
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return (
            f"FockOp(M={self.M}, order={self.order}, nnz={len(self.entries)}, "
            f"raise={self.raise_bound})"
        )


@lru_cache(maxsize=None)
def _column_value(k: int, m: int, order: int) -> TSeries:
    """(q^2m; q^-2)_k / (t q^2m; q^-2)_k expanded in t; depends on k and m only."""
    num = qpochhammer(QScalar.q_power(2 * m), -2, k)
    out = TSeries.constant(num, order)
    for i in range(k):
        # 1/(1 - t q^(2(m-i))) as a geometric series
        out = out * TSeries.geometric(QScalar.q_power(2 * (m - i)), order)
    return out


@lru_cache(maxsize=None)
def _column_inverse(k: int, m: int, order: int) -> TSeries:
    """1 / _column_value(k, m, order) = (t q^2m; q^-2)_k / (q^2m; q^-2)_k, for k <= m.

    The numerator is a polynomial of degree k in t, so the inverse is that
    polynomial, truncated, times one scalar inverse: no series inversion.
    """
    poly = [ONE] + [ZERO] * order
    for i in range(k):
        x = QScalar.q_power(2 * (m - i))
        for n in range(min(i + 1, order), 0, -1):
            poly[n] = poly[n] - x * poly[n - 1]
    inv = ONE / qpochhammer(QScalar.q_power(2 * m), -2, k)
    return TSeries([c * inv for c in poly], order)


def _accumulate(acc: dict, f: NCPoly, n: int, M: int, order: int) -> int:
    """Add t^n times the action of f into acc; return the largest raise j - k.

    ``acc`` maps (row, col) to a list of order + 1 coefficients.  Column m
    of z^j zs^k is ``_column_value(k, m, order)``, and after the shift by
    t^n only its coefficients 0..order-n survive, so only those are scaled
    by the term's coefficient (not at all when it is one).
    """
    keep = order + 1 - n
    bound = 0
    for (j, k), c in f.terms.items():
        bound = max(bound, j - k)
        unit = c.is_one()
        for m in range(k, min(M, M + k - j) + 1):
            key = (m - k + j, m)
            row = acc.get(key)
            if row is None:
                row = acc[key] = [ZERO] * (order + 1)
            cv = _column_value(k, m, order).coeffs
            for i in range(keep):
                row[n + i] = row[n + i] + (cv[i] if unit else cv[i] * c)
    return bound


def _from_accumulator(acc: dict, M: int, order: int, bound: int) -> FockOp:
    return FockOp(M, order, {key: TSeries(v, order) for key, v in acc.items()}, bound)


def i_op_poly(f: NCPoly, M: int, order: int) -> FockOp:
    """Linear extension of the monomial action to any polynomial."""
    acc: dict = {}
    return _from_accumulator(acc, M, order, _accumulate(acc, f, 0, M, order))


@lru_cache(maxsize=None)
def i_op(j: int, k: int, M: int, order: int) -> FockOp:
    """The operator image of the monomial z^j zs^k on the cutoff basis."""
    return i_op_poly(NCPoly.monomial(j, k), M, order)


def zhat(M: int, order: int) -> FockOp:
    """Multiplication by z: the pure degree-raising shift."""
    one = TSeries.one(order)
    return FockOp(M, order, {(m + 1, m): one for m in range(M)}, 1)


def zhat_star(M: int, order: int) -> FockOp:
    """The adjoint of zhat for the weighted inner product.

    Column m carries (1 - q^2m)/(1 - t q^2m) at row m - 1; constants are
    annihilated.  Coincides entrywise with i_op(0, 1).
    """
    entries = {}
    for m in range(1, M + 1):
        entries[(m - 1, m)] = _column_value(1, m, order)
    return FockOp(M, order, entries, 0)


def q_map(psi: StarSeries, M: int) -> FockOp:
    """Map a truncated star series to operators: the t^n coefficient acts shifted by t^n.

    All coefficients go into one accumulator, each entry only up to the
    t-order its shift keeps.
    """
    order = psi.order
    acc: dict = {}
    bound = 0
    for n, f in enumerate(psi.coeffs):
        bound = max(bound, _accumulate(acc, f, n, M, order))
    return _from_accumulator(acc, M, order, bound)


def covariant_symbol(A: FockOp, window: int) -> WindowedSeries:
    """Recover the unique symbol coefficients of A within the window.

    The operator splits into graded shifts d = row - col.  For each shift
    the unknowns a_(k+d, k) are determined column by column: the monomial
    action vanishes on columns below its antiholomorphic exponent, so
    column m introduces exactly one new unknown and the system is
    triangular.  Shifts whose window part is empty are skipped (their
    coefficients lie outside the window and are honestly unknown).
    """
    order = A.order
    shifts = sorted({row - col for row, col in A.entries})
    out: dict = {}
    for d in shifts:
        k_min = max(0, -d)
        k_max = window - max(d, 0)
        if k_max < k_min:
            continue
        if k_max > A.valid_columns():
            raise InsufficientCutoffError(
                f"window {window} needs columns up to {k_max} but only "
                f"{A.valid_columns()} are valid; increase the cutoff M"
            )
        solved: list = []
        for m in range(k_min, k_max + 1):
            residual = A.entry(m + d, m)
            for k, a in enumerate(solved, start=k_min):
                if not a.is_zero():
                    residual = residual - a * _column_value(k, m, order)
            solved.append(residual * _column_inverse(m, m, order))
        for k, a in enumerate(solved, start=k_min):
            if not a.is_zero():
                out[(k + d, k)] = a
    return WindowedSeries(window, order, out)


def berezin(j: int, k: int, window: int, M: int, order: int) -> WindowedSeries:
    """Symbol of zhat_star^j zhat^k within the window.

    This is the transform sending the polynomial zs^j z^k, read as a
    contravariant symbol, to the covariant symbol of its operator.
    zhat_star^j is the monomial operator i_op(0, j) and zhat^k is
    i_op(k, 0), so the operator is one product of two memoized images.
    """
    return covariant_symbol(i_op(0, j, M, order) * i_op(k, 0, M, order), window)


def berezin_expansion(j: int, k: int, terms: int) -> list:
    """Differential-operator route to the same symbol, term by term in t.

    Term 0 is the normal-ordered form of zs^j z^k; term n >= 1 applies
    p_n(box) - p_{n-1}(box) to it.  That is the deformed product
    zs^j * z^k, so the terms are the coefficients of ``star``.
    """
    if terms < 0:
        raise ValueError("need terms >= 0")
    return list(star(NCPoly.monomial(0, j), NCPoly.monomial(k, 0), terms).coeffs)
