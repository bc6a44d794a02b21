"""Operator-side oracle on the weighted holomorphic polynomials.

Normal-ordered monomials act on the basis {z^m : 0 <= m <= M} by graded
shifts with rational-in-t matrix elements,

    z^j zs^k :  z^m  ->  (q^2m; q^-2)_k / (t q^2m; q^-2)_k  z^(m-k+j),

Taylor-expanded in t to the run order.  Composing these finite matrices is
exact, which turns the deformed product's coefficient formulas into a
finite equality check: mapping a truncated star series through ``q_map``
must agree with the matrix product of the factors' images.

With x = q^2m, the t^n coefficient of column m is a polynomial in x of
degree k + n (``_column_poly``) whose coefficients are Laurent polynomials
in s with no denominator, and x^p is the shift s^(4mp).  So ``q_map`` and
``i_op_poly`` group terms by diagonal j - k, and a diagonal of several
terms with Laurent coefficients sums them once per power of x and t-order
by ``scalar._madd``.  Most of those sums cancel, so their zero entries are
dropped once per diagonal; every column is what is left read at its x,
one integer dict over 1, with no product.  Any other diagonal scales the
memoized column values of its terms and adds them.

``covariant_symbol`` inverts the picture (unique coefficients within a
declared window).  With r = q^-2, column m of z^(k+d) zs^k carries
c(k, m) = (x; r)_k / (t x; r)_k, and for k <= m

    c(k, m) (t x; r)_m = (x; r)_k (t x r^k; r)_(m-k) = w(k, m),

because (t x; r)_m / (t x; r)_k telescopes to the factors 1 - t x r^i
with k <= i < m.  Multiplied through by (t x; r)_m, column m of the
triangular system reads sum_(k<=m) w(k, m) a_k = w(0, m) A_m: one sum of
products per new unknown (``scalar._sum_of_products``, the kernel of
``TSeries.__mul__``), then one exact division by the constant
w(m, m) = (q^2m; q^-2)_m.  The solve matches the operator on the
window's columns by construction; the ``transform-map-back`` verify law
checks the columns beyond.  ``berezin`` and ``berezin_expansion`` give the
two independent routes to the symbol of zhat_star^j zhat^k: the operator
solve here, and the differential route, which is the deformed product
zs^j * z^k that ``star`` computes.
"""

from __future__ import annotations

from functools import lru_cache

from .qpoly import NCPoly, WindowedSeries, _add_terms
from .scalar import _ONE_P, ZERO, TSeries, _div_poly, _madd, _padd, _pmul, _shifted, _sum_of_products, _value
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
        out = _add_terms(other.entries.items(), dict(self.entries))
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
        out = _add_terms((
            ((row, col), ts_a * ts_b)
            for (mid, col), ts_b in other.entries.items()
            for row, ts_a in by_col.get(mid, ())
        ), {})
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


def _gaussian(a: int, b: int) -> dict:
    """The Gaussian binomial [a, b] in r = q^-2 as {power of r: int}, for b >= 0.

    [a, 0] = 1, and [a, b] = 0 when a < b.  The q-Pascal rule
    [n, i] = [n-1, i-1] + r^i [n-1, i] keeps it in Z[r], with no division.
    """
    row = [_ONE_P] + [{}] * b  # [0, i] for i <= b
    for n in range(1, a + 1):
        row = [_ONE_P] + [_padd(row[i - 1], _pmul(row[i], {i: 1})) for i in range(1, b + 1)]
    return row[b]


@lru_cache(maxsize=None)
def _poch(k: int) -> tuple:
    """The coefficients of x^0, ..., x^k in (x; r)_k, r = q^-2, as {power of r: int}.

    The q-binomial theorem (Gasper-Rahman, *Basic Hypergeometric Series*,
    ch. 1) gives the coefficient of x^i as (-1)^i r^(i(i-1)/2) [k, i]_r.
    """
    return tuple(_pmul(_gaussian(k, i), {i * (i - 1) // 2: (-1) ** i}) for i in range(k + 1))


@lru_cache(maxsize=None)
def _column_poly(k: int, order: int) -> tuple:
    """Column m of z^j zs^k as a polynomial in x = q^2m: one row per t-order.

    Row n holds the (power of x, Laurent coefficient) pairs of the t^n
    coefficient of (x; r)_k / (t x; r)_k with r = q^-2.  That coefficient is

        x^n h_n(1, r, ..., r^(k-1)) (x; r)_k,   h_n(1, ..., r^(k-1)) = [n+k-1, n]_r,

    a polynomial of degree k + n in x (Andrews, *The Theory of Partitions*,
    ch. 3, for h_n), with the coefficients of (x; r)_k from ``_poch``.
    Every coefficient is a polynomial in r = s^-4, so r^e is the exponent
    -4e of a Laurent numerator and the table has no denominator.  The
    factor (x; r)_k vanishes at x = q^0, ..., q^2(k-1), so the polynomial
    reads zero on columns m < k.
    """
    poch = _poch(k)
    rows = []
    for n in range(order + 1):
        h = _gaussian(n + k - 1, n)
        rows.append(tuple(
            (n + i, _shifted({-4 * e: v for e, v in _pmul(h, c).items()})) for i, c in enumerate(poch) if h
        ))
    return tuple(rows)


def _read(num_rows: list, m: int, order: int) -> TSeries:
    """The series whose t^n coefficient is row n read at x = q^2m.

    x^p = s^(4mp), so reading a row shifts the exponents of each Laurent
    numerator by 4mp and adds them into one integer dict, over 1.
    """
    coeffs = []
    for row in num_rows:
        acc: dict = {}
        get = acc.get
        for p, num in row:
            shift = 4 * m * p
            for e, c in num.items():
                e += shift
                acc[e] = get(e, 0) + c
        acc = {e: c for e, c in acc.items() if c}
        coeffs.append(_value(acc) if acc else ZERO)
    return TSeries(coeffs, order)


@lru_cache(maxsize=None)
def _column_value(k: int, m: int, order: int) -> TSeries:
    """(q^2m; q^-2)_k / (t q^2m; q^-2)_k expanded in t: ``_column_poly`` read at x = q^2m."""
    return _read(_column_poly(k, order), m, order)


@lru_cache(maxsize=None)
def _column_weight(k: int, m: int, order: int) -> TSeries:
    """w(k, m) = (x; r)_k (t x r^k; r)_(m-k) at x = q^2m, r = q^-2, for k <= m, truncated.

    Both factors are read off ``_poch``: (x; r)_k is the sum of its
    x-coefficients times x^j, and the t^i coefficient of the second factor
    is the y^i coefficient of (y; r)_(m-k) times (x r^k)^i.  x^j r^e is
    s^(4(mj - e)).  So w(k, m) is a polynomial of degree m - k in t with
    Laurent coefficients, and w(m, m) = (q^2m; q^-2)_m is a constant.
    """
    const: dict = {}
    for j, poly in enumerate(_poch(k)):
        const = _padd(const, _shifted({4 * (m * j - e): c for e, c in poly.items()}))
    coeffs = [
        _value(_pmul(const, _shifted({4 * ((m - k) * i - e): c for e, c in poly.items()})))
        for i, poly in enumerate(_poch(m - k)[: order + 1])
    ]
    return TSeries(coeffs + [ZERO] * (order + 1 - len(coeffs)), order)


def _image(series, M: int, order: int) -> FockOp:
    """The operator of sum_n t^n f_n over the polynomials f_n of ``series``.

    Terms are grouped by diagonal d = j - k, whose entries sit at (m + d, m).
    On a diagonal of several terms whose coefficients are all Laurent, the
    t^N coefficient of every column is one polynomial in x = q^2m:
    coefficient times ``_column_poly`` entry, summed once per power of x
    over the terms with n <= N by the integer multiply-add
    ``scalar._madd``, with no QScalar and no gcd.  Most of what the sums
    accumulate cancels, so the zero entries, and the powers of x left with
    none, are dropped once, before any column is read at its x.  Any other
    diagonal scales each term's memoized ``_column_value`` by its
    coefficient (not at all when that is one), shifts it by t^n and adds
    the terms per entry.  A term vanishes on columns m < k, so its columns
    run from k on.
    """
    diagonals: dict = {}
    for n, f in enumerate(series):
        for (j, k), c in f.terms.items():
            diagonals.setdefault(j - k, []).append((n, k, c))
    entries: dict = {}
    for d, terms in diagonals.items():
        last = min(M, M - d)
        if len(terms) > 1 and all(c.den == _ONE_P for _, _, c in terms):
            rows: list = [{} for _ in range(order + 1)]
            for n, k, c in terms:
                for row, trow in zip(rows[n:], _column_poly(k, order)):
                    for p, tnum in trow:
                        _madd(row.setdefault(p, {}), tnum, c.num)
            num_rows = []
            for row in rows:
                kept = []
                for p, acc in row.items():
                    acc = {e: c for e, c in acc.items() if c}
                    if acc:
                        kept.append((p, acc))
                num_rows.append(kept)
            for m in range(min(k for _, k, _ in terms), last + 1):
                entries[(m + d, m)] = _read(num_rows, m, order)
            continue
        for n, k, c in terms:
            unit = c.is_one()
            for m in range(k, last + 1):
                cv = _column_value(k, m, order).coeffs[: order + 1 - n]
                value = TSeries((ZERO,) * n + (cv if unit else tuple(v * c for v in cv)), order)
                _add_terms((((m + d, m), value),), entries)
    return FockOp(M, order, entries, max(diagonals, default=0))


def i_op_poly(f: NCPoly, M: int, order: int) -> FockOp:
    """Linear extension of the monomial action to any polynomial.

    The same routine as ``q_map`` with f alone at t^0: several Laurent
    terms on a diagonal are summed as one polynomial in x = q^2m before any
    column is built, and any other diagonal scales the memoized column
    values.
    """
    return _image((f,), M, order)


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

    The Laurent terms of each diagonal are summed once, over all t-orders
    of ``psi``, as polynomials in x = q^2m, and every column is read off
    the sum (``_image``).
    """
    return _image(psi.coeffs, M, psi.order)


def covariant_symbol(A: FockOp, window: int) -> WindowedSeries:
    """Recover the unique symbol coefficients of A within the window.

    The operator splits into graded shifts d = row - col.  For each shift
    the unknowns a_k = a_(k+d, k) are determined column by column: column m
    of z^(k+d) zs^k carries c(k, m) = (x; r)_k / (t x; r)_k with x = q^2m
    and r = q^-2, which vanishes for m < k, so column m introduces exactly
    one new unknown and the system is triangular.  Shifts whose window part
    is empty are skipped (their coefficients lie outside the window and are
    honestly unknown).

    Column m reads sum_(k<=m) c(k, m) a_k = A_m.  Multiplied through by
    (t x; r)_m, each c(k, m) becomes the column weight
    w(k, m) = (x; r)_k (t x r^k; r)_(m-k) (``_column_weight``), since
    (t x; r)_m / (t x; r)_k telescopes to the factors 1 - t x r^i with
    k <= i < m.  So

        w(m, m) a_m = w(0, m) A_m - sum_(k<m) w(k, m) a_k,

    one ``scalar._sum_of_products`` over the column, and w(m, m) is a
    constant polynomial in s, by which each coefficient is divided exactly
    (``scalar._div_poly``).  The sum takes the integer kernel when every
    coefficient is Laurent; a value such as 1/(1 - q) takes ``QScalar``
    arithmetic and, when w(m, m) does not divide, the general quotient.
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
        minus: list = []  # (k, -a_k) for the nonzero unknowns solved so far
        for m in range(k_min, k_max + 1):
            pairs = [(_column_weight(0, m, order), A.entry(m + d, m))]
            pairs += [(_column_weight(k, m, order), b) for k, b in minus]
            top = _column_weight(m, m, order).coeffs[0].num
            a = TSeries([_div_poly(c, top) for c in _sum_of_products(pairs, order).coeffs], order)
            if not a.is_zero():
                out[(m + d, m)] = a
                minus.append((m, -a))
    return WindowedSeries(window, order, out)


def berezin(j: int, k: int, window: int, M: int, order: int) -> WindowedSeries:
    """Symbol of zhat_star^j zhat^k within the window.

    This is the transform sending the polynomial zs^j z^k, read as a
    contravariant symbol, to the covariant symbol of its operator.
    zhat_star^j is the monomial operator i_op(0, j) and zhat^k is
    i_op(k, 0), so the operator is one product of two memoized images.
    Every entry of i_op(k, 0) is the unit series, so that product only
    re-indexes the entries of i_op(0, j) (``TSeries.__mul__`` returns the
    other factor); the solve's sums of products take the Laurent kernel.
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
