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
``i_op_poly`` group terms by diagonal j - k and sum the terms of one
diagonal once per power of x and t-order, by ``scalar._madd`` over the one
common denominator of the term coefficients.  Most of those sums cancel,
so their zero entries are dropped once per diagonal; every column is what
is left read at its x, one integer dict of shifted numerators over that
denominator, with no product.  ``scalar._canonical`` brings it to
canonical form: as it stands over 1, by one content division over a
constant, and by a gcd otherwise.  A diagonal with a single term scales
the memoized column value instead.  The operator product and the solve
run on ``TSeries.__mul__``, whose Laurent kernel is the same ``_madd``.

``covariant_symbol`` inverts the picture (unique coefficients within a
declared window): it multiplies by the numerator (t q^2m; q^-2)_k of the
closed-form column inverse and divides each coefficient exactly by its
denominator (q^2m; q^-2)_k.  The solve matches the operator on the
window's columns by construction; the ``transform-map-back`` verify law
checks the columns beyond.  ``berezin``
and ``berezin_expansion`` give the two independent routes to the symbol of
zhat_star^j zhat^k: the operator solve here, and the differential route,
which is the deformed product zs^j * z^k that ``star`` computes.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .qpoly import NCPoly, WindowedSeries, _add_terms
from .scalar import _ONE_P, ZERO, QScalar, TSeries, _canonical, _div_poly, _exponents, _madd, _padd, _pmul, _shifted
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


def _over_one_den(values: list) -> tuple:
    """Nonzero QScalars as integer numerators over one denominator: (numerators, den).

    ``den`` is the product of the distinct denominators, and each numerator
    is one product by the other denominators, so nothing is divided;
    ``_read`` cancels what the sum leaves in common.
    """
    dens: list = []
    for v in values:
        if v.den not in dens:
            dens.append(v.den)
    if len(dens) == 1:
        return [v.num for v in values], dens[0]
    cofactors = [reduce(_pmul, dens[:i] + dens[i + 1 :]) for i in range(len(dens))]
    den = _pmul(cofactors[0], dens[0])
    return [_pmul(v.num, cofactors[dens.index(v.den)]) for v in values], den


def _read(num_rows: list, den: dict, m: int, order: int) -> TSeries:
    """The series whose t^n coefficient is row n read at x = q^2m, over ``den``.

    x^p = s^(4mp), so reading a row shifts the exponents of each numerator
    by 4mp and adds them into one integer dict, and ``_canonical`` cancels
    it against ``den``.
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
        coeffs.append(_canonical({e: c for e, c in acc.items() if c}, den))
    return TSeries(coeffs, order)


@lru_cache(maxsize=None)
def _column_value(k: int, m: int, order: int) -> TSeries:
    """(q^2m; q^-2)_k / (t q^2m; q^-2)_k expanded in t: ``_column_poly`` read at x = q^2m."""
    return _read(_column_poly(k, order), _ONE_P, m, order)


@lru_cache(maxsize=None)
def _column_inverse(k: int, m: int, order: int) -> tuple:
    """1 / _column_value(k, m, order) as (P, D), for k <= m: the series P / D.

    P = (t x; r)_k truncated and D = (x; r)_k, with x = q^2m and r = q^-2,
    both read off ``_poch(k)``: the t^i coefficient of P is its x^i
    coefficient times x^i, and D is the sum of those.  x^i r^e is
    s^(4(mi - e)), with a positive exponent for i >= 1 since k <= m, so D
    is a polynomial with constant term 1, the shape of a denominator.
    Dividing by D is left to the caller, so a Laurent value over D is one
    exact division (``scalar._div_poly``).
    """
    exps = _exponents(4 * m * k)
    terms = [{exps[4 * (m * i - e)]: c for e, c in poly.items()} for i, poly in enumerate(_poch(k))]
    den: dict = {}
    for term in terms:
        den = _padd(den, term)
    coeffs = [QScalar(term, None, _canonical=True) for term in terms[: order + 1]]
    return TSeries(coeffs + [ZERO] * (order - k), order), den


def _image(series, M: int, order: int) -> FockOp:
    """The operator of sum_n t^n f_n over the polynomials f_n of ``series``.

    Terms are grouped by diagonal d = j - k, whose entries sit at (m + d, m).
    A diagonal with one term scales ``_column_value`` by its coefficient (not
    at all when that is one) and shifts it by t^n.  On a diagonal with
    several terms, the t^N coefficient of every column is one polynomial in
    x = q^2m: coefficient times ``_column_poly`` entry, summed once per power
    of x over the terms with n <= N.  The coefficients go over one common
    denominator once (``_over_one_den``), and the tables have none, so the
    sums are integer multiply-adds (``scalar._madd``) into {s-exponent: int}
    dicts, with no QScalar and no gcd.  Most of what they accumulate
    cancels, so the zero entries, and the powers of x left with none, are
    dropped once, before any column is read.  Each column is that
    polynomial read at its x, with no product.  A term vanishes on columns
    m < k, so the columns run from the smallest k of the diagonal on.
    """
    diagonals: dict = {}
    for n, f in enumerate(series):
        for (j, k), c in f.terms.items():
            diagonals.setdefault(j - k, []).append((n, k, c))
    entries = {}
    for d, terms in diagonals.items():
        last = min(M, M - d)
        if len(terms) == 1:
            ((n, k, c),) = terms
            unit = c.is_one()
            for m in range(k, last + 1):
                cv = _column_value(k, m, order).coeffs[: order + 1 - n]
                entries[(m + d, m)] = TSeries((ZERO,) * n + (cv if unit else tuple(v * c for v in cv)), order)
            continue
        nums, den = _over_one_den([c for _, _, c in terms])
        rows: list = [{} for _ in range(order + 1)]
        for (n, k, _), num in zip(terms, nums):
            for row, trow in zip(rows[n:], _column_poly(k, order)):
                for p, tnum in trow:
                    _madd(row.setdefault(p, {}), tnum, num)
        num_rows = []
        for row in rows:
            kept = []
            for p, acc in row.items():
                acc = {e: c for e, c in acc.items() if c}
                if acc:
                    kept.append((p, acc))
            num_rows.append(kept)
        for m in range(min(k for _, k, _ in terms), last + 1):
            entries[(m + d, m)] = _read(num_rows, den, m, order)
    return FockOp(M, order, entries, max(diagonals, default=0))


def i_op_poly(f: NCPoly, M: int, order: int) -> FockOp:
    """Linear extension of the monomial action to any polynomial.

    The same routine as ``q_map`` with f alone at t^0: several terms on a
    diagonal are summed as one polynomial in x = q^2m before any column is
    built, and a lone term scales the memoized column value.
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

    The terms of each diagonal are summed once, over all t-orders of
    ``psi``, as polynomials in x = q^2m, and every column is read off the
    sum (``_image``).
    """
    return _image(psi.coeffs, M, psi.order)


def covariant_symbol(A: FockOp, window: int) -> WindowedSeries:
    """Recover the unique symbol coefficients of A within the window.

    The operator splits into graded shifts d = row - col.  For each shift
    the unknowns a_(k+d, k) are determined column by column: the monomial
    action vanishes on columns below its antiholomorphic exponent, so
    column m introduces exactly one new unknown and the system is
    triangular.  Shifts whose window part is empty are skipped (their
    coefficients lie outside the window and are honestly unknown).

    The new unknown is the residual of column m times its column inverse
    P / D (``_column_inverse``): the residual times the t-polynomial P,
    then each coefficient divided by the polynomial D with one exact
    division (``scalar._div_poly``).  These products take the integer
    kernel of ``TSeries.__mul__`` when every coefficient is Laurent; a
    value such as 1/(1 - q) takes ``QScalar`` arithmetic and, when D does
    not divide, the general quotient.
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
            poly, den = _column_inverse(m, m, order)
            solved.append(TSeries([_div_poly(c, den) for c in (residual * poly).coeffs], order))
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
    Every entry of i_op(k, 0) is the unit series, so that product only
    re-indexes the entries of i_op(0, j) (``TSeries.__mul__`` returns the
    other factor); the solve's products take its Laurent kernel.
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
