"""Seeded inputs and operations of the qdisc benchmark workloads.

A workload's inputs are a pool of op specs built from (workload, seed) only;
op n of a run uses ``pool[n % len(pool)]``.  Every op checks an exact law
and returns the canonical text of its result; the harness hashes that text
and compares the digest with the reference recorded for the seed.

cli-star specs hold (c, i, j, k) terms for c q^i z^j zs^k, which become
CLI arguments; the sessions' specs hold NCPoly values built at set-up.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import re
import time

from qdisc import GENERATORS, NCPoly, QScalar, TensorPoly
from qdisc import berezin, berezin_expansion, box, box_tilde, d_partial, m0, nc_mul
from qdisc import check_box_equivariance, check_module_algebra, i_op_poly, q_map, star

WORKLOADS = ("cli-star", "oracle-session", "algebra-session")

# oracle-session sizes: basis cutoff, symbol window and t-order of the
# verify oracle and berezin suites at their defaults
ORACLE_M = 16
ORACLE_WINDOW = 6
ORACLE_T = 3

# cli-star: every call has exactly one term pair on which the deformation
# acts, z^a zs^k1 (x) z^j2 zs^d with (k1, j2) from this list; the other terms
# are holomorphic in f1 and antiholomorphic in f2, where every C_k vanishes.
# Fixing the active pairs per cycle keeps the cost of a run the same across
# seeds; active exponents above 2 make a T = 5 call take over a second, too
# slow for 100 calls in a run.  (k1, j2, terms of f1, terms of f2)
CLI_PROFILES = ((1, 1, 1, 3), (1, 2, 2, 2), (2, 1, 3, 1))
CLI_ORDERS = (3, 4, 5)
CLI_CYCLES = 15

ORACLE_CYCLES = 20
ALGEBRA_ROUNDS = 240
ALGEBRA_BIG_EXP = 22
ALGEBRA_BLOCK = 24


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"qdisc-bench:{workload}:{seed}")


def digest(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()[:16]


_S_EXP = re.compile(r"(?<![a-z])s(?:\^(\d+))?(?![a-z^])")


def max_s_degree(text: str) -> int:
    """Largest power of s written in canonical coefficient text."""
    return max((int(e) if e else 1 for e in _S_EXP.findall(text)), default=0)


def memo_info(module: str, name: str):
    """cache_info() of a memoized qdisc function, or None once it is gone."""
    fn = getattr(importlib.import_module(module), name, None)
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return {"hits": ci.hits, "misses": ci.misses, "currsize": ci.currsize}


MEMOS = (
    ("qdisc.star", "pk"),
    ("qdisc.fockrep", "i_op"),
    ("qdisc.star", "_ck_mono"),
    ("qdisc.qpoly", "_normal_block"),
)


def all_memo_info() -> dict:
    return {name: memo_info(module, name) for module, name in MEMOS}


# -- tracing --------------------------------------------------------------------


class Tracer:
    """Spans around the benchmark's calls into qdisc.

    A span is [name, start, end, parent, op]; ``parent`` indexes ``spans``
    (-1 for none).  Spans stay in memory until the run ends.  A disabled
    tracer calls straight through.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.op = -1
        self._open = -1

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        rec = [name, 0.0, 0.0, self._open, self.op]
        outer = self._open
        self._open = len(self.spans)
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            rec[2] = time.perf_counter()
            self._open = outer

    def begin_op(self, n: int) -> None:
        self.op = n
        if self.enabled:
            self._open = len(self.spans)
            self.spans.append(["op", time.perf_counter(), 0.0, -1, n])

    def end_op(self) -> None:
        if self.enabled:
            self.spans[self._open][2] = time.perf_counter()
            self._open = -1


# -- input generation -------------------------------------------------------------


def _coeff(rng: random.Random) -> tuple:
    return rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(0, 2)


def _monomials(rng: random.Random, nterms: int, max_exp: int) -> list:
    """1..nterms distinct (j, k) with exponents <= max_exp."""
    draws = rng.randint(1, nterms)
    return list(dict.fromkeys((rng.randint(0, max_exp), rng.randint(0, max_exp)) for _ in range(draws)))


def _poly(rng: random.Random, keys) -> NCPoly:
    return ncpoly(tuple((*_coeff(rng), j, k) for j, k in keys))


def ncpoly(terms) -> NCPoly:
    out = NCPoly.zero()
    for c, i, j, k in terms:
        out = out + NCPoly.monomial(j, k, QScalar.from_int(c) * QScalar.q_power(i))
    return out


def poly_text(terms) -> str:
    """CLI expression for the terms; a leading minus is bracketed so that
    argv does not read it as an option."""
    parts = []
    for c, i, j, k in terms:
        factors = [f"({c})" if c < 0 and not parts else str(abs(c))]
        if i:
            factors.append("q" if i == 1 else f"q^{i}")
        if j:
            factors.append("z" if j == 1 else f"z^{j}")
        if k:
            factors.append("zs" if k == 1 else f"zs^{k}")
        body = "*".join(factors)
        parts.append(body if not parts else ("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def _cli_pair(rng: random.Random, profile: tuple) -> tuple:
    k1, j2, n1, n2 = profile
    f1 = [(*_coeff(rng), rng.randint(0, 3), k1)]
    for a in rng.sample(range(4), n1 - 1):
        f1.append((*_coeff(rng), a, 0))
    f2 = [(*_coeff(rng), j2, rng.randint(0, 3))]
    for d in rng.sample(range(4), n2 - 1):
        f2.append((*_coeff(rng), 0, d))
    rng.shuffle(f1)
    rng.shuffle(f2)
    return tuple(f1), tuple(f2)


def cli_pool(seed: int) -> list:
    """(f1 terms, f2 terms, T); T cycles 3, 4, 5 and each cycle visits every profile."""
    rng = rng_for("cli-star", seed)
    pool = []
    for _ in range(CLI_CYCLES):
        for profile in rng.sample(CLI_PROFILES, len(CLI_PROFILES)):
            for T in CLI_ORDERS:
                pool.append((*_cli_pair(rng, profile), T))
    return pool


def oracle_pool(seed: int) -> list:
    """Certifications of unit monomial pairs, as in the oracle suite,
    alternating with transform checks.

    A certification of z^a zs^b with z^c zs^d costs little unless both b
    and c are nonzero, and its cost also grows with a and d.  Cycle n pairs
    the i-th inner (b, c) with the (i + n)-th outer (a, d), so every nine
    cycles cover the 81 pairs once whatever the seed; the seed orders the
    certifications and the nine transforms (j, k) <= 2 within each cycle.
    """
    rng = rng_for("oracle-session", seed)
    grid = [(j, k) for j in range(3) for k in range(3)]
    pool = []
    for n in range(ORACLE_CYCLES):
        pairs = [(grid[(i + n) % 9], grid[i]) for i in range(9)]
        for ((a, d), (b, c)), (j, k) in zip(rng.sample(pairs, 9), rng.sample(grid, 9)):
            pool.append(("certify", NCPoly.monomial(a, b), NCPoly.monomial(c, d)))
            pool.append(("transform", j, k))
    return pool


def algebra_pool(seed: int) -> list:
    """Rounds of six ops in a fixed order, so the mix is the same in every run.

    The cost of an op depends on its exponents far more than on its
    coefficients, so the exponents of every round come from one stream that
    does not depend on the seed, and every run does the same sizes of work.
    The seed draws the coefficients and orders the rounds within each block.
    """
    shapes = random.Random("qdisc-bench:algebra-session:shapes")
    rounds = []
    for n in range(ALGEBRA_ROUNDS):
        j = shapes.randint(0, 4)
        rounds.append(
            (
                GENERATORS[n % len(GENERATORS)],
                [_monomials(shapes, 3, 4) for _ in range(3)],
                [shapes.randint(0, ALGEBRA_BIG_EXP) for _ in range(4)],
                (shapes.randint(0, 3), shapes.randint(0, 3)),
                _monomials(shapes, 3, 3),
                [_monomials(shapes, 2, 1) for _ in range(2)],
                (j, shapes.randint(0, 4 - j)),
            )
        )
    rng = rng_for("algebra-session", seed)
    pool = []
    for start in range(0, ALGEBRA_ROUNDS, ALGEBRA_BLOCK):
        for n in rng.sample(range(start, start + ALGEBRA_BLOCK), ALGEBRA_BLOCK):
            g, assoc, (a, b, c, d), (pa, pb), forms, uq_pair, uq_mono = rounds[n]
            pool += [
                ("assoc", *(_poly(rng, keys) for keys in assoc)),
                ("big", _poly(rng, [(a, b)]), _poly(rng, [(c, d)])),
                ("box-factor", _poly(rng, [(0, pb)]), _poly(rng, [(pa, 0)])),
                ("box-forms", _poly(rng, forms)),
                ("uq-module", g, *(_poly(rng, keys) for keys in uq_pair)),
                ("uq-box", g, _poly(rng, [uq_mono])),
            ]
    return pool


def pool(workload: str, seed: int) -> list:
    return {"cli-star": cli_pool, "oracle-session": oracle_pool, "algebra-session": algebra_pool}[
        workload
    ](seed)


# -- session ops --------------------------------------------------------------------


class OpFailure(Exception):
    """An exact law came out false."""


def law(ok: bool, what: str) -> None:
    if not ok:
        raise OpFailure(what)


def canon_windowed(w) -> str:
    keys = sorted(w.entries, key=lambda jk: (jk[0] + jk[1], jk[0]))
    return "; ".join(f"{j},{k}: " + " | ".join(str(c) for c in w.entries[(j, k)].coeffs) for j, k in keys)


class Session:
    """Runs session ops, counting what the per-layer metrics need."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.out_terms = 0
        self.out_max_deg = 0
        self.nnz_max = 0
        # q^2 (1 - z zs)^2, the right-hand weight of the second form of box
        w = NCPoly.one() - NCPoly.monomial(1, 1)
        self._q2_w2 = nc_mul(w, w).scale(QScalar.q_power(2))

    def _text(self, fn, *args) -> str:
        text = self.tr.call("scalar.str", fn, *args)
        self.out_max_deg = max(self.out_max_deg, max_s_degree(text))
        return text

    def _nnz(self, op) -> None:
        entries = getattr(op, "entries", None)
        if entries is not None:
            self.nnz_max = max(self.nnz_max, len(entries))

    def run(self, spec) -> str:
        return getattr(self, "_" + spec[0].replace("-", "_"))(*spec[1:])

    def warm_up(self, pool: list) -> None:
        """Fill the memo caches that oracle-session ops read, before timing.

        A session pays its cold memos once, so this is set-up: star once on
        every distinct certification pair, and i_op_poly on every monomial
        that q_map, i_op_poly and berezin meet.  Left cold, a pair's first
        certification costs up to twice a later one, and the share of first
        visits in a timed run would vary with the speed of the machine.
        algebra-session ops are not warmed.
        """
        pairs = {}
        monomials = set()
        for spec in pool:
            if spec[0] == "certify":
                pairs.setdefault((str(spec[1]), str(spec[2])), spec[1:])
            elif spec[0] == "transform":
                monomials.add(spec[1:])
        for f1, f2 in pairs.values():
            for f in (f1, f2, *star(f1, f2, ORACLE_T).coeffs):
                monomials.update(f.terms)
        for j, k in sorted(monomials):
            i_op_poly(NCPoly.monomial(j, k), ORACLE_M, ORACLE_T)

    # oracle-session

    def _certify(self, f1, f2) -> str:
        call = self.tr.call
        psi = call("star.star", star, f1, f2, ORACLE_T)
        lhs = call("fockrep.q_map", q_map, psi, ORACLE_M)
        a = call("fockrep.i_op_poly", i_op_poly, f1, ORACLE_M, ORACLE_T)
        b = call("fockrep.i_op_poly", i_op_poly, f2, ORACLE_M, ORACLE_T)
        rhs = call("fockrep.op_mul", a.__mul__, b)
        law(call("fockrep.equal", lhs.equal_on_valid, rhs), "q_map(f1 * f2) != i_op(f1) i_op(f2)")
        self._nnz(lhs)
        self._nnz(rhs)
        self.out_terms += sum(len(c.terms) for c in psi.coeffs)
        return self._text(str, psi)

    def _transform(self, j, k) -> str:
        call = self.tr.call
        w = call("fockrep.berezin", berezin, j, k, ORACLE_WINDOW, ORACLE_M, ORACLE_T)
        terms = call("fockrep.berezin_expansion", berezin_expansion, j, k, ORACLE_T)
        for n in range(ORACLE_T + 1):
            got = call("qpoly.t_coefficient", w.t_coefficient, n)
            law(call("qpoly.eq", got.__eq__, terms[n]), f"berezin({j},{k}) t^{n} != expansion")
        return self._text(canon_windowed, w)

    # algebra-session

    def _assoc(self, f, g, h) -> str:
        call = self.tr.call
        left = call("qpoly.nc_mul", nc_mul, call("qpoly.nc_mul", nc_mul, f, g), h)
        right = call("qpoly.nc_mul", nc_mul, f, call("qpoly.nc_mul", nc_mul, g, h))
        law(call("qpoly.eq", left.__eq__, right), "(f g) h != f (g h)")
        return self._text(str, left)

    def _big(self, f, g) -> str:
        call = self.tr.call
        fg = call("qpoly.nc_mul", nc_mul, f, g)
        lhs = call("qpoly.involution", fg.involution)
        rhs = call(
            "qpoly.nc_mul",
            nc_mul,
            call("qpoly.involution", g.involution),
            call("qpoly.involution", f.involution),
        )
        law(call("qpoly.eq", lhs.__eq__, rhs), "(f g)* != g* f*")
        return self._text(str, fg)

    def _box_factor(self, f2, f1) -> str:
        call = self.tr.call
        lhs = call("qcalc.box", box, call("qpoly.nc_mul", nc_mul, f2, f1))
        F = call("qpoly.from_polys", TensorPoly.from_polys, f2, f1)
        rhs = call("qcalc.m0", m0, call("qcalc.box_tilde", box_tilde, F))
        law(call("qpoly.eq", lhs.__eq__, rhs), "box(f2 f1) != m0(box_tilde(f2 (x) f1))")
        return self._text(str, lhs)

    def _box_forms(self, f) -> str:
        call = self.tr.call
        got = call("qcalc.box", box, f)
        inner = call("qcalc.d_partial", d_partial, f, "right", "z")
        outer = call("qcalc.d_partial", d_partial, inner, "right", "zstar")
        right = call("qpoly.nc_mul", nc_mul, outer, self._q2_w2)
        law(call("qpoly.eq", got.__eq__, right), "box(f) != q^2 d_zs^r d_z^r f (1 - z zs)^2")
        return self._text(str, got)

    def _uq_module(self, g, f1, f2) -> str:
        ok = self.tr.call("uqsl2.check", check_module_algebra, g, f1, f2)
        law(ok, f"{g} is not a module-algebra map on ({f1}, {f2})")
        return f"{g}; {f1}; {f2}; module-algebra"

    def _uq_box(self, g, f) -> str:
        ok = self.tr.call("uqsl2.check", check_box_equivariance, g, f)
        law(ok, f"{g} does not commute with box on {f}")
        return f"{g}; {f}; box-equivariant"
