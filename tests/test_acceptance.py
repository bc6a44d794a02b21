"""Acceptance gate: every exit criterion at its stated scale and budget.

Each test prints one line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.  All equalities are exact (coefficients in Q(s)); the time
budgets are asserted, not just reported.

Eight criteria read the records of the ``verify`` suite that states their
laws: the criterion asserts that each law passed on exactly its case count.
Every suite runs once, at the scale below; its wall time is held to the
smallest budget of the criteria it serves.
"""

import time
from fractions import Fraction
from functools import cache

from qdisc import NCPoly
from qdisc.verify import _deformation_terms, run_suites

SEED = 20260810
M_CUTOFF = 16
T_ORDER = 3
# star serves criteria 2 (5 s) and 4 (120 s); oracle serves 3 (180 s) and 9 (30 s)
BUDGETS = {"rewrite": 60, "star": 5, "oracle": 30, "berezin": 120, "calculus": 30, "uq": 180}


def _elapsed_line(n: int, desc: str, dt: float, budget: float) -> None:
    print(f"criterion {n} [{desc}]: PASS in {dt:.2f}s (budget {budget:.0f}s)")
    assert dt < budget, f"criterion {n} exceeded its {budget}s budget ({dt:.2f}s)"


@cache
def _suite(name: str) -> tuple:
    """The records of one verify suite and the wall time of its single run."""
    t0 = time.monotonic()
    report = run_suites(
        [name],
        seed=SEED,
        max_degree=2,
        t_order=T_ORDER,
        cutoff=M_CUTOFF,
        window=6,
        eval_s0=Fraction(7, 10),
        assoc_samples=10_000,
    )
    return report["suites"][name], time.monotonic() - t0


def _criterion(n: int, desc: str, suite: str, want: list) -> None:
    """Assert that the laws in ``want``, (law, cases) in report order, all passed."""
    records, dt = _suite(suite)
    laws = {law for law, _ in want}
    got = [(rec["law"], rec["cases"], rec["passed"]) for rec in records if rec["law"] in laws]
    assert got == [(law, cases, True) for law, cases in want]
    _elapsed_line(n, desc, dt, BUDGETS[suite])


def test_criterion_1_rewriting_soundness():
    _criterion(
        1,
        "rewriting associativity, 10^4 sampled triples",
        "rewrite",
        [("product-associativity", 10_000)],
    )


def test_criterion_2_pk_suite():
    _criterion(2, "expansion polynomials p_0..p_8", "star", [("pk-shape", 11)])


def test_criterion_3_representation_oracle():
    _criterion(
        3,
        "operator homomorphism, all pairs with exponents <= 2",
        "oracle",
        [("representation-homomorphism", 81)],
    )


def test_criterion_4_associativity_and_involution():
    _criterion(
        4,
        "series associativity (729 triples) and involution (100 pairs)",
        "star",
        [("series-associativity", 729), ("series-involution", 100)],
    )


def test_criterion_5_holomorphic_triviality():
    t0 = time.monotonic()
    for i in range(4):
        for a in range(4):
            for b in range(4 - a):
                # C_k through box_tilde on the whole tensor, not star's sector skip
                terms = _deformation_terms(NCPoly.monomial(i, 0), NCPoly.monomial(a, b), 4)
                assert all(c.is_zero() for c in terms), (i, a, b)
    _elapsed_line(5, "no deformation terms for holomorphic left factors", time.monotonic() - t0, 10)


def test_criterion_6_transform_agreement():
    _criterion(
        6,
        "symbol transform matches its differential expansion",
        "berezin",
        [("transform-asymptotic-expansion", 16)],
    )


def test_criterion_7_calculus_identity():
    _criterion(
        7,
        "box factorization and two-form agreement",
        "calculus",
        [("box-two-forms", 25), ("box-factorization", 16)],
    )


def test_criterion_8_symmetry_suite():
    _criterion(
        8,
        "quantized symmetry: relations and four compatibility grids",
        "uq",
        [("uq-relation", 15)] * 7
        + [
            ("uq-module-algebra", 144),
            ("uq-box-equivariance", 60),
            ("uq-star-equivariance", 144),
            ("uq-involution-compatibility", 24),
        ],
    )


def test_criterion_9_numeric_spot_check():
    _criterion(
        9,
        "numeric spot-check of the homomorphism residuals",
        "oracle",
        [("numeric-spot-check", 4752)],
    )
