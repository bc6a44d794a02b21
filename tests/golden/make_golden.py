"""Record the CLI golden corpus checked by ``tests/test_golden.py``.

Run from the repository root with the checkout whose output is the
reference::

    PYTHONPATH=src python tests/golden/make_golden.py

It runs every case in ``CASES`` through ``qdisc.cli.main`` in this process
and writes the exact stdout text, with the exit code, to
``tests/golden/corpus.json``.  Re-recording is only right when a change
to the canonical output is intended.
"""

from __future__ import annotations

import io
import json
import pathlib
import sys
from contextlib import redirect_stdout

from qdisc.cli import main

HERE = pathlib.Path(__file__).resolve().parent

# (name, argv, stdin text or None).  Inputs with denominators make the
# scalar core reduce rational functions; "2 - 3*q" and "1/2" put a
# non-unit leading coefficient and a non-integral coefficient into play.
# mixed exponents, a denominator and a non-integral coefficient for the
# four partial derivatives
DPARTIAL_POLY = "1/2*z^3*zs^2 + z^2*zs^3/(1-q) - q*z^4 + 3*zs^5 + z*zs"

CASES = [
    ("star-T3-den", ["star", "zs^2/(1-q)", "z*zs", "--order", "3"], None),
    ("star-T4-den", ["star", "zs/(1+q) + z", "z^2/(1-q^2)", "--order", "4"], None),
    ("star-T5-den", ["star", "zs*z/(1-q)", "z - q*zs", "--order", "5"], None),
    ("star-T5-mixed", ["star", "z^2*zs^2/(1-q^3)", "z^2*zs - 2*z", "--order", "5"], None),
    ("star-T3-frac", ["star", "zs/(2 - 3*q)", "z + 1/2*zs", "--order", "3"], None),
    ("star-T3-latex", ["star", "zs^2/(1-q)", "z/(2-3*q)", "--order", "3", "--latex"], None),
    ("ck-2", ["ck", "2", "zs^2/(1+q)", "z^2 - zs"], None),
    ("ck-1-latex", ["ck", "1", "1/2*zs", "z/(1-q)", "--latex"], None),
    ("pk-6", ["pk", "6"], None),
    ("pk-6-latex", ["pk", "6", "--latex"], None),
    ("box-latex", ["box", "zs^2*z/(1-q) + 1/3*z", "--latex"], None),
    ("dpartial-right-z", ["dpartial", DPARTIAL_POLY, "--side", "right", "--variable", "z"], None),
    ("dpartial-right-zstar", ["dpartial", DPARTIAL_POLY, "--side", "right", "--variable", "zstar"], None),
    ("dpartial-left-z", ["dpartial", DPARTIAL_POLY, "--side", "left", "--variable", "z"], None),
    ("dpartial-left-zstar", ["dpartial", DPARTIAL_POLY, "--side", "left", "--variable", "zstar"], None),
    ("berezin", ["berezin", "2", "1", "--window", "4", "--cutoff", "9", "--order", "3"], None),
    ("berezin-expand", ["berezin-expand", "2", "1", "--terms", "4"], None),
    # high orders: long p_k chains on a sector with b, c > 1
    ("star-T8-high", ["star", "z^2*zs^2", "z^2*zs^2", "--order", "8"], None),
    ("pk-12", ["pk", "12"], None),
    ("ck-6-den", ["ck", "6", "zs^3/(1-q)", "z^2"], None),
    ("berezin-expand-T6", ["berezin-expand", "2", "2", "--terms", "6"], None),
    # a long sector chain, and an expansion with j != k past the default window
    ("star-T12-high", ["star", "z^2*zs^2", "z^2*zs^2", "--order", "12"], None),
    ("berezin-expand-3-1-T8", ["berezin-expand", "3", "1", "--terms", "8"], None),
    # products of large blocks zs^b z^c, normal-ordered at the parse
    ("box-block-7-9", ["box", "zs^7*z^9"], None),
    ("star-blocks-T3", ["star", "zs^5*z^4", "zs^3*z^6", "--order", "3"], None),
    # the oracle paths at the sizes the oracle benchmark session uses
    ("verify-oracle-T4", ["verify", "oracle", "--t-order", "4"], None),
    ("berezin-oracle-size", ["berezin", "2", "2", "--window", "6", "--cutoff", "16", "--order", "3"], None),
    # a window that reaches the last valid column warns; with the cutoff
    # one lower that column is invalid, and the error is structured
    ("berezin-cutoff-warn", ["berezin", "1", "2", "--window", "6", "--cutoff", "7", "--order", "3"], None),
    ("berezin-cutoff-error", ["berezin", "1", "2", "--window", "6", "--cutoff", "6", "--order", "3"], None),
    # a longer sector chain, and p_k whose coefficients are not Laurent
    # polynomials, so each step of the recurrence divides inexactly
    ("star-T16-high", ["star", "z^2*zs^2", "z^2*zs^2", "--order", "16"], None),
    ("pk-14", ["pk", "14"], None),
    ("eval-expr", ["eval", "zs/(2-3*q) + z^2*(1+s)", "--s0", "3/7"], None),
    # the rational boundary of Q(s): integer content that cancels, a
    # denominator with a negative non-unit leading coefficient, and a
    # rational inside a divisor
    ("star-T3-rational-latex", ["star", "zs/(4 - 6*q)", "2/3*z + zs/(1/2 - q)", "--order", "3", "--latex"], None),
    ("ck-1-negative-lead-latex", ["ck", "1", "3/4*zs^2", "z/(5*q^2 - 10)", "--latex"], None),
    ("eval-rational", ["eval", "zs/(4 - 6*q) + 2/4*z", "--s0", "2/5"], None),
    (
        "eval-stdin",
        ["eval", "--s0", "5/3"],
        json.dumps({"terms": [[[[0, 1], "(1 - s^2)/(2 - 3*s^4)"], [[1, 0], "1/2*s"]]]}),
    ),
    # monomial denominators with a non-unit coefficient (7 s^2 and 2 s^6)
    # next to 1 - q, and the covariant solve at a fifth t-order
    (
        "star-T5-monomial-dens",
        ["star", "(1/(1-q))*z*zs + 3/7*z^2*zs/q", "1/2*zs^2*z/q^3 + zs", "--order", "5"],
        None,
    ),
    ("verify-berezin-T5", ["verify", "berezin", "--t-order", "5"], None),
    # every law's report text: the four suites the cases above leave out,
    # and all six at small arguments with the numeric spot-check
    ("verify-laws-seed0", ["verify", "rewrite", "calculus", "star", "uq", "--seed", "0"], None),
    (
        "verify-all-small",
        [
            "verify", "all", "--seed", "3", "--t-order", "2", "--max-degree", "1", "--cutoff", "10",
            "--window", "4", "--eval-s0", "7/10", "--assoc-samples", "300",
        ],
        None,
    ),
    # the box stencil cancels the z*zs term outright, and star adds the
    # shifted sector terms of different term pairs into the same keys,
    # one of them with a coefficient that is not a Laurent polynomial
    ("box-cancel", ["box", "z*zs + 1/(1+q^2)*z^2*zs^2"], None),
    ("star-T4-collide", ["star", "zs + z*zs^2", "z - 1/(1-q)*z^2*zs", "--order", "4"], None),
]


def run_case(argv, stdin_text):
    buf = io.StringIO()
    old = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(buf):
            code = main(list(argv))
    finally:
        sys.stdin = old
    return code, buf.getvalue()


if __name__ == "__main__":
    corpus = []
    for name, argv, stdin_text in CASES:
        code, out = run_case(argv, stdin_text)
        corpus.append({"name": name, "argv": argv, "stdin": stdin_text, "exit": code, "stdout": out})
    (HERE / "corpus.json").write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(corpus)} cases")
