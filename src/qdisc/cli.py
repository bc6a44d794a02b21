"""Command-line interface: evaluate, transform, verify, emit JSON.

Every command prints a single JSON document with a top-level
``"schema": 1`` field.  Exit codes: 0 on success, 1 when a verification
check fails, 2 on usage or expression errors and when the reader closes
stdout before the output is written; only ``--help`` prints plain text
instead, and exits 0.  The ``--latex`` flag adds a presentation-only
rendering next to the canonical text; the canonical strings are what
downstream tooling should compare.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import VERIFY_SUITES
from .expr import ParseError, parse_ncpoly, parse_scalar
from .qcalc import box, d_partial
from .qpoly import NCPoly, WindowedSeries, _mono_key
from .scalar import QScalar, eval_numeric
from .star import StarSeries, ck, pk, star

DEFAULT_T_ORDER = 4
DEFAULT_MAX_DEGREE = 2
DEFAULT_CUTOFF = 16
DEFAULT_WINDOW = 6


# -- JSON forms ---------------------------------------------------------------


def ncpoly_json(f: NCPoly) -> list:
    keys = sorted(f.terms, key=_mono_key)
    return [[[j, k], str(f.terms[(j, k)])] for j, k in keys]


def star_series_json(psi: StarSeries) -> dict:
    return {"order": psi.order, "terms": [ncpoly_json(c) for c in psi.coeffs]}


def windowed_json(w: WindowedSeries) -> dict:
    keys = sorted(w.entries, key=_mono_key)
    return {
        "window": w.window,
        "t_order": w.order,
        "entries": [[[j, k], [str(c) for c in w.entries[(j, k)].coeffs]] for j, k in keys],
    }


# -- LaTeX (presentation only) ------------------------------------------------


def latex_scalar(x: QScalar) -> str:
    def poly(p: dict) -> str:
        if not p:
            return "0"
        parts = []
        for e in sorted(p):
            c = p[e]
            neg = c < 0
            mag = -c if neg else c
            if mag.denominator == 1:
                cs = str(mag.numerator)
            else:
                cs = rf"\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
            if e == 0:
                body = cs
            else:
                var = "s" if e == 1 else f"s^{{{e}}}"
                body = var if mag == 1 else f"{cs} {var}"
            parts.append(("-" if neg else ("" if not parts else "+")) + body)
        return " ".join(parts)

    num, den = x.monic()
    text = poly(num)
    if den == {0: 1}:
        # a bare sum is bracketed, so a monomial or x^i after it multiplies all of it
        return rf"\left({text}\right)" if len(num) > 1 else text
    return rf"\frac{{{text}}}{{{poly(den)}}}"


def latex_ncpoly(f: NCPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for j, k in sorted(f.terms, key=_mono_key):
        c = f.terms[(j, k)]
        mono = ""
        if j:
            mono += "z" if j == 1 else f"z^{{{j}}}"
        if k:
            mono += r" z^{*}" if k == 1 else rf" (z^{{*}})^{{{k}}}"
        if mono and c.is_one():
            parts.append(mono.strip())
        else:
            parts.append((latex_scalar(c) + " " + mono).strip())
    return " + ".join(parts)


def latex_star_series(psi: StarSeries) -> str:
    parts = []
    for n, c in enumerate(psi.coeffs):
        if c.is_zero():
            continue
        tpow = "" if n == 0 else (" t" if n == 1 else f" t^{{{n}}}")
        parts.append(rf"\left({latex_ncpoly(c)}\right){tpow}")
    return " + ".join(parts) if parts else "0"


# -- numeric instantiation ----------------------------------------------------

_SKIP_KEYS = {"law", "statement", "warning", "suite", "failures", "error", "message"}


def _instantiate(obj, s0: Fraction):
    if isinstance(obj, str):
        x = parse_scalar(obj)
        return str(eval_numeric(x, s0))
    if isinstance(obj, list):
        return [_instantiate(v, s0) for v in obj]
    if isinstance(obj, dict):
        return {
            key: (_instantiate(v, s0) if key not in _SKIP_KEYS else v) for key, v in obj.items()
        }
    return obj


# -- command implementations ----------------------------------------------------


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r} ({exc})")


def _cmd_pk(args) -> dict:
    p = pk(args.k)
    payload = {"k": args.k, "coefficients": [str(c) for c in p]}
    if args.latex:
        payload["latex"] = " + ".join(f"{latex_scalar(c)} x^{{{i}}}" for i, c in enumerate(p) if not c.is_zero())
    return payload


def _cmd_ck(args) -> dict:
    result = ck(args.k, parse_ncpoly(args.f1), parse_ncpoly(args.f2))
    payload = {"k": args.k, "result": ncpoly_json(result)}
    if args.latex:
        payload["latex"] = latex_ncpoly(result)
    return payload


def _cmd_star(args) -> dict:
    psi = star(parse_ncpoly(args.f1), parse_ncpoly(args.f2), args.order)
    payload = star_series_json(psi)
    if args.latex:
        payload["latex"] = latex_star_series(psi)
    return payload


def _cmd_box(args) -> dict:
    result = box(parse_ncpoly(args.f))
    payload = {"result": ncpoly_json(result)}
    if args.latex:
        payload["latex"] = latex_ncpoly(result)
    return payload


def _cmd_dpartial(args) -> dict:
    result = d_partial(parse_ncpoly(args.f), args.side, args.variable)
    return {"side": args.side, "variable": args.variable, "result": ncpoly_json(result)}


def _cmd_berezin(args) -> dict:
    # the operator oracle is imported by the commands that use it only
    from .fockrep import berezin

    payload = windowed_json(berezin(args.j, args.k, args.window, args.cutoff, args.order))
    # the raise bound of zhat^k leaves columns 0..cutoff - k valid
    last_valid = args.cutoff - args.k
    if args.window - max(args.k - args.j, 0) >= last_valid:
        payload["warning"] = (
            f"window {args.window} used the last valid column {last_valid}; "
            f"raise --cutoff for headroom"
        )
    return payload


def _cmd_berezin_expand(args) -> dict:
    from .fockrep import berezin_expansion

    return {"terms": [ncpoly_json(f) for f in berezin_expansion(args.j, args.k, args.terms)]}


def _cmd_verify(args) -> dict:
    # imported here so that no other command pays for loading the suites
    from . import verify as verify_mod

    return verify_mod.run_suites(
        args.suite,
        seed=args.seed,
        max_degree=args.max_degree,
        t_order=args.t_order,
        cutoff=args.cutoff,
        window=args.window,
        eval_s0=args.eval_s0,
        assoc_samples=args.assoc_samples,
    )


def _cmd_eval(args) -> dict:
    if args.expr is not None and args.expr != "-":
        f = parse_ncpoly(args.expr)
        keys = sorted(f.terms, key=_mono_key)
        return {"s0": str(args.s0), "terms": [[[j, k], str(eval_numeric(f.terms[(j, k)], args.s0))] for j, k in keys]}
    return {"s0": str(args.s0), "instantiated": _instantiate(json.load(sys.stdin), args.s0)}


# -- argument parsing -----------------------------------------------------------


class _UsageError(Exception):
    """The command line does not match the grammar of ``build_parser``."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises its errors instead of exiting.

    Subparsers are built with the same class, so every usage error reaches
    ``main`` and becomes a JSON error object; ``--help`` still exits 0.
    """

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="qdisc",
        description="Exact computations in the quantum disc algebra and its deformation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pk", help="expansion polynomial p_k")
    p.add_argument("k", type=int)
    p.add_argument("--latex", action="store_true")
    p.set_defaults(func=_cmd_pk)

    p = sub.add_parser("ck", help="bidifferential coefficient C_k(f1, f2)")
    p.add_argument("k", type=int)
    p.add_argument("f1")
    p.add_argument("f2")
    p.add_argument("--latex", action="store_true")
    p.set_defaults(func=_cmd_ck)

    p = sub.add_parser("star", help="deformed product f1 * f2 truncated in t")
    p.add_argument("f1")
    p.add_argument("f2")
    p.add_argument("--order", type=int, default=DEFAULT_T_ORDER)
    p.add_argument("--latex", action="store_true")
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("box", help="apply the q-Laplace-Beltrami operator")
    p.add_argument("f")
    p.add_argument("--latex", action="store_true")
    p.set_defaults(func=_cmd_box)

    p = sub.add_parser("dpartial", help="apply one of the four partial derivatives")
    p.add_argument("f")
    p.add_argument("--side", choices=("left", "right"), default="right")
    p.add_argument("--variable", choices=("z", "zstar"), default="z")
    p.set_defaults(func=_cmd_dpartial)

    p = sub.add_parser("berezin", help="windowed symbol of zhat_star^j zhat^k")
    p.add_argument("j", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    p.add_argument("--order", type=int, default=DEFAULT_T_ORDER)
    p.set_defaults(func=_cmd_berezin)

    p = sub.add_parser("berezin-expand", help="differential-operator expansion terms")
    p.add_argument("j", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--terms", type=int, default=3)
    p.set_defaults(func=_cmd_berezin_expand)

    p = sub.add_parser("verify", help="run exact verification suites")
    p.add_argument("suite", nargs="+", choices=VERIFY_SUITES + ("all",))
    p.add_argument("--t-order", dest="t_order", type=int, default=DEFAULT_T_ORDER)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=DEFAULT_MAX_DEGREE)
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-s0", dest="eval_s0", type=_fraction, default=None)
    p.add_argument("--assoc-samples", dest="assoc_samples", type=int, default=10000)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="instantiate s numerically in an expression or JSON on stdin")
    p.add_argument("expr", nargs="?", default=None)
    p.add_argument("--s0", type=_fraction, required=True)
    p.set_defaults(func=_cmd_eval)

    return ap


# numeric arguments that must be >= 0, with the name the user typed
_NONNEGATIVE = {
    "j": "j",
    "k": "k",
    "order": "--order",
    "window": "--window",
    "cutoff": "--cutoff",
    "terms": "--terms",
    "t_order": "--t-order",
    "max_degree": "--max-degree",
    "assoc_samples": "--assoc-samples",
}


def _check_nonnegative(args) -> None:
    for attr, name in _NONNEGATIVE.items():
        value = getattr(args, attr, None)
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: devnull keeps the interpreter's last flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


def _error(exc: Exception) -> dict:
    """The JSON error object of an exception that ends a command."""
    if isinstance(exc, _UsageError):
        return {"type": "usage", "message": str(exc)}
    if isinstance(exc, ParseError):
        return {"type": "parse", "message": str(exc), "position": exc.position}
    if isinstance(exc, (MemoryError, RecursionError)):
        # an input too large for this process; the work's frames are gone by now
        return {"type": type(exc).__name__, "message": str(exc) or "the computation ran out of memory"}
    return {"type": type(exc).__name__, "message": str(exc)}


def _run(argv) -> int:
    """Run one command and emit its one document; the exit code is 2 on an
    error, 1 when the payload reports ``passed: false``, and 0 otherwise."""
    try:
        args = build_parser().parse_args(argv)
        _check_nonnegative(args)
        payload = args.func(args)
    except SystemExit:
        # only --help exits here, after printing its text
        return 0
    # EvalError and fockrep.InsufficientCutoffError are ValueErrors, as ParseError is
    except (_UsageError, ValueError, ZeroDivisionError, MemoryError, RecursionError) as exc:
        _emit({"schema": 1, "error": _error(exc)})
        return 2
    _emit({"schema": 1, **payload})
    return 0 if payload.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
