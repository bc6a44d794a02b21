"""qdisc: exact deformation of the quantum disc algebra.

The package computes, over the exact coefficient field Q(s) with q = s^2,
the normal-ordered product of the quantum disc, its first-order calculus,
the bidifferential expansion coefficients of the deformed product, the
operator realization on weighted holomorphic polynomials that certifies
those coefficients, the symbol transform with its asymptotic expansion,
and the quantized sl2 symmetry of the whole structure.  Every identity is
checked by exact equality; see the ``verify`` suites and the CLI.
"""

import importlib
import sys

from .scalar import ONE, Q, QScalar, S, TSeries, ZERO, eval_numeric
from .qpoly import (
    NCPoly,
    TensorPoly,
    WindowError,
    WindowedSeries,
    Z,
    ZS,
    nc_mul,
    nc_mul_left_z_power,
    nc_mul_right_zstar_power,
    tensor_mul,
)
from .qcalc import box, box_tilde, d_partial, m0
from .star import StarSeries, ck, m_series, pk, series_involution, star
from .expr import EvalError, ParseError, parse, parse_ncpoly, parse_scalar, to_ncpoly

# the operator oracle and the U_q(sl2) symmetry load on first use (PEP 562),
# so that commands such as ``qdisc star`` do not import them
_LAZY = {
    **dict.fromkeys(
        (
            "FockOp",
            "InsufficientCutoffError",
            "ValidityError",
            "berezin",
            "berezin_expansion",
            "covariant_symbol",
            "i_op",
            "i_op_poly",
            "q_map",
            "zhat",
            "zhat_star",
        ),
        "fockrep",
    ),
    **dict.fromkeys(
        (
            "E",
            "F",
            "GENERATORS",
            "K",
            "KINV",
            "act",
            "act_series",
            "act_word",
            "check_box_equivariance",
            "check_involution_compat",
            "check_module_algebra",
            "check_star_equivariance",
        ),
        "uqsl2",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def clear_caches() -> None:
    """Empty every memo of the package, so that a long-lived process can give its memory back.

    The normal-ordering blocks (both orientations), the p_k chain and its
    memo, the sector chains and their memo, the shared exponents and the
    text of the powers of s, and the memos of the operator oracle and the
    U_q(sl2) action when those modules are loaded.  Every result after a
    clear equals the one before it; only the time to recompute it changes.
    """
    from .qpoly import _normal_block
    from .scalar import _EXPONENTS, _S_TEXT
    from .star import _SECTORS, _X_IMAGES, _ck_mono

    _normal_block.cache_clear()
    _EXPONENTS.clear()
    _S_TEXT.clear()
    pk.cache_clear()
    del _X_IMAGES[1:]  # p_0 = 1 starts the chain
    _ck_mono.cache_clear()
    _SECTORS.clear()
    uq = sys.modules.get(f"{__name__}.uqsl2")
    if uq is not None:
        uq._act_mono.cache_clear()
    fock = sys.modules.get(f"{__name__}.fockrep")
    if fock is not None:
        for memo in (fock.i_op, fock._poch, fock._column_poly, fock._column_value, fock._column_weight):
            memo.cache_clear()


__version__ = "0.1.0"

# the suites of ``qdisc.verify``, named here so that the CLI parser can list
# them without importing that module
VERIFY_SUITES = ("rewrite", "calculus", "star", "oracle", "berezin", "uq")

__all__ = [
    "QScalar",
    "TSeries",
    "ZERO",
    "ONE",
    "S",
    "Q",
    "eval_numeric",
    "NCPoly",
    "TensorPoly",
    "WindowedSeries",
    "WindowError",
    "Z",
    "ZS",
    "nc_mul",
    "nc_mul_left_z_power",
    "nc_mul_right_zstar_power",
    "tensor_mul",
    "d_partial",
    "box",
    "box_tilde",
    "m0",
    "pk",
    "ck",
    "star",
    "StarSeries",
    "m_series",
    "series_involution",
    *_LAZY,
    "parse",
    "to_ncpoly",
    "parse_ncpoly",
    "parse_scalar",
    "ParseError",
    "EvalError",
    "clear_caches",
    "VERIFY_SUITES",
    "__version__",
]
