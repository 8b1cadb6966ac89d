"""Exact-arithmetic toolkit for unit-distance graphs on the projective
plane over the real algebraic numbers, plus a finite-group companion for
fixed-point counting arguments."""

from .algebraic import (
    AlgReal,
    LESS,
    EQUAL,
    GREATER,
    add,
    sub,
    mul,
    div,
    neg,
    compare,
    sqrt_nonneg,
    real_roots,
    chebyshev_T,
    is_rational_angle,
    to_float,
)

__all__ = [
    "AlgReal", "LESS", "EQUAL", "GREATER",
    "add", "sub", "mul", "div", "neg", "compare", "sqrt_nonneg",
    "real_roots", "chebyshev_T", "is_rational_angle", "to_float",
]
