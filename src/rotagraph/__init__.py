"""Exact-arithmetic toolkit for unit-distance graphs on the projective
plane over the real algebraic numbers, plus a finite-group companion for
fixed-point counting arguments.

The names of `__all__` are the `algebraic` kernel's, looked up there on
first use through a module ``__getattr__``, so ``import rotagraph``
alone loads no kernel: a finite-group call needs none."""

__all__ = [
    "AlgReal", "LESS", "EQUAL", "GREATER",
    "add", "sub", "mul", "div", "neg", "compare", "sqrt_nonneg",
    "real_roots", "chebyshev_T", "is_rational_angle", "to_float",
]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import algebraic
    return getattr(algebraic, name)
