"""Error types shared across the library, `ascii_int`, the reader of the
CLI's int flags, `read_int`, the one reader of integer literals, which
raises one of them, and `brief`, which names a rejected input in a detail
of bounded length.

Every domain error carries a short stable ``code`` so the CLI can map it
to a machine-readable JSON error object.  This module imports no layer, so
the finite-group commands read their input with no kernel loaded.
"""

import re


class RotagraphError(Exception):
    """Base class for all domain errors raised by this library."""

    code = "error"

    def __init__(self, detail=""):
        super().__init__(detail or self.code)
        self.detail = detail or self.code


class DivisionByZeroError(RotagraphError):
    code = "division-by-zero"


class OutOfRangeError(RotagraphError):
    code = "out-of-range"


class ZeroPolynomialError(RotagraphError):
    code = "zero-polynomial"


class ZeroVectorError(RotagraphError):
    code = "zero-vector"


class InfeasibleError(RotagraphError):
    code = "infeasible"


class PreconditionError(RotagraphError):
    code = "precondition"


class BoundExceededError(RotagraphError):
    code = "bound-exceeded"


class SearchExhaustedError(RotagraphError):
    code = "search-exhausted"


class InternalConsistencyError(RotagraphError):
    """A condition that is mathematically guaranteed failed to hold."""

    code = "internal-inconsistency"


class ParseError(RotagraphError):
    code = "parse-error"


def ascii_int(text):
    """int(text) for ASCII text, the reader of the CLI's int flags;
    ValueError for other text, whose digits of other scripts int() reads."""
    if not text.isascii():
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def read_int(text):
    """ascii_int(text), for the integer literals of expressions, JSON, cycle
    notation and coefficient lists; BoundExceededError for a well-formed
    literal past Python's limit on the digits of a string converted to an
    int (where int() raises ValueError, as it does for a malformed one)."""
    try:
        return ascii_int(text)
    except ValueError:
        if not re.fullmatch(r"\s*[+-]?[0-9]+(_[0-9]+)*\s*", text):
            raise
        digits = sum(c.isdigit() for c in text)
        raise BoundExceededError(
            f"an integer of {digits} digits is too long to read") from None


#: the longest repr that `brief` keeps verbatim
BRIEF_CHARS = 80


def brief(value):
    """repr(value) when it has at most BRIEF_CHARS characters, else, for a
    str, the repr of its first BRIEF_CHARS characters and its length, and
    for other values the name of its type and, for a list or a dict, its
    length: a rejected argument or JSON entry named in an error detail of
    bounded length."""
    text = repr(value)
    if len(text) <= BRIEF_CHARS:
        return text
    if isinstance(value, str):
        return f"{value[:BRIEF_CHARS]!r}... ({len(value)} characters)"
    if isinstance(value, (list, dict)):
        return f"a {type(value).__name__} of length {len(value)}"
    return f"a {type(value).__name__}"
