import random
from fractions import Fraction

import pytest

from rotagraph import expr
from rotagraph.algebraic import (
    AlgReal, EQUAL, add, compare, div, real_roots, sqrt_nonneg,
)
from rotagraph.errors import BoundExceededError, ParseError


def roundtrip(v):
    return compare(expr.parse(expr.to_expr(v)), v) == EQUAL


def test_values_too_long_to_print_are_bound_exceeded():
    # past Python's 4300-digit limit on int-to-str conversion
    for v in (AlgReal(10 ** 5000), AlgReal(Fraction(1, 10 ** 5000))):
        with pytest.raises(BoundExceededError):
            expr.to_expr(v)
    assert expr.to_expr(AlgReal(10 ** 4000)) == "1" + "0" * 4000


def test_rational_round_trip():
    for f in (Fraction(0), Fraction(7), Fraction(-4, 5), Fraction(22, 7)):
        v = AlgReal(f)
        assert expr.parse(expr.to_expr(v)).as_rational() == f


def test_rational_serialization_shape():
    assert expr.to_expr(AlgReal(3)) == "3"
    assert expr.to_expr(AlgReal(Fraction(-4, 5))) == "-4/5"


def test_sqrt_parsing():
    v = expr.parse("sqrt(2)")
    assert v.min_poly == (-2, 0, 1)
    assert compare(expr.parse("sqrt(2)*sqrt(2)"), AlgReal(2)) == EQUAL
    assert compare(expr.parse("sqrt(sqrt(16))"), AlgReal(2)) == EQUAL


def test_arithmetic_grammar():
    assert expr.parse("1/2 + 1/3").as_rational() == Fraction(5, 6)
    assert expr.parse("2*3 - 10/2").as_rational() == 1
    assert expr.parse("-(3 - 5)").as_rational() == 2
    assert expr.parse("((4))/((2))").as_rational() == 2
    # precedence: 1 + 2*3 = 7, not 9
    assert expr.parse("1 + 2*3").as_rational() == 7


def test_root_form():
    v = expr.parse("root(-2,0,1,1)")  # larger root of x^2 - 2
    assert compare(v, sqrt_nonneg(AlgReal(2))) == EQUAL
    lo = expr.parse("root(-2,0,1,0)")
    assert compare(lo, v) != EQUAL
    assert compare(add(lo, v), AlgReal(0)) == EQUAL


def test_irrational_round_trip():
    vals = [sqrt_nonneg(AlgReal(2)),
            add(sqrt_nonneg(AlgReal(2)), sqrt_nonneg(AlgReal(3))),
            div(sqrt_nonneg(AlgReal(5)), AlgReal(-4)),
            add(sqrt_nonneg(AlgReal(2)), AlgReal(Fraction(1, 3)))]
    for v in vals:
        assert roundtrip(v)


def test_root_index_matches_real_roots():
    """to_expr counts the roots below a value with one Sturm count; the
    index must be the value's position among its polynomial's real roots."""
    rng = random.Random(6103)
    for _ in range(60):
        p = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))] + [rng.randint(1, 5)]
        for r in real_roots(p):
            if r.is_rational:
                continue
            mine = real_roots(r.min_poly)
            index = next(i for i, s in enumerate(mine) if compare(s, r) == EQUAL)
            coeffs = ",".join(str(c) for c in r.min_poly)
            assert expr.to_expr(r) == f"root({coeffs},{index})"
            r.refine()
            assert expr.to_expr(r) == f"root({coeffs},{index})"


def test_parse_errors():
    for bad in ("", "sqrt", "sqrt(", "1 +", "root(1,2)", "2..5", "x + 1",
                "root(0,0,0,0)", "1/0", ")("):
        with pytest.raises(Exception) as exc:
            expr.parse(bad)
        assert exc.type.__module__.startswith("rotagraph")


def test_integer_literals_are_ascii_digits():
    # int() reads Arabic-Indic digits and mathematical digits, which \d
    # matches; the grammar takes 0-9 alone
    for bad in ("\u0661/\u0662", "\U0001d7d9", "1\u0660", "root(-2,0,1,\u0661)",
                "sqrt(\u0662)"):
        with pytest.raises(ParseError):
            expr.parse(bad)
    assert expr.parse("10/2").as_rational() == 5


def test_whitespace_tolerance():
    assert expr.parse("  sqrt( 2 )  ").min_poly == (-2, 0, 1)
    assert expr.parse(" - 4 / 5 ").as_rational() == Fraction(-4, 5)
