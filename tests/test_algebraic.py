import itertools
import operator
import random
import time
from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import sympy_oracle as so

from rotagraph import expr, polys
from rotagraph.algebraic import (
    AlgReal, EQUAL, GREATER, LESS, MAX_STEPS,
    add, chebyshev_T, chebyshev_values, compare, div, dot, is_rational_angle, mul, neg,
    rational_angle_witness, real_roots, sqrt_nonneg, sub, to_float,
    _compare_isolated,
)
from rotagraph.errors import (
    BoundExceededError, DivisionByZeroError, OutOfRangeError, PreconditionError,
)


def mp_value(a, prec=200):
    """Oracle: high-precision interval midpoint, independent of compare()."""
    fr = to_float(a, prec)
    with mpmath.workprec(prec + 20):
        return mpmath.mpf(fr.numerator) / fr.denominator


def close(a, x, tol=mpmath.mpf(2) ** -150):
    return abs(mp_value(a) - x) < tol


def approx(a):
    """a to 2^-40, as a float."""
    return float(to_float(a, 40))


def near(a, x):
    """a agrees with x, worked out in floats from operands read by
    approx(), to 2^-20 relative: a cheap check for many values, which
    tells apart the roots of their small minimal polynomials."""
    return abs(approx(a) - x) <= (1 + abs(x)) * 2 ** -20


SQRT2 = sqrt_nonneg(AlgReal(2))
SQRT3 = sqrt_nonneg(AlgReal(3))


def test_rational_construction():
    a = AlgReal(Fraction(-4, 6))
    assert a.is_rational and a.as_rational() == Fraction(-2, 3)
    assert a.min_poly == (2, 3)


def test_sqrt2_basics():
    assert SQRT2.min_poly == (-2, 0, 1)
    assert compare(mul(SQRT2, SQRT2), AlgReal(2)) == EQUAL
    with mpmath.workprec(220):
        assert close(SQRT2, mpmath.sqrt(2))


def test_sum_of_square_roots_min_poly():
    s = add(SQRT2, SQRT3)
    assert s.min_poly == (1, 0, -10, 0, 1)
    with mpmath.workprec(220):
        assert close(s, mpmath.sqrt(2) + mpmath.sqrt(3))
    assert compare(s, sqrt_nonneg(AlgReal(10))) == LESS


def test_field_axioms_randomized():
    rng = random.Random(7)
    pool = [AlgReal(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(4)]
    pool += [SQRT2, SQRT3, neg(SQRT2), add(SQRT2, AlgReal(Fraction(1, 2)))]
    for _ in range(25):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert compare(add(a, b), add(b, a)) == EQUAL
        assert compare(mul(a, b), mul(b, a)) == EQUAL
        assert compare(add(add(a, b), c), add(a, add(b, c))) == EQUAL
        assert compare(mul(a, add(b, c)), add(mul(a, b), mul(a, c))) == EQUAL
        assert compare(sub(a, a), AlgReal(0)) == EQUAL
        if b.sign() != 0:
            assert compare(mul(div(a, b), b), a) == EQUAL


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        div(SQRT2, AlgReal(0))
    with pytest.raises(DivisionByZeroError):
        div(1, 0)
    # a zero computed over a generator comes back rational
    assert sub(SQRT2, SQRT2).is_rational
    with pytest.raises(DivisionByZeroError):
        div(SQRT2, sub(SQRT2, SQRT2))


def test_sqrt_of_square_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        a = AlgReal(Fraction(rng.randint(0, 30), rng.randint(1, 9)))
        r = sqrt_nonneg(a)
        assert compare(mul(r, r), a) == EQUAL
    s = sqrt_nonneg(add(AlgReal(2), SQRT2))
    assert compare(mul(s, s), add(AlgReal(2), SQRT2)) == EQUAL


def test_sqrt_rejects_negative():
    with pytest.raises(OutOfRangeError):
        sqrt_nonneg(AlgReal(-1))


def test_compare_trichotomy_against_oracle():
    rng = random.Random(11)
    vals = [SQRT2, SQRT3, add(SQRT2, SQRT3), AlgReal(Fraction(3, 2)),
            div(SQRT3, SQRT2), sub(SQRT3, SQRT2)]
    for _ in range(20):
        a, b = rng.choice(vals), rng.choice(vals)
        got = compare(a, b)
        da, db = mp_value(a), mp_value(b)
        if abs(da - db) < mpmath.mpf(2) ** -150:
            assert got == EQUAL
        else:
            assert got == (LESS if da < db else GREATER)


def test_cube_root_ordering():
    cbrt2 = real_roots((-2, 0, 0, 1))[0]
    assert compare(cbrt2, AlgReal(Fraction(5, 4))) == GREATER
    assert compare(mul(cbrt2, mul(cbrt2, cbrt2)), AlgReal(2)) == EQUAL


def test_real_roots_sorted_and_complete():
    # (x^2 - 2)(x - 1/2 scaled)(x^2 + 1): complex pair contributes nothing
    poly = (-2, 0, 1)
    r = real_roots(poly)
    assert len(r) == 2 and compare(r[0], r[1]) == LESS
    # product with a rational root, coefficients of (x^2-2)(2x-1)
    prod = (2, -4, -1, 2)  # (x^2 - 2)(2x - 1), ascending
    r = real_roots(prod)
    assert len(r) == 3
    assert r[1].as_rational() == Fraction(1, 2)


def test_real_roots_take_integer_coefficients_only():
    # a float or Fraction coefficient used to be truncated by int(): these
    # gave +-sqrt(2) and [0]
    for p in ([-2, 0, 1.5], [Fraction(-1, 2), 0, 1], [True, 1], [-2, 0, Fraction(1)]):
        with pytest.raises(PreconditionError):
            real_roots(p)
        with pytest.raises(PreconditionError):
            AlgReal.from_root(p, 0)
    assert len(real_roots([-2, 0, 1])) == 2


def test_chebyshev_values():
    assert chebyshev_T(0, AlgReal(Fraction(4, 5))).as_rational() == 1
    assert chebyshev_T(1, AlgReal(Fraction(4, 5))).as_rational() == Fraction(4, 5)
    assert chebyshev_T(2, AlgReal(Fraction(4, 5))).as_rational() == Fraction(7, 25)
    # T_3(4/5) = 4*(4/5)^3 - 3*(4/5) = 256/125 - 12/5 = -44/125
    assert chebyshev_T(3, AlgReal(Fraction(4, 5))).as_rational() == Fraction(-44, 125)


def test_chebyshev_composition_law():
    # T_m(T_n(x)) = T_{mn}(x)
    for c in (Fraction(4, 5), Fraction(-1, 3), Fraction(9, 10)):
        x = AlgReal(c)
        for m, n in ((2, 3), (3, 2), (2, 2)):
            assert compare(chebyshev_T(m, chebyshev_T(n, x)),
                           chebyshev_T(m * n, x)) == EQUAL


def test_chebyshev_on_irrational_argument():
    half_sqrt2 = div(SQRT2, AlgReal(2))
    # T_2(cos pi/4) = cos pi/2 = 0
    assert chebyshev_T(2, half_sqrt2).sign() == 0
    with pytest.raises(OutOfRangeError):
        chebyshev_T(2, AlgReal(2))


def _fraction_chebyshev(c):
    """The recurrence T_{k+1} = 2c T_k - T_{k-1} as chebyshev_values once
    stepped it: in Fractions for rational c, else by operator arithmetic."""
    x = c.as_rational() if c.is_rational else c
    prev, cur = 1, x
    while True:
        yield AlgReal(prev) if isinstance(prev, (int, Fraction)) else prev
        prev, cur = cur, 2 * (x * cur) - prev


def test_chebyshev_values_match_the_fraction_recurrence():
    """Every value T_0..T_MAX_STEPS over rational arguments, arguments over
    Q(sqrt 3) and over the biquadratic compositum Q(sqrt 2, sqrt 3) equals
    the old recurrence's and prints alike, stepped (chebyshev_values) and
    doubled (chebyshev_T); then the step budget is spent."""
    rng = random.Random(1409)
    args = [AlgReal(Fraction(rng.randint(-9, 9), 9)) for _ in range(4)]
    args += [div(add(rng.randint(-2, 2), mul(rng.randint(-1, 1), SQRT3)), AlgReal(4))
             for _ in range(4)]
    args += [div(dot((rng.choice((-1, 1)), rng.choice((-1, 1))), (SQRT2, SQRT3)),
                 AlgReal(rng.randint(4, 6))) for _ in range(2)]
    assert sum(not c.is_rational for c in args) >= 4
    assert [c.degree for c in args[-2:]] == [4, 4]
    for c in args:
        values = chebyshev_values(c)
        for k, want in zip(range(MAX_STEPS + 1), _fraction_chebyshev(c)):
            for got in (next(values), chebyshev_T(k, c)):
                assert compare(got, want) == EQUAL, (c, k)
                assert expr.to_expr(got) == expr.to_expr(want), (c, k)
        with pytest.raises(BoundExceededError):
            next(values)


def test_chebyshev_T_refusals_keep_their_order():
    """n < 0 first, then c outside [-1, 1], then n past MAX_STEPS, each
    with its own text: c = 2 with n = 65 is out-of-range, not a spent
    step budget."""
    index = "Chebyshev index must be non-negative"
    argument = r"Chebyshev argument outside \[-1, 1\]"
    budget = f"Chebyshev indices above {MAX_STEPS} exceed the step budget"
    for n, c, error, text in ((-1, AlgReal(2), OutOfRangeError, index),
                              (-1, SQRT2, OutOfRangeError, index),
                              (MAX_STEPS + 1, AlgReal(2), OutOfRangeError, argument),
                              (MAX_STEPS + 1, SQRT2, OutOfRangeError, argument),
                              (2, neg(SQRT2), OutOfRangeError, argument),
                              (MAX_STEPS + 1, AlgReal(Fraction(1, 2)), BoundExceededError, budget),
                              (10 ** 6, div(SQRT3, AlgReal(2)), BoundExceededError, budget)):
        with pytest.raises(error, match=text):
            chebyshev_T(n, c)


def test_rational_angle_niven():
    for c, want in ((Fraction(1, 1), True), (Fraction(1, 2), True),
                    (Fraction(0, 1), True), (Fraction(-1, 2), True),
                    (Fraction(-1, 1), True), (Fraction(1, 3), False),
                    (Fraction(4, 9), False), (Fraction(2, 5), False)):
        assert is_rational_angle(AlgReal(c)) is want


def test_rational_angle_irrational_cosines():
    assert is_rational_angle(div(SQRT2, AlgReal(2))) is True       # pi/4
    assert is_rational_angle(div(SQRT3, AlgReal(2))) is True       # pi/6
    # cos(pi/5) = (1+sqrt 5)/4
    golden = div(add(AlgReal(1), sqrt_nonneg(AlgReal(5))), AlgReal(4))
    assert is_rational_angle(golden) is True
    assert is_rational_angle(div(SQRT2, AlgReal(3))) is False
    assert is_rational_angle(div(SQRT3, AlgReal(3))) is False


def test_rational_angle_witness_recovers_angle():
    # the three conjugates of cos(2*pi/7), ascending
    c67, c47, c27 = real_roots((-1, -4, 4, 8))
    for value, want in ((AlgReal(Fraction(1, 2)), (1, 3)),
                        (div(SQRT2, AlgReal(2)), (1, 4)),
                        (div(SQRT3, AlgReal(2)), (1, 6)),
                        (AlgReal(0), (1, 2)),
                        (AlgReal(1), (0, 1)),
                        (AlgReal(-1), (1, 1)),
                        (c27, (2, 7)), (c47, (4, 7)), (c67, (6, 7))):
        k, m = rational_angle_witness(value)
        assert (k, m) == want
        with mpmath.workprec(200):
            assert close(value, mpmath.cos(mpmath.pi * k / m), mpmath.mpf(2) ** -120)
    assert rational_angle_witness(div(SQRT2, AlgReal(3))) is None


def test_rational_angle_witness_rejects_out_of_range():
    for value in (AlgReal(2), AlgReal(Fraction(-3, 2)), sqrt_nonneg(AlgReal(5)),
                  neg(SQRT2)):
        for fn in (rational_angle_witness, is_rational_angle):
            with pytest.raises(OutOfRangeError, match=r"cosine outside \[-1, 1\]"):
                fn(value)


def test_orders_with_totient_match_sympy():
    import sympy
    from rotagraph.algebraic import _orders_with_totient
    # phi(m) >= sqrt(m/2), so every m with phi(m) <= 64 is at most 2 * 64^2
    phi = {m: int(sympy.totient(m)) for m in range(1, 2 * 64 * 64 + 1)}
    for n in range(1, 65):
        assert _orders_with_totient(n) == tuple(m for m in phi if phi[m] == n), n


def _sympy_cos_resultant(m):
    """R_m = Res_z(Phi_m(z), z^2 - 2xz + 1) by sympy, primitive: its roots
    are cos(2*pi*k/m) for the k coprime to m, each twice for m > 2."""
    x, z = sympy.symbols("x z")
    r = sympy.resultant(sympy.cyclotomic_poly(m, z), z ** 2 - 2 * x * z + 1, z)
    return polys.primitive([int(v) for v in reversed(sympy.Poly(r, x).all_coeffs())])


def test_rational_angle_witness_on_cyclotomic_cosines():
    """The real roots of sympy's R_m, ascending, are cos(2*pi*k/m) for the
    k coprime to m in [0, m/2], descending; each witness is 2k/m reduced."""
    for m in range(1, 61):
        ks = [k for k in range(m // 2, -1, -1) if gcd(k, m) == 1]
        values = real_roots(_sympy_cos_resultant(m))
        assert len(values) == len(ks), m
        for value, k in zip(values, ks):
            g = gcd(2 * k, m)
            assert rational_angle_witness(value) == (2 * k // g, m // g), (m, k)
            with mpmath.workprec(200):
                assert close(value, mpmath.cos(2 * mpmath.pi * k / m), mpmath.mpf(2) ** -120)


def test_rational_angle_witness_rejects_non_angle_cosines():
    """Seeded irrational cosines of degree 2 to 8, roots in (-1, 1) of
    random irreducible polynomials, have no witness, and sympy agrees:
    their minimal polynomial divides R_m for no m with phi(m) = 2*deg
    (Lehmer), and phi(m) >= sqrt(m/2) bounds those m by 2*(2*deg)^2
    (there are none for degree 7: 14 is no totient)."""
    x = sympy.Symbol("x")
    rng = random.Random(4021)
    for d in range(2, 9):
        while True:
            p = polys.primitive([rng.randint(-4, 4) for _ in range(d)] + [rng.randint(1, 4)])
            if (polys.degree(p) == d and polys.factor_int(p) == (p,)
                    and (inside := [v for v in real_roots(p) if -1 < v < 1])):
                break
        for value in inside:
            assert value.degree == d and rational_angle_witness(value) is None, p
        for m in range(1, 2 * (2 * d) ** 2 + 1):
            if sympy.totient(m) != 2 * d:
                continue
            rem = sympy.rem(sympy.Poly(_sympy_cos_resultant(m)[::-1], x),
                            sympy.Poly(p[::-1], x))
            assert not rem.is_zero, (p, m)


def test_float_contract():
    fr = to_float(SQRT2, 100)
    with mpmath.workprec(140):
        assert abs(mpmath.mpf(fr.numerator) / fr.denominator
                   - mpmath.sqrt(2)) < mpmath.mpf(2) ** -100


def test_approx_is_canonical():
    # the greatest multiple of 2^-bits not above the value, however far the
    # isolating interval was refined before
    fresh, refined = sqrt_nonneg(AlgReal(2)), sqrt_nonneg(AlgReal(2))
    for _ in range(200):
        refined.refine()
    for bits in (1, 20, 53, 100):
        below = isqrt(2 << (2 * bits))
        assert to_float(fresh, bits) == to_float(refined, bits) \
            == Fraction(below, 1 << bits)
        assert to_float(neg(refined), bits) == Fraction(-below - 1, 1 << bits)
    assert to_float(AlgReal(Fraction(1, 3)), 4) == Fraction(1, 3)


def test_degree_collapse_stays_small():
    # sums and products of members of one quartic field must not blow up
    a = add(SQRT2, SQRT3)  # degree 4
    b = sub(SQRT2, SQRT3)  # degree 4
    assert mul(a, b).as_rational() == -1
    assert add(a, b).degree == 2
    assert compare(add(a, b), mul(AlgReal(2), SQRT2)) == EQUAL


def test_squaring_budget_counts_one_degree():
    # a * a takes a candidate of degree deg a, not deg(a)^2 = 289 > 256
    a = expr.parse("root(-2," + "0," * 16 + "1,0)")  # 2^(1/17)
    assert mul(a, a).min_poly == (-4,) + (0,) * 16 + (1,)
    t2 = chebyshev_T(2, div(a, AlgReal(2)))
    assert compare(mul(AlgReal(2), add(t2, AlgReal(1))), mul(a, a)) == EQUAL
    with pytest.raises(BoundExceededError):
        mul(a, expr.parse("root(-3," + "0," * 16 + "1,0)"))


# Sums with candidate degree 25 to 27.  Root selection once sent candidates
# above degree 24 through an integer-relation (PSLQ) guess; the expected
# strings are what that path printed, so these tests compare against it.
HIGH_DEGREE_SUMS = (
    ("root(-2,0,0,0,0,1,0)+root(-3,0,0,0,0,1,0)",
     "root(-3125,0,0,0,0,21875,0,0,0,0,-57500,0,0,0,0,-3500,0,0,0,0,-25,"
     "0,0,0,0,1,0)"),
    ("root(-2,0,0,1,0)+root(-3,0,0,0,0,0,0,0,0,1,0)",
     "root(-1331,0,0,-33552,0,0,-232920,0,0,-220605,0,0,-59976,0,0,-792,"
     "0,0,-681,0,0,144,0,0,-18,0,0,1,0)"),
    ("sqrt(2)+root(-3,0,0,0,0,0,0,0,0,0,0,0,0,1,0)",
     "root(-8183,-4992,53248,-54912,-159744,-123552,292864,-82368,-366080,"
     "-17160,329472,-936,-219648,-6,109824,0,-41184,0,11440,0,-2288,0,312,"
     "0,-26,0,1,1)"),
)


@pytest.mark.parametrize("text,want", HIGH_DEGREE_SUMS)
def test_high_degree_root_selection(text, want):
    assert expr.to_expr(expr.parse(text)) == want


def test_nested_sqrt_degree_32_within_budget():
    start = time.monotonic()
    value = expr.parse("sqrt(2+sqrt(2+sqrt(2+sqrt(2+sqrt(2)))))")
    assert expr.to_expr(value) == (
        "root(2,0,-256,0,5440,0,-45696,0,201552,0,-537472,0,940576,0,"
        "-1136960,0,980628,0,-615296,0,283360,0,-95680,0,23400,0,-4032,0,"
        "464,0,-32,0,1,31)")
    assert time.monotonic() - start < 10


# -- one generator: polynomial arithmetic modulo its minimal polynomial ------

def _element(gen, coeffs):
    """sum(c_i * gen^i) by the library's own arithmetic."""
    out, power = AlgReal(0), AlgReal(1)
    for c in coeffs:
        out = add(out, mul(c, power))
        power = mul(power, gen)
    return out


def _quadratic_pairs(rng, count):
    """Operands over Q(sqrt D) built on different square roots of D k^2."""
    for _ in range(count):
        d = rng.choice((2, 3, 5, 6, 7, 10))
        ga = sqrt_nonneg(AlgReal(Fraction(d * rng.randint(1, 4) ** 2, rng.randint(1, 3) ** 2)))
        gb = sqrt_nonneg(AlgReal(d * rng.randint(1, 5) ** 2))
        yield tuple(_element(g, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                                 Fraction(rng.choice((-1, 1)) * rng.randint(1, 7),
                                          rng.randint(1, 5))])
                    for g in (ga, gb))


def _cubic_pairs(rng, count):
    """Operands over Q(lambda), lambda a real root of an irreducible
    integer cubic, like the eigenvalues `fixed_point` works with."""
    while count:
        p = (rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-3, 3), 1)
        if len(polys.factor_int(p)) != 1 or p[0] == 0:
            continue
        lam = rng.choice(real_roots(p))
        for _ in range(min(count, 5)):
            count -= 1
            yield tuple(_element(lam, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                       for _ in range(3)])
                        for _ in range(2))


def test_same_generator_ops_match_candidate_path():
    """Operations over one generator, and with a rational operand (whose
    results get their minimal polynomial from traces only), stay over that
    generator and agree with their values in floats.  One quadratic pair
    in 20 and the first cubic pair give sympy's values (a cubic pair takes
    sympy about 0.6 s)."""
    from rotagraph.algebraic import _gen
    rng = random.Random(20267)
    pairs = list(_quadratic_pairs(rng, 110)) + list(_cubic_pairs(rng, 50))
    exact_at = {*range(0, 110, 20), 110}
    checked = scalar = exact = 0
    for i, (a, b) in enumerate(pairs):
        if a.is_rational or b.is_rational:
            continue
        theta = _gen(a)[0]
        x, y = (so.value(v) for v in (a, b)) if i in exact_at else (None, None)
        u, v = approx(a), approx(b)
        for fn, op in ((add, operator.add), (mul, operator.mul), (div, operator.truediv)):
            got = fn(a, b)
            assert got.is_rational or got._tag is not None
            assert near(got, op(u, v))
            if x is not None:
                assert so.same_value(got, op(x, y))
                exact += 1
            checked += 1
        assert compare(a, b) == _compare_isolated(AlgReal._make(a.min_poly, a.interval),
                                                  AlgReal._make(b.min_poly, b.interval))
        checked += 1
        r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        q, w = so.rational(r), float(r)
        for got, f in ((add(a, r), lambda s, t: s + t), (mul(r, a), lambda s, t: t * s),
                       (div(a, r), lambda s, t: s / t), (div(r, a), lambda s, t: t / s),
                       (neg(a), lambda s, t: -s)):
            assert got.is_rational or _gen(got)[0] is theta
            assert near(got, f(u, w))
            if x is not None:
                assert so.same_value(got, f(x, q))
                exact += 1
            scalar += 1
    assert checked >= 600 and scalar >= 700 and exact >= 48


def test_same_generator_ops_never_factorise(monkeypatch):
    lam = real_roots((-1, -3, 0, 1))[2]   # 2 cos(pi/9), a cubic unit
    quads = [sqrt_nonneg(AlgReal(v)) for v in (2, 8, Fraction(9, 2), 18)]
    cubics = [_element(lam, c) for c in ((1, 2, 3), (0, -1, 1), (Fraction(1, 2), 0, 2))]
    calls = []
    original = polys.factor_int
    monkeypatch.setattr(polys, "factor_int", lambda c: calls.append(c) or original(c))
    for family in (quads, cubics):
        for a in family:
            for b in family:
                for v in (add(a, b), sub(a, b), mul(a, b), div(a, b), neg(a)):
                    v.sign()
                    v.approx(53)
                assert compare(a, b) == (EQUAL if a is b else compare(b, a) * -1)
                assert mul(div(a, b), b) == a
    assert calls == []
    assert compare(quads[0], quads[1]) == LESS and mul(quads[0], quads[2]) == 3


def test_value_times_its_reparse_stays_over_one_generator(monkeypatch):
    """1 + 2^(1/3), tagged over 2^(1/3), and its re-parse, a cubic generator
    of the same field that no record links: mul takes the value's square
    over its own generator, with no candidate and no factorisation."""
    import json
    a = add(real_roots((-2, 0, 0, 1))[0], 1)
    b = expr.from_json(json.loads(json.dumps(expr.to_expr(a))))
    assert a._tag is not None and b._tag is None and a.min_poly == b.min_poly
    calls = []
    original = polys.factor_int
    monkeypatch.setattr(polys, "factor_int", lambda c: calls.append(c) or original(c))
    got, want = mul(a, b), mul(a, a)
    assert got == want and mul(b, a) == want
    assert expr.to_expr(got) == expr.to_expr(want) == "root(-9,-9,-3,1,0)"
    assert got._tag[0] is a._tag[0]
    assert calls == []


def test_value_plus_its_reparse_stays_over_one_generator(monkeypatch):
    """The sum and the difference of the same pair take the same step as
    the product: twice the value over its own generator, and 0, with no
    composed-sum candidate and no factorisation (each used to factorise
    the degree-9 sum)."""
    import json
    a = add(real_roots((-2, 0, 0, 1))[0], 1)
    b = expr.from_json(json.loads(json.dumps(expr.to_expr(a))))
    assert a._tag is not None and b._tag is None and a.min_poly == b.min_poly
    calls = []
    original = polys.factor_int
    monkeypatch.setattr(polys, "factor_int", lambda c: calls.append(c) or original(c))
    assert sub(a, b) == 0 and sub(b, a) == 0
    assert calls == []
    got, want = add(a, b), mul(a, 2)
    assert calls == []
    assert got == want and add(b, a) == want
    assert expr.to_expr(got) == expr.to_expr(want) == "root(-24,12,-6,1,0)"
    assert got._tag[0] is a._tag[0]
    assert calls == []


def test_tagged_values_shared_between_threads():
    """Refinement and the lazily built minimal polynomial are each one
    attribute write, so threads sharing values over one generator (and the
    generator itself) all see the single-threaded answers."""
    import sys
    import threading

    def build():
        lam = real_roots((2, -4, 0, 1))[2]
        return [_element(lam, (Fraction(i, 3), 1, -1)) for i in range(6)] + \
            [div(1, _element(lam, (i, 2, 1))) for i in range(1, 4)]

    want = [(v.min_poly, expr.to_expr(v), v.approx(80), v.sign()) for v in build()]
    shared, results = build(), []

    def work(offset):
        vals = shared[offset:] + shared[:offset]
        got = [(v.min_poly, expr.to_expr(v), v.approx(80), v.sign()) for v in vals]
        results.append(got[-offset:] + got[:-offset] if offset else got)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i % len(shared),))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert results == [want] * 8


# -- towers and composita: generators that record the fields they contain ----
_NONSQUARES = (2, 3, 5, 6, 7, 10, 12)
_small = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _reparsed(v):
    """v printed and parsed back: a fresh generator with no tag and no
    embeddings, or a rational."""
    return expr.parse(expr.to_expr(v))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.sampled_from(_NONSQUARES), st.sampled_from(_NONSQUARES),
       st.lists(_small, min_size=6, max_size=6))
def test_towers_and_composita_match_fresh_generators(d1, d2, c):
    """Sums, products, quotients and square roots over a tower (a square
    root over Q(sqrt d1)) and a compositum (Q(sqrt d1) with Q(sqrt d2))
    agree with their values in floats, and comparisons with those of the
    same values re-parsed, which are fresh generators; the square root
    gamma of degree 4 or less is sympy's.  One example in about ten,
    picked by a hash of its data (three of the 30), is also sympy's values
    of the same closed forms, but for the product and quotient of the
    tower with the compositum, of degree 8, whose minimal polynomials take
    sympy 0.3-0.5 s: those, and the square root of z^2, match the fresh
    generators' own join in every example."""
    from rotagraph.algebraic import _gen
    exact = hash((d1, d2, *c)) % 10 == 0
    t1, t2 = sqrt_nonneg(AlgReal(d1)), sqrt_nonneg(AlgReal(d2))
    x = add(c[0], mul(c[1], t1))
    y = add(c[2], mul(c[3], t2))
    radicand = add(15 + c[4] ** 2, mul(c[5], t1))
    gamma = sqrt_nonneg(radicand)           # positive
    assert gamma.sign() > 0 and mul(gamma, gamma) == radicand
    assert near(gamma, approx(radicand) ** 0.5)
    if gamma.degree == 4:
        assert gamma._embeds[0][0] is t1    # a tower
    else:                                   # a square in Q(sqrt d1) stays there
        assert c[5] == 0 or _gen(gamma)[0] is t1
    z = add(x, mul(c[3] or 1, gamma))
    r = [so.rational(v) for v in c]
    X, Y = r[0] + r[1] * so.sqrt(d1), r[2] + r[3] * so.sqrt(d2)
    G = so.sqrt(15 + r[4] ** 2 + r[5] * so.sqrt(d1))
    Z = X + (r[3] or 1) * G
    assert so.same_value(gamma, G)
    for (a, A), (b, B) in (((x, X), (y, Y)), ((x, X), (z, Z)), ((z, Z), (y, Y)),
                           ((z, Z), (gamma, G))):
        fa, fb = _reparsed(a), _reparsed(b)
        u, v = approx(a), approx(b)
        for fn, op in ((add, operator.add), (mul, operator.mul), (div, operator.truediv)):
            if a.is_rational and b.is_rational or b.sign() == 0:
                continue
            got = fn(a, b)
            assert near(got, op(u, v))
            if b is y and a is z:
                fresh = fn(fa, fb)
                assert got.min_poly == fresh.min_poly and got == fresh
            if exact and not (b is y and a is z and fn is not add):
                assert so.same_value(got, op(A, B))
        assert compare(a, b) == compare(fa, fb)
        if not (a.is_rational or b.is_rational):
            assert compare(a, b) == _compare_isolated(fa, fb)
    w = mul(z, z)
    if not w.is_rational:
        root = sqrt_nonneg(w)
        fresh = sqrt_nonneg(_reparsed(w))
        assert root.min_poly == fresh.min_poly and root == fresh
        if exact:
            assert so.same_value(root, Z * so.sign(Z))
    if d1 * d2 != isqrt(d1 * d2) ** 2 and c[1] and c[3]:
        s = add(x, y)                       # a compositum of degree 4
        assert s._tag is not None and s._tag[0].degree == 4


def test_towers_and_composita_factorise_nothing_above_degree_4(monkeypatch):
    """A witness path of length 3 at cos l = 4/5 takes a square root over
    the quadratic field of its geodesic step; an equidistant point at
    cos l = sqrt(3)/2 mixes sqrt(3) with a fresh square root.  Both stay
    over one generator, so no candidate above degree 4 is built (the
    cross-field candidate path factorised degrees 8 and 16 here), and the
    certificates leave nothing to factorise at all: not there, not in edge
    preservation or an integer-matrix fixed point, and not in the CLI
    calls of the benchmark's mix."""
    import contextlib
    import io
    import json
    from rotagraph import cli, elliptic as ep, graph as gr, isometry as iso
    spec = gr.GraphSpec(Fraction(4, 5))
    p = ep.make_point(Fraction(2, 3), Fraction(1, 3), Fraction(-2, 3))
    q = ep.make_point(Fraction(2, 11), Fraction(6, 11), Fraction(9, 11))
    cos_l = sqrt_nonneg(AlgReal(Fraction(3, 4)))
    p2 = ep.make_point(Fraction(2, 3), Fraction(1, 3), Fraction(2, 3))
    q2 = ep.make_point(Fraction(2, 7), Fraction(-3, 7), Fraction(6, 7))
    int_matrix = ((1, 2, 0), (0, 1, 3), (1, 0, 1))
    degrees = []
    original = polys.factor_int
    monkeypatch.setattr(polys, "factor_int",
                        lambda c: degrees.append(polys.degree(c)) or original(c))
    path = gr.witness_path(spec, p, q)
    assert len(path) == 3 and gr.verify_path(spec, path, p, q, 3)
    assert degrees == []
    z = ep.equidistant_point(p2, q2, cos_l)
    assert ep.dist_cos(z, p2) == cos_l and ep.dist_cos(z, q2) == cos_l
    assert degrees == []
    rot = iso.random_rational_orthogonal(5)
    pairs = [(p2, ep.geodesic_step(p2, q2, Fraction(4, 5))), (p2, q2), (p2, z)]
    assert iso.preserves_edges_on_sample(rot, Fraction(4, 5), pairs)
    assert degrees == []
    m = iso.LinearMap(int_matrix)
    x = iso.fixed_point(m)
    assert iso.apply(m, x) == x and all(c.degree == 3 for c in x.lift)
    assert degrees == []
    for argv in (["field", "eval", "--expr", "sqrt(6)+sqrt(13)"],
                 ["field", "eval", "--expr", "sqrt(5)+sqrt(10)+sqrt(11)"],
                 ["field", "eval", "--expr",
                  "root(-2,0,0,0,0,1,0)+root(-3,0,0,0,0,1,0)"],
                 ["iso", "fixed-point", "--matrix",
                  json.dumps([[str(v) for v in row] for row in int_matrix])]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
        assert degrees == [], argv


def test_square_roots_over_quadratic_data_build_no_sturm_chain_and_no_gcd(monkeypatch):
    """An equidistant point at cos l = sqrt(3)/2 between rational points
    joins two quadratic fields, and a witness path of length 3 at
    cos l = 4/5 takes a square root of a linear radicand over the
    quadratic field of its geodesic step: root counts on quadratics, the
    join's isolation and the tower's embedding are all closed forms, so
    neither builds a Sturm chain or runs a gcd over a number field."""
    from rotagraph import elliptic as ep, graph as gr

    def no_gcd(*_):
        raise AssertionError("a gcd over a number field ran")

    cos_l = sqrt_nonneg(AlgReal(Fraction(3, 4)))
    p2 = ep.make_point(Fraction(2, 3), Fraction(1, 3), Fraction(2, 3))
    q2 = ep.make_point(Fraction(2, 7), Fraction(-3, 7), Fraction(6, 7))
    spec = gr.GraphSpec(Fraction(4, 5))
    p = ep.make_point(Fraction(2, 3), Fraction(1, 3), Fraction(-2, 3))
    q = ep.make_point(Fraction(2, 11), Fraction(6, 11), Fraction(9, 11))
    polys.sturm_chain.cache_clear()
    monkeypatch.setattr(polys, "gcd_mod", no_gcd)
    z = ep.equidistant_point(p2, q2, cos_l)
    assert polys.sturm_chain.cache_info().misses == 0
    path = gr.witness_path(spec, p, q)
    assert polys.sturm_chain.cache_info().misses == 0
    monkeypatch.undo()
    assert ep.dist_cos(z, p2) == cos_l and ep.dist_cos(z, q2) == cos_l
    assert len(path) == 3 and gr.verify_path(spec, path, p, q, 3)


def test_quadratic_signs_match_interval_refinement():
    """The sign of (n0 + n1*x)/d at either root of a seeded quadratic, with
    a discriminant of 3 to 200 bits, agrees with the one interval
    refinement reads (_refined_sign): n0 = 0, the generator itself, and
    values within 2^-100 of zero on either side, where the refinement
    halves theta's interval more than a hundred times."""
    from rotagraph import algebraic
    from test_polys import quadratic_of_bits
    rng = random.Random(4102)
    signs = set()
    for bits in (3, 4, 5, 8, 16, 50, 100, 150, 200):
        for _ in range(3):
            m = quadratic_of_bits(rng, bits)
            for index in (0, 1):
                theta = AlgReal.from_root(m, index)
                p, q = theta.approx(110).as_integer_ratio()
                gs = [((0, 1), 1), polys.qpoly((0, rng.randint(-9, 9) or 1), rng.randint(1, 9))]
                for _ in range(4):
                    d = rng.randint(1, 1 << bits)
                    k = rng.randint(1, d) * rng.choice((1, -1))             # |k/d| <= 1
                    gs += [polys.qpoly((-k * p, k * q), q * d),          # k*(theta - p/q)/d
                           polys.qpoly((-k * (p + 1), k * q), q * d),    # p/q < theta < (p+1)/q
                           polys.qpoly((rng.randint(-(1 << bits), 1 << bits), k), d)]
                for g in gs:
                    want = algebraic._refined_sign(AlgReal._over(theta, g))
                    assert AlgReal._over(theta, g).sign() == want, (m, index, g)
                    signs.add(want)
    assert signs == {-1, 1}


def test_a_geometry_pass_reduces_and_signs_quadratic_values_in_closed_form(monkeypatch):
    """One pass of the `geometry` benchmark (the first 30 operations of
    seed 1) reduces no product modulo a quadratic minimal polynomial by
    pseudo-division, and decides no sign over a quadratic generator by an
    enclosure: pseudo_rem meets a quadratic only in a Sturm chain, and
    _range serves signs over generators of degree 3 or more.  Both kinds
    of work are there to do: dotmod runs modulo quadratics and sign reads
    values over quadratic generators."""
    import sys
    from pathlib import Path
    from rotagraph import algebraic
    from rotagraph.algebraic import _gen
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    seen = {"pseudo_rem": [], "_range": [], "dotmod": 0, "sign": 0}
    rem, rng_, dotmod, sign = polys.pseudo_rem, algebraic._range, polys.dotmod, AlgReal.sign

    def spy_rem(a, b):
        if len(b) == 3 and sys._getframe(1).f_code.co_name != "sturm_chain":
            seen["pseudo_rem"].append(b)
        return rem(a, b)

    def spy_range(g, interval):
        caller = sys._getframe(1)
        v = caller.f_locals.get("self", caller.f_locals.get("v"))
        if caller.f_code.co_name in ("sign", "_refined_sign") and _gen(v)[0].degree == 2:
            seen["_range"].append(g)
        return rng_(g, interval)

    def spy_dotmod(xs, ys, m):
        seen["dotmod"] += len(m) == 3
        return dotmod(xs, ys, m)

    def spy_sign(v):
        seen["sign"] += not v.is_rational and _gen(v)[0].degree == 2
        return sign(v)

    monkeypatch.setattr(polys, "pseudo_rem", spy_rem)
    monkeypatch.setattr(algebraic, "_range", spy_range)
    monkeypatch.setattr(polys, "dotmod", spy_dotmod)
    monkeypatch.setattr(AlgReal, "sign", spy_sign)
    runner = workloads.Runner()
    assert all(runner.run(kind, args) for kind, args in itertools.islice(workloads.schedule(1), 30))
    monkeypatch.undo()
    assert seen["pseudo_rem"] == [] and seen["_range"] == [], seen
    assert seen["dotmod"] > 0 and seen["sign"] > 0, seen


def test_square_roots_of_squares_stay_in_their_field(monkeypatch):
    """The square root of b^2, b over a cubic (or quadratic) generator,
    is |b| over the same generator, found by p-adic lifting and checked by
    squaring: no factorisation.  The square re-parsed, a fresh generator,
    has sympy's |b| as its root too.  Over Q(sqrt 2, sqrt 3), with no
    inert prime, it falls back to factor_int."""
    rng = random.Random(12004)
    cases = [a for a, _ in _cubic_pairs(rng, 12)] + [add(1, mul(3, SQRT2)),
                                                      sub(SQRT3, Fraction(5, 2))]
    squares = [(b, mul(b, b)) for b in cases if not b.is_rational]
    calls = []
    original = polys.factor_int
    monkeypatch.setattr(polys, "factor_int", lambda c: calls.append(c) or original(c))
    for b, sq in squares:
        root = sqrt_nonneg(sq)
        assert calls == [] and root._tag[0] is _gen_of(b)
        assert compare(root, b if b.sign() > 0 else neg(b)) == EQUAL
    monkeypatch.setattr(polys, "factor_int", original)
    for b, sq in squares:
        x = so.value(b)
        assert so.same_value(sqrt_nonneg(_reparsed(sq)), x * so.sign(x))
    u = add(add(1, SQRT2), SQRT3)
    monkeypatch.setattr(polys, "factor_int", lambda c: calls.append(c) or original(c))
    assert compare(sqrt_nonneg(mul(u, u)), u) == EQUAL and len(calls) == 1


def _closed(v, forms):
    """v = g(theta), with theta's value forms[id(theta)] a sympy form or a
    float (and forms[id(None)] one, for a rational v)."""
    from rotagraph.algebraic import _gen
    theta, (n, d) = _gen(v)
    return sum(c * forms[id(theta)] ** i for i, c in enumerate(n)) / d


def _over(theta, cs):
    """sum(cs[i] * theta^i) for Fractions cs."""
    d = lcm(*(c.denominator for c in cs))
    return AlgReal._over(theta, polys.qpoly([int(c * d) for c in cs], d))


def _gen_of(v):
    return v._tag[0] if v._tag else v


def test_sum_of_six_square_roots_certified_in_time(monkeypatch):
    """sqrt 2 + sqrt 3 + ... + sqrt 13 has degree 64.  Its last join needs
    a prime at which 2, 3, 5, 7 and 11 are squares and 13 is not (479, the
    92nd prime), so the certificate's prime budget reaches it, and nothing
    is factorised (factorising the degree-64 candidate ran past 300 s)."""
    calls = []
    monkeypatch.setattr(polys, "factor_int", lambda c: calls.append(c) or ())
    start = time.monotonic()
    total = AlgReal(0)
    for d in (2, 3, 5, 7, 11, 13):
        total = add(total, sqrt_nonneg(AlgReal(d)))
    assert total.degree == 64 and calls == []
    assert time.monotonic() - start < 20
    with mpmath.workprec(200):
        assert close(total, sum(mpmath.sqrt(d) for d in (2, 3, 5, 7, 11, 13)))


def test_compositum_found_inside_a_field_holding_its_summands(monkeypatch):
    """sqrt 2 + sqrt 3 joined on its own is recognised inside the degree-8
    field built from sqrt 2 + sqrt 5 and sqrt 3, from the records of both
    generators, so their product factorises nothing."""
    s2, s3, s5 = (sqrt_nonneg(AlgReal(d)) for d in (2, 3, 5))
    big = add(add(s2, s5), s3)
    small = add(s2, mul(2, s3))
    assert big._tag is None and big.degree == 8 and small._tag[0].degree == 4
    calls = []
    original = polys.factor_int
    monkeypatch.setattr(polys, "factor_int", lambda c: calls.append(c) or original(c))
    got = mul(big, small)
    assert calls == [] and got._tag[0] is big
    sq2, sq3, sq5 = (so.sqrt(d) for d in (2, 3, 5))
    assert so.same_value(got, (sq2 + sq5 + sq3) * (sq2 + 2 * sq3))


def test_one_compositum_per_generator_pair(monkeypatch):
    """An equidistant point at cos l = sqrt(3)/2 adds a value over Q(sqrt 3)
    to one over a fresh quadratic gamma in each coordinate; the generators
    remember their compositum, so one compositum is built, a build being a
    _record of two embeddings, and all three coordinates lie over it.
    Joining a pair again the other way round builds nothing and swaps the
    embeddings back."""
    from rotagraph import algebraic, elliptic as ep
    calls = []
    original = algebraic._record
    monkeypatch.setattr(algebraic, "_record", lambda psi, embeds: (
        len(embeds) == 2 and calls.append(psi)) or original(psi, embeds))
    cos_l = sqrt_nonneg(AlgReal(Fraction(3, 4)))
    p = ep.make_point(Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))
    q = ep.make_point(Fraction(2, 7), Fraction(3, 7), Fraction(6, 7))
    z = ep.equidistant_point(p, q, cos_l)
    assert len(calls) == 1
    assert len({id(_gen_of(v)) for v in z.lift}) == 1 and _gen_of(z.lift[0]).degree == 4
    assert ep.dist_cos(z, p) == cos_l and ep.dist_cos(z, q) == cos_l
    a = add(1, mul(2, SQRT2))
    b = sub(Fraction(1, 3), sqrt_nonneg(AlgReal(7)))
    calls.clear()
    for fn in (add, sub, mul):
        ab, ba = fn(a, b), fn(b, a)
        assert _gen_of(ab) is _gen_of(ba)
        if fn is sub:
            ba = neg(ba)
        assert (expr.to_expr(ab), ab.approx(80)) == (expr.to_expr(ba), ba.approx(80))
    assert len(calls) == 1
    x, y = 1 + 2 * so.sqrt(2), so.Rational(1, 3) - so.sqrt(7)
    assert so.same_value(add(b, a), y + x) and so.same_value(mul(b, a), y * x)


def test_towers_and_composita_shared_between_threads(monkeypatch):
    """Threads that join the same shared generators, each building its own
    compositum and tower records, all see the single-threaded answers:
    records are written once, before the new generator is returned, and a
    pair joined again meets over a remembered compositum.  A build is a
    _record of two embeddings."""
    import sys
    import threading
    from rotagraph import algebraic
    calls = []
    original = algebraic._record
    monkeypatch.setattr(algebraic, "_record", lambda psi, embeds: (
        len(embeds) == 2 and calls.append(threading.get_ident())) or original(psi, embeds))

    def build():
        s2, s3 = sqrt_nonneg(AlgReal(2)), sqrt_nonneg(AlgReal(3))
        return s2, s3, sqrt_nonneg(add(1, s2))

    def answers(s2, s3, g):
        first = add(s2, s3)
        built = calls.count(threading.get_ident())
        # s2 joins no other generator, so it still remembers a compositum
        # with s3, this thread's or another's: the join again builds nothing
        again = add(mul(2, s2), s3)
        hit = calls.count(threading.get_ident()) == built and \
            all(t is u for (t, _), u in zip(_gen_of(again)._embeds, (s2, s3)))
        vals = (first, again, mul(g, s3), add(g, mul(s2, s3)), div(g, add(s3, g)),
                sqrt_nonneg(add(s3, g)))
        return [hit] + [(v.min_poly, expr.to_expr(v), v.approx(80)) for v in vals]

    want = answers(*build())
    assert want[0] is True and len(calls) == 2     # Q(sqrt 2, sqrt 3) and a degree-8 field
    shared, results = build(), []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(answers(*shared)))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert results == [want] * 8


def test_sqrt_refines_its_radicand_until_one_root_is_bracketed(monkeypatch):
    """2 + sqrt(3), isolated from 2 - sqrt(3) by a lower end c just above
    that root with a large denominator: sqrt(c) rounded down to 2^-16 of c's
    denominator falls below sqrt(2 - sqrt(3)), so the first bracket holds two
    roots of x^4 - 4x^2 + 1 and the radicand is refined."""
    def quotients():   # 2 - sqrt(3) = [0; 3, 1, 2, 1, 2, ...]
        yield from (0, 3)
        while True:
            yield from (1, 2)
    p0, q0, p, q = 0, 1, 1, 0
    for k in quotients():
        p0, q0, p, q = p, q, k * p + p0, k * q + q0
        if q >= 2 ** 20 and 3 * q * q > (2 * q - p) ** 2:   # p/q > 2 - sqrt(3)
            break
    a = AlgReal._make((1, -4, 1), (Fraction(p, q), 4))
    refined = []
    original = AlgReal.refine
    monkeypatch.setattr(AlgReal, "refine",
                        lambda self: refined.append(self is a) or original(self))
    root = sqrt_nonneg(a)
    monkeypatch.setattr(AlgReal, "refine", original)
    assert refined.count(True) >= 1
    assert expr.to_expr(root) == "root(1,0,-4,0,1,3)"
    assert mul(root, root) == a
    assert so.same_value(root, so.sqrt(2 + so.sqrt(3)))


def test_sub_across_one_field_reached_twice_meets_over_a_compositum(monkeypatch):
    """The real cube roots of 2 and 4 generate one field, which no record
    shows.  Their difference lies over psi = a + b, the factor of the
    composed candidate that psi's interval selects, with both embeddings
    recorded: one cand_sum, a tagged result, the root of x^3 + 6x + 2, and
    a second sub that builds nothing."""
    from rotagraph.algebraic import _field
    a, = real_roots((-2, 0, 0, 1))
    b, = real_roots((-4, 0, 0, 1))
    assert _field((a, b), join=0) is None
    calls = []
    original = polys.cand_sum
    monkeypatch.setattr(polys, "cand_sum", lambda *f: calls.append(f) or original(*f))
    d = sub(a, b)
    assert len(calls) == 1
    psi = d._tag[0]
    assert psi.degree == 3 and [t for t, _ in psi._embeds] == [a, b]
    assert expr.to_expr(d) == "root(2,6,0,1,0)"
    again = sub(b, a)
    assert len(calls) == 1 and again._tag[0] is psi
    assert d == neg(again)


def _seeded_generator(rng, n):
    """A real root of a random irreducible integer polynomial of degree n."""
    while True:
        p = polys.primitive([rng.randint(-9, 9) for _ in range(n)] + [rng.randint(1, 3)])
        if p[0] and polys.factor_int(p) == (p,):
            roots = real_roots(p)
            if roots:
                return rng.choice(roots)


def test_gcd_embedding_matches_the_linear_solve():
    """Pairs of full degree 2x3, 2x4, 3x3, 4x2 and 5x5 join into
    psi = t1 + t2 of degree n1*n2, with embeddings h1 and x - h1: t1 as the
    common root of m1(x) and m2(psi - x), by a gcd over Q(psi).  m1(h1) and
    m2(h2) vanish modulo psi's minimal polynomial, and psi and h1(psi)
    agree with t1 + t2 and t1 in floats.  For the first pair of each
    shape, h1(psi) and h2(psi) are sympy's t1 and t2, and, up to 3x3, psi
    is sympy's t1 + t2."""
    from rotagraph.algebraic import _X, _field
    rng = random.Random(32)
    for n1, n2 in ((2, 3), (2, 4), (3, 3), (4, 2), (5, 5)):
        for k in range(3):
            while True:
                t1, t2 = _seeded_generator(rng, n1), _seeded_generator(rng, n2)
                if polys.full_degree(t1.min_poly, t2.min_poly):
                    break
            psi, g1, g2 = _field((t1, t2))
            assert psi.degree == n1 * n2 and g2 == polys.qsub(_X, g1), (n1, n2)
            for t, g in ((t1, g1), (t2, g2)):
                assert polys.compose_mod(polys.qpoly(t.min_poly), g, psi.min_poly) == ((), 1)
            u1, u2 = approx(t1), approx(t2)
            assert near(psi, u1 + u2)
            assert near(AlgReal._over(psi, g1), u1)     # and so g2(psi) = psi - g1(psi)
            if k == 0:
                x1, x2 = so.value(t1), so.value(t2)
                assert so.same_value(AlgReal._over(psi, g1), x1)
                assert so.same_value(AlgReal._over(psi, g2), x2)
                if n1 * n2 <= 9:
                    assert so.same_value(psi, x1 + x2)


# (m1, root index, m2, root index): fields that share a subfield
SHARED_SUBFIELD_PAIRS = (
    ((-2, 0, 0, 1), 0, (-4, 0, 0, 1), 0),           # cube roots of 2 and 4
    ((1, 0, -10, 0, 1), 3, (-2, 0, 1), 1),          # sqrt 2 + sqrt 3 and sqrt 2
    ((-2, 0, 0, 0, 1), 1, (-2, 0, 1), 1),           # 2^(1/4) and sqrt 2
    ((-2, 0, 0, 0, 1), 1, (-8, 0, 0, 0, 0, 0, 1), 1),  # 2^(1/4) and 8^(1/6)
)


def test_shared_subfield_pairs_match_the_candidate_path():
    """Values over two fresh generators whose fields share a subfield meet
    over psi = t1 + t2, the factor of its composed candidate that psi's
    interval selects, with t1 the one common root of m1(x) and m2(psi - x)
    over Q(psi): their sums and products are sympy's, and lie over a
    generator that reaches both."""
    from rotagraph.algebraic import _gen, _reach
    for m1, i1, m2, i2 in SHARED_SUBFIELD_PAIRS:
        a, b = AlgReal.from_root(m1, i1), AlgReal.from_root(m2, i2)
        x, y = add(a, 1), mul(b, 3)
        u, v = so.value(a) + 1, so.value(b) * 3
        for fn, want in ((add, u + v), (mul, u * v)):
            got = fn(x, y)
            psi = _gen(got)[0]
            assert psi is not None and None not in (_reach(psi, a), _reach(psi, b)), m2
            assert so.same_value(got, want), (fn, m2)


def test_a_rational_sum_retries_with_a_multiple_of_the_second_generator(monkeypatch):
    """The real cube root c of 2 and a fresh root d of x^3 - 3x^2 + 3x + 1,
    which is 1 - c: c + d = 1 is rational, so the join takes psi = c + 2d,
    with both embeddings recorded (no longer summands adding up to x).
    Sums and products across the pair are exact.  With k capped at 1, the
    join is refused as bound-exceeded."""
    from rotagraph import algebraic
    from rotagraph.algebraic import _X, _field, _summands
    with monkeypatch.context() as m:
        m.setattr(algebraic, "_MAX_SHIFT", 1)
        with pytest.raises(BoundExceededError):
            _field((*real_roots((-2, 0, 0, 1)), *real_roots((1, 3, -3, 1))))
    c, = real_roots((-2, 0, 0, 1))
    d, = real_roots((1, 3, -3, 1))
    psi, hc, hd = _field((c, d))
    assert psi.min_poly == (-6, 12, -6, 1)          # of 2 - c
    assert polys.qadd(hc, polys.qscale(hd, 2)) == _X and _summands(psi) == ()
    assert [t for t, _ in psi._embeds] == [c, d]
    s = add(c, d)
    assert s.is_rational and s.as_rational() == 1
    x, y = so.value(c), so.value(d)
    assert so.same_value(mul(c, d), x * y) and so.same_value(sub(c, d), x - y)


def test_results_across_fields_lie_over_a_generator_reaching_each_operand():
    """add, sub, mul, dot and combo across unrelated generators (quadratics,
    cubics, a tower, a compositum and fresh generators of fields that share
    a subfield) give a rational or a value over a generator that reaches
    every operand's generator."""
    from rotagraph.algebraic import _gen, _reach, combo, dot
    rng = random.Random(3204)
    gens = [SQRT2, SQRT3, sqrt_nonneg(AlgReal(5)), *real_roots((-2, 0, 0, 1)),
            *real_roots((-4, 0, 0, 1)), _gen(sqrt_nonneg(add(1, SQRT2)))[0],
            _gen(add(SQRT2, SQRT3))[0], AlgReal.from_root((1, 0, -10, 0, 1), 3)]

    def value(t):
        return add(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                   mul(Fraction(rng.randint(1, 5), rng.randint(1, 4)), t))

    def check(got, operands):
        theta = _gen(got)[0]
        for v in operands:
            t = _gen(v)[0]
            assert theta is None or t is None or _reach(theta, t) is not None

    for i, t in enumerate(gens):
        for u in gens[i + 1:]:
            x, y = value(t), value(u)
            for fn in (add, sub, mul):
                check(fn(x, y), (x, y))
    for trio in ((0, 1, 2), (0, 3, 4), (5, 6, 1), (2, 3, 7)):
        xs = [value(gens[i]) for i in trio]
        ys = [value(gens[i]) for i in reversed(trio)]
        check(dot(xs, ys), xs + ys)
        vs = [tuple(value(gens[i]) for i in trio) for _ in range(2)]
        for got in combo(xs[:2], vs):
            check(got, xs[:2] + [c for v in vs for c in v])


def test_a_value_of_a_subfield_joins_by_its_own_field(monkeypatch):
    """(sqrt 2 + sqrt 3) - sqrt 2, over fresh generators, is sqrt 3 over
    the degree-4 compositum psi; alone over psi, it joins the cube root of
    2 by its own field: psi records sqrt 3's own generator u, and the
    product lies over a degree-6 compositum that reaches u, not over one
    of degree 12, with nothing factorised.  Adding the cube root of 4
    gives sympy's sqrt(3) * 2^(1/3) + 4^(1/3)."""
    from rotagraph.algebraic import _gen, _reach
    t4 = AlgReal.from_root((1, 0, -10, 0, 1), 3)
    s3 = sub(t4, sqrt_nonneg(AlgReal(2)))
    psi = _gen(s3)[0]
    assert psi.degree == 4 and s3.degree == 2
    assert so.same_value(s3, so.value(t4) - so.sqrt(2))
    cbrt2, = real_roots((-2, 0, 0, 1))
    calls = []
    original = polys.factor_int
    monkeypatch.setattr(polys, "factor_int", lambda c: calls.append(c) or original(c))
    got = mul(s3, cbrt2)
    assert calls == []
    theta = _gen(got)[0]
    u = psi._embeds[-1][0]
    assert theta.degree == 6 and u.min_poly == (-3, 0, 1)
    assert None not in (_reach(theta, u), _reach(theta, cbrt2), _reach(psi, u))
    monkeypatch.setattr(polys, "factor_int", original)
    cbrt4, = real_roots((-4, 0, 0, 1))
    total = add(got, cbrt4)
    assert expr.to_expr(total) == "root(-92,-216,-108,-8,0,0,1,1)"
    assert so.same_value(total, so.sqrt(3) * so.value(cbrt2) + so.value(cbrt4))


def test_dot_meets_its_products_before_it_joins(monkeypatch):
    """The inner product of (sqrt 2, sqrt 7, 2^(1/3)) with itself would join
    three generators, so each product meets over its own factors' field
    first: 2, 7 and 2^(2/3) then meet over the cube root of 2, and
    9 + 2^(2/3) lies over it, with no compositum built; the same holds for
    combo.  Products over unrelated fields are joined by their own fields:
    the inner product of (sqrt 2, sqrt 3) with (sqrt 5, sqrt 7) builds
    Q(sqrt 2, sqrt 5) and Q(sqrt 3, sqrt 7) for the products, and lies over
    the degree-4 compositum of sqrt 10 and sqrt 21, not over one of degree
    16."""
    from rotagraph import algebraic
    from rotagraph.algebraic import _gen, _reach, combo, dot
    s2, s7, cbrt2 = SQRT2, sqrt_nonneg(AlgReal(7)), real_roots((-2, 0, 0, 1))[0]
    joins = []
    original = algebraic._compositum
    monkeypatch.setattr(algebraic, "_compositum", lambda *t: joins.append(t) or original(*t))
    v = (s2, s7, cbrt2)
    got = dot(v, v)
    assert _gen(got)[0] is cbrt2 and got == add(9, mul(cbrt2, cbrt2))
    vs = ((s7, mul(2, s7)), (cbrt2, 1), (s2, s2))
    assert all(_gen(c)[0] is cbrt2 for c in combo(v[1:] + v[:1], vs))
    assert joins == []
    s2, s3, s5 = (sqrt_nonneg(AlgReal(d)) for d in (2, 3, 5))
    got = dot((s2, s3), (s5, s7))
    theta = _gen(got)[0]
    assert theta.degree == 4 and len(joins) == 3
    assert None not in (_reach(theta, sqrt_nonneg(AlgReal(10))), _reach(theta, sqrt_nonneg(AlgReal(21))))
    assert so.same_value(got, so.sqrt(2) * so.sqrt(5) + so.sqrt(3) * so.sqrt(7))


def _seeded_quadratic_pairs(seed, count):
    """(m1, i1, m2, i2): irreducible quadratics with two real roots, not
    monic and not centred in general, root indices either way, and
    discriminants whose product is no square."""
    rng = random.Random(seed)

    def quadratic():
        while True:
            m = (rng.randint(-30, 30), rng.randint(-12, 12), rng.randint(1, 9))
            if gcd(*m) == 1 and polys.discriminant(m) > 0 and \
                    polys.int_sqrt(polys.discriminant(m)) is None:
                return m

    while count:
        m1, m2 = quadratic(), quadratic()
        if polys.int_sqrt(polys.discriminant(m1) * polys.discriminant(m2)) is None:
            count -= 1
            yield m1, rng.randrange(2), m2, rng.randrange(2)


def test_quadratic_join_matches_the_general_route():
    """Two quadratic generators join in closed form (_quadratic_sum) into
    psi = t1 + t2 of degree 4, whose minimal polynomial is the composed
    sum of theirs, with embeddings h1 and h2 = x - h1 that m1 and m2 send
    to 0 modulo it; psi and h1(psi) agree with t1 + t2 and t1 in floats.
    One pair in 25 gives sympy's t1 + t2, t1 and t2."""
    from rotagraph.algebraic import _X, _field
    monic = centred = 0
    for i, (m1, i1, m2, i2) in enumerate(_seeded_quadratic_pairs(28, 300)):
        monic += m1[2] == 1
        centred += m1[1] == 0
        t1, t2 = AlgReal.from_root(m1, i1), AlgReal.from_root(m2, i2)
        psi, g1, g2 = _field((t1, t2))
        (u1, h1), (u2, h2) = psi._embeds
        assert (u1, u2) == (t1, t2) and (g1, g2) == (h1, h2)
        assert psi.degree == 4 and polys.qadd(h1, h2) == _X, (m1, i1, m2, i2)
        assert psi.min_poly == polys.primitive(polys.cand_sum(m1, m2))
        for m, h in ((m1, h1), (m2, h2)):
            assert polys.compose_mod(polys.qpoly(m), h, psi.min_poly) == ((), 1)
        x1, x2 = approx(t1), approx(t2)
        assert near(psi, x1 + x2), (m1, i1, m2, i2)
        assert near(AlgReal._over(psi, h1), x1)     # and so h2(psi) = psi - h1(psi)
        if i % 25 == 0:
            x1, x2 = so.value(t1), so.value(t2)
            assert so.same_value(psi, x1 + x2), (m1, i1, m2, i2)
            assert so.same_value(AlgReal._over(psi, h1), x1)
            assert so.same_value(AlgReal._over(psi, h2), x2)
    assert monic < 100 and centred < 100


def test_quadratic_compositum_matches_root_selection():
    """psi = t1 + t2 for two quadratic generators has the minimal
    polynomial, and the value, of the root that root selection on the
    factors of their composed sum brackets by t1's and t2's intervals
    (_select_root, kept here as the oracle), also where t1 + t2 lies near
    one of its conjugates (sqrt 2 - sqrt(2 + 10^-6))."""
    from rotagraph.algebraic import _compositum, _select_root
    pairs = list(_seeded_quadratic_pairs(3902, 120))
    pairs += [((-2, 0, 1), 1, (-2000001, 0, 1000000), 0),
              ((-2, 0, 1), 0, (-2000001, 0, 1000000), 1)]
    for m1, i1, m2, i2 in pairs:
        psi = _compositum(AlgReal.from_root(m1, i1), AlgReal.from_root(m2, i2))
        t1, t2 = AlgReal.from_root(m1, i1), AlgReal.from_root(m2, i2)
        want = _select_root(polys.factor_int(polys.cand_sum(m1, m2)),
                            lambda: tuple(a + b for a, b in zip(t1.interval, t2.interval)),
                            lambda: (t1.refine(), t2.refine()))
        assert psi.min_poly == want.min_poly and compare(psi, want) == EQUAL, (m1, i1, m2, i2)
        assert polys.count_roots_halfopen(psi.min_poly, *psi.interval) == 1
    assert abs(approx(psi)) < 1e-6


def test_tower_over_a_linear_radicand_records_the_gcds_embedding():
    """sqrt(a) for a = (c0 + c1*theta)/d, theta of degree 2 or 4, no square
    in Q(theta), records theta = h(sqrt(a)) with h the reduced embedding
    that the gcd over Q(sqrt(a)) of m_theta(x) and a(x) - sqrt(a)^2 gives
    (polys.gcd_mod, kept here as the oracle)."""
    from rotagraph.algebraic import _gen
    rng = random.Random(3903)
    cases = {2: 0, 4: 0}
    while min(cases.values()) < 25:
        n = rng.choice((2, 4))
        m = polys.primitive([rng.randint(-9, 9) for _ in range(n)] + [rng.randint(1, 4)])
        if polys.irreducible_factors(m) != (m,) or not real_roots(m):
            continue
        theta = rng.choice(real_roots(m))
        a = AlgReal._over(theta, polys.qpoly((rng.randint(-9, 9), rng.choice((-1, 1)) *
                                              rng.randint(1, 9)), rng.randint(1, 5)))
        a = a if a.sign() > 0 else neg(a)
        root = sqrt_nonneg(a)
        if root.degree != 2 * n:         # a square of Q(theta)
            continue
        cases[n] += 1
        (c0, c1), d = _gen(a)[1]
        g = [polys.qsub(polys.qpoly((c0,), d), ((0, 0, 1), 1)), polys.qpoly((c1,), d)]
        f = polys.gcd_mod([polys.qpoly((v,)) for v in m], g, root.min_poly)
        assert len(f) == 2, (m, c0, c1, d)
        assert root._embeds == ((theta, polys.qscale(f[0], -1)),), (m, c0, c1, d)


def test_combo_matches_the_per_coordinate_chain(monkeypatch):
    """combo gives each coordinate the value of dot on that coordinate,
    over rationals, one generator, a tower sqrt(1 + sqrt 2) with sqrt 2,
    two unrelated quadratics (met over their compositum), three and four
    generators (a cube root with three quadratics, met over iterated
    composita), all over one generator, and with add and mul patched to
    raise inside both.  The first case of each shape is sympy's sums of
    products, but for four generators: sympy's minimal_polynomial is too
    slow on their degree-24 sums."""
    from rotagraph import algebraic
    from rotagraph.algebraic import combo, dot
    rng = random.Random(29)
    cbrt2, = real_roots((-2, 0, 0, 1))

    def rational():
        return AlgReal(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))

    def over(t):
        return add(rational(), mul(rational(), t))

    def chain_call(*_):
        raise AssertionError("a sum of products took the add/mul chain")

    tower = sqrt_nonneg(add(1, SQRT2))
    forms = {id(None): so.Integer(1), id(SQRT2): so.sqrt(2), id(SQRT3): so.sqrt(3),
             id(tower): so.sqrt(1 + so.sqrt(2))}
    cases = {"rational": [None], "one generator": [SQRT3], "tower": [tower, SQRT2],
             "two quadratics": [SQRT3], "three quadratics": [SQRT2, SQRT3],
             "four generators": [cbrt2, SQRT2, SQRT3]}
    for name, fixed in cases.items():
        for k in range(6):
            gens = fixed
            if name.endswith(("quadratics", "generators")):     # and a fresh quadratic
                q = Fraction(rng.randint(5, 40), 7)
                gens = fixed + [sqrt_nonneg(AlgReal(q))]
                forms[id(gens[-1])] = so.sqrt(so.rational(q))

            def value():
                t = rng.choice(gens)
                return rational() if t is None or rng.random() < 0.2 else over(t)

            cs = [value() for _ in range(3)]
            vs = [tuple(value() for _ in range(3)) for _ in range(3)]
            with monkeypatch.context() as m:
                m.setattr(algebraic, "add", chain_call)
                m.setattr(algebraic, "mul", chain_call)
                got = combo(cs, vs)
                dots = [dot(cs, [v[j] for v in vs]) for j in range(3)]
            assert all(compare(x, y) == EQUAL for x, y in zip(got, dots, strict=True)), name
            if k == 0 and name != "four generators":
                want = [sum(_closed(c, forms) * _closed(v[j], forms) for c, v in zip(cs, vs))
                        for j in range(3)]
                assert so.same_values(got, want), name
            if name != "rational":
                assert len({id(_gen_of(v)) for v in got if not v.is_rational}) == 1, name


def test_biquadratic_equidistant_point_takes_no_add_chain(monkeypatch):
    """At cos l = sqrt(3)/2 the equidistant point's lift is a linear
    combination over Q(sqrt 3) and a fresh quadratic gamma: combo joins
    the two once and meets over their compositum, with no add/mul chain,
    so it is built with algebraic.add patched to raise."""
    from rotagraph import algebraic, elliptic as ep
    cos_l = sqrt_nonneg(AlgReal(Fraction(3, 4)))
    p = ep.make_point(Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))
    q = ep.make_point(Fraction(2, 7), Fraction(3, 7), Fraction(6, 7))

    def chain_call(*_):
        raise AssertionError("a linear combination took the add chain")

    monkeypatch.setattr(algebraic, "add", chain_call)
    z = ep.equidistant_point(p, q, cos_l)
    monkeypatch.undo()
    assert ep.dist_cos(z, p) == cos_l and ep.dist_cos(z, q) == cos_l
    assert _gen_of(z.lift[0]).degree == 4


def test_integer_powers_and_order_comparisons():
    assert SQRT2 ** 3 == mul(2, SQRT2)
    assert SQRT2 ** 0 == 1
    for n in (-1, 0.5):
        with pytest.raises(OutOfRangeError):
            SQRT2 ** n
    s5 = sqrt_nonneg(AlgReal(5))
    assert SQRT2 < SQRT3 and SQRT2 <= SQRT3 and not SQRT2 > SQRT3 and not SQRT2 >= SQRT3
    assert s5 > add(SQRT2, Fraction(1, 2)) and s5 >= Fraction(2)
    assert SQRT3 <= SQRT3 and SQRT3 >= sqrt_nonneg(AlgReal(3))
    assert not SQRT3 < SQRT3 and not SQRT3 > SQRT3


# -- values against sympy's closed forms ---------------------------------------

def test_the_oracle_catches_a_wrong_root(monkeypatch):
    """A value isolated on another root of its own minimal polynomial
    has sympy's minimal polynomial but fails same_value: over a quadratic,
    with an _isolate_quadratic that cuts g's enclosure on the other side of
    f's axis; over the totally real cubic field of 2 cos(2 pi / 9), with a
    _select_root that returns the next root of the factor it selects, as
    polys isolates them."""
    from rotagraph import algebraic
    isolate_quadratic, select_root = algebraic._isolate_quadratic, algebraic._select_root

    def other_side(theta, g):
        f, (lo, hi), _ = isolate_quadratic(theta, g)
        axis = Fraction(-f[1], 2 * f[2])        # f's two roots lie either side
        return f, (2 * axis - hi, 2 * axis - lo), polys.sign_at(f, 2 * axis - hi)

    def next_root(factors, interval_fn, refine_fn):
        root = select_root(factors, interval_fn, refine_fn)
        roots = [AlgReal._make(root.min_poly, i) for i in polys.isolate_roots(root.min_poly)]
        k = next(k for k, r in enumerate(roots) if compare(r, root) == EQUAL)
        return roots[(k + 1) % len(roots)]

    *_, lam = cubic = real_roots((1, -3, 0, 1))  # lam = 2 cos(2 pi / 9)
    assert len(cubic) == 3
    for name, mutant, build, e in (
            ("_isolate_quadratic", other_side, lambda: add(1, mul(3, SQRT2)), 1 + 3 * so.sqrt(2)),
            ("_select_root", next_root, lambda: add(1, mul(lam, lam)), 1 + so.value(lam) ** 2)):
        assert so.same_value(build(), e)
        with monkeypatch.context() as m:
            m.setattr(algebraic, name, mutant)
            v = build()
            assert v.min_poly == so.min_poly(e, v.degree) and not so.same_value(v, e), name


def test_rational_operand_scales_or_shifts_the_other_operand(monkeypatch):
    """A rational operand against an irrational x = g(theta) gives a value
    over the same theta, in either order and whether it arrives as an int,
    a Fraction or an AlgReal, that agrees with its value in floats; and it
    looks up no common field and reduces nothing.  For 0, -7/4 and one
    seeded rational the values are sympy's, and so is the sign a
    comparison reads."""
    from rotagraph import algebraic
    from rotagraph.algebraic import _gen
    irrationals = (SQRT2, add(1, mul(Fraction(-2, 3), SQRT2)),
                   sqrt_nonneg(add(1, SQRT2)), sub(mul(SQRT2, SQRT3), Fraction(1, 5)))
    closed = (so.sqrt(2), 1 - so.Rational(2, 3) * so.sqrt(2), so.sqrt(1 + so.sqrt(2)),
              so.sqrt(6) - so.Rational(1, 5))
    assert len({id(_gen(x)[0]) for x in irrationals}) == 3
    rng = random.Random(20)
    rationals = [0, 1, -1, -3, Fraction(-7, 4), Fraction(1, 2)] + \
        [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(4)]
    exact = {0, Fraction(-7, 4), rationals[6]}
    ops = {"add": (add, operator.add), "sub": (sub, operator.sub),
           "mul": (mul, operator.mul), "div": (div, operator.truediv), "compare": (compare, None)}
    calls = []
    # the routines that would search for a common field or reduce modulo m
    for owner, name in ((algebraic, "_reach"), (algebraic, "_compositum"),
                        (polys, "compose_mod"), (polys, "pseudo_rem")):
        monkeypatch.setattr(owner, name, lambda *a, _name=name, _fn=getattr(owner, name):
                            calls.append(_name) or _fn(*a))
    for x, e in zip(irrationals, closed):
        theta, u = _gen(x)[0], approx(x)
        for r in rationals:
            q, w = so.rational(r), float(r)
            for op, (fn, sym) in ops.items():
                for x_first in (True, False):
                    if op == "div" and x_first and r == 0:
                        continue
                    n = len(calls)
                    got = [fn(x, v) if x_first else fn(v, x)
                           for v in (r, Fraction(r), AlgReal(r))]
                    assert calls[n:] == [], (op, r, x_first)
                    if op == "compare":
                        sign = so.sign(e - q) if r in exact else (u > w) - (u < w)
                        assert got == [sign * (1 if x_first else -1)] * 3
                        continue
                    assert len({(expr.to_expr(v), _gen(v)) for v in got}) == 1
                    assert got[0].is_rational or _gen(got[0])[0] is theta
                    assert near(got[0], sym(u, w) if x_first else sym(w, u))
                    if r in exact:
                        want = sym(e, q) if x_first else sym(q, e)
                        assert so.same_value(got[0], want), (op, r, x_first)


def _fields():
    """Generators of Q(sqrt 2), Q(sqrt(1 + sqrt 2)), the compositum
    sqrt 2 + sqrt 3 and the cubic field of the real eigenvalue 1 + 6^(1/3)
    of an integer matrix, each with its name."""
    from rotagraph import isometry as iso
    from rotagraph.algebraic import _gen
    m = iso.LinearMap(((1, 2, 0), (0, 1, 3), (1, 0, 1)))
    lam, = real_roots((neg(m.det()), iso._minor2_sum(m), neg(m.trace()), 1))
    fields = {"sqrt 2": SQRT2, "sqrt(1 + sqrt 2)": sqrt_nonneg(add(1, SQRT2)),
              "sqrt 2 + sqrt 3": add(SQRT2, SQRT3), "cubic eigenvalue": lam}
    fields = {name: _gen(v)[0] for name, v in fields.items()}
    assert [t.degree for t in fields.values()] == [2, 4, 4, 3]
    return fields


#: the generators of _fields in closed form
_FIELD_FORMS = {"sqrt 2": so.sqrt(2), "sqrt(1 + sqrt 2)": so.sqrt(1 + so.sqrt(2)),
                "sqrt 2 + sqrt 3": so.sqrt(2) + so.sqrt(3),
                "cubic eigenvalue": 1 + so.Integer(6) ** so.Rational(1, 3)}


def test_integer_elements_match_the_fraction_route():
    """Seeded values over four fields, held as integer numerators over one
    denominator, through add, sub, mul, div, compare and sqrt: each result
    agrees with its value in floats, and an irrational one lies over the
    same theta.  For the first pair and the first square root over each
    field, the values are sympy's; there the quotient's closed form is
    reduced by sympy's own arithmetic in Q(t) (an inverse modulo t's
    minimal polynomial): sympy's minimal_polynomial of a plain quotient
    over the cubic field takes about a second.  A square root of a square
    is tagged over the same theta where polys.sqrt_candidates has an inert
    prime; the biquadratic compositum has none, so there only its value is
    checked."""
    from rotagraph.algebraic import _gen
    rng = random.Random(2101)
    checked = 0
    for name, theta in _fields().items():
        t = _FIELD_FORMS[name]
        assert so.same_value(theta, t), name
        forms = {id(theta): t, id(None): so.Integer(1)}
        floats = {id(theta): approx(theta), id(None): 1.0}
        values = []
        while len(values) < 12:
            v = _over(theta, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                              for _ in range(theta.degree)])
            if not v.is_rational:
                values.append(v)
        for k, (a, b) in enumerate(zip(values, values[1:])):
            assert _gen(a)[0] is theta
            u, v = _closed(a, floats), _closed(b, floats)
            for got, want in ((add(a, b), u + v), (sub(a, b), u - v), (mul(a, b), u * v),
                              (div(a, b), u / v)):
                assert got.is_rational or _gen(got)[0] is theta, name
                assert near(got, want), name
            assert compare(a, b) == (u > v) - (u < v)
            checked += 5
            if k == 0:
                x, y = _closed(a, forms), _closed(b, forms)
                m = so.Poly(so.min_poly(t)[::-1], so.X)
                (na, da), (nb, db) = _gen(a)[1], _gen(b)[1]
                quotient = (so.Poly(na[::-1], so.X) * sympy.invert(so.Poly(nb[::-1], so.X), m)) \
                    .rem(m).as_expr().subs(so.X, t) * db / da
                for got, want in ((add(a, b), x + y), (sub(a, b), x - y), (mul(a, b), x * y),
                                  (div(a, b), quotient)):
                    assert so.same_value(got, want), name
                assert compare(a, b) == so.sign(x - y)
        for k, b in enumerate(values[:2 if name == "sqrt 2 + sqrt 3" else 6]):
            root = sqrt_nonneg(mul(b, b))
            assert name == "sqrt 2 + sqrt 3" or _gen(root)[0] is theta
            assert near(root, abs(_closed(b, floats))), name
            if k == 0:
                y = _closed(b, forms)
                assert so.same_value(root, y * so.sign(y)), name
            checked += 1
    assert checked == 4 * 11 * 5 + 3 * 6 + 2


def test_dot_matches_the_add_mul_chain(monkeypatch):
    """dot gives the value of the pairwise add/mul chain on rational,
    one-field, mixed (rationals and one field), linked and cross-field
    vectors of lengths 1 to 3: the same Fraction on rationals, and the same
    theta and the same g whenever the chain stays over one generator; the
    first draw of each kind and length 2 or 3 is sympy's sum of products.
    Linked vectors mix generators that one of them reaches through
    recorded embeddings: the tower sqrt(1 + sqrt 2) with sqrt 2, or a
    compositum of sqrt 2 and sqrt 3 with both; dot maps them into it and
    calls no add or mul.  Cross-field vectors lie over exactly sqrt 2 and
    sqrt 3, which no record links: dot meets them once over their
    compositum, with no add or mul either."""
    from rotagraph import algebraic
    from rotagraph.algebraic import _gen, dot
    rng = random.Random(2102)
    tower = _gen(sqrt_nonneg(add(1, SQRT2)))[0]
    compositum = _gen(add(SQRT2, SQRT3))[0]
    assert [t for t, _ in compositum._embeds] == [SQRT2, SQRT3]

    forms = {id(tower): so.sqrt(1 + so.sqrt(2)), id(compositum): so.sqrt(2) + so.sqrt(3),
             id(SQRT2): so.sqrt(2), id(SQRT3): so.sqrt(3), id(None): so.Integer(1)}

    def rat():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))

    def over(theta):
        return _over(theta, [rat() for _ in range(theta.degree)])

    families = ((tower, SQRT2), (compositum, SQRT2, SQRT3))
    family = None

    def linked():
        return rng.choice((AlgReal(rat()), *map(over, family)))

    def irrational(theta):
        while True:
            v = over(theta)
            if _gen(v)[0] is theta:
                return v

    def chain_call(*_):
        raise AssertionError("dot took the add/mul chain")

    kinds = {
        "rational": lambda: rng.choice((rat(), AlgReal(rat()), rng.randint(-5, 5))),
        "one field": lambda: over(tower),
        "mixed": lambda: rng.choice((AlgReal(rat()), rat(), over(SQRT2))),
        "linked": linked,
        "cross field": lambda: rng.choice((over(SQRT2), over(SQRT3), AlgReal(rat()))),
    }
    several = 0
    for kind, draw in kinds.items():
        for n in (1, 2, 3):
            for k in range(12):
                family = rng.choice(families)
                xs, ys = [draw() for _ in range(n)], [draw() for _ in range(n)]
                with monkeypatch.context() as m:
                    if kind == "linked":    # one operand over the top generator
                        xs[0] = over(family[0])
                        several += len({id(t) for t, _ in map(_gen, xs + ys)} - {id(None)}) > 1
                    if kind == "cross field":
                        xs[0], ys[-1] = irrational(SQRT2), irrational(SQRT3)
                    if kind in ("linked", "cross field"):
                        m.setattr(algebraic, "add", chain_call)
                        m.setattr(algebraic, "mul", chain_call)
                    got = dot(xs, ys)
                want = mul(xs[0], ys[0])
                for x, y in zip(xs[1:], ys[1:]):
                    want = add(want, mul(x, y))
                assert compare(got, want) == EQUAL, (kind, xs, ys)
                if want.is_rational:
                    assert got.is_rational and got.as_rational() == want.as_rational()
                else:
                    (gt, gg), (wt, wg) = _gen(got), _gen(want)
                    assert gt is wt and gg == wg, (kind, xs, ys)
                if k == 0 and n > 1:
                    e = sum(_closed(x, forms) * _closed(y, forms) for x, y in zip(xs, ys))
                    assert so.same_value(got, e), (kind, xs, ys)
    assert several >= 12


def test_zero_terms_join_no_field():
    """dot reads each pair with a zero factor, and combo each vector with a
    zero coefficient, as zeros before the operands meet: the results lie
    over sqrt 2, as mul(sqrt 2, 1/3) does, not over its compositum with
    sqrt 3."""
    from rotagraph.algebraic import _gen, combo, dot
    third = AlgReal(Fraction(1, 3))
    for v in (dot((SQRT2, 0), (third, SQRT3)), dot((SQRT2, SQRT3), (third, AlgReal(0))),
              combo((1, 0), ((SQRT2, 1, 1), (SQRT3, 1, 1)))[0]):
        assert _gen(v)[0].degree == 2
    assert compare(dot((SQRT2, 0), (third, SQRT3)), mul(SQRT2, third)) == EQUAL


def test_compare_across_unrelated_fields_builds_no_compositum(monkeypatch):
    """compare of values over two quadratic generators that no record links
    refines their intervals and joins nothing: _compositum is called zero
    times, in either order and through every comparison operator."""
    from rotagraph import algebraic
    calls = []
    original = algebraic._compositum
    monkeypatch.setattr(algebraic, "_compositum", lambda *t: calls.append(t) or original(*t))
    r5, r7 = sqrt_nonneg(AlgReal(5)), sqrt_nonneg(AlgReal(7))
    a, b = add(1, mul(6, r5)), sub(mul(5, r7), Fraction(1, 2))   # 14.416..., 12.728...
    assert compare(a, b) == GREATER and compare(b, a) == LESS
    assert b < a and a >= b and a != b and not b == a
    assert compare(mul(6, r5), mul(5, r7)) == GREATER      # 13.416... against 13.228...
    assert calls == []
    assert add(r5, r7).degree == 4 and len(calls) == 1     # add joins the same pair


def test_reach_returns_a_recorded_embedding_as_stored():
    """_reach of a generator recorded directly in psi (a tower's radicand
    field, a compositum's two summands) is the stored h itself, which is
    x(h) reduced modulo psi's minimal polynomial."""
    from rotagraph.algebraic import _X, _gen, _reach
    for psi in (_gen(sqrt_nonneg(add(1, SQRT2)))[0], _gen(add(SQRT2, SQRT3))[0]):
        assert psi._embeds
        for t, h in psi._embeds:
            assert _reach(psi, t) is h
            assert h == polys.compose_mod(_X, h, psi.min_poly)


def test_operands_convert_as_as_algreal_does():
    """Every operation takes True, an int, a Fraction and a string of one,
    against an irrational and against a rational partner, with
    as_algreal's result; None and a malformed string raise TypeError and
    ValueError as Fraction does."""
    from rotagraph.algebraic import as_algreal
    assert type(AlgReal(Fraction(3, 4)).as_rational()) is Fraction
    assert AlgReal(Fraction(3, 4)).as_rational() == Fraction(3, 4)
    for partner in (SQRT2, AlgReal(Fraction(2, 5))):
        for fn in (add, sub, mul, div, compare):
            for v in (True, 3, Fraction(3, 4), "3/4"):
                for got, want in ((fn(v, partner), fn(as_algreal(v), partner)),
                                  (fn(partner, v), fn(partner, as_algreal(v)))):
                    if fn is compare:
                        assert got == want
                    else:
                        assert (expr.to_expr(got), got.approx(80)) == \
                            (expr.to_expr(want), want.approx(80))
            for v, error in ((None, TypeError), ("x", ValueError)):
                with pytest.raises(error):
                    fn(v, partner)
                with pytest.raises(error):
                    fn(partner, v)
        for v in (True, 3, Fraction(3, 4), "3/4"):
            assert (partner < v, partner >= v, neg(v)) == \
                (partner < as_algreal(v), partner >= as_algreal(v), neg(as_algreal(v)))
        for v, error in ((None, TypeError), ("x", ValueError)):
            with pytest.raises(error):
                partner < v
            with pytest.raises(error):
                neg(v)
            assert partner != v


def test_rational_pairs_match_fraction_arithmetic():
    """Seeded rational operands, given as ints, bools, Fractions, strings
    and AlgReals, zero and negatives among them, through add, sub, mul,
    div, compare, neg and dot: each result is Fraction arithmetic's; its
    tag is the canonical constant element over no generator (coprime
    numerator over a positive denominator, zero as ((), 1)); its hash is
    the Fraction's; and it has no root (minimal polynomial and interval)
    until interval, min_poly or as_rational is read."""
    from rotagraph.algebraic import dot
    rng = random.Random(2201)
    special = [0, 1, -1, True, False, "0", "-3/4", Fraction(0), Fraction(-5, 3)]
    special = [(v, Fraction(v)) for v in special] + [(AlgReal(0), Fraction(0))]

    def draw():
        if rng.random() < 0.3:
            return rng.choice(special)
        r = Fraction(rng.randint(-40, 40), rng.randint(1, 15))
        forms = [r, AlgReal(r), str(r)] + ([int(r)] if r.denominator == 1 else [])
        return rng.choice(forms), r

    def check(got, want):
        theta, (n, d) = got._tag
        assert theta is None and d > 0 and gcd(*n, d) == 1
        assert (n, d) == (((want.numerator,) if want else ()), want.denominator)
        assert got._root is None
        reader = rng.choice(("interval", "min_poly", "as_rational"))
        if reader == "interval":
            assert got.interval == (want, want)
        elif reader == "min_poly":
            assert got.min_poly == (-want.numerator, want.denominator)
        else:
            assert got.as_rational() == want and type(got.as_rational()) is Fraction
        assert got._root is not None
        assert got.is_rational and got.as_rational() == want and hash(got) == hash(want)

    for _ in range(300):
        (a, fa), (b, fb) = draw(), draw()
        check(AlgReal(fa if isinstance(a, AlgReal) else a), fa)
        check(add(a, b), fa + fb)
        check(sub(a, b), fa - fb)
        check(mul(a, b), fa * fb)
        check(neg(a), -fa)
        if fb:
            check(div(a, b), fa / fb)
        else:
            with pytest.raises(DivisionByZeroError):
                div(a, b)
        assert compare(a, b) == (fa > fb) - (fa < fb)
        pairs = [(draw(), draw()) for _ in range(rng.randint(1, 3))]
        check(dot([x for (x, _), _ in pairs], [y for _, (y, _) in pairs]),
              sum(fx * fy for (_, fx), (_, fy) in pairs))


def test_rational_square_roots_match_the_sturm_route(monkeypatch):
    """sqrt(r) for seeded rationals r (non-squares, squares, numerators
    above 2^64, tiny 1/q) has the minimal polynomial and the interval that
    root selection over the factors of m_r(x^2) gives, one root of it in
    that interval, and the square r; it builds no Sturm chain."""
    from rotagraph.algebraic import _select_root, _sqrt_interval
    rng = random.Random(2301)
    cases = [Fraction(3, 4), Fraction(5, 7), Fraction(2), Fraction(1, 4), Fraction(9, 49)]
    for _ in range(15):
        cases += [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)),
                  Fraction(rng.randint(2 ** 64, 2 ** 90), rng.randint(1, 10 ** 4)),
                  Fraction(1, rng.randint(2, 10 ** 40)),
                  Fraction(rng.randint(1, 2 ** 40), rng.randint(1, 10 ** 6)) ** 2]
    original = polys.sturm_chain
    squares = 0
    for r in cases:
        a = AlgReal(r)
        square = polys.rational_sqrt(r)
        if square is None:
            want = _select_root(polys.factor_int(polys.cand_sqrt(a.min_poly)),
                                lambda: _sqrt_interval(a.interval), a.refine)
        else:
            want, squares = AlgReal(square), squares + 1
        chains = []
        monkeypatch.setattr(polys, "sturm_chain", lambda c: chains.append(c) or original(c))
        got = sqrt_nonneg(AlgReal(r))
        monkeypatch.setattr(polys, "sturm_chain", original)
        assert chains == [], r
        assert (got.min_poly, got.interval) == (want.min_poly, want.interval), r
        assert got.is_rational == (square is not None)
        if square is None:
            assert polys.count_roots_halfopen(got.min_poly, *got.interval) == 1
        assert mul(got, got) == r
    assert squares >= 15 and len(cases) - squares >= 40


def test_record_accepts_an_embedding_by_one_root_in_the_hull(monkeypatch):
    """Joining sqrt(3/4) and sqrt(5/7) records both embeddings without
    refining psi, since each m_t has one root in the hull of h(psi)'s
    enclosure and t's interval.  -h1, which gives the other root of m_t1,
    and an h that gives no root are refused."""
    from rotagraph.algebraic import _field, _record
    from rotagraph.errors import InternalConsistencyError
    t1 = sqrt_nonneg(AlgReal(Fraction(3, 4)))
    t2 = sqrt_nonneg(AlgReal(Fraction(5, 7)))
    refined, original = [], AlgReal.refine
    monkeypatch.setattr(AlgReal, "refine", lambda self: refined.append(self) or original(self))
    psi, g1, g2 = _field((t1, t2))
    monkeypatch.setattr(AlgReal, "refine", original)
    assert psi.degree == 4 and not any(v is psi for v in refined)
    (u1, h1), (u2, h2) = embeds = psi._embeds
    assert u1 is t1 and u2 is t2
    assert AlgReal._over(psi, g1) == t1 and AlgReal._over(psi, g2) == t2
    with pytest.raises(InternalConsistencyError, match="embedding is another root"):
        _record(psi, ((t1, (tuple(-c for c in h1[0]), h1[1])),))
    with pytest.raises(InternalConsistencyError, match="not a root"):
        _record(psi, ((t1, polys.qadd(h1, ((1,), 1))),))
    assert psi._embeds == embeds


# -- quadratic and quartic facts settled once ---------------------------------

def _seeded_quadratic_elements(seed, count):
    """(m, i, g): a root index i of an irreducible quadratic m with two real
    roots, non-monic in general, and an element g = (n0 + n1*x)/d, n1 != 0
    of either sign; one case in four has coefficients of about 60 bits."""
    rng = random.Random(seed)
    while count:
        bits = 60 if rng.random() < 0.25 else 5
        m = (rng.randint(-2 ** bits, 2 ** bits), rng.randint(-2 ** bits, 2 ** bits),
             rng.randint(1, 2 ** bits))
        if gcd(*m) != 1 or polys.discriminant(m) <= 0 or \
                polys.int_sqrt(polys.discriminant(m)) is not None:
            continue
        n1 = rng.choice((-1, 1)) * rng.randint(1, 2 ** bits)
        g = polys.qpoly((rng.randint(-2 ** bits, 2 ** bits), n1), rng.randint(1, 2 ** bits))
        count -= 1
        yield m, rng.randrange(2), g


def test_quadratic_isolation_matches_the_trace_route(monkeypatch):
    """A value over a quadratic generator gets, in closed form, the
    minimal polynomial that traces give (polys.minimal_polynomial), an
    interval holding exactly one root of it, and the value that root
    selection on the enclosure gives (_select_root): that route is kept
    here as the oracle, and the closed form reads no trace."""
    from rotagraph.algebraic import _enclose, _select_root
    seen = {"larger root": 0, "n1 < 0": 0, "non-monic": 0, "60 bits": 0}
    original = polys.minimal_polynomial

    def no_trace(*_):
        raise AssertionError("a quadratic value read its traces")

    for m, i, g in _seeded_quadratic_elements(29, 300):
        theta = AlgReal.from_root(m, i)
        monkeypatch.setattr(polys, "minimal_polynomial", no_trace)
        f, (lo, hi), s = AlgReal._over(theta, g)._isolated()
        monkeypatch.setattr(polys, "minimal_polynomial", original)
        ref = AlgReal.from_root(m, i)
        want = _select_root((original(g, m),), lambda: _enclose(g, ref.interval), ref.refine)
        assert f == want.min_poly and s == polys.sign_at(f, lo), (m, i, g)
        assert polys.count_roots_halfopen(f, lo, hi) == 1
        assert _compare_isolated(AlgReal._make(f, (lo, hi)), want) == EQUAL, (m, i, g)
        seen["larger root"] += i
        seen["n1 < 0"] += g[0][1] < 0
        seen["non-monic"] += m[2] != 1
        seen["60 bits"] += max(map(abs, m)).bit_length() > 40
    assert min(seen.values()) >= 50, seen


def test_isolating_a_generator_of_its_field_builds_one_sturm_chain(monkeypatch):
    """g(theta) that generates Q(theta), of degree 8, has its
    characteristic polynomial as its minimal polynomial: _isolate builds
    one Sturm chain, whose last row shows that polynomial square-free and
    on which root selection then counts, and runs no other remainder
    sequence over Z (every other pseudo-remainder reduces modulo m)."""
    from rotagraph.algebraic import _isolate
    m = polys.cand_sum(polys.cand_sum((-2, 0, 1), (-3, 0, 1)), (-5, 0, 1))
    theta = AlgReal.from_root(m, 4)         # sqrt 2 + sqrt 3 - sqrt 5
    g = polys.qpoly((1, 3, 1), 2)           # (1 + 3*theta + theta^2) / 2
    polys.sturm_chain.cache_clear()
    polys.sturm_chain(m)                    # theta's own, refined on
    before = polys.sturm_chain.cache_info().misses
    remainders, original = [], polys.pseudo_rem

    def spy(a, b):
        if b != m:
            remainders.append(b)
        return original(a, b)

    monkeypatch.setattr(polys, "pseudo_rem", spy)
    f, (lo, hi), _ = _isolate(theta, g)
    monkeypatch.setattr(polys, "pseudo_rem", original)
    assert polys.sturm_chain.cache_info().misses == before + 1
    assert len(remainders) == len(polys.sturm_chain(f)) - 2
    assert polys.degree(f) == 8 and polys.count_roots_halfopen(f, lo, hi) == 1
    t = sqrt(2) + sqrt(3) - sqrt(5)
    assert lo < (1 + 3 * t + t * t) / 2 < hi


def _seeded_radicands(seed, count):
    """(kind, make): make() builds a fresh radicand a > 0 of degree 2 or 4,
    a root theta of an irreducible m or an element g(theta) of the same
    degree, no square in its field.
    - "small": theta - r for a rational r just below theta, so small
      against theta's interval that a's own interval often starts at 0,
      and so does the square root's bracket.
    - "near": theta itself, on an interval whose lower end lies just above
      the next smaller positive root of m (a best approximation with a
      denominator near 2^24), so the first bracket, rounded to 2^-16 of
      that denominator, holds the square roots of both and a is refined.
    - "random": an element with small random coefficients."""
    rng = random.Random(seed)
    while count:
        n = rng.choice((2, 4))
        m = polys.primitive([rng.randint(-9, 9) for _ in range(n)] + [rng.randint(1, 4)])
        if polys.irreducible_factors(m) != (m,):
            continue
        roots = real_roots(m)
        if not roots:
            continue
        i = rng.randrange(len(roots))
        kind = rng.choice(("small", "near", "random"))
        if kind == "near":
            positive = [r for r in roots if r.sign() > 0]
            if len(positive) < 2 or not polys.nonsquare_root(m):
                continue
            j = rng.randrange(1, len(positive))
            below = positive[j - 1].approx(120)
            near = next((c for c in (below.limit_denominator(2 ** k) for k in range(24, 40))
                         if compare(AlgReal(c), positive[j - 1]) == GREATER), None)
            if near is None or compare(AlgReal(near), positive[j]) != LESS:
                continue
            count -= 1
            hi = positive[j].interval[1]
            yield kind, (lambda m=m, near=near, hi=hi: AlgReal._make(m, (near, hi)))
            continue
        if kind == "small":
            r = roots[i].approx(rng.randint(4, 30)) - Fraction(1, 2 ** 40)
            g = polys.qpoly((-r.numerator, r.denominator), r.denominator)
        else:
            g = polys.qpoly([rng.randint(-9, 9) for _ in range(n)], rng.randint(1, 5))
        v = AlgReal._over(roots[i], g)
        if v.is_rational or v.degree != n:
            continue
        if v.sign() < 0:
            g = (tuple(-c for c in g[0]), g[1])
            v = neg(v)
        if polys.nonsquare_root(v.min_poly):
            count -= 1
            yield kind, (lambda m=m, i=i, g=g: AlgReal._over(AlgReal.from_root(m, i), g))


def test_square_root_counted_on_the_radicand_chain_matches_root_selection(monkeypatch):
    """The square root of a radicand of degree 2 or 4 that is no square in
    its field is the root of m(x^2) that a Sturm count on m itself
    brackets (_sqrt_of_nonsquare): the same minimal polynomial and bracket
    as root selection over the factors of m(x^2) on the same brackets (the
    oracle), including brackets that start at 0 and brackets that hold two
    roots until the radicand is refined; sqrt_nonneg builds no Sturm chain
    above degree n on the way, and gives the same value."""
    from rotagraph.algebraic import _select_root, _sqrt_interval, _sqrt_of_nonsquare
    total, clipped, refined = {2: 0, 4: 0}, 0, 0
    original = polys.sturm_chain
    for kind, make in _seeded_radicands(2902, 90):
        # ref and mine take the steps sqrt_nonneg takes before its bracket:
        # the sign, read off theta's interval for an element, then their
        # own interval
        a, ref, mine = make(), make(), make()
        for v in (ref, mine):
            v.sign()
            v.interval
        n, first = ref.degree, ref.interval
        total[n] += 1
        clipped += first[0] <= 0
        want = _select_root(polys.factor_int(polys.cand_sqrt(ref.min_poly)),
                            lambda: _sqrt_interval(ref.interval), ref.refine)
        refined += ref.interval != first
        root = _sqrt_of_nonsquare(mine)
        assert (root.min_poly, root.interval) == (want.min_poly, want.interval), kind
        assert root.min_poly == polys.cand_sqrt(mine.min_poly)
        assert polys.count_roots_halfopen(root.min_poly, *root.interval) == 1
        degrees = []
        monkeypatch.setattr(polys, "sturm_chain",
                            lambda c: degrees.append(len(c) - 1) or original(c))
        got = sqrt_nonneg(a)
        monkeypatch.setattr(polys, "sturm_chain", original)
        assert max(degrees, default=0) <= n
        assert got.min_poly == want.min_poly and compare(got, want) == EQUAL
        assert compare(mul(got, got), a) == EQUAL
    assert min(total.values()) >= 20 and clipped >= 6 and refined >= 6, (total, clipped, refined)


def _check_image(x, theta):
    """x keeps as its image over theta what compose_mod makes of its g and
    the embedding of its generator in theta."""
    from rotagraph.algebraic import _gen, _reach
    t, g = _gen(x)
    image = x._image
    assert image[0] is theta
    assert image[1] == polys.compose_mod(g, _reach(theta, t), theta.min_poly)


def test_an_image_is_the_map_compose_mod_makes():
    """A value over sqrt 2 met over the tower sqrt(1 + sqrt 2) (dot), and
    values over sqrt 2 and sqrt 3 met over their compositum (combo), each
    keep exactly what compose_mod makes, and a value never mapped has no
    image."""
    from rotagraph.algebraic import combo, dot
    tower = sqrt_nonneg(add(1, SQRT2))
    v = add(Fraction(2, 3), mul(Fraction(-5, 7), SQRT2))
    w = sub(SQRT3, Fraction(1, 2))
    assert not hasattr(v, "_image") and not hasattr(w, "_image")
    dot((v, 3), (tower, v))
    _check_image(v, tower)
    combo((w, v), ((v, 1, w), (w, 2, v)))
    psi = v._image[0]
    assert psi.degree == 4 and {id(t) for t, _ in psi._embeds} == {id(SQRT2), id(SQRT3)}
    _check_image(v, psi)
    _check_image(w, psi)


def _towers_over_sqrt2(s2):
    return [sqrt_nonneg(add(k, s2)) for k in (1, 3)]


def test_a_value_met_alternately_over_two_towers_stays_correct():
    """Values over sqrt 2 met over sqrt(1 + sqrt 2) and sqrt(3 + sqrt 2) in
    turn: each dot gives the theta and g that the same values with no image
    give, and each value's image follows the tower it last met."""
    from rotagraph.algebraic import _gen, dot
    rng = random.Random(2903)
    towers = _towers_over_sqrt2(SQRT2)
    vs = [add(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
              mul(Fraction(rng.randint(1, 9), rng.randint(1, 5)), SQRT2)) for _ in range(4)]
    for step in range(12):
        top = towers[step % 2]
        cs = [add(rng.randint(-3, 3), mul(rng.randint(1, 3), top)) for _ in vs]
        got = _gen(dot(vs, cs))
        want = _gen(dot([AlgReal._over(*_gen(v)) for v in vs], cs))
        assert got[0] is want[0] is top and got[1] == want[1], step
        for v in vs:
            _check_image(v, top)


def test_images_shared_between_threads():
    """Threads meeting shared values over sqrt 2 with two shared towers,
    in orders that overwrite each value's image under the others, all see
    the single-threaded answers: an image is one tuple written in one
    slot and used only for the generator it names."""
    import sys
    import threading
    from rotagraph.algebraic import dot

    def build():
        s2 = sqrt_nonneg(AlgReal(2))
        return _towers_over_sqrt2(s2), [add(Fraction(i, 3), mul(i + 1, s2)) for i in range(6)]

    def answers(towers, vals, offset):
        out = []
        for j in range(8):
            top = towers[(j + offset) % 2]
            v = dot(vals, [add(j - k, top) for k in range(len(vals))])
            out.append((v.min_poly, expr.to_expr(v), v.approx(80)))
        return out

    want = [answers(*build(), offset) for offset in range(2)]
    (towers, vals), results = build(), [None] * 8

    def work(i):
        results[i] = answers(towers, vals, i % 2)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert results == [want[i % 2] for i in range(8)]
