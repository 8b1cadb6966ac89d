"""Differential tests: the power-sum special resultants in `polys` against
sympy's resultant, written the way the kernel used to call it."""

import random

import sympy

from rotagraph import polys

X, Y, Z = sympy.symbols("x y z")


def _primitive(res):
    coeffs = sympy.Poly(res, X).all_coeffs()
    return polys.primitive([int(v) for v in reversed(coeffs)])


def _as_expr(c, var):
    return sympy.Poly(list(reversed(c)), var).as_expr(var)


def sympy_sum(pa, pb):
    q = sympy.Integer(0)
    for coef in reversed(pb):
        q = q * (X - Y) + coef
    return _primitive(sympy.resultant(_as_expr(pa, Y), sympy.expand(q), Y))


def sympy_prod(pa, pb):
    n = polys.degree(pb)
    q = sum(pb[i] * X ** i * Y ** (n - i) for i in range(len(pb)))
    return _primitive(sympy.resultant(_as_expr(pa, Y), q, Y))


def sympy_square(p):
    return _primitive(sympy.resultant(_as_expr(p, Y), X - Y ** 2, Y))


def sympy_cos_resultant(m):
    phi = sympy.cyclotomic_poly(m, Z)
    return _primitive(sympy.resultant(phi, Z ** 2 - 2 * X * Z + 1, Z))


def random_irreducible(rng, d):
    """Irreducible, primitive, non-monic lead, 0 not a root."""
    while True:
        c = polys.primitive([rng.randint(-6, 6) for _ in range(d)]
                            + [rng.randint(2, 5)])
        if polys.degree(c) == d and c[0] and polys.factor_int(c) == (c,):
            return c


def assert_candidates_match(pairs):
    for pa, pb in pairs:
        assert polys.cand_sum(pa, pb) == sympy_sum(pa, pb), (pa, pb)
        assert polys.cand_prod(pa, pb) == sympy_prod(pa, pb), (pa, pb)


def test_candidates_random_pairs():
    rng = random.Random(20061)
    assert_candidates_match(
        [(random_irreducible(rng, rng.randint(2, 4)),
          random_irreducible(rng, rng.randint(2, 4))) for _ in range(40)])


def test_candidates_workload_shapes():
    rng = random.Random(8)
    # degree 8 (sqrt(2) + sqrt(3) + sqrt(5)) against quadratics, as in
    # equidistant points; 4x4; and two eigenvalue cubics of a fixed point
    deg8 = (576, 0, -960, 0, 352, 0, -40, 0, 1)
    assert_candidates_match(
        [(deg8, (-7, 0, 1)), (deg8, random_irreducible(rng, 2)),
         (random_irreducible(rng, 8), random_irreducible(rng, 2)),
         (random_irreducible(rng, 4), random_irreducible(rng, 4)),
         ((-12, 0, 18, 11), (-9, 27, -27, 11))])


def test_candidates_degree_25():
    assert_candidates_match([((-2, 0, 0, 0, 0, 1), (-3, 0, 0, 0, 0, 1))])


def test_cos_rational_angle_resultant():
    for m in range(1, 61):
        want = sympy_cos_resultant(m)
        assert polys.cos_rational_angle_resultant(m) == want, m


def test_cand_square():
    rng = random.Random(20062)
    cases = [random_irreducible(rng, rng.randint(1, 6)) for _ in range(30)]
    # 2^(1/17); sqrt(2)+sqrt(3)+sqrt(5); roots +-sqrt(2) with one square;
    # a root at 0
    cases += [(-2,) + (0,) * 16 + (1,), (576, 0, -960, 0, 352, 0, -40, 0, 1),
              (-2, 0, 1), (0, -3, 1)]
    for p in cases:
        assert polys.cand_square(p) == sympy_square(p), p
