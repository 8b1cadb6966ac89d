"""Differential tests against sympy: the power-sum special resultants
(against its resultant, written the way the kernel used to call it),
cyclotomic polynomials, exact division, gcds and factorisation; integer
evaluation against Fraction Horner; the cache bounds."""

import ast
import random
from fractions import Fraction
from pathlib import Path

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


def test_cyclotomic():
    for m in range(1, 121):
        want = sympy.Poly(sympy.cyclotomic_poly(m, X), X).all_coeffs()
        assert polys.cyclotomic(m) == tuple(int(v) for v in reversed(want)), m


def _sympy_divides(small, big):
    return sympy.rem(_as_expr(big, X), _as_expr(small, X), X) == 0


def test_divides():
    rng = random.Random(6101)
    def poly(d, lead):
        return [rng.randint(-5, 5) for _ in range(d)] + [lead]

    for _ in range(60):
        small = polys.primitive(poly(rng.randint(1, 5), rng.randint(1, 4)))
        prod = polys.mul(small, poly(rng.randint(0, 5), rng.randint(-4, 4) or 1))
        rest = polys.normalize(poly(polys.degree(small) - 1, rng.randint(-3, 3)))
        for big, want in ((prod, True), (polys.add(prod, rest), not rest)):
            assert polys.divides(small, big) == want, (small, big)
            assert _sympy_divides(small, big) == want, (small, big)
    assert not polys.divides((-2, 0, 1), (-2, 1))   # higher degree never divides


def test_factor_int_drops_multiplicity():
    """factor_int of a product with repeated factors equals the factors of
    its square-free part, which root selection used to compute first."""
    rng = random.Random(6102)
    for _ in range(40):
        parts = [polys.primitive([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
                                 + [rng.randint(1, 3)])
                 for _ in range(rng.randint(1, 3))]
        c = (1,)
        for f in parts:
            c = polys.mul(c, f)
        c = polys.mul(c, parts[0])   # parts[0] at least squared
        sqf = sympy.Poly(_as_expr(c, X), X).sqf_part()
        want = sorted(polys.primitive([int(v) for v in reversed(f.all_coeffs())])
                      for f, _m in sqf.factor_list()[1])
        assert list(polys.factor_int(c)) == want, c


def test_sympy_only_factorises():
    """The kernel's one use of sympy is the factorisation in factor_int."""
    src = Path(polys.__file__).parent
    imports, uses = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                        "sympy" in ast.unparse(node):
                    imports.add((path.stem, ast.unparse(node)))
                if isinstance(node, ast.Name) and node.id == "sympy":
                    uses.add((path.stem, getattr(top, "name", None)))
    assert imports == {("polys", "import sympy")}
    assert uses == {("polys", "factor_int")}


def test_polynomial_caches_are_bounded():
    for fn in (polys.factor_int, polys.cand_sum, polys.cand_prod,
               polys.cand_square, polys.sturm_chain):
        assert fn.cache_info().maxsize == polys.CACHE_SIZE, fn.__name__
    assert 0 < polys.CACHE_SIZE < 10 ** 5


def test_isolate_roots_against_sympy():
    """Ascending disjoint intervals, rational endpoints that are not roots,
    one root in each, as many as sympy counts real roots."""
    rng = random.Random(7411)
    for _ in range(30):
        c = random_irreducible(rng, rng.randint(2, 8))
        ref = sympy.Poly(_as_expr(c, X), X)
        out = polys.isolate_roots(c)
        assert len(out) == ref.count_roots(), c
        for (lo, hi), nxt in zip(out, out[1:] + [None]):
            assert lo < hi and (nxt is None or hi <= nxt[0]), (c, out)
            assert polys.sign_at(c, lo) != 0 and polys.sign_at(c, hi) != 0
            assert ref.count_roots(lo, hi) == 1, (c, lo, hi)


def test_poly_gcd():
    rng = random.Random(6103)
    for _ in range(40):
        f = polys.primitive([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
                            + [rng.randint(1, 3)])
        a = polys.mul(f, [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1])
        b = polys.mul(f, [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [2])
        want = sympy.Poly(_as_expr(a, X), X).gcd(sympy.Poly(_as_expr(b, X), X))
        want = polys.primitive([int(v) for v in reversed(want.all_coeffs())])
        assert polys.poly_gcd(a, b) == want, (a, b)


def test_evaluate_matches_fraction_horner():
    rng = random.Random(6104)
    for _ in range(200):
        c = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(0, 12)))
        t = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9)) \
            if rng.random() < 0.8 else rng.randint(-9, 9)
        want = Fraction(0)
        for coef in reversed(c):
            want = want * t + coef
        assert polys.evaluate(c, t) == want, (c, t)
