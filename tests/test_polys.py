"""Differential tests against sympy: norms and the composed sums they give
(against its resultant, written the way the kernel used to call it),
gcds, Sturm chains, square-free parts and factorisation, and the
irreducibility certificates against factorisation; integer signs against
Fraction Horner; the one reduction modulo m (its quadratic and
even-quartic folds) and the field arithmetic over it against whole
products and compositions pseudo-divided once; the real roots and factors
read off one isolation against factorisation; the cache bounds."""

import ast
import random
import threading
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import lcm
from pathlib import Path

import sympy
from hypothesis import given, settings, strategies as st

from rotagraph import polys

X, Y = sympy.symbols("x y")


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


def sympy_square(p):
    return _primitive(sympy.resultant(_as_expr(p, Y), X - Y ** 2, Y))


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


def test_candidates_random_pairs():
    """Irreducible pairs, and reducible ones in both orders: a composed sum
    is a norm over the side of lower degree, which need not be irreducible,
    so repeated factors, a root at 0 and a linear side must give the
    resultant too."""
    rng = random.Random(20061)
    assert_candidates_match(
        [(random_irreducible(rng, rng.randint(2, 4)),
          random_irreducible(rng, rng.randint(2, 4))) for _ in range(40)])
    pairs = [((1, 2, 1), (-2, 0, 1)), ((0, 0, 3), (-5, 1, 2)),
             (polys.mul((1, 2, 1), (-3, 0, 1)), (-2, 0, 5)), ((-3, 2), (1, -4, 0, 7))]
    for _ in range(6):
        pa, pb = (polys.mul(_random_poly(rng, rng.randint(1, 2)),
                            _random_poly(rng, rng.randint(1, 3))) for _ in range(2))
        pairs.append((pa, pb))
    assert_candidates_match(pairs + [(pb, pa) for pa, pb in pairs])


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


def test_package_caches_are_bounded():
    """Every module of the package caches these functions and no others,
    each bounded: the ones whose repeats the suite measured to cost seconds
    uncached (factorisation, Sturm chains, the full-degree prime search)
    and the one rational-unit pool."""
    import importlib
    import pkgutil
    import rotagraph
    cached = {}
    for info in pkgutil.iter_modules(rotagraph.__path__):
        module = importlib.import_module(f"rotagraph.{info.name}")
        cached |= {f"{info.name}.{name}": fn.cache_info().maxsize
                   for name, fn in vars(module).items()
                   if hasattr(fn, "cache_info") and fn.__module__ == module.__name__}
    assert cached == {"polys.factor_int": polys.CACHE_SIZE,
                      "polys.sturm_chain": polys.CACHE_SIZE,
                      "polys.full_degree": polys.CACHE_SIZE,
                      "elliptic._rational_unit_pool": 1}
    assert 0 < polys.CACHE_SIZE < 10 ** 5


def test_repeated_composed_factors_runs_no_prime_search():
    """A second composed_factors on one pair, sqrt 6 inside
    Q(sqrt 2 + sqrt 3), whose full-degree search reads 8 * GOOD_PRIMES
    good primes to its no, reads none: full_degree keeps its answer."""
    sd4 = polys.cand_sum((-2, 0, 1), (-3, 0, 1))
    polys.composed_factors(sd4, (-6, 0, 1))
    seen, original = [], polys._ddf
    polys._ddf = lambda c, p: seen.append(p) or original(c, p)
    try:
        assert polys.composed_factors(sd4, (-6, 0, 1)) == polys.factor_int(
            polys.cand_sum(sd4, (-6, 0, 1)))
    finally:
        polys._ddf = original
    assert seen == []


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


def test_sturm_chain_ends_in_the_gcd_with_the_derivative():
    """For products with repeated factors (and constants), the last row of
    the Sturm chain is gcd(c, c') up to sign, and a count on that chain
    finds c's distinct real roots: all of them within the root bound, and
    sympy's count between two rationals that are no roots of c."""
    rng = random.Random(6103)
    multiple = 0
    for _ in range(60):
        c = (rng.choice((-1, 1)) * rng.randint(1, 3),)
        for _ in range(rng.randint(0, 3)):
            f = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 3)]
            for _ in range(rng.randint(1, 3)):
                c = polys.mul(c, f)
        ref = sympy.Poly(_as_expr(c, X), X)
        want = ref.gcd(ref.diff(X))
        want = polys.primitive([int(v) for v in reversed(want.all_coeffs())])
        last = polys.sturm_chain(c)[-1]
        assert polys.primitive(last) == want and abs(last[-1]) == want[-1], c
        multiple += polys.degree(want) > 0
        sqf = ref.sqf_part()
        B = polys.root_bound(c)
        assert polys.count_roots_halfopen(c, -B, B) == sqf.count_roots(), c
        lo, hi = sorted(Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(2))
        if polys.sign_at(c, lo) and polys.sign_at(c, hi):
            assert polys.count_roots_halfopen(c, lo, hi) == sqf.count_roots(lo, hi), (c, lo, hi)
    assert multiple >= 30


def test_quadratic_root_counts_match_the_sturm_chain():
    """count_roots_halfopen on a quadratic, which reads no chain, gives the
    Sturm chain's count: seeded quadratics of either lead sign with
    positive (rational or irrational roots), zero and negative
    discriminants, between endpoints at their rational roots, at the axis,
    next to both, and at random rationals, in every order (0 for lo >= hi)."""
    rng = random.Random(3901)
    seen = {"D > 0": 0, "D = 0": 0, "D < 0": 0, "rational roots": 0, "lead < 0": 0}
    for _ in range(300):
        kind = rng.randrange(4)
        k = rng.choice((-1, 1)) * rng.randint(1, 4)
        p1, q1, p2, q2 = (rng.randint(-9, 9), rng.randint(1, 6), rng.randint(-9, 9),
                          rng.randint(1, 6))
        if kind == 0:       # k * (q1*x - p1) * (q2*x - p2)
            c = polys.mul((-k * p1, k * q1), (-p2, q2))
            roots = [Fraction(p1, q1), Fraction(p2, q2)]
        elif kind == 1:     # k * (q1*x - p1)^2
            c, roots = polys.mul((-k * p1, k * q1), (-p1, q1)), [Fraction(p1, q1)]
        else:
            c, roots = (rng.randint(-30, 30), rng.randint(-12, 12), k), []
        disc = polys.discriminant(c)
        seen["D > 0" if disc > 0 else "D = 0" if disc == 0 else "D < 0"] += 1
        seen["rational roots"] += bool(roots) and disc > 0
        seen["lead < 0"] += c[2] < 0
        axis = Fraction(-c[1], 2 * c[2])
        tiny = Fraction(1, rng.randint(10 ** 3, 10 ** 9))
        points = [axis + e for e in (0, -tiny, tiny)] + [r + e for r in roots
                                                         for e in (0, -tiny, tiny)]
        points.append(Fraction(rng.randint(-60, 60), rng.randint(1, 7)))
        chain = polys.sturm_chain(c)
        for lo in points:
            for hi in points:
                want = 0 if lo >= hi else \
                    polys._variations(chain, lo) - polys._variations(chain, hi)
                assert polys.count_roots_halfopen(c, lo, hi) == want, (c, lo, hi)
    assert min(seen.values()) >= 20, seen


def test_gcd_mod_over_a_number_field():
    """gcd_mod over Q(sqrt 2) gives the monic common factor c of a*c and
    b*c for coprime a and b: seeded ones, and one pair whose remainder
    degrees run 5, 4, 2, 1, 0, so one pseudo-remainder after the first
    takes three steps.  Either order of the arguments gives the same
    gcd."""
    m, one = (-2, 0, 1), ((1,), 1)

    def pmul(p, q):
        out = [((), 1)] * (len(p) + len(q) - 1)
        for i, u in enumerate(p):
            for j, v in enumerate(q):
                out[i + j] = polys.qadd(out[i + j], polys.mulmod(u, v, m))
        return out

    def element(r0, r1):
        return polys.qpoly((r0, r1), 1)

    rng = random.Random(3210)
    unit = element(1, 1)                # 1 + sqrt 2
    pairs = [([-1, -1, -1, -1, -1, 1], [-1, -1, -1, 0, 1])]
    for _ in range(12):
        pairs.append(([rng.randint(-3, 3) for _ in range(rng.randint(2, 5))] + [1],
                      [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [1]))
    for a, b in pairs:
        if sympy.Poly(_as_expr(a, X), X).gcd(sympy.Poly(_as_expr(b, X), X)).degree() > 0:
            continue
        c = [element(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))] + [one]
        f = pmul(c, [polys.mulmod(polys.qpoly((v,)), unit, m) for v in a])
        g = pmul(c, [polys.qpoly((v,)) for v in b])
        assert polys.gcd_mod(f, g, m) == c == polys.gcd_mod(g, f, m), (a, b)


def quadratic_of_bits(rng, bits, positive=True):
    """A primitive irreducible c0 + c1*x + c2*x^2, c2 > 0, whose
    discriminant, no square, has `bits` bits and the given sign."""
    while True:
        c2 = rng.randint(1, 1 << max(bits // 4, 1))
        c1 = rng.randint(-(1 << (bits // 2 + 1)), 1 << (bits // 2 + 1))
        target = rng.randint(1 << (bits - 1), (1 << bits) - 1) * (1 if positive else -1)
        m = (-((target - c1 * c1) // (4 * c2)), c1, c2)
        disc = polys.discriminant(m)
        if (disc.bit_length() == bits and (disc > 0) == positive and
                polys.int_sqrt(disc) is None and polys.primitive(m) == m):
            return m


def quadratic_element(rng, bits, zero=True):
    """(n0 + n1*x)/d in canonical form: n0 = 0, n1 = 0 (a constant) or
    both nonzero, d 1 or up to `bits` bits; the zero element too if asked."""
    shape = rng.randrange(4 if zero else 3)
    n0, n1 = (rng.randint(-(1 << bits), 1 << bits) or 1 for _ in range(2))
    n = ((0, n1), (n0,), (n0, n1), ())[shape]
    return polys.qpoly(n, rng.choice((1, rng.randint(1, 1 << bits))))


def reduced(n, d, m):
    """n / d modulo m by pseudo_rem itself: the reference that avoids
    polys._rem."""
    r, e = polys.pseudo_rem(n, m)
    return polys.qpoly(r, d * m[-1] ** e)


def composed(g, h, m):
    """g(h) modulo m: the whole composition sum_i n_i * nh^i * dh^(k - i)
    over dg * dh^k in integers, for g = (n_0 + ... + n_k*x)/dg and
    h = nh/dh, reduced once (reduced)."""
    (ng, dg), (nh, dh) = g, h
    k = max(len(ng) - 1, 0)
    n, power = (), (1,)
    for i, c in enumerate(ng):
        n = polys.add(n, [c * dh ** (k - i) * v for v in power])
        power = polys.mul(power, nh)
    return reduced(n, dg * dh ** k, m)


def test_quadratic_closed_forms_match_the_general_routes():
    """Modulo a quadratic m, mulmod and dotmod fold x^2 once (_rem), invmod
    takes one Euclid step and compose_mod maps a linear g as n0 + n1*h:
    each agrees with pseudo-division of the whole product or composition
    (reduced, composed), and g * invmod(g) is 1, on seeded quadratics of
    either discriminant sign with 3 to 200 bits, elements with n0 = 0 or
    n1 = 0, and mixed denominators; h lies in a field of degree 2 to 4."""
    rng = random.Random(4101)
    one = ((1,), 1)
    for bits in (3, 4, 5, 8, 16, 33, 64, 100, 150, 200):
        for positive in (True, False):
            m = quadratic_of_bits(rng, bits, positive)
            for _ in range(6):
                k = rng.randint(1, 6)
                xs = [quadratic_element(rng, bits) for _ in range(k)]
                ys = [quadratic_element(rng, bits) for _ in range(k)]
                products = [reduced(polys.mul(x[0], y[0]), x[1] * y[1], m) for x, y in zip(xs, ys)]
                assert polys.dotmod(xs, ys, m) == reduce(polys.qadd, products, ((), 1))
                for x, y, p in zip(xs, ys, products):
                    assert polys.mulmod(x, y, m) == p, (m, x, y)
                g = quadratic_element(rng, bits, zero=False)
                inv = polys.invmod(g, m)
                assert reduced(polys.mul(g[0], inv[0]), g[1] * inv[1], m) == one, (m, g)
                big = (m, random_irreducible(rng, rng.randint(3, 4)))[rng.randrange(2)]
                h = polys.qpoly([rng.randint(-(1 << bits), 1 << bits) for _ in big[1:]],
                                rng.randint(1, 1 << bits))
                assert polys.compose_mod(g, h, big) == composed(g, h, big), (big, g, h)


def even_quartic_of_bits(rng, bits):
    """A primitive c0 + c2*x^2 + c4*x^4, c4 > 0: m(x) = M(x^2) for an
    irreducible quadratic M with a `bits`-bit discriminant of either sign,
    or with coefficients drawn freely (a lead above 1, c2 = 0 and
    reducible ones among them: the folds are identities of Q[x]/(m))."""
    if rng.randrange(3):
        c0, c2, c4 = quadratic_of_bits(rng, bits, rng.randrange(2))
    else:
        c0, c2, c4 = (rng.randint(-(1 << bits), 1 << bits) or 1, rng.choice((0, rng.randint(-9, 9))),
                      rng.randint(1, 1 << max(bits // 4, 1)))
    return polys.primitive((c0, 0, c2, 0, c4))


def even_quartic_element(rng, bits):
    """(n0 + n1*x + n2*x^2 + n3*x^3)/d in canonical form, some coefficients
    0 (an element of Q(x^2), an odd one, a constant, zero itself), d 1 or
    up to `bits` bits."""
    n = [rng.randint(-(1 << bits), 1 << bits) * (rng.randrange(4) > 0) for _ in range(4)]
    shape = rng.randrange(5)
    if shape == 1:
        n[1] = n[3] = 0
    elif shape == 2:
        n[0] = n[2] = 0
    return polys.qpoly(n, rng.choice((1, rng.randint(1, 1 << bits))))


def test_even_quartic_closed_forms_match_the_general_routes():
    """Modulo an even quartic m = c0 + c2*x^2 + c4*x^4, mulmod and dotmod
    fold x^4 once (_rem) and compose_mod runs Horner's rule with that
    fold: each agrees with pseudo-division of the whole product or
    composition (reduced, composed), on seeded quartics with 3 to 200-bit
    coefficients, elements of Q(x^2), odd ones, constants and zero, and
    mixed denominators; g of degree 2 or 3 into the quartic, from an h
    reduced or not."""
    rng = random.Random(4501)
    for bits in (3, 4, 5, 8, 16, 33, 64, 100, 150, 200):
        for _ in range(12):
            m = even_quartic_of_bits(rng, bits)
            k = rng.randint(1, 5)
            xs = [even_quartic_element(rng, bits) for _ in range(k)]
            ys = [even_quartic_element(rng, bits) for _ in range(k)]
            products = [reduced(polys.mul(x[0], y[0]), x[1] * y[1], m) for x, y in zip(xs, ys)]
            assert polys.dotmod(xs, ys, m) == reduce(polys.qadd, products, ((), 1)), (m, xs, ys)
            for x, y, p in zip(xs, ys, products):
                assert polys.mulmod(x, y, m) == p, (m, x, y)
            g = polys.qpoly([rng.randint(-(1 << bits), 1 << bits) for _ in range(rng.randint(3, 4))],
                            rng.randint(1, 1 << bits))
            h = even_quartic_element(rng, bits)
            if rng.randrange(4) == 0:       # not reduced: products of degree 7 or more
                h = polys.qpoly([rng.randint(-(1 << bits), 1 << bits) for _ in range(rng.randint(5, 6))],
                                h[1])
                x = polys.qpoly(h[0][:5], h[1])
                assert polys.mulmod(x, y, m) == reduced(polys.mul(x[0], y[0]), x[1] * y[1], m)
            assert polys.compose_mod(g, h, m) == composed(g, h, m), (m, g, h)


def test_rem_boundaries(monkeypatch):
    """polys._rem at the edges of its shapes, each against pseudo-division
    as a rational r / lead(m)^e: n of degree below m's comes back as it is;
    modulo a quadratic, n of length 3 folds x^2 and n of length 4 is
    pseudo-divided; modulo an even quartic, n of length 5 to 7 folds x^4
    (with and without an x^6 term) and n of length 8 is pseudo-divided; a
    three-term n modulo a linear m, and a five-term n modulo quartics with
    an odd term, are pseudo-divided; a list n, as shift passes, folds as a
    tuple does."""
    calls, original = [], polys.pseudo_rem
    monkeypatch.setattr(polys, "pseudo_rem", lambda a, b: calls.append(len(a)) or original(a, b))

    def check(n, m, pseudo):
        calls.clear()
        r, e = polys._rem(n, m)
        want, e2 = original(n, m)
        assert len(r) < len(m) and polys.qpoly(r, m[-1] ** e) == polys.qpoly(want, m[-1] ** e2), (n, m)
        assert calls == [len(n)] * pseudo, (n, m, calls)

    quadratic, quartic = (-7, 3, 5), (-3, 0, 7, 0, 4)
    assert polys._rem((4, -9), quadratic) == ((4, -9), 0)
    assert polys._rem([1, 2, 3, 4], quartic) == ([1, 2, 3, 4], 0)
    check((2, -3, 11), quadratic, False)
    check((2, 3, 5), quadratic, False)        # x^2 folds to a constant
    check((2, -3, 11, 6), quadratic, True)
    for n in ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 7), (0, 0, 0, 0, 0, 0, -1)):
        check(n, quartic, False)
        check(list(n), quartic, False)
    check((1, 2, 3, 4, 5, 6, 7, 8), quartic, True)
    check((1, 2, 3), (5, 2), True)
    check((1, 2, 3, 4, 5), (-3, 1, 7, 0, 4), True)
    check((1, 2, 3, 4, 5), (-3, 0, 7, 1, 4), True)


def test_compose_mod_boundaries():
    """compose_mod of g = 0, a constant, a linear and a quadratic g, at
    h = 0, a linear h, a reduced h and an unreduced one, modulo a
    quadratic, an even quartic and a cubic: each agrees with the whole
    composition reduced once (composed)."""
    rng = random.Random(4601)
    for m in ((-7, 3, 5), (-3, 0, 7, 0, 4), (-2, 0, 0, 1)):
        for h in (((), 1), polys.qpoly((3, -1), 4),
                  polys.qpoly([rng.randint(-9, 9) for _ in m[1:]] + [2], 7),
                  polys.qpoly([rng.randint(-9, 9) for _ in m] + [3], 5)):
            for g in (((), 1), ((5,), 3), polys.qpoly((2, -7), 9), polys.qpoly((1, 0, 4), 3)):
                assert polys.compose_mod(g, h, m) == composed(g, h, m), (m, g, h)


def _check_rational_roots(c, monkeypatch):
    """irreducible_factors(c) against factor_int, and rational_roots of c's
    square-free part against factor_int's linear factors; factor_int runs
    only when the part left after the rational roots has degree 4 or more.
    Returns whether it ran."""
    calls, original = [], polys.factor_int
    monkeypatch.setattr(polys, "factor_int", lambda f: calls.append(f) or original(f))
    got = polys.irreducible_factors(c)
    monkeypatch.undo()
    want = original(c)
    assert got == want, c
    assert polys.rational_roots(polys.squarefree_part(c)) == \
        sorted(Fraction(-f[0], f[1]) for f in want if len(f) == 2), c
    assert not calls or sum(len(f) - 1 for f in want if len(f) > 2) > 3, (c, calls)
    return bool(calls)


def test_irreducible_factors_read_rational_roots_off_isolating_intervals(monkeypatch):
    """Products of linear factors q*x - p (q | lead, roots at the midpoints
    isolate_roots bisects at, such as 0 for x^3 - x, and at the ends of
    intervals next to them), irreducible factors of degree 2 to 5 with and
    without real roots, and repeated factors: irreducible_factors gives
    factor_int's factors, and calls it only for a rest of degree 4 or
    more after the rational roots.  The norms of diag(sqrt 2, 2, 3) and of
    a triangular map with eigenvalues 2, 3, 5 factorise with no call."""
    rng = random.Random(4505)
    # x(x - 1)(x^2 - 7x + 3): the interval (0, 11/16] of the root 0.459...
    # holds no multiple of 1/lead, and its lower end is the root 0
    for c in ((0, -1, 0, 1), (-30, 31, -10, 1), polys.mul(polys.mul((-2, 0, 1), (-2, 1)), (-3, 1)),
              polys.mul((0, -1, 1), (3, -7, 1)), polys.mul((-2, 1), (-2, 0, 0, 1)),
              polys.mul((-2, 0, 1), polys.mul(polys.mul((-2, 1), (-2, 1)), polys.mul((-3, 1), (-3, 1)))),
              polys.mul((0, 1), polys.mul((1, 0, 1), (-1, 0, 4)))):
        assert not _check_rational_roots(c, monkeypatch), c
    fired = 0
    for _ in range(120):
        c = (rng.choice((1, -1, 2, 3)),)
        for _ in range(rng.randint(0, 4)):
            p, q = rng.randint(-9, 9), rng.randint(1, 4)
            c = polys.mul(c, (-p, q))
        for _ in range(rng.randint(0, 2)):
            c = polys.mul(c, random_irreducible(rng, rng.randint(2, 5)))
        if rng.randrange(4) == 0:
            c = polys.mul(c, c)
        if len(c) > 1:
            fired += _check_rational_roots(c, monkeypatch)
    assert fired



def test_irreducible_factors_read_no_rational_roots_a_prime_rules_out(monkeypatch):
    """Rational roots are read only where dividing out as many as the
    fewest linear factors a prime showed could leave a rest of degree 3 or
    less: x^4 + 1 (no linear factor mod 3), (x - 1)(x^4 + 1) and
    (x - 1)(x^2 - 2)(x^2 - 3) (one at most, a rest of degree 4) go
    straight to factor_int; (x - 2)(x - 3)(x^2 - 2) is read."""
    reads, original = [], polys.rational_roots
    monkeypatch.setattr(polys, "rational_roots", lambda c: reads.append(c) or original(c))
    for c in ((1, 0, 0, 0, 1), polys.mul((-1, 1), (1, 0, 0, 0, 1)),
              polys.mul((-1, 1), polys.mul((-2, 0, 1), (-3, 0, 1)))):
        assert polys.irreducible_factors(c) == polys.factor_int(c) and not reads, c
    c = polys.mul(polys.mul((-2, 1), (-3, 1)), (-2, 0, 1))
    assert polys.irreducible_factors(c) == ((-3, 1), (-2, 0, 1), (-2, 1)) and reads == [c]

def test_sign_at_matches_fraction_horner():
    rng = random.Random(6104)
    for _ in range(200):
        c = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(0, 12)))
        t = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9)) \
            if rng.random() < 0.8 else rng.randint(-9, 9)
        want = Fraction(0)
        for coef in reversed(c):
            want = want * t + coef
        assert polys.sign_at(c, t) == (want > 0) - (want < 0), (c, t)
    # at a root
    assert polys.sign_at((-1, 0, 4), Fraction(1, 2)) == 0


def test_squarefree_part_against_sympy():
    """Products with repeated factors: one division over Q by
    gcd(c, c') leaves sympy's square-free part."""
    rng = random.Random(6105)
    for _ in range(60):
        c = (rng.randint(-3, 3) or 1,)
        for _ in range(rng.randint(1, 3)):
            f = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 3)]
            for _ in range(rng.randint(1, 3)):
                c = polys.mul(c, f)
        want = sympy.Poly(_as_expr(c, X), X).sqf_part()
        want = polys.primitive([int(v) for v in reversed(want.all_coeffs())])
        assert polys.squarefree_part(c) == want, c


# -- irreducibility certificates against factorisation ----------------------

def _certified(fn, *args):
    """fn(*args), and whether it answered without calling factor_int."""
    calls, original = [], polys.factor_int
    polys.factor_int = lambda c: calls.append(c) or original(c)
    try:
        out = fn(*args)
    finally:
        polys.factor_int = original
    return out, not calls


def _random_poly(rng, d):
    return polys.primitive([rng.randint(-6, 6) for _ in range(d)] + [rng.randint(1, 4)])


def _check_irreducible_factors(c):
    """Musser's test fires only on polynomials with an irreducible
    square-free part, which factor_int then returns as the one factor;
    returns whether it fired.  The other answer given without factor_int,
    the rational roots read where a linear factor survives the test, is
    their linear factors and at most one rest, of degree 3 or less."""
    got, certified = _certified(polys.irreducible_factors, c)
    assert got == polys.factor_int(c), c
    fired = certified and got == (polys.squarefree_part(c),)
    if certified and not fired:
        assert sum(len(f) > 2 for f in got) <= 1 and max(map(len, got)) <= 4, c
    return fired


def test_musser_certificate_matches_factorisation():
    rng = random.Random(12001)
    fired = 0
    for _ in range(60):
        c = _random_poly(rng, rng.randint(2, 12))
        fired += _check_irreducible_factors(c)
        # products and squares: reducible, or irreducible square-free part
        d = polys.mul(c, _random_poly(rng, rng.randint(1, 4)))
        assert not _check_irreducible_factors(d) or len(polys.factor_int(d)) == 1
        _check_irreducible_factors(polys.mul(c, c))
    assert fired >= 30


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(st.integers(-9, 9), min_size=3, max_size=13), st.integers(1, 5))
def test_musser_certificate_matches_factorisation_hypothesis(low, lead):
    _check_irreducible_factors(polys.normalize(low + [lead]))


def test_musser_certificate_negative_cases():
    # x^4 + 1 is irreducible over Q but splits mod every prime
    assert _certified(polys.irreducible_factors, (1, 0, 0, 0, 1)) == \
        (((1, 0, 0, 0, 1),), False)
    # a product of two irreducibles
    assert _certified(polys.irreducible_factors, polys.mul((-2, 0, 1), (-3, 0, 0, 1))) == \
        (((-3, 0, 0, 1), (-2, 0, 1)), False)
    assert _certified(polys.irreducible_factors, (-2, 0, 0, 1)) == (((-2, 0, 0, 1),), True)


def test_square_root_certificate_matches_factorisation():
    """Where sqrt_certificate shows a no square, m(x^2) is irreducible
    (Capelli), as factorisation shows; it does on most random fields."""
    rng = random.Random(12002)
    fired = 0
    for _ in range(40):
        m = random_irreducible(rng, rng.randint(1, 6))
        for a in (m, sympy_square(m)):
            if a[0] == 0 or polys.factor_int(a) != (a,):
                continue
            if polys.sqrt_certificate(a) is False:
                fired += 1
                assert polys.factor_int(polys.cand_sqrt(a)) == (polys.cand_sqrt(a),), a
    assert fired >= 30


def test_square_root_certificate_negative_cases():
    # 3 + 2 sqrt 2 = (1 + sqrt 2)^2: its norm 1 is a square, and it is one
    assert polys.sqrt_certificate((1, -6, 1)) == ((1, -1), 2)
    assert polys.factor_int(polys.cand_sqrt((1, -6, 1))) == ((-1, -2, 1), (-1, 2, 1))
    # 4 = (2^(2/3))^3 and 2^(2/3) = (2^(1/3))^2 is a square in its field
    assert polys.sqrt_certificate((-4, 0, 0, 1)) == ((0, 0, 1), 2)
    # 2 + sqrt 3 has norm 1, a square, but is no square in Q(sqrt 3): a
    # prime shows it
    assert polys.sqrt_certificate((1, -4, 1)) is False
    assert polys.factor_int(polys.cand_sqrt((1, -4, 1))) == ((1, 0, -4, 0, 1),)


def _walked(monkeypatch):
    """The primes each _good_primes walk hands out, one list a walk."""
    walks, original = [], polys._good_primes

    def spy(c, avoid=1):
        walks.append([])
        for p, parts in original(c, avoid):
            walks[-1].append(p)
            yield p, parts
    monkeypatch.setattr(polys, "_good_primes", spy)
    return walks


def test_square_root_certificate_boundaries(monkeypatch):
    """Each comparison of the one prime walk at its boundary."""
    walks = _walked(monkeypatch)
    # a norm that is no rational square decides with no prime: 2 + sqrt 2
    # has norm 2
    assert polys.sqrt_certificate((2, -4, 1)) is False
    assert walks == []
    # a norm that is one, 1: the primes decide, and 3 + 2 sqrt 2 is
    # (1 + sqrt 2)^2
    assert polys.sqrt_certificate((1, -6, 1)) == ((1, -1), 2)
    assert len(walks) == 1
    # 2 + sqrt 3, norm 1: at an inert prime x^((q-1)/2) is the norm's
    # Legendre symbol, so only a split prime can fail Euler's criterion,
    # here 11 after the inert 5 and 7
    walks.clear()
    assert polys.sqrt_certificate((1, -4, 1)) is False
    assert walks == [[5, 7, 11]]
    assert [polys._degrees(polys._ddf((1, -4, 1), p)) for p in walks[0]] == [[2], [2], [1, 1]]
    # the unit root of x^3 - 3x^2 - 4x - 1 (a cyclic cubic, norm 1): at
    # its first split prime, 13, x is a square modulo one linear factor
    # and no square modulo the other two, so the power modulo their
    # product is no constant, neither 1 nor -1
    walks.clear()
    m = (-1, -4, -3, 1)
    assert polys.sqrt_certificate(m) is False
    assert walks == [[3, 5, 11, 13]]
    (d, g), = polys._ddf(m, 13)
    assert d == 1 and len(polys._powmod_p([0, 1], 6, g, 13)) > 1
    # a quintic of norm 16 whose first failure is past the first part: at
    # 11 it has a linear factor, where x is a square, and two quadratic
    # ones, where it is not
    walks.clear()
    m = (-16, 3, -3, -5, 2, 1)
    assert polys.sqrt_certificate(m) is False
    assert walks == [[3, 5, 7, 11]]
    (d1, g1), (d2, g2) = polys._ddf(m, 11)
    assert (d1, len(g1), d2, len(g2)) == (1, 2, 2, 5)
    assert polys._powmod_p([0, 1], 5, g1, 11) == [1]
    assert polys._powmod_p([0, 1], 60, g2, 11) == [10]
    # 9 + 4 sqrt 2 = (1 + 2 sqrt 2)^2 has norm 49: 7 is good for
    # x^2 - 18x + 49 but divides m(0), and modulo the factor x, x is 0, no
    # unit, so the walk skips 7 and the first inert prime, 3, lifts
    walks.clear()
    m = (49, -18, 1)
    assert polys._degrees(polys._ddf(m, 7)) == [1, 1]
    assert polys.sqrt_certificate(m) == ((7, -1), 2)
    assert 7 not in walks[0] and walks[0][:3] == [3, 5, 11]


def test_square_root_lifts_at_the_first_inert_prime(monkeypatch):
    """The lift starts at the first prime that keeps m irreducible, 3 for
    the cubic x^3 - 3x^2 - 349x - 2209 (inert at 3, 7, 13, ...), whose root
    a is b^2, b the root of x^3 - 5x^2 + 11x - 47."""
    m = (-2209, -349, -3, 1)
    inert = [p for p, parts in islice(polys._good_primes(m, 2 * m[0]), polys.GOOD_PRIMES)
             if parts[0][0] == 3]
    assert inert[:3] == [3, 7, 13]
    seen, original = [], polys._sqrt_fq
    monkeypatch.setattr(polys, "_sqrt_fq", lambda a, f, p: seen.append(p) or original(a, f, p))
    h = polys.sqrt_certificate(m)
    assert seen == [3]
    assert polys.mulmod(h, h, m) == ((0, 1), 1)
    # h(a) is b or -b, whose minimal polynomials these are
    assert polys.minimal_polynomial(h, m) in ((-47, 11, -5, 1), (47, 11, 5, 1))


def test_sqrt_fq_takes_the_first_non_square_of_the_field():
    """At p = 3, F_27 = F_3[x]/(x^3 + 2x + 2) (the cubic above mod 3): x,
    x + 1 and x + 2 are all squares, where Tonelli-Shanks used to look for
    its non-square and found none; the constant 2 is one, since a
    non-square of F_p stays one in a field of odd degree over F_p."""
    f = polys._monic_p(polys._mod_p((-2209, -349, -3, 1), 3), 3)
    assert f == [2, 2, 0, 1]
    power = lambda z: polys._powmod_p(z, 13, f, 3)
    assert [power([k, 1]) for k in range(3)] == [[1], [1], [1]]
    assert power([2]) == [2]
    squares = [[0, 1], [1, 1], [2, 1]] + [polys._mulmod_p(b, b, f, 3)
                                          for b in ([1, 2, 1], [0, 0, 2])]
    for a in squares:
        r = polys._sqrt_fq(a, f, 3)
        assert polys._mulmod_p(r, r, f, 3) == a


def test_a_field_with_no_inert_prime_proposes_no_square_root():
    """Q(sqrt 2 + sqrt 3) has Galois group C2 x C2, so no prime keeps a
    quartic generator irreducible: the square (1 + sqrt 2 + sqrt 3)^2 =
    6 + 2 sqrt 2 + 2 sqrt 3 + 2 sqrt 6 has a square norm and passes every
    prime's Euler criterion, and the certificate proposes nothing.  The
    factor route answers: m(x^2) is the product of the minimal polynomials
    of 1 + sqrt 2 + sqrt 3 and its negative (sqrt_nonneg's side is in
    test_square_roots_of_squares_stay_in_their_field)."""
    m = (64, -192, 128, -24, 1)
    assert all(len(parts) > 1 or parts[0][0] < 4
               for _, parts in islice(polys._good_primes(m, 2 * m[0]), polys.GOOD_PRIMES))
    assert polys.sqrt_certificate(m) is None
    assert polys.factor_int(polys.cand_sqrt(m)) == ((-8, -16, -4, 4, 1), (-8, 16, -4, -4, 1))


def _check_composed(m1, m2):
    """Whether the certificate fired on the composed sum of m1 and m2,
    checked against factor_int."""
    cand = polys.cand_sum(m1, m2)
    got, fired = _certified(polys.composed_factors, m1, m2)
    assert got == polys.factor_int(cand), (m1, m2, cand)
    if fired:
        assert got == (cand,)
        assert polys.full_degree(m1, m2)
    return fired


def test_composed_certificate_matches_factorisation():
    rng = random.Random(12003)
    fired = 0
    for _ in range(50):
        fired += _check_composed(random_irreducible(rng, rng.randint(2, 4)),
                                 random_irreducible(rng, rng.randint(2, 3)))
    assert fired >= 40


def test_composed_certificate_swinnerton_dyer():
    sd4 = polys.cand_sum((-2, 0, 1), (-3, 0, 1))
    sd8 = polys.cand_sum(sd4, (-5, 0, 1))
    assert _check_composed(sd4, (-5, 0, 1)) and _check_composed(sd8, (-7, 0, 1))
    assert polys.degree(polys.cand_sum(sd8, (-7, 0, 1))) == 16


def test_composed_certificate_negative_cases():
    sd4 = polys.cand_sum((-2, 0, 1), (-3, 0, 1))
    # sqrt 6 lies in Q(sqrt 2 + sqrt 3)
    assert not polys.full_degree(sd4, (-6, 0, 1))
    assert not _check_composed(sd4, (-6, 0, 1))
    # one field reached twice: sqrt 2 + sqrt 3 and sqrt 2 + 2 sqrt 3
    other = polys.cand_sum((-2, 0, 1), (-12, 0, 1))
    assert not polys.full_degree(sd4, other)
    # m1 == m2 skips the prime search at once
    seen, original = [], polys._ddf
    polys._ddf = lambda c, p: seen.append(p) or original(c, p)
    try:
        assert not polys.full_degree.__wrapped__((-2, 0, 0, 1), (-2, 0, 0, 1))
    finally:
        polys._ddf = original
    assert seen == []


def test_full_degree_no_reads_a_bounded_number_of_good_primes():
    """A no where one side stays irreducible at some prime, here sqrt 6
    inside Q(sqrt 2 + sqrt 3), stops after 8 * GOOD_PRIMES good primes
    rather than reading all of CERT_PRIMES."""
    sd4 = polys.cand_sum((-2, 0, 1), (-3, 0, 1))
    good, original = [], polys._ddf

    def spy(c, p):
        parts = original(c, p)
        if c == (-6, 0, 1) and parts is not None:
            good.append(p)
        return parts

    polys._ddf = spy
    try:
        assert not polys.full_degree.__wrapped__(sd4, (-6, 0, 1))
    finally:
        polys._ddf = original
    assert len(good) == 8 * polys.GOOD_PRIMES


def test_full_degree_of_two_quadratics_agrees_with_factorisation():
    """Two quadratic fields have a compositum of degree 4 exactly when the
    product of their discriminants is no square (a negative one never is),
    which the package decides before it builds a composed sum; the prime
    search of full_degree, given two quadratics, agrees with whether the
    composed sum is irreducible."""
    rng = random.Random(23)
    pairs = [((-2, 0, 1), (-8, 0, 1), False),     # Q(sqrt 2) twice
             ((1, 0, 1), (4, 0, 1), False),       # Q(i) twice
             ((-3, 0, 4), (-12, 0, 1), False),    # sqrt(3)/2 and 2 sqrt 3
             ((-2, 0, 1), (-3, 0, 1), True),
             ((-3, 0, 4), (-5, 0, 7), True),
             ((1, 0, 1), (-2, 0, 1), True),       # D1 * D2 = -32
             ((-1, -1, 1), (1, 0, 1), True)]      # D1 * D2 = -20
    while len(pairs) < 40:
        m1, m2 = (random_irreducible(rng, 2) for _ in range(2))
        pairs.append((m1, m2, None))
    got = [polys.full_degree.__wrapped__(m1, m2) for m1, m2, _ in pairs]
    for (m1, m2, want), full in zip(pairs, got):
        if want is not None:
            assert full is want, (m1, m2)
        assert full == (polys.factor_int(polys.cand_sum(m1, m2)) ==
                        (polys.cand_sum(m1, m2),)), (m1, m2)


def test_composed_certificate_on_a_point_and_its_reparse():
    """A point's coordinates against their JSON re-parse lie in one field:
    the certificate never claims more than that field's degree, and where
    it fires, factorisation agrees."""
    from rotagraph import elliptic as ep, expr
    from rotagraph.algebraic import AlgReal, sqrt_nonneg
    p = ep.make_point(Fraction(2, 3), Fraction(1, 3), Fraction(2, 3))
    q = ep.make_point(Fraction(2, 7), Fraction(-3, 7), Fraction(6, 7))
    z = ep.equidistant_point(p, q, sqrt_nonneg(AlgReal(Fraction(3, 4))))
    again = ep.point_from_json({k: expr.to_expr(v) for k, v in zip("xyz", z.lift)})
    field = max(c.degree for c in z.lift)
    assert field > 2
    for a in z.lift:
        for b in again.lift:
            if a.degree > 1 and b.degree > 1:
                if polys.full_degree(a.min_poly, b.min_poly):
                    assert a.degree * b.degree <= field
                _check_composed(a.min_poly, b.min_poly)


def test_sqrt_certificate_of_linear_fields_ends():
    """Q(t) = Q for a linear m, t = r: the certificate returns False for
    an r that is no rational square and lifts the rational square root of
    one that is, and the search ends (the non-square that Tonelli-Shanks
    needs is a constant of F_p; it used to be sought among the x + k, one
    of them 0 mod m, and the search looped forever on that zero)."""
    rng = random.Random(14)
    cases = []
    for _ in range(200):
        r = Fraction(rng.randint(1, 40), rng.randint(1, 12))
        r = r * r if rng.random() < 0.5 else Fraction(rng.randint(1, 99), rng.randint(1, 12))
        cases.append(polys.primitive((-r, 1)))
    results = []

    def work():
        results.extend(polys.sqrt_certificate(m) for m in cases)

    t = threading.Thread(target=work, daemon=True)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive(), f"hung after {len(results)} of {len(cases)} inputs"
    squares = 0
    for m, h in zip(cases, results):
        root = polys.rational_sqrt(Fraction(-m[0], m[1]))
        if root is None:
            assert h is False, m
        else:
            assert abs(Fraction(h[0][0], h[1])) == root, m
            squares += 1
    assert squares >= 90


def _element(rng, n):
    return polys.qpoly([rng.randint(-5, 5) for _ in range(n)], rng.randint(1, 4))


def test_norm_matches_sympys_resultant():
    """norm(f, m) is Res_y(m(y), F(x, y)) made primitive, F(x, t) = f with
    its denominators cleared, for cubic and linear f, monic or not, over
    fields of degree 2-4 whose m has a lead other than 1; and the norm of
    x - g is the characteristic polynomial of g, the power of its minimal
    polynomial that has degree n."""
    rng = random.Random(3701)
    for d in (2, 3, 4):
        m = random_irreducible(rng, d)
        for k in (1, 3, 3, 1):
            f = [_element(rng, d) for _ in range(k)]
            lead = _element(rng, d)
            f.append(lead if lead[0] and rng.random() < 0.5 else ((1,), 1))
            den = reduce(lcm, (c[1] for c in f))
            F = sum(_as_expr([den // c[1] * v for v in c[0]] or [0], Y) * X ** j
                    for j, c in enumerate(f))
            want = _primitive(sympy.resultant(_as_expr(m, Y), sympy.expand(F), Y))
            assert polys.norm(f, m) == want, (m, f)
            g = _element(rng, d)
            if len(g[0]) > 1:
                mp = polys.minimal_polynomial(g, m)
                char = reduce(polys.mul, [mp] * (d // polys.degree(mp)))
                assert polys.norm([polys.qscale(g, -1), ((1,), 1)], m) == char, (m, g)
