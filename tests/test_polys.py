"""Differential tests against sympy: norms and the composed sums they give
(against its resultant, written the way the kernel used to call it),
gcds, Sturm chains, square-free parts and factorisation, and the
irreducibility certificates against factorisation; integer signs against
Fraction Horner; the quadratic closed forms of the field arithmetic
against the general routes; the cache bounds."""

import ast
import random
import threading
from fractions import Fraction
from functools import reduce
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


def test_quadratic_closed_forms_match_the_general_routes():
    """Modulo a quadratic m, mulmod and dotmod fold x^2 once, invmod is the
    conjugate over the norm, and compose_mod maps a linear g as n0 + n1*h:
    each agrees with the route it bypasses (pseudo-division, the extended
    Euclid, Horner's rule), on seeded quadratics of either discriminant
    sign with 3 to 200 bits, elements with n0 = 0 or n1 = 0, and mixed
    denominators; h lies in a field of degree 2 to 4."""
    rng = random.Random(4101)
    one = ((1,), 1)
    for bits in (3, 4, 5, 8, 16, 33, 64, 100, 150, 200):
        for positive in (True, False):
            m = quadratic_of_bits(rng, bits, positive)
            for _ in range(6):
                k = rng.randint(1, 6)
                xs = [quadratic_element(rng, bits) for _ in range(k)]
                ys = [quadratic_element(rng, bits) for _ in range(k)]
                products = [polys._qmod((polys.mul(x[0], y[0]), x[1] * y[1]), m)
                            for x, y in zip(xs, ys)]
                assert polys.dotmod(xs, ys, m) == reduce(polys.qadd, products, ((), 1))
                for x, y, p in zip(xs, ys, products):
                    assert polys.mulmod(x, y, m) == p, (m, x, y)
                g = quadratic_element(rng, bits, zero=False)
                inv = polys.invmod(g, m)
                assert inv == polys._invmod_euclid(g, m), (m, g)
                assert polys.mulmod(g, inv, m) == one
                big = (m, random_irreducible(rng, rng.randint(3, 4)))[rng.randrange(2)]
                h = polys.qpoly([rng.randint(-(1 << bits), 1 << bits) for _ in big[1:]],
                                rng.randint(1, 1 << bits))
                assert polys.compose_mod(g, h, big) == polys._compose_horner(g, h, big)


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
    square-free part, which factor_int then returns as the one factor."""
    got, fired = _certified(polys.irreducible_factors, c)
    assert got == polys.factor_int(c), c
    if fired:
        assert got == (polys.squarefree_part(c),), c
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
    """Where nonsquare_root holds, m(x^2) is irreducible (Capelli), as
    factorisation shows; it holds on most random fields."""
    rng = random.Random(12002)
    fired = 0
    for _ in range(40):
        m = random_irreducible(rng, rng.randint(1, 6))
        for a in (m, sympy_square(m)):
            if a[0] == 0 or polys.factor_int(a) != (a,):
                continue
            if polys.nonsquare_root(a):
                fired += 1
                assert polys.factor_int(polys.cand_sqrt(a)) == (polys.cand_sqrt(a),), a
    assert fired >= 30


def test_square_root_certificate_negative_cases():
    # 3 + 2 sqrt 2 = (1 + sqrt 2)^2: its norm 1 is a square, and it is one
    assert not polys.nonsquare_root((1, -6, 1))
    assert polys.factor_int(polys.cand_sqrt((1, -6, 1))) == ((-1, -2, 1), (-1, 2, 1))
    # 4 = (2^(2/3))^3 and 2^(2/3) = (2^(1/3))^2 is a square in its field
    assert not polys.nonsquare_root((-4, 0, 0, 1))
    # 2 + sqrt 3 has norm 1, a square, but is no square in Q(sqrt 3): a
    # prime shows it
    assert polys.nonsquare_root((1, -4, 1))
    assert polys.factor_int(polys.cand_sqrt((1, -4, 1))) == ((1, 0, -4, 0, 1),)


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


def test_sqrt_candidates_of_linear_fields_end():
    """Q(t) = Q for a linear m: the candidates that square to g are the
    rational square roots of g, and the search ends (it used to take the
    zero element x + k = 0 mod m as its non-square and loop forever)."""
    rng = random.Random(14)
    cases = []
    for _ in range(200):
        m = (rng.choice([-1, 1]) * rng.randint(0, 60), rng.randint(1, 9))
        r = Fraction(rng.randint(1, 40), rng.randint(1, 12))
        g = r * r if rng.random() < 0.5 else Fraction(rng.randint(1, 99), rng.randint(1, 12))
        cases.append((m, (g,)))
    results = []

    def work():
        for m, g in cases:
            # g and each candidate as integer numerators over one denominator
            found = [tuple(Fraction(v, d) for v in n) for n, d in
                     polys.sqrt_candidates(m, ((g[0].numerator,), g[0].denominator))]
            results.append([h for h in found if h[0] * h[0] == g[0]])

    t = threading.Thread(target=work, daemon=True)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive(), f"hung after {len(results)} of {len(cases)} inputs"
    squares = 0
    for (m, g), found in zip(cases, results):
        root = polys.rational_sqrt(g[0])
        assert {abs(h[0]) for h in found} == (set() if root is None else {root}), (m, g)
        squares += root is not None
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
