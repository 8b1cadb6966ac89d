"""Seeded inputs and exactly checked operations for the `geometry` workload.

Inputs are drawn in plain Python (Fractions and integers), so the library
receives only generated inputs and never sees the seed.  Every operation
returns True only when the library's own exact predicates confirm its
result.

An operation is a pair ``(kind, args)``; ``schedule(seed)`` yields them
without end, following a fixed cycle of kinds.  Each operation's problem
comes from a fixed stream; the seed then picks a symmetric variant of it: a
signed permutation of the coordinates, applied to points and, by
conjugation, to matrices.  Variants have new coordinates but the same
minimal polynomials (up to sign), so an operation costs about the same under
every seed.  That keeps runs with different seeds comparable: the cost of
freshly drawn problems varies by more than a quarter from one seed to the
next.
"""

import itertools
import random
from fractions import Fraction as F
from math import isqrt

# -- geometry inputs ------------------------------------------------------

# An edge cosine is (number, is_sqrt): the value is `number` itself or its
# square root.  Rational cosines keep candidate degrees at 2-8; the
# quadratic-irrational ones push them to 16.
RATIONAL_COS = ((F(4, 5), False), (F(7, 8), False), (F(9, 10), False))
QUADRATIC_COS = ((F(3, 4), True),)          # sqrt(3)/2
ALL_COS = RATIONAL_COS + QUADRATIC_COS


def cos_square(c):
    num, is_sqrt = c
    return num if is_sqrt else num * num


def _unit_pool(bound=22):
    """Integer vectors (a, b, c) of integer norm r: rational unit lifts."""
    out = []
    for a in range(bound):
        for b in range(a, bound):
            for c in range(b, bound):
                n2 = a * a + b * b + c * c
                r = isqrt(n2)
                if n2 and r * r == n2:
                    out.append((a, b, c, r))
    return tuple(out)


_POOL = _unit_pool()


def rational_unit(rng):
    a, b, c, r = rng.choice(_POOL)
    v = [F(a, r), F(b, r), F(c, r)]
    rng.shuffle(v)
    return tuple(x if rng.random() < 0.5 else -x for x in v)


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def signed_permutation(rng):
    perm = [0, 1, 2]
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(3)]


def act(g, v):
    """P v for the signed permutation matrix P = g."""
    perm, signs = g
    return tuple(signs[i] * v[perm[i]] for i in range(3))


def conjugate(g, m):
    """P m P^T: same characteristic polynomial, still orthogonal if m is."""
    perm, signs = g
    return tuple(tuple(signs[i] * signs[j] * m[perm[i]][perm[j]] for j in range(3))
                 for i in range(3))


def quaternion_rotation(rng):
    """A random rotation with rational entries, from an integer quaternion."""
    while True:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        n = a * a + b * b + c * c + d * d
        if n:
            break
    return (
        (F(a*a + b*b - c*c - d*d, n), F(2 * (b*c - a*d), n), F(2 * (b*d + a*c), n)),
        (F(2 * (b*c + a*d), n), F(a*a - b*b + c*c - d*d, n), F(2 * (c*d - a*b), n)),
        (F(2 * (b*d - a*c), n), F(2 * (c*d + a*b), n), F(a*a - b*b - c*c + d*d, n)),
    )


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def integer_matrix(rng):
    """An invertible integer matrix whose characteristic polynomial has no
    rational root, so its fixed point needs a cubic eigenvalue."""
    while True:
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3))
        det = _det3(m)
        if not det:
            continue
        tr = m[0][0] + m[1][1] + m[2][2]
        s2 = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i]
                 for i, j in ((0, 1), (0, 2), (1, 2)))
        # a rational root of the monic x^3 - tr x^2 + s2 x - det divides det
        if all(r ** 3 - tr * r * r + s2 * r - det
               for d in range(1, abs(det) + 1) if det % d == 0 for r in (d, -d)):
            return m


def _gen_equidistant(rng, c):
    """Distinct rational points within twice the radius of each other:
    |<x, y>| >= T_2(cos l) = 2 cos^2 l - 1, decided here in Fractions."""
    t2 = 2 * cos_square(c) - 1
    while True:
        x, y = rational_unit(rng), rational_unit(rng)
        s = abs(_dot(x, y))
        if s != 1 and s >= t2:
            return c, x, y


def _gen_edges(rng, c, n_pairs=2):
    """A rational rotation plus pairs: half are edges q = c x + s w built
    from an orthonormal rational pair (x, w), half are random pairs."""
    m = quaternion_rotation(rng)
    pairs = []
    for i in range(n_pairs):
        if i % 2 == 0:
            frame = quaternion_rotation(rng)
            pairs.append(("edge", frame[0], frame[1]))
        else:
            pairs.append(("any", rational_unit(rng), rational_unit(rng)))
    return c, m, pairs


def _gen_fixed(rng, integer):
    if integer:
        return ("integer", integer_matrix(rng))
    return ("orthogonal", quaternion_rotation(rng))


def graph_distance(c, s):
    """Graph distance at edge cosine c (c^2 > 1/2) between points whose
    distance cosine is s < 1: 1 when s = c, else the least k >= 2 with
    T_k(c) <= 0 or s >= T_k(c)."""
    if s == c:
        return 1
    t0, t1, k = c, 2 * c * c - 1, 2
    while t1 > 0 and s < t1:
        t0, t1, k = t1, 2 * c * t1 - t0, k + 1
    return k


def _gen_path(rng, param):
    """Endpoints at graph distance k: k - 2 geodesic steps, then the
    equidistant detour."""
    c, k = param
    while True:
        x, y = rational_unit(rng), rational_unit(rng)
        s = abs(_dot(x, y))
        if s != 1 and graph_distance(c[0], s) == k:
            return c, x, y


def _vary_geometry(kind, args, g):
    if kind == "edges":
        c, m, pairs = args
        return c, conjugate(g, m), [(t, act(g, a), act(g, b)) for t, a, b in pairs]
    if kind == "fixed_point":
        return args[0], conjugate(g, args[1])
    c, x, y = args
    return c, act(g, x), act(g, y)


# Each kind steps through its own parameter list in turn, so a run's mix of
# (kind, parameter) pairs is fixed.
_GEOMETRY_GEN = {
    "equidistant": (_gen_equidistant, ALL_COS),
    "edges": (_gen_edges, ALL_COS),
    "fixed_point": (_gen_fixed, (True, True, False)),     # integer, orthogonal
    # Rational only: at sqrt(3)/2 a path of length 3 chains a geodesic step
    # into an equidistant construction over irrational coordinates, and one
    # such operation outlasts a whole run.
    "path": (_gen_path, [(c, k) for c in RATIONAL_COS for k in (2, 3)]),
}

GEOMETRY_CYCLE = ("equidistant", "edges", "equidistant", "fixed_point",
                  "equidistant", "path")

def schedule(seed):
    """Endless deterministic stream of geometry (kind, args)."""
    base = random.Random("geometry-base")
    sym = random.Random(f"geometry-{seed}")
    params = {k: itertools.cycle(p) for k, (_, p) in _GEOMETRY_GEN.items()}
    for kind in itertools.cycle(GEOMETRY_CYCLE):
        args = _GEOMETRY_GEN[kind][0](base, next(params[kind]))
        yield kind, _vary_geometry(kind, args, signed_permutation(sym))


# -- operations -----------------------------------------------------------

class Runner:
    """Executes geometry operations against the library."""

    def __init__(self):
        from rotagraph import algebraic, elliptic, graph, isometry
        self.alg, self.ep, self.gr, self.im = algebraic, elliptic, graph, isometry

    def run(self, kind, args):
        return getattr(self, "op_" + kind)(args)

    def _cos(self, c):
        num, is_sqrt = c
        v = self.alg.AlgReal(num)
        return self.alg.sqrt_nonneg(v) if is_sqrt else v

    def _point(self, v):
        return self.ep.make_point(*v)

    def op_equidistant(self, args):
        c, x, y = args
        cos_l = self.ep.as_dist_cos(self._cos(c))
        p, q = self._point(x), self._point(y)
        z = self.ep.equidistant_point(p, q, cos_l)
        return self.ep.dist_cos(z, p) == cos_l and self.ep.dist_cos(z, q) == cos_l

    def op_edges(self, args):
        c, m, pairs = args
        alg = self.alg
        cos = self._cos(c)
        sin = alg.sqrt_nonneg(alg.sub(1, alg.mul(cos, cos)))
        built = []
        for tag, x, y in pairs:
            if tag == "edge":
                q = tuple(alg.add(alg.mul(cos, a), alg.mul(sin, b))
                          for a, b in zip(x, y))
                built.append((self._point(x), self._point(q)))
            else:
                built.append((self._point(x), self._point(y)))
        # an orthogonal map preserves every distance, so the biconditional
        # must hold on every pair
        return self.im.preserves_edges_on_sample(self.im.LinearMap(m), cos, built)

    def op_fixed_point(self, args):
        _, rows = args
        m = self.im.LinearMap(rows)
        p = self.im.fixed_point(m)
        return self.im.apply(m, p) == p

    def op_path(self, args):
        c, x, y = args
        spec = self.gr.GraphSpec(self._cos(c))
        p, q = self._point(x), self._point(y)
        path = self.gr.witness_path(spec, p, q)
        k, _ = self.gr.graph_distance(spec, p, q)
        return self.gr.verify_path(spec, path, p, q, k)
