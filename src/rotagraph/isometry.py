"""Isometries of the elliptic plane as exact 3x3 orthogonal matrices.

A linear map acts on projective points through its action on lifts; the
sign ambiguity of the lift is absorbed by the canonical form, so O(3) and
its quotient by {+-I} act the same way here.
"""

from fractions import Fraction
from math import isqrt
import random

from . import expr
from .algebraic import (
    AlgReal, EQUAL, add, as_algreal, combo, compare, div, dot, mul, neg, real_roots, sub,
)
from .elliptic import (
    _BASIS, _cross, _lifts_nonneg, _rotate, as_dist_cos, dist_cos,
    make_point,
)
from .errors import InternalConsistencyError, ParseError, PreconditionError

_ZERO = AlgReal(0)
_ONE = AlgReal(1)


class LinearMap:
    """A 3x3 matrix over the field, stored row-major as exact entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(as_algreal(v) for v in r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise PreconditionError("a linear map needs a 3x3 matrix")
        self.rows = rows

    def __matmul__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        # row i of the product is sum_k self[i][k] * (row k of other)
        return LinearMap(tuple(combo(row, other.rows) for row in self.rows))

    def transpose(self):
        return LinearMap(tuple(zip(*self.rows)))

    def det(self):
        r0, r1, r2 = self.rows
        return dot(r0, _cross(r1, r2))

    def trace(self):
        return add(add(self.rows[0][0], self.rows[1][1]), self.rows[2][2])

    def apply_lift(self, v):
        """The image of v: sum_j v_j * (column j), one combination."""
        return combo(v, tuple(zip(*self.rows)))

    def __repr__(self):
        return "LinearMap(%s)" % "; ".join(
            " ".join("%.4g" % float(v) for v in r) for r in self.rows)


def identity():
    return LinearMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def rotation_about(axis, cos_a, sin_a):
    """Rodrigues rotation about `axis` with exact (cos, sin) pair."""
    cos_a, sin_a = as_algreal(cos_a), as_algreal(sin_a)
    if compare(dot((cos_a, sin_a), (cos_a, sin_a)), _ONE) != EQUAL:
        raise PreconditionError("cos^2 + sin^2 must equal 1 exactly")
    columns = [_rotate(axis.lift, e, cos_a, sin_a) for e in _BASIS]
    return LinearMap(tuple(zip(*columns)))


def apply(m, p):
    """Image of the projective point p under the map m.  Works on whatever
    lift is at hand; the image normalises lazily like any other point."""
    return make_point(*m.apply_lift(p.raw_lift))


def is_orthogonal(m):
    """Exact test: m^T m = I."""
    g = (m.transpose() @ m).rows
    return all(compare(g[i][j], _ONE if i == j else _ZERO) == EQUAL
               for i in range(3) for j in range(3))


def _minor2_sum(m):
    """Sum of the principal 2x2 minors (second char poly coefficient)."""
    r = m.rows
    xs, ys = [], []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        xs += (r[i][i], r[i][j])
        ys += (r[j][j], neg(r[j][i]))
    return dot(xs, ys)


def _kernel_vector(rows):
    """A nonzero kernel vector of a singular exact 3x3 matrix.

    Rank 2: the first nonzero cross product of rows (0, 1), (0, 2), (1, 2).
    Rank 1: with r_ij the first nonzero entry in row-major order and
    k = 0 if j == 1 else 1, the vector with r_ij at k and -r_ik at j (the
    choice of full-pivot elimination).  The zero matrix gives e1.
    """
    for i, j in ((0, 1), (0, 2), (1, 2)):
        v = _cross(rows[i], rows[j])
        if any(c.sign() != 0 for c in v):
            return v
    for row in rows:
        for j, r in enumerate(row):
            if r.sign() != 0:
                k = 0 if j == 1 else 1
                return tuple(r if i == k else neg(row[k]) if i == j else _ZERO for i in range(3))
    return (_ONE, _ZERO, _ZERO)


def fixed_point(m):
    """A projective fixed point of m: an eigenvector for a real eigenvalue,
    which the odd-degree characteristic polynomial guarantees.

    Special orthogonal maps take the eigenvalue-1 shortcut (the rotation
    axis); otherwise the smallest real eigenvalue, the first of real_roots
    of x^3 - tr x^2 + s2 x - det (through the cubic's norm for irrational
    coefficients, BoundExceededError past the candidate budget).
    Deterministic, since the kernel vector is.
    """
    tr, s2, det = m.trace(), _minor2_sum(m), m.det()
    if det.sign() == 0:
        raise PreconditionError("fixed points are computed for invertible maps")
    if add(sub(det, s2), sub(tr, _ONE)).sign() == 0 and is_orthogonal(m):
        lam = _ONE      # det(m - I) = det - s2 + tr - 1 is 0
    else:
        lam = real_roots((neg(det), s2, neg(tr), 1))[0]
    return make_point(*_kernel_vector([[sub(v, lam) if i == j else v for j, v in enumerate(row)]
                                       for i, row in enumerate(m.rows)]))


def preserves_edges_on_sample(m, cos_l, pairs):
    """Sampled l-isometry check: for each pair, being at distance l and the
    image being at distance l must agree (both ways, exactly)."""
    cos_l = as_dist_cos(cos_l)
    for p, q in pairs:
        before = dist_cos(p, q) == cos_l
        after = dist_cos(apply(m, p), apply(m, q)) == cos_l
        if before != after:
            return False
    return True


#: the bound on the legs of the triples of `_pythagorean_pairs`
_PYTHAGOREAN_BOUND = 40


def _pythagorean_pairs():
    """(a/h, b/h) for the Pythagorean triples a^2 + b^2 = h^2 with
    0 < a <= b < _PYTHAGOREAN_BOUND."""
    out = []
    for a in range(1, _PYTHAGOREAN_BOUND):
        for b in range(a, _PYTHAGOREAN_BOUND):
            h2 = a * a + b * b
            h = isqrt(h2)
            if h * h == h2:
                out.append((Fraction(a, h), Fraction(b, h)))
    return out


def random_rational_orthogonal(seed):
    """A pseudo-random rotation with rational entries: a composition of
    coordinate-axis rotations whose cosines come from Pythagorean triples."""
    rng = random.Random(seed)
    pairs = _pythagorean_pairs()
    m = identity()
    for e in rng.sample(_BASIS, 3):
        c, s = rng.choice(pairs)
        if rng.random() < 0.5:
            s = -s
        m = rotation_about(make_point(*e), c, s) @ m
    return m


def orthogonal_sending(p, q):
    """An orthogonal map carrying the projective point p to q.

    Uses the Householder reflection through the bisecting hyperplane of the
    two unit lifts (or the identity when they already agree).
    """
    x, y, _ = _lifts_nonneg(p, q)
    w = combo((1, -1), (x, y))
    n2 = dot(w, w)
    if n2.sign() == 0:
        return identity()
    # row i of I - 2 w w^T / <w, w> is e_i - (2 w_i / <w, w>) w
    f = div(-2, n2)
    rows = [combo((1, mul(f, wi)), (e, w)) for e, wi in zip(_BASIS, w)]
    m = LinearMap(rows)
    if apply(m, p) != q:
        raise InternalConsistencyError("reflection missed its target")
    return m


def matrix_to_json(m):
    return [[expr.to_expr(v) for v in row] for row in m.rows]


def matrix_from_json(rows):
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ParseError("a matrix is a JSON list of rows, each a list")
    return LinearMap([[expr.from_json(v) for v in row] for row in rows])
