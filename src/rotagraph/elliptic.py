"""Exact geometry of the projective plane with the elliptic metric.

Points are unit lifts in canonical form; distances are carried exclusively
as their cosines (values in [0, 1], 1 = coincident, 0 = maximally far),
so every predicate stays inside the algebraic field and no arccos is ever
taken.
"""

from fractions import Fraction
from functools import lru_cache

from . import algebraic
from .algebraic import (
    AlgReal, EQUAL, GREATER, LESS,
    add, as_algreal, chebyshev_T, compare, div, mul, neg, sqrt_nonneg, sub,
)
from .errors import (
    InfeasibleError,
    InternalConsistencyError,
    OutOfRangeError,
    PreconditionError,
    ZeroVectorError,
)

_ZERO = AlgReal(0)
_ONE = AlgReal(1)


class ProjPoint:
    """A point of the projective plane, held as a nonzero lift in K^3 with
    canonical sign (first nonzero coordinate positive).

    Normalisation to the exact unit lift is deferred until something needs
    it (distances, serialisation): constructions that chain many points stay
    much cheaper when intermediate lifts skip the square root.  Equality is
    projective (vanishing cross product), so it never triggers the sqrt.
    """

    __slots__ = ("_raw", "_unit")

    def __init__(self, lift, unit=False):
        self._raw = tuple(lift)
        self._unit = self._raw if unit else None

    @property
    def lift(self):
        """The canonical unit lift (computed on first use)."""
        if self._unit is None:
            v = self._raw
            n = sqrt_nonneg(_dot(v, v))
            self._unit = tuple(div(c, n) for c in v)
        return self._unit

    @property
    def raw_lift(self):
        """Some lift: unit when already known, otherwise as constructed."""
        return self._unit if self._unit is not None else self._raw

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        x, y = self.raw_lift, other.raw_lift
        return all(c.sign() == 0 for c in _cross(x, y))

    def __hash__(self):
        return hash(tuple(c.min_poly for c in self.lift))

    def __repr__(self):
        return "ProjPoint(%s)" % ", ".join("%.6g" % float(c) for c in self.raw_lift)


class DistCos:
    """An elliptic distance carried as its cosine, a value in [0, 1]."""

    __slots__ = ("value",)

    def __init__(self, value):
        value = as_algreal(value)
        if value.sign() < 0 or compare(value, _ONE) == GREATER:
            raise OutOfRangeError("distance cosine must lie in [0, 1]")
        self.value = value

    def __eq__(self, other):
        other = as_dist_cos(other)
        return compare(self.value, other.value) == EQUAL

    def __repr__(self):
        return f"DistCos(~{float(self.value):.6g})"


def as_dist_cos(v):
    return v if isinstance(v, DistCos) else DistCos(v)


def _dot(x, y):
    return add(add(mul(x[0], y[0]), mul(x[1], y[1])), mul(x[2], y[2]))


def _scale(v, s):
    return tuple(mul(c, s) for c in v)


def _vadd(x, y):
    return tuple(add(a, b) for a, b in zip(x, y))


def _vsub(x, y):
    return tuple(sub(a, b) for a, b in zip(x, y))


def _cross(x, y):
    return (
        sub(mul(x[1], y[2]), mul(x[2], y[1])),
        sub(mul(x[2], y[0]), mul(x[0], y[2])),
        sub(mul(x[0], y[1]), mul(x[1], y[0])),
    )


def _canonical_sign(v):
    for c in v:
        s = c.sign()
        if s < 0:
            return tuple(neg(x) for x in v)
        if s > 0:
            return v
    raise ZeroVectorError("zero vector has no projective class")


def _unit_canonical(v):
    """Wrap a lift already known to have exact norm 1."""
    return ProjPoint(_canonical_sign(v), unit=True)


def make_point(a, b, c):
    """The projective point spanned by (a, b, c) != 0.  Normalisation of
    the lift is deferred; rational lifts of exact norm 1 are recognised."""
    v = (as_algreal(a), as_algreal(b), as_algreal(c))
    if all(x.sign() == 0 for x in v):
        raise ZeroVectorError("zero vector has no projective class")
    v = _canonical_sign(v)
    if all(x.is_rational for x in v):
        n2 = _dot(v, v)
        if compare(n2, _ONE) == EQUAL:
            return ProjPoint(v, unit=True)
    return ProjPoint(v)


def dist_cos(p, q):
    """cos d(p, q) = |<lift p, lift q>|, exactly."""
    ip = _dot(p.lift, q.lift)
    if ip.sign() < 0:
        ip = neg(ip)
    return DistCos(ip)


def _lifts_nonneg(p, q):
    """Unit lifts x, y with <x, y> >= 0, plus the inner product."""
    x, y = p.lift, q.lift
    s = _dot(x, y)
    if s.sign() < 0:
        y = tuple(neg(c) for c in y)
        s = neg(s)
    return x, y, s


def _orthonormal_to(x, y=None):
    """A unit vector exactly orthogonal to x (and to y when given),
    via Gram-Schmidt from coordinate vectors."""
    basis = [(_ONE, _ZERO, _ZERO), (_ZERO, _ONE, _ZERO), (_ZERO, _ZERO, _ONE)]
    for e in basis:
        w = _vsub(e, _scale(x, _dot(e, x)))
        if y is not None:
            w = _vsub(w, _scale(y, _dot(e, y)))
        n2 = _dot(w, w)
        if n2.sign() > 0:
            return tuple(div(c, sqrt_nonneg(n2)) for c in w)
    raise InternalConsistencyError("no independent coordinate vector found")


def two_ball_feasible(p, q, cos_l):
    """Exact test for d(p, q) <= 2l', folding the elliptic wrap-around."""
    cos_l = as_dist_cos(cos_l)
    t2 = chebyshev_T(2, cos_l.value)
    if t2.sign() <= 0:  # 2l' >= pi/2: every elliptic distance qualifies
        return True
    return compare(dist_cos(p, q).value, t2) != LESS


def equidistant_point(p, q, cos_l):
    """A point at exact distance l' (given by its cosine) from both p and q.

    Solves the one-parameter quadratic for the lift x + y + lambda*z with z
    orthonormal to x and y, taking the non-negative lambda root.
    """
    cos_l = as_dist_cos(cos_l)
    c = cos_l.value
    if c.sign() <= 0 or compare(c, _ONE) != LESS:
        raise OutOfRangeError("equidistant radius cosine must lie in (0, 1)")
    if not two_ball_feasible(p, q, cos_l):
        raise InfeasibleError("points are farther apart than twice the radius")
    x, y, s = _lifts_nonneg(p, q)
    # with z unit and orthogonal to x, y:
    #   c^2 * (||x + y||^2 + lam^2) = <x, x + y>^2
    # and ||x + y||^2 = 2 + 2s, <x, x + y> = 1 + s, giving
    #   lam^2 = (1 + s) * (1 + s - 2c^2) / c^2
    one_plus_s = add(_ONE, s)
    lam2 = div(mul(one_plus_s, sub(one_plus_s, mul(2, mul(c, c)))), mul(c, c))
    if lam2.sign() < 0:
        raise InfeasibleError("equidistant quadratic has no real solution")
    lam = sqrt_nonneg(lam2)
    z = _orthonormal_to(x, _gram_schmidt_second(x, y, s))
    lift = _vadd(_vadd(x, y), _scale(z, lam))
    # ||lift|| = (1 + s)/c exactly, so scale instead of re-deriving the norm
    r = _unit_canonical(_scale(lift, div(c, one_plus_s)))
    return r


def _gram_schmidt_second(x, y, s):
    """Unit vector spanning the (x, y)-plane orthogonal to x, or None if
    p = q (then any vector orthogonal to x may serve as z)."""
    u = _vsub(y, _scale(x, s))
    n2 = _dot(u, u)
    if n2.sign() == 0:
        return None
    return tuple(div(c, sqrt_nonneg(n2)) for c in u)


def circle_intersect(p, cos_r1, q, cos_r2):
    """A point at exact distances r1 from p and r2 from q (cosines given).

    Generalises the equidistant construction to unequal radii: solve for the
    coefficients of the lift in the orthonormal frame (x, u, z) and take the
    non-negative z-component (one square root).
    """
    cos_r1, cos_r2 = as_dist_cos(cos_r1), as_dist_cos(cos_r2)
    x, y, s = _lifts_nonneg(p, q)
    u = _gram_schmidt_second(x, y, s)
    a = cos_r1.value
    if u is None:
        # p = q: consistent only if both radii agree
        if compare(a, cos_r2.value) != EQUAL:
            raise InfeasibleError("coincident centres with different radii")
        if compare(a, _ONE) == EQUAL:
            return ProjPoint(x)
        u = _orthonormal_to(x)
        b = sqrt_nonneg(sub(_ONE, mul(a, a)))
        return _unit_canonical(_vadd(_scale(x, a), _scale(u, b)))
    t = sqrt_nonneg(sub(_ONE, mul(s, s)))  # sin of the centre distance
    for b_target in (cos_r2.value, neg(cos_r2.value)):
        b = div(sub(b_target, mul(a, s)), t)
        disc = sub(sub(_ONE, mul(a, a)), mul(b, b))
        sign = disc.sign()
        if sign < 0:
            continue
        w = sqrt_nonneg(disc)
        z = _orthonormal_to(x, u)
        lift = _vadd(_vadd(_scale(x, a), _scale(u, b)), _scale(z, w))
        return _unit_canonical(lift)
    raise InfeasibleError("circles do not intersect")


def geodesic_step(p, q, cos_l):
    """The point at distance l from p on the geodesic toward q.

    Requires p != q and l <= d(p, q), i.e. cos l >= cos d exactly.
    """
    cos_l = as_dist_cos(cos_l)
    x, y, s = _lifts_nonneg(p, q)
    u = _gram_schmidt_second(x, y, s)
    if u is None:
        raise PreconditionError("geodesic step requires distinct points")
    if compare(cos_l.value, s) == LESS:
        raise PreconditionError("step longer than the remaining distance")
    sin_l = sqrt_nonneg(sub(_ONE, mul(cos_l.value, cos_l.value)))
    lift = _vadd(_scale(x, cos_l.value), _scale(u, sin_l))
    return _unit_canonical(lift)


def rotation_about(axis, cos_a, sin_a):
    """Rodrigues rotation about `axis` with exact (cos, sin) pair."""
    from .isometry import LinearMap  # local import: isometry builds on this module

    cos_a, sin_a = as_algreal(cos_a), as_algreal(sin_a)
    unit = add(mul(cos_a, cos_a), mul(sin_a, sin_a))
    if compare(unit, _ONE) != EQUAL:
        raise PreconditionError("cos^2 + sin^2 must equal 1 exactly")
    ax, ay, az = axis.lift
    k = ((_ZERO, neg(az), ay), (az, _ZERO, neg(ax)), (neg(ay), ax, _ZERO))
    one_minus = sub(_ONE, cos_a)
    rows = []
    a = (ax, ay, az)
    for i in range(3):
        row = []
        for j in range(3):
            v = mul(one_minus, mul(a[i], a[j]))
            v = add(v, mul(sin_a, k[i][j]))
            if i == j:
                v = add(v, cos_a)
            row.append(v)
        rows.append(tuple(row))
    return LinearMap(rows)


def apex_angle_cos(cos_l):
    """cos of the apex angle of the equilateral spherical triangle of side l:
    the spherical law of cosines gives cos a = cos l / (1 + cos l)."""
    cos_l = as_dist_cos(cos_l)
    c = cos_l.value
    if c.sign() <= 0 or compare(c, _ONE) != LESS:
        raise OutOfRangeError("side cosine must lie strictly in (0, 1)")
    return div(c, add(_ONE, c))


def ell_n_cos(cos_l, n):
    """cos of d(y, R^n y) for the canonical rotation ladder:
    cos l_n = |cos^2 l + sin^2 l * T_n(cos apex)|, folded into [0, 1]."""
    cos_l = as_dist_cos(cos_l)
    if n < 0:
        raise OutOfRangeError("ladder index must be non-negative")
    if n == 0:
        return DistCos(_ONE)
    c = cos_l.value
    c2 = mul(c, c)
    s2 = sub(_ONE, c2)
    t = chebyshev_T(n, apex_angle_cos(cos_l))
    v = add(c2, mul(s2, t))
    if v.sign() < 0:
        v = neg(v)
    return DistCos(v)


def _frame_chain(o, p, cos_l, cos_a, sin_a, n):
    """Points R^i p for the rotation about o by the apex angle, computed in
    the orthonormal frame (o, u, w) to keep intermediate degrees small."""
    c = cos_l.value
    sin_l = sqrt_nonneg(sub(_ONE, mul(c, c)))
    x = p.lift if compare(_dot(p.lift, o.lift), _ZERO) != LESS \
        else tuple(neg(v) for v in p.lift)
    u = tuple(div(sub(xi, mul(oi, c)), sin_l) for xi, oi in zip(x, o.lift))
    w = _cross(o.lift, u)
    chain = [ProjPoint(_canonical_sign(x))]
    ci, si = cos_a, sin_a
    for _ in range(n):
        lift = _vadd(_scale(o.lift, c),
                     _vadd(_scale(u, mul(sin_l, ci)), _scale(w, mul(sin_l, si))))
        chain.append(_unit_canonical(lift))
        ci, si = sub(mul(ci, cos_a), mul(si, sin_a)), \
            add(mul(si, cos_a), mul(ci, sin_a))
    return chain


def construct_ell_n_witness(p, q, cos_l, n):
    """Centre o and chain p = p_0, ..., p_n = q witnessing d(p, q) = l_n.

    Requires dist_cos(p, q) = ell_n_cos(cos_l, n) exactly.  The chain points
    are successive images of p under the rotation about o by the apex angle,
    with the orientation chosen so the chain lands on q.
    """
    cos_l = as_dist_cos(cos_l)
    if n < 1:
        raise OutOfRangeError("witness ladder needs n >= 1")
    target = ell_n_cos(cos_l, n)
    if dist_cos(p, q) != target:
        raise PreconditionError("points are not at distance l_n")
    o = circle_intersect(p, cos_l, q, cos_l)
    ca = apex_angle_cos(cos_l)
    sa = sqrt_nonneg(sub(_ONE, mul(ca, ca)))
    for sin_a in (sa, neg(sa)):
        chain = _frame_chain(o, p, cos_l, ca, sin_a, n)
        if chain[n] == q:
            return o, chain
    raise InternalConsistencyError("no rotation orientation reaches the target")


def verify_ell_n_witness(o, chain, cos_l):
    """Exact check of the witness conditions: every chain point at distance
    l from o, consecutive points at distance l, no immediate backtracking."""
    cos_l = as_dist_cos(cos_l)
    if not chain:
        raise PreconditionError("empty chain")
    for pt in chain:
        if dist_cos(pt, o) != cos_l:
            return False
    for a, b in zip(chain, chain[1:]):
        if dist_cos(a, b) != cos_l:
            return False
    for i in range(len(chain) - 2):
        if chain[i] == chain[i + 2]:
            return False
    return True


# -- serialisation and sampling helpers --------------------------------------

def point_to_json(p):
    from . import expr
    x, y, z = p.lift
    return {"x": expr.to_expr(x), "y": expr.to_expr(y), "z": expr.to_expr(z)}


def point_from_json(obj):
    from . import expr
    return make_point(expr.from_json(obj["x"]), expr.from_json(obj["y"]),
                      expr.from_json(obj["z"]))


@lru_cache(maxsize=1)
def _rational_unit_pool(bound=22):
    """Integer vectors (a, b, c) with a^2 + b^2 + c^2 a perfect square:
    they normalise to rational unit lifts, keeping downstream degrees low."""
    from math import isqrt
    out = []
    for a in range(bound):
        for b in range(a, bound):
            for c in range(b, bound):
                n2 = a * a + b * b + c * c
                if n2 == 0:
                    continue
                r = isqrt(n2)
                if r * r == n2:
                    out.append((a, b, c, r))
    return tuple(out)


def random_rational_point(rng):
    """A uniformly-ish random projective point with rational coordinates."""
    a, b, c, r = rng.choice(_rational_unit_pool())
    coords = [Fraction(a, r), Fraction(b, r), Fraction(c, r)]
    rng.shuffle(coords)
    coords = [v if rng.random() < 0.5 else -v for v in coords]
    return make_point(*coords)


def random_point_at_distance(rng, p, cos_l):
    """A random point at exact distance l from p (cosine given)."""
    cos_l = as_dist_cos(cos_l)
    for _ in range(100):
        q = random_rational_point(rng)
        x, y, s = _lifts_nonneg(p, q)
        u = _gram_schmidt_second(x, y, s)
        if u is None:
            continue
        sin_l = sqrt_nonneg(sub(_ONE, mul(cos_l.value, cos_l.value)))
        return _unit_canonical(_vadd(_scale(x, cos_l.value), _scale(u, sin_l)))
    raise InternalConsistencyError("failed to sample a distinct direction")
