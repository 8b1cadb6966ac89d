"""Exact geometry of the projective plane with the elliptic metric.

Points are unit lifts in canonical form; distances are carried exclusively
as their cosines (values in [0, 1], 1 = coincident, 0 = maximally far),
so every predicate stays inside the algebraic field and no arccos is ever
taken.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from . import expr
from .algebraic import (
    AlgReal, EQUAL, GREATER, LESS,
    add, as_algreal, chebyshev_T, combo, compare, div, dot, mul, neg, sqrt_nonneg, sub,
)
from .errors import (
    InfeasibleError,
    InternalConsistencyError,
    OutOfRangeError,
    ParseError,
    PreconditionError,
    ZeroVectorError,
    brief,
    extra_keys,
)

_ZERO = AlgReal(0)
_ONE = AlgReal(1)
_BASIS = ((_ONE, _ZERO, _ZERO), (_ZERO, _ONE, _ZERO), (_ZERO, _ZERO, _ONE))


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
            inv = div(_ONE, sqrt_nonneg(dot(v, v)))     # one inverse, three products
            self._unit = tuple(mul(c, inv) for c in v)
        return self._unit

    @property
    def raw_lift(self):
        """Some lift: unit when already known, otherwise as constructed."""
        return self._unit if self._unit is not None else self._raw

    def __eq__(self, other):
        if other is self:       # reflexive: no cross product to compute
            return True
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
        """Equal cosines; a number outside [0, 1] is simply unequal, and an
        operand as_algreal cannot read is left to its own __eq__."""
        try:
            other = as_algreal(other.value if isinstance(other, DistCos) else other)
        except (TypeError, ValueError):
            return NotImplemented
        return compare(self.value, other) == EQUAL

    def __hash__(self):
        """The hash of the cosine, so a DistCos hashes as the number it
        equals does."""
        return hash(self.value)

    def __repr__(self):
        return f"DistCos(~{float(self.value):.6g})"


def as_dist_cos(v):
    return v if isinstance(v, DistCos) else DistCos(v)


def _cross(x, y):
    """x X y = sum_i x_i * (e_i X y), one combination of the rows of the
    matrix of y X ., whose operands meet once."""
    y0, y1, y2 = y
    n0, n1, n2 = neg(y0), neg(y1), neg(y2)
    return combo(x, ((_ZERO, n2, y1), (y2, _ZERO, n0), (n1, y0, _ZERO)))


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
    v = _canonical_sign((as_algreal(a), as_algreal(b), as_algreal(c)))
    if all(x.is_rational for x in v):
        n2 = dot(v, v)
        if compare(n2, _ONE) == EQUAL:
            return ProjPoint(v, unit=True)
    return ProjPoint(v)


def dist_cos(p, q):
    """cos d(p, q) = |<lift p, lift q>|, exactly."""
    ip = dot(p.lift, q.lift)
    if ip.sign() < 0:
        ip = neg(ip)
    return DistCos(ip)


def _lifts_nonneg(p, q):
    """Unit lifts x, y with <x, y> >= 0, plus the inner product."""
    x, y = p.lift, q.lift
    s = dot(x, y)
    if s.sign() < 0:
        y = tuple(neg(c) for c in y)
        s = neg(s)
    return x, y, s


def _rotate(a, v, c, s):
    """Rodrigues: v turned about the unit axis a by the angle with cosine c
    and sine s, c*v + s*(a x v) + (1 - c)*<a, v>*a."""
    return combo((c, s, mul(sub(_ONE, c), dot(a, v))), (v, _cross(a, v), a))


def _along(x, y, s, c):
    """The unit vector at angle arccos c from x on the great circle through
    x and y, on y's side (x, y unit, s = <x, y> < 1): alpha*x + beta*y with
    <., x> = c and unit norm gives beta^2 = (1 - c^2)/(1 - s^2) and
    alpha = c - beta*s."""
    beta = sqrt_nonneg(div(sub(_ONE, mul(c, c)), sub(_ONE, mul(s, s))))
    return _unit_canonical(combo((sub(c, mul(beta, s)), beta), (x, y)))


def two_ball_feasible(p, q, cos_l):
    """Exact test for d(p, q) <= 2l', folding the elliptic wrap-around."""
    cos_l = as_dist_cos(cos_l)
    t2 = chebyshev_T(2, cos_l.value)
    if t2.sign() <= 0:  # 2l' >= pi/2: every elliptic distance qualifies
        return True
    return compare(dist_cos(p, q).value, t2) != LESS


def equidistant_point(p, q, cos_l):
    """A point at exact distance l' (given by its cosine) from both p and q:
    the circle intersection with equal radii, whose gamma^2 >= 0 test is
    two_ball_feasible: at b = a it reads 1 + s >= 2a^2, i.e. s >= T_2(a),
    and when that fails b = -a needs s <= -T_2(a) < 0 as well."""
    cos_l = as_dist_cos(cos_l)
    c = cos_l.value
    if c.sign() <= 0 or compare(c, _ONE) != LESS:
        raise OutOfRangeError("equidistant radius cosine must lie in (0, 1)")
    try:
        return circle_intersect(p, cos_l, q, cos_l)
    except InfeasibleError:
        raise InfeasibleError("points are farther apart than twice the radius") from None


def circle_intersect(p, cos_r1, q, cos_r2):
    """A point at exact distances r1 from p and r2 from q (cosines given).

    With unit lifts x, y, s = <x, y> >= 0 and n = x X y (canonical sign),
    the point is alpha*x + beta*y + gamma*n with <., x> = a = cos r1 and
    <., y> = b = +-cos r2: alpha = (a - b*s)/(1 - s^2),
    beta = (b - a*s)/(1 - s^2), and unit norm gives
    gamma^2 = (1 - alpha*a - beta*b)/(1 - s^2), taken >= 0 (one square root).
    """
    cos_r1, cos_r2 = as_dist_cos(cos_r1), as_dist_cos(cos_r2)
    x, y, s = _lifts_nonneg(p, q)
    a = cos_r1.value
    if compare(s, _ONE) == EQUAL:
        # p = q: consistent only if both radii agree
        if compare(a, cos_r2.value) != EQUAL:
            raise InfeasibleError("coincident centres with different radii")
        if compare(a, _ONE) == EQUAL:
            return p
        # along the great circle toward the first coordinate vector e not
        # parallel to x, with <x, e> = x_i
        e, xi = next((e, xi) for e, xi in zip(_BASIS, x)
                     if compare(mul(xi, xi), _ONE) == LESS)
        return _along(x, e, xi, a)
    inv = div(_ONE, sub(_ONE, mul(s, s)))     # 1/(1 - s^2), inverted once
    for b in (cos_r2.value, neg(cos_r2.value)):
        alpha = mul(sub(a, mul(b, s)), inv)
        beta = mul(sub(b, mul(a, s)), inv)
        gamma2 = mul(sub(_ONE, dot((alpha, beta), (a, b))), inv)
        if gamma2.sign() < 0:
            continue
        n = _canonical_sign(_cross(x, y))
        return _unit_canonical(combo((alpha, beta, sqrt_nonneg(gamma2)), (x, y, n)))
    raise InfeasibleError("circles do not intersect")


def geodesic_step(p, q, cos_l):
    """The point at distance l from p on the geodesic toward q.

    Requires p != q and l <= d(p, q), i.e. cos l >= cos d exactly.
    """
    cos_l = as_dist_cos(cos_l)
    x, y, s = _lifts_nonneg(p, q)
    if compare(s, _ONE) == EQUAL:
        raise PreconditionError("geodesic step requires distinct points")
    if compare(cos_l.value, s) == LESS:
        raise PreconditionError("step longer than the remaining distance")
    return _along(x, y, s, cos_l.value)


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
    t = chebyshev_T(n, apex_angle_cos(cos_l))
    v = dot((c, sub(_ONE, mul(c, c))), (c, t))
    if v.sign() < 0:
        v = neg(v)
    return DistCos(v)


def _frame_chain(o, p, cos_a, sin_a, n):
    """Points R^i p, i = 0..n, for the rotation R about o by the angle with
    (cos_a, sin_a), each rotated directly from p by the angle i*a to keep
    intermediate degrees small."""
    x = p.lift
    chain = [_unit_canonical(x)]
    ci, si = cos_a, sin_a
    neg_sin_a = neg(sin_a)
    for _ in range(n):
        chain.append(_unit_canonical(_rotate(o.lift, x, ci, si)))
        ci, si = dot((ci, si), (cos_a, neg_sin_a)), dot((si, ci), (cos_a, sin_a))
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
        chain = _frame_chain(o, p, ca, sin_a, n)
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
    x, y, z = p.lift
    return {"x": expr.to_expr(x), "y": expr.to_expr(y), "z": expr.to_expr(z)}


def point_from_json(obj):
    if not isinstance(obj, dict) or not {"x", "y", "z"} <= obj.keys():
        raise ParseError(f"a point needs keys x, y and z, got {brief(obj)}")
    if extra := extra_keys(obj, {"x", "y", "z"}):
        raise ParseError(f"a point has keys x, y and z only, not {extra}")
    return make_point(*(expr.from_json(obj[k]) for k in "xyz"))


#: the bound on the entries of the vectors of `_rational_unit_pool`
_UNIT_POOL_BOUND = 22


@lru_cache(maxsize=1)
def _rational_unit_pool():
    """Primitive integer vectors (a, b, c), a <= b <= c < _UNIT_POOL_BOUND,
    with a^2 + b^2 + c^2 a perfect square: they normalise to rational unit
    lifts, keeping downstream degrees low, and each names a different
    projective point."""
    out = []
    for a in range(_UNIT_POOL_BOUND):
        for b in range(a, _UNIT_POOL_BOUND):
            for c in range(b, _UNIT_POOL_BOUND):
                n2 = a * a + b * b + c * c
                r = isqrt(n2)
                if r * r == n2 and gcd(a, b, c) == 1:
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
        x, y, s = _lifts_nonneg(p, random_rational_point(rng))
        if compare(s, _ONE) != EQUAL:
            return _along(x, y, s, cos_l.value)
    raise InternalConsistencyError("failed to sample a distinct direction")
